//! Storage-level edge-table format coverage, one suite for every format.
//!
//! Two formats are written — v1 (raw `u32`) and v3 (stream-vbyte groups) —
//! and one more is only read: legacy v2 (gap varints), fed here by a
//! hand-built fixture because no writer emits it. For every compressed
//! table: byte-identical reads vs v1 across the uncached/cached/pooled open
//! paths, an edge table that actually shrinks and charges like a contiguous
//! read, and damage surfacing as `Corrupt`, never a panic. The write rule
//! ([`FormatVersion::write_format`]) is pinned at the one storage-level
//! rewrite, the update-buffer flush: v1 and v3 keep their encoding, a v2
//! graph comes back as v3.

use std::path::{Path, PathBuf};

use graphstore::{
    write_mem_graph_with, AdjacencyRead, BufferedGraph, DiskGraph, FormatVersion, GraphPaths,
    IoCounter, MemGraph, SharedPool, TempDir, DEFAULT_BLOCK_SIZE,
};
use testutil::write_v2_fixture;

const COMPRESSED: [FormatVersion; 2] = [FormatVersion::V2, FormatVersion::V3];

/// Clustered lists (consecutive ids — v3's zero-byte code) interleaved with
/// wide gaps, spanning several 512 B blocks.
fn chunky_graph(n: u32) -> MemGraph {
    let edges = (0..n).flat_map(|i| {
        [
            (i, (i + 1) % n),
            (i, (i + 2) % n),
            (i, (i + 3) % n),
            (i, (i * 13 + 3) % n),
            (i, (i + n / 2) % n),
        ]
    });
    MemGraph::from_edges(edges, n)
}

/// Lay `g` out under `dir` as `version`: through the product writer for the
/// two writable formats, through the hand-built fixture for legacy v2.
fn write(dir: &TempDir, g: &MemGraph, version: FormatVersion) -> PathBuf {
    let base = dir.path().join(version.tag());
    if version == FormatVersion::V2 {
        write_v2_fixture(&base, g);
    } else {
        write_mem_graph_with(&base, g, IoCounter::new(DEFAULT_BLOCK_SIZE), version).unwrap();
    }
    base
}

fn open(base: &Path) -> DiskGraph {
    DiskGraph::open(base, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap()
}

#[test]
fn compressed_reads_are_bit_identical_to_v1_across_open_paths() {
    let g = chunky_graph(700);
    let dir = TempDir::new("fmt").unwrap();
    let block = 512usize;
    let mut reference =
        DiskGraph::open(&write(&dir, &g, FormatVersion::V1), IoCounter::new(block)).unwrap();
    assert_eq!(reference.format_version(), FormatVersion::V1);

    for version in COMPRESSED {
        let base = write(&dir, &g, version);
        let pool = SharedPool::new(block, 64 * block as u64).unwrap();
        let budget = 16 * block as u64;
        let mut opens: Vec<(&str, DiskGraph)> = vec![
            (
                "uncached",
                DiskGraph::open(&base, IoCounter::new(block)).unwrap(),
            ),
            (
                "cached",
                DiskGraph::open_with_cache(&base, IoCounter::new(block), budget).unwrap(),
            ),
            (
                "pooled",
                DiskGraph::open_pooled(&base, IoCounter::new(block), &pool, budget).unwrap(),
            ),
        ];
        let mut want = Vec::new();
        let mut got = Vec::new();
        for v in 0..g.num_nodes() {
            reference.adjacency(v, &mut want).unwrap();
            assert_eq!(want.as_slice(), g.neighbors(v));
            for (label, dg) in opens.iter_mut() {
                let tag = format!("{} {label} node {v}", version.tag());
                assert_eq!(dg.format_version(), version);
                dg.adjacency(v, &mut got).unwrap();
                assert_eq!(got, want, "{tag}");
                let borrowed: Vec<u32> = dg.with_adjacency(v, |nbrs| nbrs.to_vec()).unwrap();
                assert_eq!(borrowed, want, "{tag} (borrowed)");
            }
        }
        for (_, dg) in &mut opens {
            assert_eq!(dg.read_degrees().unwrap(), g.degrees());
        }
    }
}

#[test]
fn compressed_edge_table_is_smaller_and_charges_fewer_scan_ios() {
    let g = chunky_graph(4000);
    let dir = TempDir::new("fmt").unwrap();
    let edge_len = |base: &Path| {
        std::fs::metadata(GraphPaths::from_base(base).edges)
            .unwrap()
            .len()
    };
    // A full ascending sweep at a block size the lists straddle.
    let sweep = |base: &Path| {
        let counter = IoCounter::new(512);
        let mut dg = DiskGraph::open(base, counter.clone()).unwrap();
        let mut buf = Vec::new();
        for v in 0..dg.num_nodes() {
            dg.adjacency(v, &mut buf).unwrap();
        }
        counter.snapshot()
    };
    let b1 = write(&dir, &g, FormatVersion::V1);
    let (e1, s1) = (edge_len(&b1), sweep(&b1));

    for version in COMPRESSED {
        let tag = version.tag();
        let base = write(&dir, &g, version);
        let (e, s) = (edge_len(&base), sweep(&base));
        assert!(
            (e as f64) < 0.75 * e1 as f64,
            "{tag} edge table must compress: v1 {e1} B vs {e} B"
        );
        assert!(
            s.read_ios < s1.read_ios,
            "{tag} sweep charged {} vs v1 {}",
            s.read_ios,
            s1.read_ios
        );
        // The decode path must account like an exact-length contiguous
        // read: consecutive lists are contiguous on disk, so a sweep
        // charges the same (tiny) seek count in any format, and the logical
        // read bytes shrink with the encoding instead of being billed per
        // touched block.
        assert_eq!(s.seeks, s1.seeks, "{tag}: spurious per-list seeks");
        assert!(
            s.read_bytes < s1.read_bytes,
            "{tag} sweep read {} logical bytes vs v1 {}",
            s.read_bytes,
            s1.read_bytes
        );
    }
}

#[test]
fn flush_keeps_v1_and_v3_and_upgrades_legacy_v2_to_v3() {
    let g = chunky_graph(300);
    let mut views: Vec<Vec<Vec<u32>>> = Vec::new();
    for version in [FormatVersion::V1, FormatVersion::V2, FormatVersion::V3] {
        let dir = TempDir::new("fmt-flush").unwrap();
        let base = write(&dir, &g, version);
        let mut bg = BufferedGraph::new(open(&base), 4); // tiny capacity: force flushes
        assert_eq!(bg.disk().format_version(), version);
        bg.insert_edge(0, 9).unwrap();
        bg.delete_edge(0, 1).unwrap();
        bg.insert_edge(2, 17).unwrap();
        assert!(bg.flushes() > 0, "capacity 4 must have flushed");
        let want = version.write_format();
        assert_eq!(bg.disk().format_version(), want, "{}", version.tag());

        // The rewritten tables reopen in the write format and carry the
        // merged view.
        let mut reopened = open(&base);
        assert_eq!(reopened.format_version(), want, "{}", version.tag());
        let nbrs: Vec<u32> = reopened.with_adjacency(0, |n| n.to_vec()).unwrap();
        assert!(nbrs.contains(&9) && !nbrs.contains(&1));
        let mut buf = Vec::new();
        views.push(
            (0..g.num_nodes())
                .map(|v| {
                    bg.adjacency(v, &mut buf).unwrap();
                    buf.clone()
                })
                .collect(),
        );
    }
    assert_eq!(views[0], views[1], "v2-upgraded view diverged from v1");
    assert_eq!(views[0], views[2], "v3 view diverged from v1");
}

#[test]
fn truncated_compressed_edge_table_is_corrupt() {
    let g = chunky_graph(300);
    for version in COMPRESSED {
        let dir = TempDir::new("fmt").unwrap();
        let base = write(&dir, &g, version);
        let paths = GraphPaths::from_base(&base);
        let len = std::fs::metadata(&paths.edges).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&paths.edges)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        // The header-recorded payload length no longer matches the file.
        assert!(
            DiskGraph::open(&base, IoCounter::new(DEFAULT_BLOCK_SIZE))
                .unwrap_err()
                .is_corrupt(),
            "{}",
            version.tag()
        );
    }
}

/// `validate_sorted_run` is a constant-time last-element range check, so
/// *structural* damage must be caught by the codecs themselves: a v3
/// control byte stamped `0xFF` claims four 4-byte gaps and runs the data
/// cursor past the payload; v2 continuation-bit garbage is an overlong
/// varint; a zeroed v2 varint is a zero gap — a duplicate neighbour.
#[test]
fn garbage_in_a_compressed_run_is_corrupt_not_a_panic() {
    let g = chunky_graph(300);
    for (version, stamp) in [
        (FormatVersion::V3, 0xFFu8),
        (FormatVersion::V2, 0x80),
        (FormatVersion::V2, 0x00),
    ] {
        let dir = TempDir::new("fmt").unwrap();
        let base = write(&dir, &g, version);
        let paths = GraphPaths::from_base(&base);
        let mut bytes = std::fs::read(&paths.edges).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid..mid + 16].fill(stamp);
        std::fs::write(&paths.edges, &bytes).unwrap();
        let mut dg = open(&base);
        let mut buf = Vec::new();
        let err = (0..dg.num_nodes()).find_map(|v| dg.adjacency(v, &mut buf).err());
        let err = err.unwrap_or_else(|| panic!("{} / {stamp:#x}: no error", version.tag()));
        assert!(err.is_corrupt(), "{} / {stamp:#x}: {err}", version.tag());
    }
}

#[test]
fn mismatched_edge_magic_is_rejected_at_open() {
    let g = chunky_graph(50);
    for version in COMPRESSED {
        let dir = TempDir::new("fmt").unwrap();
        let base = write(&dir, &g, version);
        // A v1 edge table renamed under a compressed node table: lengths
        // would differ too, but the magic check must fire first — craft the
        // magic-only corruption directly.
        let edges = GraphPaths::from_base(&base).edges;
        let mut bytes = std::fs::read(&edges).unwrap();
        bytes[7] = b'1'; // KCOREDGn -> KCOREDG1
        std::fs::write(&edges, &bytes).unwrap();
        let err = DiskGraph::open(&base, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap_err();
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("magic"), "{err}");
    }
}
