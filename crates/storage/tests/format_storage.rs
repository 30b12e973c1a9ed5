//! Storage-level edge-table format coverage, one suite for both formats.
//!
//! Two formats exist — v1 (raw `u32`) and v3 (stream-vbyte groups). For the
//! compressed table: byte-identical reads vs v1 across the
//! uncached/cached/pooled open paths, an edge table that actually shrinks
//! and charges like a contiguous read, and damage surfacing as `Corrupt`,
//! never a panic. The one storage-level rewrite, the update-buffer flush,
//! writes v3 whatever it read. Under both encodings the packed node index
//! reads exactly like the legacy 12-byte entry table it replaced.

use std::path::{Path, PathBuf};

use graphstore::{
    write_mem_graph_with, AdjacencyRead, BufferedGraph, DiskGraph, FormatVersion, GraphPaths,
    IoCounter, MemGraph, NodeLayout, SharedPool, TempDir, DEFAULT_BLOCK_SIZE,
};

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

/// Lay `g` out under `dir` as `version`.
fn write(dir: &TempDir, g: &MemGraph, version: FormatVersion) -> PathBuf {
    let base = dir.path().join(version.tag());
    write_mem_graph_with(&base, g, IoCounter::new(DEFAULT_BLOCK_SIZE), version).unwrap();
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

    let version = FormatVersion::V3;
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

    let version = FormatVersion::V3;
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

#[test]
fn flush_writes_v3() {
    let g = chunky_graph(300);
    let mut views: Vec<Vec<Vec<u32>>> = Vec::new();
    for version in [FormatVersion::V1, FormatVersion::V3] {
        let dir = TempDir::new("fmt-flush").unwrap();
        let base = write(&dir, &g, version);
        let mut bg = BufferedGraph::new(open(&base), 4); // tiny capacity: force flushes
        assert_eq!(bg.disk().format_version(), version);
        bg.insert_edge(0, 9).unwrap();
        bg.delete_edge(0, 1).unwrap();
        bg.insert_edge(2, 17).unwrap();
        assert!(bg.flushes() > 0, "capacity 4 must have flushed");
        let want = FormatVersion::V3;
        assert_eq!(bg.disk().format_version(), want, "{}", version.tag());

        // The rewritten tables reopen as v3 and carry the merged view.
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
    assert_eq!(views[0], views[1], "v3 view diverged from v1");
}

#[test]
fn truncated_compressed_edge_table_is_corrupt() {
    let g = chunky_graph(300);
    let version = FormatVersion::V3;
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

/// `validate_sorted_run` is a constant-time last-element range check, so
/// *structural* damage must be caught by the codec itself: a v3 control
/// byte stamped `0xFF` claims four 4-byte gaps and runs the data cursor
/// past the payload.
#[test]
fn garbage_in_a_compressed_run_is_corrupt_not_a_panic() {
    let g = chunky_graph(300);
    let (version, stamp) = (FormatVersion::V3, 0xFFu8);
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

#[test]
fn mismatched_edge_magic_is_rejected_at_open() {
    let g = chunky_graph(50);
    let version = FormatVersion::V3;
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

// ---------------------------------------------------------------------------
// The exact-extent v3 read: the run's end is computed from its control
// region, blocks `offset / B ..= (end − 1) / B` are fetched and nothing
// past them, and the decoder sees one contiguous slice.
// ---------------------------------------------------------------------------

/// Block size of the placement fixture: small enough that hand-sized runs
/// land on, straddle and span block edges.
const EDGE_BLOCK: u64 = 64;

/// A strictly ascending list whose v3 encoding is exactly `len` bytes:
/// `k` ids three apart from 103 on (one data byte each) followed by
/// consecutive ids (zero data bytes each).
fn list_of_len(len: usize) -> Vec<u32> {
    let (d, k) = (1..=4 * len)
        .map(|d: usize| (d, len as i64 - d.div_ceil(4) as i64))
        .find(|&(d, k)| k >= 1 && k as usize <= d)
        .unwrap_or_else(|| panic!("no v3 list of {len} bytes"));
    let k = k as u32;
    let mut ids: Vec<u32> = (1..=k).map(|i| 100 + 3 * i).collect();
    ids.extend((1..=d as u32 - k).map(|i| 100 + 3 * k + i));
    ids
}

/// First node of the placement fixture with a non-empty list: the lists
/// themselves only name nodes below or far above the nine that carry them
/// (the writer rejects self-loops).
const PLACED: u32 = 40;

/// The placement fixture (edge-table byte ranges at 64 B blocks; the
/// table opens with its 8-byte magic):
///
/// | node        | bytes      | what it places                                    |
/// |-------------|------------|---------------------------------------------------|
/// | `PLACED`+1  | [19, 64)   | (a) a run ending on a block's last byte           |
/// | `PLACED`+3  | [122, 132) | (b) a control region straddling a block edge      |
/// | `PLACED`+5  | [184, 192) | (c) zero data bytes, control region ending a block |
/// | `PLACED`+6  | [192, 322) | (d) a run spanning three blocks                   |
/// | `PLACED`+8  | [384, 399) | (e) the file's last run, nothing after it         |
///
/// The even offsets are fillers, every other node is isolated; the lists
/// need not be symmetric — storage never looks. Returns the graph and the
/// edge-table byte range of `PLACED + i` at index `i`.
fn placement_fixture() -> (MemGraph, Vec<std::ops::Range<u64>>) {
    let placed = vec![
        list_of_len(11),
        list_of_len(45),
        list_of_len(58),
        (2..38).collect(), // 36 consecutive ids: 9 control bytes + 1
        list_of_len(52),
        (0..32).collect(), // from 0: 8 control bytes, no data at all
        list_of_len(130),
        list_of_len(62),
        list_of_len(15),
    ];
    let mut at = graphstore::format::EDGE_HEADER_LEN;
    let ranges: Vec<_> = placed
        .iter()
        .map(|list| {
            let mut bytes = Vec::new();
            graphstore::codec::encode_group_run(list, &mut bytes);
            let range = at..at + bytes.len() as u64;
            at = range.end;
            range
        })
        .collect();
    // The geometry the cases are named for.
    assert_eq!(ranges[1], 19..64, "(a)");
    assert_eq!(ranges[3], 122..132, "(b)");
    assert!(ranges[3].start + 9 > 128, "(b): control region crosses 128");
    assert_eq!(ranges[5], 184..192, "(c)");
    assert_eq!(ranges[6], 192..322, "(d)");
    assert_eq!(ranges[8], 384..399, "(e)");
    let mut adj = vec![Vec::new(); PLACED as usize];
    adj.extend(placed);
    adj.resize(600, Vec::new());
    (MemGraph::from_adjacency(adj), ranges)
}

/// Every way of opening the table: uncached / private cache / pooled with
/// a charge cache, each with readahead off and on.
fn placement_opens(base: &Path) -> Vec<(String, DiskGraph)> {
    let block = EDGE_BLOCK as usize;
    let budget = 16 * EDGE_BLOCK;
    let mut opens = Vec::new();
    for readahead in [false, true] {
        let pool = SharedPool::new(block, 64 * EDGE_BLOCK).unwrap();
        for (label, mut dg) in [
            (
                "uncached",
                DiskGraph::open(base, IoCounter::new(block)).unwrap(),
            ),
            (
                "cached",
                DiskGraph::open_with_cache(base, IoCounter::new(block), budget).unwrap(),
            ),
            (
                "pooled",
                DiskGraph::open_pooled(base, IoCounter::new(block), &pool, budget).unwrap(),
            ),
        ] {
            dg.set_readahead(readahead).unwrap();
            opens.push((format!("{label} readahead {readahead}"), dg));
        }
    }
    opens
}

#[test]
fn exact_extent_reads_touch_exactly_the_runs_blocks() {
    let (g, ranges) = placement_fixture();
    let dir = TempDir::new("fmt-extent").unwrap();
    let base = write(&dir, &g, FormatVersion::V3);
    let edge_len = std::fs::metadata(GraphPaths::from_base(&base).edges)
        .unwrap()
        .len();
    assert_eq!(edge_len, 399, "(e): nothing follows the last run");

    // One cold read of each placed run, through a fresh handle. Pinned:
    // (edge blocks charged, read bytes). Every read also charges the
    // blocks and bytes of the node-index group holding the placed nodes,
    // and two seeks (one per table).
    let meta = DiskGraph::open(&base, IoCounter::new(EDGE_BLOCK as usize))
        .unwrap()
        .meta();
    assert_eq!(PLACED / 64, (PLACED + 8) / 64, "one group holds every case");
    let (group_start, group_end) = meta.node_record_span(u64::from(PLACED / 64));
    let node_blocks = (group_end - 1) / EDGE_BLOCK - group_start / EDGE_BLOCK + 1;
    // 600 nodes of degree below 128 and group spans below 512 B:
    // 8 + 8·(7 + 9) bytes per group, over blocks 0, 1 and 2 after the
    // 40-byte header.
    assert_eq!((group_start, group_end, node_blocks), (40, 176, 3));
    let cases: [(u32, u64, &str); 5] = [
        (1, 1, "(a) ends on the block's last byte: block 1 untouched"),
        (3, 2, "(b) control region straddles: blocks 1 and 2"),
        (
            5,
            1,
            "(c) no data, control ends the block: block 3 untouched",
        ),
        (6, 3, "(d) blocks 3, 4 and 5"),
        (8, 1, "(e) the short tail block"),
    ];
    for (i, edge_blocks, what) in cases {
        let (v, range) = (PLACED + i, &ranges[i as usize]);
        assert_eq!(
            (range.end - 1) / EDGE_BLOCK - range.start / EDGE_BLOCK + 1,
            edge_blocks,
            "{what}"
        );
        for (label, mut dg) in placement_opens(&base) {
            let tag = format!("{what} / {label}");
            let got: Vec<u32> = dg.with_adjacency(v, |nbrs| nbrs.to_vec()).unwrap();
            assert_eq!(got, g.neighbors(v), "{tag}");
            let io = dg.io();
            assert_eq!(io.read_ios, node_blocks + edge_blocks, "{tag}");
            assert_eq!(
                io.read_bytes,
                (group_end - group_start) + (range.end - range.start),
                "{tag}"
            );
            assert_eq!(io.seeks, 2, "{tag}");
            // Blocks fetched == blocks charged: nothing beyond the run's
            // last byte entered a cache. Opening reads its header and magic
            // past the caches, so a pooled open's pool misses count too.
            assert_eq!(io.physical_reads, node_blocks + edge_blocks, "{tag}");
            if let Some(stats) = dg.cache_stats() {
                assert_eq!(stats.misses, node_blocks + edge_blocks, "{tag}");
            }
            // The copying accessor takes the same path and price; re-reading
            // a cached run is free, uncached it re-pays all but the block
            // the reader still holds.
            let mut buf = Vec::new();
            dg.adjacency(v, &mut buf).unwrap();
            assert_eq!(buf, g.neighbors(v), "{tag}");
            let again = dg.io().read_ios - io.read_ios;
            if label.starts_with("uncached") {
                // Edge: all but the block still held when the run sits in
                // one (a multi-block run ended elsewhere). Node: the group
                // is the one looked up last, so nothing is requested.
                assert_eq!(again, edge_blocks - u64::from(edge_blocks == 1), "{tag}");
            } else {
                assert_eq!(again, 0, "{tag}");
            }
        }
    }

    // A full ascending sweep: ids right, and priced as one sequential read
    // of both tables however the handle was opened.
    let node_len = std::fs::metadata(GraphPaths::from_base(&base).nodes)
        .unwrap()
        .len();
    for (label, mut dg) in placement_opens(&base) {
        for v in 0..g.num_nodes() {
            let got: Vec<u32> = dg.with_adjacency(v, |nbrs| nbrs.to_vec()).unwrap();
            assert_eq!(got, g.neighbors(v), "{label} node {v}");
        }
        let io = dg.io();
        // Node groups start after the header; edge runs after the magic.
        // Each group is requested once, as it is entered.
        let first_node_block = meta.node_record_span(0).0 / EDGE_BLOCK;
        let node_blocks = node_len.div_ceil(EDGE_BLOCK) - first_node_block;
        assert_eq!(
            io.read_ios,
            node_blocks + 399u64.div_ceil(EDGE_BLOCK),
            "{label}"
        );
        assert_eq!(node_len, 40 + 600u64.div_ceil(64) * 136, "{label}");
        assert_eq!(io.read_bytes, (node_len - 40) + (399 - 8), "{label}");
        // Empty lists read nothing, so the edge cursor never moves again.
        assert_eq!(io.seeks, 2, "{label}");
    }
}

#[test]
fn corrupt_extents_fail_closed() {
    let (g, ranges) = placement_fixture();
    // (past EOF) Stamp the last run's four control bytes 0xFF: fifteen
    // 4-byte values would need 64 bytes where 11 remain.
    // (overflow) Stamp the first control byte of the three-block run 0xFF
    // and its first eight data bytes 0xFF: the extent grows by twelve
    // bytes — still inside the file — and the second id is
    // u32::MAX + u32::MAX + 1.
    let past_eof = |bytes: &mut [u8]| {
        let at = ranges[8].start as usize;
        bytes[at..at + 4].fill(0xFF);
    };
    let overflow = |bytes: &mut [u8]| {
        let at = ranges[6].start as usize;
        let ctrl = graphstore::codec::group_ctrl_len(g.neighbors(PLACED + 6).len());
        bytes[at] = 0xFF;
        bytes[at + ctrl..at + ctrl + 8].fill(0xFF);
    };
    type Damage<'a> = &'a dyn Fn(&mut [u8]);
    let damages: [(&str, u32, Damage); 2] =
        [("past EOF", 8, &past_eof), ("overflow", 6, &overflow)];
    for (what, i, damage) in damages {
        let v = PLACED + i;
        let dir = TempDir::new("fmt-extent").unwrap();
        let base = write(&dir, &g, FormatVersion::V3);
        let edges = GraphPaths::from_base(&base).edges;
        let mut bytes = std::fs::read(&edges).unwrap();
        damage(&mut bytes);
        std::fs::write(&edges, &bytes).unwrap();
        for (label, mut dg) in placement_opens(&base) {
            let mut buf = Vec::new();
            let err = dg.adjacency(v, &mut buf).unwrap_err();
            assert!(err.is_corrupt(), "{what} / {label}: {err}");
            let err = dg.with_adjacency(v, |nbrs| nbrs.len()).unwrap_err();
            assert!(err.is_corrupt(), "{what} / {label} (borrowed): {err}");
            // The neighbours on disk are unharmed and still readable.
            dg.adjacency(v - 1, &mut buf).unwrap();
            assert_eq!(buf, g.neighbors(v - 1), "{what} / {label}");
        }
    }
}

/// The packed node index against the 12-byte entry table it replaced: on
/// seeded random graphs, in both edge encodings, every `node_entry` — in
/// an ascending sweep and in random order — every adjacency list and the
/// degree scan agree, and from one full group on the packed table is the
/// smaller.
#[test]
fn packed_index_reads_exactly_like_a_legacy_table() {
    let dir = TempDir::new("fmt-index").unwrap();
    let mut rng = testutil::Lcg::new(0x1DE);
    let node_len = |base: &Path| {
        std::fs::metadata(GraphPaths::from_base(base).nodes)
            .unwrap()
            .len()
    };
    for round in 0..8u32 {
        let g = testutil::random_mem_graph(&mut rng, 1 + 41 * round, 150, 2 + round);
        let n = g.num_nodes();
        for version in [FormatVersion::V1, FormatVersion::V3] {
            let packed = dir.path().join(format!("packed{round}{}", version.tag()));
            let legacy = dir.path().join(format!("legacy{round}{}", version.tag()));
            write_mem_graph_with(&packed, &g, IoCounter::new(DEFAULT_BLOCK_SIZE), version).unwrap();
            testutil::write_legacy_tables(&legacy, &g, version).unwrap();
            let (mut p, mut l) = (open(&packed), open(&legacy));
            let tag = format!("round {round} {} n={n}", version.tag());
            assert!(
                matches!(p.meta().layout, NodeLayout::Packed { .. }),
                "{tag}"
            );
            assert_eq!(l.meta().layout, NodeLayout::Entries, "{tag}");
            assert_eq!(p.format_version(), l.format_version(), "{tag}");
            assert_eq!(
                p.read_degrees().unwrap(),
                l.read_degrees().unwrap(),
                "{tag}"
            );
            assert_eq!(p.read_degrees().unwrap(), g.degrees(), "{tag}");
            let random: Vec<u32> = (0..2 * n).map(|_| rng.below(n)).collect();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for v in (0..n).chain(random) {
                assert_eq!(
                    p.node_entry(v).unwrap(),
                    l.node_entry(v).unwrap(),
                    "{tag} node {v}"
                );
                p.adjacency(v, &mut a).unwrap();
                l.adjacency(v, &mut b).unwrap();
                assert_eq!(a, b, "{tag} node {v}");
            }
            if n >= 64 {
                assert!(node_len(&packed) < node_len(&legacy), "{tag}");
            }
        }
    }
}

/// A packed header whose widths are impossible (0, or wider than a degree
/// or an offset), or whose widths do not match the table's length, and a
/// table cut or grown by a byte: each is refused at open with `Corrupt`.
#[test]
fn corrupt_node_index_headers_are_refused_at_open() {
    let g = chunky_graph(300);
    let dir = TempDir::new("fmt-index-corrupt").unwrap();
    let base = write(&dir, &g, FormatVersion::V3);
    let nodes = GraphPaths::from_base(&base).nodes;
    let good = std::fs::read(&nodes).unwrap();
    assert_eq!(&good[..8], graphstore::format::NODE_INDEX_MAGIC);
    let (dw, ow) = (good[12], good[13]);
    let mut damaged: Vec<(String, Vec<u8>)> = Vec::new();
    for (at, width) in [
        (12, 0),
        (12, 33),
        (13, 0),
        (13, 65),
        (12, dw + 1),
        (13, ow - 1),
    ] {
        let mut bytes = good.clone();
        bytes[at] = width;
        damaged.push((format!("byte {at} = {width}"), bytes));
    }
    damaged.push(("one byte short".into(), good[..good.len() - 1].to_vec()));
    damaged.push(("one byte long".into(), [&good[..], &[0]].concat()));
    for (what, bytes) in damaged {
        std::fs::write(&nodes, &bytes).unwrap();
        let err = DiskGraph::open(&base, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap_err();
        assert!(err.is_corrupt(), "{what}: {err}");
    }
    std::fs::write(&nodes, &good).unwrap();
    assert_eq!(open(&base).read_degrees().unwrap(), g.degrees());
}
