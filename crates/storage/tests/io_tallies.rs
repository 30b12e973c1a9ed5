//! `IoCounter` against a reference model of its charging rules.
//!
//! `read_bytes` and `seeks` are tallied per [`BlockReader`] and only summed
//! when a snapshot is taken (a request served from memory executes no
//! locked add). That must be invisible: after **every** request of a mixed
//! stream over uncached, cached and pooled (charge-cache) readers sharing
//! one counter, `snapshot()` has to equal what one set of shared counters
//! charged request by request would hold — also across a reader dropping
//! mid-stream, a `reset()` with readers alive (what opening a graph does)
//! and eight graph handles on one counter scanning on eight threads.

use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};

use graphstore::io::{BlockReader, BlockWriter};
use graphstore::{
    write_mem_graph_with, BlockCache, DiskGraph, FormatVersion, IoCounter, IoSnapshot, TempDir,
};
use testutil::Lcg;

const BLOCK: usize = 512;
const FILE_LEN: u64 = 96 * 1024 + 77;

type Pool = Arc<Mutex<BlockCache>>;

fn misses(pool: &Pool) -> u64 {
    pool.lock().unwrap().stats().misses
}

/// How a modelled reader is charged for the blocks of a request.
enum Mode {
    /// Every block of the span, minus the one still buffered.
    Uncached { last_block: Option<u64> },
    /// One read I/O (and one physical read) per miss of `pool`.
    Cached { pool: Pool },
    /// A physical read per miss of `pool`, a read I/O per miss of `ghost`.
    Pooled { pool: Pool, ghost: Pool },
}

/// A live reader beside the model's copy of its per-reader state.
struct Modelled {
    reader: BlockReader,
    prev_end: u64,
    mode: Mode,
}

impl Modelled {
    fn open(path: &Path, counter: &Arc<IoCounter>, mode: Mode, file_id: u32) -> Modelled {
        let reader = match &mode {
            Mode::Uncached { .. } => BlockReader::open(path, counter.clone()),
            Mode::Cached { pool } => BlockReader::open_cached_with_charge(
                path,
                counter.clone(),
                pool.clone(),
                file_id,
                None,
            ),
            Mode::Pooled { pool, ghost } => BlockReader::open_cached_with_charge(
                path,
                counter.clone(),
                pool.clone(),
                file_id,
                Some((ghost.clone(), file_id)),
            ),
        }
        .unwrap();
        Modelled {
            reader,
            prev_end: 0,
            mode,
        }
    }

    /// Issue one request and charge `model` for it by the shared-counter
    /// rule: a seek unless it continues the reader's previous request, the
    /// bytes delivered, and the blocks as this reader's mode prices them.
    fn read(&mut self, offset: u64, len: usize, model: &mut IoSnapshot) {
        let before = match &self.mode {
            Mode::Uncached { .. } => (0, 0),
            Mode::Cached { pool } => (misses(pool), 0),
            Mode::Pooled { pool, ghost } => (misses(pool), misses(ghost)),
        };
        let mut buf = vec![0u8; len];
        self.reader.read_exact_at(offset, &mut buf).unwrap();
        for (i, &byte) in buf.iter().enumerate() {
            assert_eq!(
                byte,
                pattern(offset + i as u64),
                "byte {i} of {offset}+{len}"
            );
        }
        let end = offset + len as u64;
        model.seeks += u64::from(offset != self.prev_end);
        model.read_bytes += len as u64;
        self.prev_end = end;
        match &mut self.mode {
            Mode::Uncached { last_block } => {
                let b = BLOCK as u64;
                let (first, last) = (offset / b, (end - 1) / b);
                let charged = last - first + 1 - u64::from(*last_block == Some(first));
                model.read_ios += charged;
                model.physical_reads += charged;
                *last_block = Some(last);
            }
            Mode::Cached { pool } => {
                model.read_ios += misses(pool) - before.0;
                model.physical_reads += misses(pool) - before.0;
            }
            Mode::Pooled { pool, ghost } => {
                model.physical_reads += misses(pool) - before.0;
                model.read_ios += misses(ghost) - before.1;
            }
        }
    }
}

fn pattern(at: u64) -> u8 {
    (at % 251) as u8 ^ (at >> 9) as u8
}

fn small_pool(frames: u64) -> Pool {
    BlockCache::shared(BLOCK, frames * BLOCK as u64, 1).unwrap()
}

#[test]
fn snapshot_after_every_request_equals_the_shared_counter_model() {
    let dir = TempDir::new("tallies").unwrap();
    let path = dir.path().join("data.bin");
    std::fs::write(&path, (0..FILE_LEN).map(pattern).collect::<Vec<u8>>()).unwrap();

    let counter = IoCounter::new(BLOCK);
    // Pools far smaller than the file, so misses and evictions keep coming.
    let (private, shared, ghost) = (small_pool(8), small_pool(5), small_pool(12));
    let cached = |file_id| {
        let pool = private.clone();
        Modelled::open(&path, &counter, Mode::Cached { pool }, file_id)
    };
    let mut readers: Vec<Option<Modelled>> = vec![
        Some(Modelled::open(
            &path,
            &counter,
            Mode::Uncached { last_block: None },
            0,
        )),
        Some(cached(0)),
        Some(Modelled::open(
            &path,
            &counter,
            Mode::Pooled {
                pool: shared.clone(),
                ghost: ghost.clone(),
            },
            3,
        )),
    ];
    let mut writer = BlockWriter::create(&dir.path().join("out.bin"), counter.clone()).unwrap();

    let mut model = IoSnapshot::default();
    let mut rng = Lcg::new(0x7A11);
    for step in 0..900 {
        match step {
            // The cached reader leaves mid-stream: its share must move
            // into the shared totals, not vanish or count twice.
            300 => readers[1] = None,
            // A fresh reader registers under the same counter (and shares
            // the pool its predecessor warmed).
            450 => readers[1] = Some(cached(0)),
            // `open_with_binding` resets the counter with both of its
            // readers alive; their per-reader state (position, buffered
            // block) survives, their charges do not.
            600 => {
                counter.reset();
                model = IoSnapshot::default();
            }
            _ => {}
        }
        if step % 9 == 4 {
            let len = 1 + rng.below(1500) as u64;
            let (at, b) = (writer.position(), BLOCK as u64);
            writer.write_all(&vec![0xAB; len as usize]).unwrap();
            model.write_bytes += len;
            model.write_ios += (at + len - 1) / b - at / b + u64::from(at % b == 0);
        } else {
            let live: Vec<usize> = (0..readers.len())
                .filter(|&i| readers[i].is_some())
                .collect();
            let r = readers[live[rng.below(live.len() as u32) as usize]]
                .as_mut()
                .unwrap();
            // A third of the requests continue where the reader stopped
            // (no seek); lengths reach across several blocks.
            let len = 1 + rng.below(3 * BLOCK as u32 + 40) as u64;
            let mut offset = rng.below((FILE_LEN - len) as u32) as u64;
            if rng.below(3) == 0 && r.prev_end + len <= FILE_LEN {
                offset = r.prev_end;
            }
            r.read(offset, len as usize, &mut model);
        }
        assert_eq!(counter.snapshot(), model, "after step {step}");
    }
    assert!(model.seeks > 100 && model.read_ios > 100 && model.write_ios > 10);
    // Dropping every reader folds every share in: nothing moves.
    readers.clear();
    assert_eq!(counter.snapshot(), model);
}

#[test]
fn eight_handles_on_eight_threads_sum_exactly() {
    const THREADS: usize = 8;
    let mut rng = Lcg::new(41);
    let g = testutil::random_mem_graph(&mut rng, 3000, 1, 7);
    let dir = TempDir::new("tallies").unwrap();
    let base = dir.path().join("g");
    write_mem_graph_with(&base, &g, IoCounter::new(BLOCK), FormatVersion::V3).unwrap();
    // A budget holding the whole graph: each handle's own cache misses
    // every distinct block once.
    let budget = graphstore::working_set_charge_budget(&base, BLOCK).unwrap();

    let sweep = |dg: &mut DiskGraph| {
        for v in 0..dg.num_nodes() {
            let want = g.neighbors(v);
            dg.with_adjacency(v, |nbrs| assert_eq!(nbrs, want)).unwrap();
        }
    };
    let solo_counter = IoCounter::new(BLOCK);
    let mut solo = DiskGraph::open_with_cache(&base, solo_counter.clone(), budget).unwrap();
    sweep(&mut solo);
    let one = solo_counter.snapshot();
    assert!(one.seeks > 0 && one.read_bytes > 0);

    // Every open resets the counter, with the handles opened before it
    // alive; the sweeps start after the last one.
    let counter = IoCounter::new(BLOCK);
    let handles: Vec<DiskGraph> = (0..THREADS)
        .map(|_| DiskGraph::open_with_cache(&base, counter.clone(), budget).unwrap())
        .collect();
    let start = Barrier::new(THREADS);
    let live = std::thread::scope(|scope| {
        let workers: Vec<_> = handles
            .into_iter()
            .map(|mut handle| {
                let (sweep, start) = (&sweep, &start);
                scope.spawn(move || {
                    start.wait();
                    sweep(&mut handle);
                    handle
                })
            })
            .collect();
        let handles: Vec<DiskGraph> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        // All eight readers still alive: the snapshot sums their tallies.
        let live = counter.snapshot();
        drop(handles);
        live
    });
    let t = THREADS as u64;
    let expected = IoSnapshot {
        read_ios: one.read_ios * t,
        physical_reads: one.physical_reads * t,
        read_bytes: one.read_bytes * t,
        seeks: one.seeks * t,
        ..one
    };
    assert_eq!(live, expected, "with the handles alive");
    assert_eq!(counter.snapshot(), expected, "after they folded in");
}

/// One table reader under the `Mode::Uncached` rule: a seek unless the
/// request starts where the previous one ended, and every block of the span
/// but the one the previous request ended in.
#[derive(Default)]
struct SpanRule {
    prev_end: Option<u64>,
    last_block: Option<u64>,
}

impl SpanRule {
    fn request(&mut self, offset: u64, end: u64, block: u64, model: &mut IoSnapshot) {
        let (first, last) = (offset / block, (end - 1) / block);
        let charged = last - first + 1 - u64::from(self.last_block == Some(first));
        model.seeks += u64::from(self.prev_end != Some(offset));
        model.read_bytes += end - offset;
        model.read_ios += charged;
        model.physical_reads += charged;
        self.prev_end = Some(end);
        self.last_block = Some(last);
    }
}

/// The uncached rule one layer up: an unattached `DiskGraph` driven
/// through `read_degrees`, `adjacency` and `with_adjacency` charges, call
/// by call, exactly the span rule applied to the node-entry read and to
/// the run's extent (from the node's offset to the next non-empty node's).
/// Block sizes small enough that entries and runs straddle blocks, over
/// raw and stream-vbyte tables, with random jumps between sequential runs.
#[test]
fn uncached_disk_graph_calls_charge_the_span_rule() {
    let mut rng = Lcg::new(0x5A4);
    let n = 400u32;
    // Every seventh node isolated (an empty run the extent skips), one hub
    // whose run spans many blocks, and a random sprinkle in between.
    let isolated = |v: u32| v % 7 == 3;
    let mut edges: Vec<(u32, u32)> = testutil::random_edges(&mut rng, n, 3 * n);
    edges.extend((1..n).step_by(2).map(|v| (0, v)));
    edges.retain(|&(a, b)| !isolated(a) && !isolated(b));
    let g = graphstore::MemGraph::from_edges(edges, n);
    let dir = TempDir::new("tallies-graph").unwrap();
    for version in [FormatVersion::V1, FormatVersion::V3] {
        let base = dir.path().join(version.tag());
        write_mem_graph_with(&base, &g, IoCounter::new(BLOCK), version).unwrap();
        // Extents come from an unmeasured handle.
        let mut oracle = DiskGraph::open(&base, IoCounter::new(BLOCK)).unwrap();
        let meta = oracle.meta();
        let entries: Vec<(u64, u32)> = (0..n).map(|v| oracle.node_entry(v).unwrap()).collect();
        let run_end = |v: usize| {
            entries[v + 1..]
                .iter()
                .find(|&&(_, d)| d > 0)
                .map_or(meta.edge_file_len(), |&(o, _)| o)
        };
        for block in [13u64, 64, 100] {
            let counter = IoCounter::new(block as usize);
            let mut dg = DiskGraph::open(&base, counter.clone()).unwrap();
            let (mut nodes, mut edge_rule) = (SpanRule::default(), SpanRule::default());
            let mut model = IoSnapshot::default();
            let mut buf = Vec::new();
            let mut v = 0u32;
            for step in 0..600 {
                let entry_at = |v: u32| meta.node_entry_offset(v);
                if step % 50 == 7 {
                    // One request for the whole table (n is below the
                    // 4096-entry chunk).
                    let degrees = dg.read_degrees().unwrap();
                    assert_eq!(degrees, g.degrees());
                    nodes.request(entry_at(0), entry_at(n), block, &mut model);
                } else {
                    v = if rng.below(2) == 0 {
                        rng.below(n)
                    } else {
                        (v + 1) % n
                    };
                    if step % 2 == 0 {
                        dg.adjacency(v, &mut buf).unwrap();
                    } else {
                        dg.with_adjacency(v, |nbrs| buf = nbrs.to_vec()).unwrap();
                    }
                    assert_eq!(buf, g.neighbors(v), "{version:?} node {v}");
                    let at = entry_at(v);
                    nodes.request(
                        at,
                        at + graphstore::format::NODE_ENTRY_LEN,
                        block,
                        &mut model,
                    );
                    if entries[v as usize].1 > 0 {
                        let end = run_end(v as usize);
                        edge_rule.request(entries[v as usize].0, end, block, &mut model);
                    }
                }
                assert_eq!(
                    counter.snapshot(),
                    model,
                    "{version:?} B={block} step {step}"
                );
            }
            assert!(model.read_ios > 300 && model.seeks > 300, "{model:?}");
        }
    }
}
