//! Property tests for the block cache's multi-file invariants — the
//! guarantees the process-wide [`SharedPool`] leans on when many graphs
//! share one frame store:
//!
//! * `resident_bytes ≤ budget` after **every** step of an adversarial
//!   get/invalidate/clear sequence;
//! * `invalidate_file` leaves zero frames for that file id, and only that
//!   file id;
//! * a [`SharedPool`] lease teardown mid-traffic behaves like an
//!   invalidation of exactly the leased ids;
//! * eight graphs reading through one [`SharedPool`] on eight threads get
//!   every byte right while the pool thrashes.

use graphstore::{mem_to_disk, BlockCache, DiskGraph, IoCounter, SharedPool, TempDir};
use proptest::prelude::*;
use testutil::Lcg;

/// One adversarial cache operation over a small universe of files/blocks.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Request `(file, block)`, loading `len` bytes on miss.
    Get(u32, u64, usize),
    /// Drop every frame of `file`.
    InvalidateFile(u32),
    /// Drop everything.
    Clear,
}

const BLOCK: usize = 16;
const FILES: u32 = 4;
const BLOCKS_PER_FILE: u64 = 12;

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted by construction: most steps are gets, with invalidations and
    // the occasional clear mixed in (`sel` folds the weights in).
    (
        0u32..10,
        0u32..FILES,
        0u64..BLOCKS_PER_FILE,
        1usize..BLOCK + 1,
    )
        .prop_map(|(sel, file, block, len)| match sel {
            0..=6 => Op::Get(file, block, len),
            7 | 8 => Op::InvalidateFile(file),
            _ => Op::Clear,
        })
}

fn check_invariants(cache: &BlockCache, budget_bytes: u64, step: usize) {
    assert!(
        cache.resident_bytes() <= budget_bytes,
        "step {step}: resident {} B over the {budget_bytes} B budget",
        cache.resident_bytes()
    );
    assert!(
        cache.resident_frames() <= cache.capacity_frames(),
        "step {step}: {} frames over the {}-frame capacity",
        cache.resident_frames(),
        cache.capacity_frames()
    );
}

fn apply(cache: &mut BlockCache, op: Op) {
    match op {
        Op::Get(file, block, len) => {
            let (data, _missed) = cache
                .get_or_load(file, block, len, |buf| {
                    // Stamp the bytes so later hits can prove integrity.
                    buf.fill(stamp(file, block));
                    Ok(())
                })
                .unwrap();
            assert!(
                data.iter().all(|&b| b == stamp(file, block)),
                "frame for ({file}, {block}) holds another block's bytes"
            );
        }
        Op::InvalidateFile(file) => {
            cache.invalidate_file(file);
            assert!(
                cache.resident_keys().iter().all(|&(f, _)| f != file),
                "invalidate_file({file}) left frames behind"
            );
        }
        Op::Clear => {
            cache.clear();
            assert_eq!(cache.resident_frames(), 0);
        }
    }
}

fn stamp(file: u32, block: u64) -> u8 {
    (file as u64 * 31 + block * 7) as u8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn budget_and_invalidation_hold_at_every_step(
        ops in proptest::collection::vec(arb_op(), 1usize..120),
        frames in 1u64..8,
    ) {
        let budget = frames * BLOCK as u64;
        let mut cache = BlockCache::new(BLOCK, budget).unwrap();
        for (step, &op) in ops.iter().enumerate() {
            apply(&mut cache, op);
            check_invariants(&cache, budget, step);
        }
    }

    #[test]
    fn invalidated_file_reloads_while_others_stay_resident(
        blocks in proptest::collection::vec((0u32..FILES, 0u64..BLOCKS_PER_FILE), 1usize..20),
        victim in 0u32..FILES,
    ) {
        // A pool big enough to hold everything: invalidation, not eviction,
        // must be the only reason a block reloads.
        let mut cache =
            BlockCache::new(BLOCK, (FILES as u64 * BLOCKS_PER_FILE) * BLOCK as u64).unwrap();
        for &(f, b) in &blocks {
            apply(&mut cache, Op::Get(f, b, 4));
        }
        cache.invalidate_file(victim);
        let mut retouched: Vec<(u32, u64)> = Vec::new();
        for &(f, b) in &blocks {
            let (_, missed) = cache
                .get_or_load(f, b, 4, |buf| {
                    buf.fill(stamp(f, b));
                    Ok(())
                })
                .unwrap();
            if f == victim {
                // The first re-touch of an invalidated block must miss
                // (later re-touches of the same block hit again).
                if !retouched.contains(&(f, b)) {
                    prop_assert!(missed, "({f}, {b}) survived its file's invalidation");
                }
            } else {
                prop_assert!(!missed, "({f}, {b}) was evicted by an unrelated invalidation");
            }
            retouched.push((f, b));
        }
    }
}

/// Stress one shared pool from many threads at once: eight pooled opens of
/// one graph — how a service serves graphs on different threads — hammer
/// random adjacency lists under a budget far smaller than the graph,
/// forcing constant eviction and refill races. Every read must still
/// deliver exactly the right bytes.
#[test]
fn concurrent_cache_access_stress() {
    let n = 3000u32;
    let g = testutil::random_mem_graph(&mut Lcg::new(99), n, 1, 6);
    let dir = TempDir::new("stress").unwrap();
    let base = dir.path().join("g");
    // Small blocks so the graph spans many frames; budget of 8 blocks so
    // the pool thrashes.
    let block = 512usize;
    mem_to_disk(&base, &g, IoCounter::new(block)).unwrap();
    let pool = SharedPool::new(block, 8 * block as u64).unwrap();

    // The graphs stay open (their leases alive) until the checks are done.
    let _graphs: Vec<DiskGraph> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..8u64)
            .map(|t| {
                let mut h = DiskGraph::open_pooled(&base, IoCounter::new(block), &pool, 0).unwrap();
                let expect = &g;
                s.spawn(move || {
                    let mut rng = Lcg::new(0x5EED ^ t);
                    for _ in 0..4000 {
                        let v = rng.below(n);
                        h.with_adjacency(v, |nbrs| {
                            assert_eq!(nbrs, expect.neighbors(v), "node {v} bytes corrupted");
                        })
                        .unwrap();
                    }
                    h
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let stats = pool.stats();
    assert!(
        stats.misses > 0 && stats.evictions > 0,
        "stress must thrash"
    );
    // The pool itself stayed within its 8-frame budget (in-flight readers
    // may briefly keep evicted bytes alive, but never as pool residents).
    assert!(
        pool.resident_frames() <= pool.capacity_frames(),
        "pool exceeded its frame budget"
    );
}
