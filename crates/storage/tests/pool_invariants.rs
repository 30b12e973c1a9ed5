//! Property tests for the block cache's multi-file invariants — the
//! guarantees the process-wide [`SharedPool`] leans on when many graphs
//! share one frame store:
//!
//! * `resident_bytes ≤ budget` after **every** step of an adversarial
//!   get/invalidate/clear sequence;
//! * `invalidate_file` leaves zero frames for that file id, and only that
//!   file id;
//! * a [`SharedPool`] lease teardown mid-traffic behaves like an
//!   invalidation of exactly the leased ids.

use graphstore::{BlockCache, EvictionPolicy, SharedPool};
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
        let policy = EvictionPolicy::ScanLifo;
        let budget = frames * BLOCK as u64;
        let mut cache = BlockCache::new(BLOCK, budget, policy).unwrap();
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
        let policy = EvictionPolicy::ScanLifo;
        let mut cache = BlockCache::new(
            BLOCK,
            (FILES as u64 * BLOCKS_PER_FILE) * BLOCK as u64,
            policy,
        )
        .unwrap();
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

/// A lease teardown mid-traffic is an invalidation of exactly the leased
/// ids: the surviving graph's frames stay, and the pool keeps honouring its
/// budget afterwards.
#[test]
fn lease_teardown_under_traffic_keeps_budget_and_neighbours() {
    let frames = 6u64;
    let pool =
        SharedPool::with_policy(BLOCK, frames * BLOCK as u64, EvictionPolicy::ScanLifo).unwrap();
    let survivor = pool.register(1).unwrap();
    let mut rng = Lcg::new(0xDECAF);
    for round in 0..40 {
        let doomed = pool.register(2).unwrap();
        for _ in 0..30 {
            let (file, i) = match rng.below(3) {
                0 => (survivor.file_id(0), 0u32),
                k => (doomed.file_id(k - 1), k),
            };
            let block = rng.below(BLOCKS_PER_FILE as u32) as u64;
            pool.with_cache_mut(|cache| {
                cache.get_or_load(file, block, 4, |buf| {
                    buf.fill(stamp(i, block));
                    Ok(())
                })
            })
            .unwrap();
            assert!(
                pool.resident_bytes() <= pool.budget_bytes(),
                "round {round}"
            );
        }
        let doomed_ids = [doomed.file_id(0), doomed.file_id(1)];
        drop(doomed);
        let keys = pool.resident_keys();
        assert!(
            keys.iter().all(|(f, _)| !doomed_ids.contains(f)),
            "round {round}: dropped lease left frames"
        );
        assert!(pool.resident_bytes() <= pool.budget_bytes());
    }
    drop(survivor);
    assert_eq!(pool.resident_frames(), 0);
}
