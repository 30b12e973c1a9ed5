//! Property tests of the durability primitives under seed-scheduled fault
//! injection: whatever single fault a [`FaultPlan`] injects — a failed
//! fsync, a short write, `ENOSPC`, or a crash-stop before any sync point —
//! a clean reopen must observe the **old** state or the **new** state,
//! never a third. The fault schedule is derived from the proptest seed, so
//! a failing case replays exactly.

use std::sync::Arc;

use graphstore::{
    Catalog, CatalogEntry, EvictionPolicy, FaultPlan, FaultVfs, FormatVersion, IoCounter, TempDir,
    Vfs, Wal,
};
use proptest::prelude::*;
use testutil::Lcg;

const BLOCK: usize = 64;

/// A deterministic catalog whose shape is keyed by `tag`, so "old" and
/// "new" manifests differ in entry count, names and every numeric field.
fn catalog(tag: u64) -> Catalog {
    let entries = (0..(1 + tag % 3))
        .map(|i| CatalogEntry {
            name: format!("g{tag}-{i}"),
            base: format!("/bases/{tag}/{i}").into(),
            charge_bytes: 1000 * tag + i,
            checkpoint_seq: tag + i,
            format: if (tag + i).is_multiple_of(2) {
                FormatVersion::V1
            } else {
                FormatVersion::V3
            },
            generation: (tag + i) % 3,
        })
        .collect();
    Catalog {
        block_size: BLOCK,
        budget_bytes: 1 << 20,
        policy: EvictionPolicy::ScanLifo,
        entries,
    }
}

/// Seed-keyed journal payloads (sizes and bytes from the shared Lcg
/// generator), small enough that the fault ordinals land inside them.
fn payloads(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = Lcg::new(seed ^ 0xfau64);
    (0..count)
        .map(|_| {
            let len = 1 + rng.below(48) as usize;
            (0..len).map(|_| rng.next_u32() as u8).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Catalog::write_with` is all-or-nothing: after any injected fault,
    /// a clean reopen reads the old manifest or the new one — bit-exact
    /// either way — and a fault-free retry always lands the new one.
    #[test]
    fn catalog_write_lands_old_or_new_never_a_third(seed in any::<u64>()) {
        let dir = TempDir::new("fault-catalog").unwrap();
        let old = catalog(seed % 5);
        let new = catalog(100 + seed % 7);
        old.write(dir.path()).unwrap();

        let vfs = FaultVfs::new(FaultPlan::from_seed(seed));
        let wrote = new.write_with(dir.path(), vfs.as_ref() as &dyn Vfs);

        let back = Catalog::read(dir.path()).unwrap();
        if wrote.is_ok() {
            prop_assert_eq!(&back, &new, "acknowledged write must be visible");
        } else {
            prop_assert!(
                back == old || back == new,
                "seed {} left a third state: {:?}",
                seed,
                back
            );
        }

        // The directory is not wedged: a clean retry replaces the manifest.
        new.write(dir.path()).unwrap();
        prop_assert_eq!(Catalog::read(dir.path()).unwrap(), new);
    }

    /// `Wal::append` under any injected fault: reopen recovers exactly the
    /// appended prefix, or the prefix plus the one in-flight record —
    /// every surviving record bit-exact — and an acknowledged append is
    /// always durable.
    #[test]
    fn wal_append_lands_old_or_new_never_a_third(
        seed in any::<u64>(),
        prefix_len in 0usize..5,
    ) {
        let dir = TempDir::new("fault-wal").unwrap();
        let path = dir.path().join("t.wal");
        let records = payloads(seed, prefix_len + 1);
        let (prefix, extra) = (&records[..prefix_len], &records[prefix_len]);

        // Build the pre-state fault-free, then arm the schedule so the
        // ordinals are relative to the single in-flight append.
        let fault = FaultVfs::new(FaultPlan::default());
        let counter = IoCounter::with_vfs(BLOCK, Arc::clone(&fault) as Arc<dyn Vfs>);
        let mut wal = Wal::create(&path, counter).unwrap();
        for p in prefix {
            wal.append(p).unwrap();
        }
        fault.set_plan(FaultPlan::from_seed(seed));
        let appended = wal.append(extra);
        drop(wal);

        // Clean reopen (torn tails are truncated on the way in).
        let (_wal, recovered) = Wal::open(&path, IoCounter::new(BLOCK)).unwrap();
        if appended.is_ok() {
            prop_assert_eq!(
                recovered.len(),
                prefix_len + 1,
                "acknowledged append lost (seed {})",
                seed
            );
        } else {
            prop_assert!(
                recovered.len() == prefix_len || recovered.len() == prefix_len + 1,
                "seed {} recovered {} records from a {}-record prefix",
                seed,
                recovered.len(),
                prefix_len
            );
        }
        for (i, rec) in recovered.iter().enumerate() {
            let expect = if i < prefix_len { &prefix[i] } else { extra };
            prop_assert_eq!(rec, expect, "record {} corrupted (seed {})", i, seed);
        }
    }
}
