//! Property tests of the durability primitives under seed-scheduled fault
//! injection: whatever single fault a [`FaultPlan`] injects — a failed
//! fsync, a short write, `ENOSPC`, or a crash-stop before any sync point —
//! a clean reopen must observe the **old** state or the **new** state,
//! never a third. The fault schedule is derived from the proptest seed, so
//! a failing case replays exactly. The group-commit journal's barrier
//! counts and its sticky failure are pinned here too, through the same
//! injector.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use graphstore::{
    Catalog, CatalogEntry, FormatVersion, GroupCommitOptions, GroupCommitWal, IoCounter, TempDir,
    Vfs, Wal, DEFAULT_BLOCK_SIZE,
};
use proptest::prelude::*;
use testutil::{FaultPlan, FaultVfs, Lcg};

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

fn counter() -> Arc<IoCounter> {
    IoCounter::new(DEFAULT_BLOCK_SIZE)
}

fn wal_path(dir: &TempDir) -> PathBuf {
    dir.path().join("test.wal")
}

fn fault_counter(plan: FaultPlan) -> (Arc<FaultVfs>, Arc<IoCounter>) {
    let vfs = FaultVfs::new(plan);
    let counter = IoCounter::with_vfs(DEFAULT_BLOCK_SIZE, Arc::clone(&vfs) as Arc<dyn Vfs>);
    (vfs, counter)
}

#[test]
fn group_commit_one_barrier_covers_many_submits() {
    let dir = TempDir::new("gwal").unwrap();
    let path = wal_path(&dir);
    let (vfs, fc) = fault_counter(FaultPlan::default());
    let wal = Wal::create(&path, fc).unwrap();
    let group = GroupCommitWal::wrap(wal, GroupCommitOptions::default()).unwrap();

    let before = vfs.sync_events();
    let mut last = 0;
    for payload in [b"a".as_slice(), b"bb", b"ccc", b"dddd", b"eeeee"] {
        last = group.submit(payload).unwrap();
    }
    assert_eq!(group.durable_lsn(), 0, "nothing durable before the barrier");
    group.wait_durable(last, false).unwrap();
    assert_eq!(
        vfs.sync_events() - before,
        1,
        "five submits, one fsync barrier"
    );
    assert_eq!(group.durable_lsn(), last);
    // Waiting again is free: the watermark already covers it.
    group.wait_durable(last, false).unwrap();
    assert_eq!(vfs.sync_events() - before, 1);

    drop(group);
    let (_w, records) = Wal::open(&path, counter()).unwrap();
    assert_eq!(
        records,
        vec![
            b"a".to_vec(),
            b"bb".to_vec(),
            b"ccc".to_vec(),
            b"dddd".to_vec(),
            b"eeeee".to_vec()
        ]
    );
}

#[test]
fn group_commit_concurrent_submitters_all_recover_in_submit_order() {
    let dir = TempDir::new("gwal-mt").unwrap();
    let path = wal_path(&dir);
    let (vfs, fc) = fault_counter(FaultPlan::default());
    let wal = Wal::create(&path, fc).unwrap();
    let group = Arc::new(
        GroupCommitWal::wrap(
            wal,
            GroupCommitOptions {
                max_delay: Duration::from_micros(500),
            },
        )
        .unwrap(),
    );

    let before = vfs.sync_events();
    const THREADS: u8 = 4;
    const OPS: u8 = 16;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let g = Arc::clone(&group);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    let lsn = g.submit(&[t, i]).unwrap();
                    g.wait_durable(lsn, true).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = u64::from(THREADS) * u64::from(OPS);
    assert_eq!(group.durable_lsn(), total);
    let barriers = vfs.sync_events() - before;
    assert!(
        (1..=total).contains(&barriers),
        "{barriers} barriers for {total} ops"
    );

    drop(group);
    let (_w, records) = Wal::open(&path, counter()).unwrap();
    assert_eq!(records.len(), total as usize);
    // Per-thread subsequences stay in program order (appends happen
    // under the append lock in LSN order).
    for t in 0..THREADS {
        let seen: Vec<u8> = records.iter().filter(|r| r[0] == t).map(|r| r[1]).collect();
        assert_eq!(seen, (0..OPS).collect::<Vec<u8>>());
    }
}

#[test]
fn group_commit_failed_barrier_is_sticky_but_acked_prefix_stays_good() {
    let dir = TempDir::new("gwal").unwrap();
    let path = wal_path(&dir);
    let (vfs, c) = fault_counter(FaultPlan::default());
    let wal = Wal::create(&path, c).unwrap();
    let group = GroupCommitWal::wrap(wal, GroupCommitOptions::default()).unwrap();
    let acked = group.submit(b"acked").unwrap();
    group.wait_durable(acked, false).unwrap();

    // The next barrier fails: its op errors, and so does every later
    // wait — the durable frontier is no longer knowable.
    vfs.set_plan(FaultPlan {
        fail_fsync: Some(1),
        ..FaultPlan::default()
    });
    let lost = group.submit(b"lost").unwrap();
    assert!(group.wait_durable(lost, false).is_err());
    let after = group.submit(b"after").unwrap();
    assert!(group.wait_durable(after, false).is_err(), "sticky");
    // …but anything acknowledged before the failure stays acknowledged.
    group.wait_durable(acked, false).unwrap();
}
