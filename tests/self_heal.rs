//! Self-healing differential tests: every detect → quarantine → repair
//! cycle must converge back to serving state **bit-identical** to an
//! uninjected twin that ran the same acknowledged workload — the repair
//! must reconstruct exactly what durability promised, not merely
//! something structurally valid.
//!
//! Covered cycles:
//! * an injected I/O failure on the op path quarantines the graph; an
//!   online [`CoreService::repair`] rebuilds it from checkpoint + journal
//!   and re-admits it behind the fixpoint certificate;
//! * on-disk journal damage is caught by the online scrubber
//!   ([`CoreService::scrub`]) without taking the graph out of service,
//!   routed into quarantine, and repaired;
//! * `ENOSPC` degrades to read-only instead of quarantining — committed
//!   state keeps serving — and the self-heal supervisor promotes the
//!   graph back once space returns;
//! * a repair that cannot succeed (corrupted checkpoint) exhausts the
//!   supervisor's retries and escalates to a sticky quarantine whose
//!   reason chain preserves the whole causal history;
//! * a failed journal fsync barrier quarantines (never read-only) and
//!   repair recovers the acked prefix or prefix + the in-flight op;
//! * per-op deadlines return typed `timeout` errors without quarantining.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphstore::{AdjacencyRead, MemGraph, TempDir, Vfs, DEFAULT_BLOCK_SIZE};
use kcore_suite::{start_self_heal, CoreService, DurableOptions, HealthStatus, SelfHealOptions};
use testutil::{oracle_cores, FaultPlan, FaultVfs};

const BUDGET: u64 = 4 << 20;

fn normalized(raw: impl IntoIterator<Item = (u32, u32)>) -> Vec<(u32, u32)> {
    let mut set = BTreeSet::new();
    for (u, v) in raw {
        if u != v {
            set.insert((u.min(v), u.max(v)));
        }
    }
    set.into_iter().collect()
}

/// `count` edges over `n` nodes absent from `present`, seed-determined.
fn fresh_edges(present: &BTreeSet<(u32, u32)>, n: u32, seed: u64, count: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut s = seed;
    let mut taken = present.clone();
    while out.len() < count {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (s >> 33) as u32 % n;
        let v = (s >> 13) as u32 % n;
        let e = (u.min(v), u.max(v));
        if u != v && taken.insert(e) {
            out.push(e);
        }
    }
    out
}

fn durable_with_faults(data: &Path, fault: &Arc<FaultVfs>) -> CoreService {
    CoreService::create_durable(
        data,
        DEFAULT_BLOCK_SIZE,
        BUDGET,
        DurableOptions {
            group_commit: None,
            ..Default::default()
        },
        Arc::clone(fault) as Arc<dyn Vfs>,
    )
    .unwrap()
}

/// The maintained per-node state `(core, cnt)` — the bit-identity probe.
fn state_of(svc: &CoreService, name: &str) -> (Vec<u32>, Vec<i32>) {
    svc.with_graph(name, |idx| {
        let s = idx.maintained_state();
        Ok((s.core.clone(), s.cnt.clone()))
    })
    .unwrap()
}

/// Wait (bounded) until the graph reaches `want`.
fn await_status(svc: &CoreService, name: &str, want: HealthStatus) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let got = svc.health(name).unwrap();
        if got.status == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "graph never reached {want:?}; stuck at {:?} (reasons: {:?}, log: {:?})",
            got.status,
            got.reasons,
            got.repair_log
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// An injected I/O failure quarantines the graph; an **online repair**
/// rebuilds it from its durable artefacts and the post-repair maintained
/// state is bit-identical to an uninjected twin's.
#[test]
fn online_repair_after_io_failure_is_bit_identical_to_uninjected_twin() {
    let dir = TempDir::new("heal-repair").unwrap();
    std::fs::create_dir_all(dir.path().join("bases")).unwrap();
    let edges = normalized(graphgen::gnm(48, 120, 11));
    let present: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    let w1 = fresh_edges(&present, 48, 1, 6);
    let mut all = present.clone();
    all.extend(w1.iter().copied());
    let w2 = fresh_edges(&all, 48, 2, 6);

    let fault = FaultVfs::new(FaultPlan::default());
    let svc = durable_with_faults(&dir.path().join("data"), &fault);
    svc.create("g", &dir.path().join("bases/g"), edges.iter().copied(), 48)
        .unwrap();
    let twin = CoreService::new(DEFAULT_BLOCK_SIZE, BUDGET).unwrap();
    twin.create("g", &dir.path().join("bases/t"), edges.iter().copied(), 48)
        .unwrap();
    for &(u, v) in &w1 {
        svc.insert_edge("g", u, v).unwrap();
        twin.insert_edge("g", u, v).unwrap();
    }

    // The next checkpoint's fsync fails with EIO — not disk-full, so the
    // graph quarantines, and everything bounces off the gate.
    fault.set_plan(FaultPlan {
        fail_fsync: Some(1),
        ..FaultPlan::default()
    });
    svc.save("g").unwrap_err();
    fault.set_plan(FaultPlan::default());
    assert_eq!(svc.health("g").unwrap().status, HealthStatus::Quarantined);
    assert!(svc.kmax("g").unwrap_err().is_quarantined());
    assert!(svc.quarantine_reason("g").unwrap().is_some());

    // Online repair: fsck + rebuild from checkpoint/journal + certificate.
    svc.repair("g").unwrap();
    let health = svc.health("g").unwrap();
    assert_eq!(health.status, HealthStatus::Healthy);
    assert!(
        health.repair_log.iter().any(|l| l.contains("succeeded")),
        "repair log records the re-admission: {:?}",
        health.repair_log
    );

    // Differential: the repaired graph continues the workload exactly as
    // the never-injected twin does.
    for &(u, v) in &w2 {
        svc.insert_edge("g", u, v).unwrap();
        twin.insert_edge("g", u, v).unwrap();
    }
    assert_eq!(state_of(&svc, "g"), state_of(&twin, "g"));
    assert!(svc.verify("g").unwrap());
}

/// The online scrubber catches on-disk journal damage while the graph
/// keeps serving, quarantines it, and repair truncates the damage away —
/// bit-identical to the twin, since the garbage was never acknowledged.
#[test]
fn scrub_detects_journal_damage_and_repair_restores_bit_identical_state() {
    let dir = TempDir::new("heal-scrub").unwrap();
    std::fs::create_dir_all(dir.path().join("bases")).unwrap();
    let edges = normalized(graphgen::gnm(40, 90, 21));
    let present: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    let w1 = fresh_edges(&present, 40, 3, 5);

    let fault = FaultVfs::new(FaultPlan::default());
    let data = dir.path().join("data");
    let svc = durable_with_faults(&data, &fault);
    svc.create("g", &dir.path().join("bases/g"), edges.iter().copied(), 40)
        .unwrap();
    let twin = CoreService::new(DEFAULT_BLOCK_SIZE, BUDGET).unwrap();
    twin.create("g", &dir.path().join("bases/t"), edges.iter().copied(), 40)
        .unwrap();
    // A clean scrub — here one between every two tenant ops, harsher than
    // any supervisor interval — finds nothing, leaves the graph serving,
    // and is invisible to the cost model: it reads through a scratch
    // counter, so the tenant's charged reads are bit-identical to the
    // twin's, which is never scrubbed.
    for &(u, v) in &w1 {
        svc.insert_edge("g", u, v).unwrap();
        twin.insert_edge("g", u, v).unwrap();
        let report = svc.scrub("g").unwrap();
        assert_eq!(report.unrepaired(), 0, "clean scrub: {:?}", report.findings);
    }
    assert_eq!(svc.health("g").unwrap().status, HealthStatus::Healthy);
    assert_eq!(
        svc.io("g").unwrap().read_ios,
        twin.io("g").unwrap().read_ios,
        "scrubbing changed the tenant's charged reads"
    );

    // Bit-rot lands on the journal tail behind the service's back.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(data.join("g.wal"))
        .unwrap();
    f.write_all(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
    f.sync_all().unwrap();
    drop(f);

    // The scrubber finds it — queries were never interrupted — and the
    // finding quarantines the graph.
    let report = svc.scrub("g").unwrap();
    assert!(
        report.unrepaired() > 0,
        "damage found: {:?}",
        report.findings
    );
    assert_eq!(svc.health("g").unwrap().status, HealthStatus::Quarantined);

    // Repair truncates the unacknowledged garbage and rebuilds; the
    // result is exactly the acknowledged state.
    svc.repair("g").unwrap();
    assert_eq!(state_of(&svc, "g"), state_of(&twin, "g"));
    assert!(svc.verify("g").unwrap());
    assert_eq!(svc.scrub("g").unwrap().unrepaired(), 0);
}

/// A failed **journal** fsync — the barrier that acknowledges an op —
/// always quarantines, never a read-only downgrade: the op is applied in
/// memory but its durability is unknown. Repair rebuilds from whatever
/// the disk holds — the acked prefix, or that prefix plus the in-flight
/// op, never a third state — bit-identical to a twin that ran exactly
/// those ops.
#[test]
fn failed_journal_barrier_quarantines_and_repair_recovers_prefix_or_in_flight() {
    const N: u32 = 40;
    let dir = TempDir::new("heal-barrier").unwrap();
    std::fs::create_dir_all(dir.path().join("bases")).unwrap();
    let edges = normalized(graphgen::gnm(N, 90, 71));
    let present: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    let w = fresh_edges(&present, N, 8, 4);
    let (acked, in_flight) = (&w[..3], w[3]);

    let fault = FaultVfs::new(FaultPlan::default());
    let data = dir.path().join("data");
    let svc = durable_with_faults(&data, &fault);
    svc.create("g", &dir.path().join("bases/g"), edges.iter().copied(), N)
        .unwrap();
    let twin = CoreService::new(DEFAULT_BLOCK_SIZE, BUDGET).unwrap();
    twin.create("g", &dir.path().join("bases/t"), edges.iter().copied(), N)
        .unwrap();
    for &(u, v) in acked {
        svc.insert_edge("g", u, v).unwrap();
        twin.insert_edge("g", u, v).unwrap();
    }

    // The next fsync is the in-flight op's journal barrier.
    fault.set_plan(FaultPlan {
        fail_fsync: Some(1),
        ..FaultPlan::default()
    });
    svc.insert_edge("g", in_flight.0, in_flight.1).unwrap_err();
    fault.set_plan(FaultPlan::default());
    let health = svc.health("g").unwrap();
    assert_eq!(health.status, HealthStatus::Quarantined);
    assert!(
        health.reasons.iter().any(|r| r.contains("barrier")),
        "the quarantine names the failed barrier: {:?}",
        health.reasons
    );
    assert!(svc.kmax("g").unwrap_err().is_quarantined());

    svc.repair("g").unwrap();
    assert_eq!(svc.health("g").unwrap().status, HealthStatus::Healthy);

    let recovered: BTreeSet<(u32, u32)> = svc
        .with_graph("g", |idx| {
            let (mut set, mut nbrs) = (BTreeSet::new(), Vec::new());
            for u in 0..N {
                idx.graph_mut().adjacency(u, &mut nbrs)?;
                set.extend(nbrs.iter().filter(|&&v| u < v).map(|&v| (u, v)));
            }
            Ok(set)
        })
        .unwrap();
    let mut prefix = present.clone();
    prefix.extend(acked.iter().copied());
    if recovered != prefix {
        prefix.insert(in_flight);
        assert_eq!(
            recovered, prefix,
            "neither acked prefix nor prefix + in-flight"
        );
        twin.insert_edge("g", in_flight.0, in_flight.1).unwrap();
    }
    let oracle = oracle_cores(&MemGraph::from_edges(recovered, N));
    assert_eq!(svc.cores("g").unwrap(), oracle);
    assert_eq!(state_of(&svc, "g"), state_of(&twin, "g"));
    assert!(svc.verify("g").unwrap());
    drop(svc);
    let report = kcore_suite::fsck(&data, false).unwrap();
    assert!(report.clean(), "fsck after repair: {:?}", report.findings);
}

/// `ENOSPC` mid-mutation degrades the graph to read-only: queries keep
/// serving committed state, mutations fail typed, and the supervisor
/// promotes the graph back automatically once the disk drains — after
/// which the workload continues bit-identical to the twin.
#[test]
fn enospc_degrades_read_only_and_supervisor_promotes_back() {
    let dir = TempDir::new("heal-enospc").unwrap();
    std::fs::create_dir_all(dir.path().join("bases")).unwrap();
    let edges = normalized(graphgen::gnm(40, 90, 31));
    let present: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    let w = fresh_edges(&present, 40, 4, 6);

    let fault = FaultVfs::new(FaultPlan::default());
    let svc = Arc::new(durable_with_faults(&dir.path().join("data"), &fault));
    svc.create("g", &dir.path().join("bases/g"), edges.iter().copied(), 40)
        .unwrap();
    let twin = CoreService::new(DEFAULT_BLOCK_SIZE, BUDGET).unwrap();
    twin.create("g", &dir.path().join("bases/t"), edges.iter().copied(), 40)
        .unwrap();

    let kmax_before = svc.kmax("g").unwrap();
    fault.set_plan(FaultPlan {
        enospc_after: Some(0),
        ..FaultPlan::default()
    });
    let e = svc.insert_edge("g", w[0].0, w[0].1).unwrap_err();
    assert!(e.is_disk_full(), "typed disk-full error: {e}");

    // Degraded, not quarantined: reads serve, writes bounce.
    assert_eq!(svc.health("g").unwrap().status, HealthStatus::ReadOnly);
    assert_eq!(svc.kmax("g").unwrap(), kmax_before);
    assert!(svc
        .insert_edge("g", w[0].0, w[0].1)
        .unwrap_err()
        .is_read_only());
    assert!(svc.quarantine_reason("g").unwrap().is_none());

    // Space returns; the supervisor's probe promotes the graph back.
    let heal = start_self_heal(
        &svc,
        SelfHealOptions {
            poll_interval: Duration::from_millis(10),
            ..SelfHealOptions::default()
        },
    );
    fault.set_plan(FaultPlan::default());
    await_status(&svc, "g", HealthStatus::Healthy);
    heal.stop();

    // The full workload now lands — bit-identical to the twin.
    for &(u, v) in &w {
        svc.insert_edge("g", u, v).unwrap();
        twin.insert_edge("g", u, v).unwrap();
    }
    assert_eq!(state_of(&svc, "g"), state_of(&twin, "g"));
    assert!(svc.verify("g").unwrap());
}

/// A repair that cannot succeed — the checkpoint itself is corrupted —
/// exhausts the supervisor's bounded retries and escalates to a sticky
/// quarantine, with the whole causal chain (original failure + repair
/// failures) preserved in the health report.
#[test]
fn repair_exhaustion_escalates_to_sticky_quarantine_with_reason_chain() {
    let dir = TempDir::new("heal-exhaust").unwrap();
    std::fs::create_dir_all(dir.path().join("bases")).unwrap();
    let edges = normalized(graphgen::gnm(32, 60, 41));
    let present: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    let w = fresh_edges(&present, 32, 5, 3);

    let fault = FaultVfs::new(FaultPlan::default());
    let data = dir.path().join("data");
    let svc = Arc::new(durable_with_faults(&data, &fault));
    svc.create("g", &dir.path().join("bases/g"), edges.iter().copied(), 32)
        .unwrap();
    for &(u, v) in &w {
        svc.insert_edge("g", u, v).unwrap();
    }
    svc.save("g").unwrap();

    // Smash the checkpoint on disk, then trip a quarantine: every repair
    // attempt will reject the unreadable checkpoint.
    let ckpt = data.join("g.ckpt");
    let bytes = std::fs::read(&ckpt).unwrap();
    let mut rot = bytes.clone();
    let mid = rot.len() / 2;
    for b in &mut rot[mid..(mid + 8).min(bytes.len())] {
        *b ^= 0xff;
    }
    std::fs::write(&ckpt, &rot).unwrap();

    fault.set_plan(FaultPlan {
        fail_fsync: Some(1),
        ..FaultPlan::default()
    });
    svc.save("g").unwrap_err();
    fault.set_plan(FaultPlan::default());
    assert_eq!(svc.health("g").unwrap().status, HealthStatus::Quarantined);

    let heal = start_self_heal(
        &svc,
        SelfHealOptions {
            repair_retries: 2,
            backoff_base: Duration::from_millis(5),
            poll_interval: Duration::from_millis(10),
            ..SelfHealOptions::default()
        },
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let h = svc.health("g").unwrap();
        if h.sticky {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor never went sticky: {h:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    heal.stop();

    let h = svc.health("g").unwrap();
    assert_eq!(h.status, HealthStatus::Quarantined);
    assert_eq!(h.repair_attempts, 2, "bounded retries: {h:?}");
    assert!(
        h.reasons.len() >= 2,
        "causal chain preserved (original failure + repair failures): {:?}",
        h.reasons
    );
    assert!(
        h.repair_log.iter().any(|l| l.contains("gave up")),
        "escalation recorded: {:?}",
        h.repair_log
    );
    // Sticky means the supervisor leaves it alone; the graph still gates.
    assert!(svc.kmax("g").unwrap_err().is_quarantined());
}

/// End-to-end: the supervisor's periodic scrubber finds on-disk damage by
/// itself and drives the full detect → quarantine → repair → re-admit
/// cycle with no operator in the loop.
#[test]
fn supervisor_scrubs_quarantines_and_repairs_end_to_end() {
    let dir = TempDir::new("heal-e2e").unwrap();
    std::fs::create_dir_all(dir.path().join("bases")).unwrap();
    let edges = normalized(graphgen::gnm(32, 60, 51));
    let present: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    let w = fresh_edges(&present, 32, 6, 4);

    let fault = FaultVfs::new(FaultPlan::default());
    let data = dir.path().join("data");
    let svc = Arc::new(durable_with_faults(&data, &fault));
    svc.create("g", &dir.path().join("bases/g"), edges.iter().copied(), 32)
        .unwrap();
    for &(u, v) in &w {
        svc.insert_edge("g", u, v).unwrap();
    }
    let before = state_of(&svc, "g");

    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(data.join("g.wal"))
        .unwrap();
    f.write_all(&[0xba, 0xad, 0xf0, 0x0d]).unwrap();
    f.sync_all().unwrap();
    drop(f);

    let heal = start_self_heal(
        &svc,
        SelfHealOptions {
            scrub_interval: Some(Duration::from_millis(20)),
            backoff_base: Duration::from_millis(5),
            poll_interval: Duration::from_millis(10),
            ..SelfHealOptions::default()
        },
    );
    // The scrubber must find the damage and the repair loop must bring
    // the graph back — watch the repair log for the full cycle.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let h = svc.health("g").unwrap();
        let healed = h.status == HealthStatus::Healthy
            && h.repair_log.iter().any(|l| l.contains("succeeded"));
        if healed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "self-heal cycle never completed: {h:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    heal.stop();

    assert_eq!(state_of(&svc, "g"), before, "repair restored acked state");
    assert!(svc.verify("g").unwrap());
    assert!(
        svc.health("g")
            .unwrap()
            .reasons
            .iter()
            .any(|r| r.contains("scrub")),
        "the reason chain attributes the quarantine to the scrubber"
    );
}

/// Per-op deadlines: an over-deadline op returns a typed `timeout` error,
/// releases its claim, and never quarantines — a slow graph is not a
/// broken one.
#[test]
fn op_deadline_times_out_typed_without_quarantining() {
    let dir = TempDir::new("heal-deadline").unwrap();
    let svc = CoreService::new(DEFAULT_BLOCK_SIZE, BUDGET).unwrap();
    let edges = normalized(graphgen::gnm(48, 120, 61));
    let present: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    let (u, v) = fresh_edges(&present, 48, 7, 1)[0];
    svc.create("g", &dir.path().join("g"), edges.iter().copied(), 48)
        .unwrap();

    // A generous budget must not trip at all: the deadline is an upper
    // bound on wall clock, not a tax on every armed op (regression guard
    // for arming the expiry at `now` instead of `now + budget`).
    svc.set_op_timeout(Some(Duration::from_secs(300)));
    assert!(
        svc.verify("g").unwrap(),
        "generous deadline leaves ops alone"
    );

    // A zero budget trips on the first charged read: `verify` walks
    // adjacency, so it must time out...
    svc.set_op_timeout(Some(Duration::ZERO));
    let e = svc.verify("g").unwrap_err();
    assert!(e.is_timeout(), "typed timeout: {e}");
    // ...and so must a mutation's validation read — before anything is
    // journaled or applied.
    let e = svc.insert_edge("g", u, v).unwrap_err();
    assert!(e.is_timeout(), "mutation validation times out: {e}");
    // In-memory answers are not charged and still serve.
    svc.kmax("g").unwrap();

    // Crucially: a timeout is not a fault. No quarantine, no degradation.
    assert_eq!(svc.health("g").unwrap().status, HealthStatus::Healthy);

    // Lifting the deadline restores full service mid-flight.
    svc.set_op_timeout(None);
    assert!(svc.verify("g").unwrap());
    svc.insert_edge("g", u, v).unwrap();
}
