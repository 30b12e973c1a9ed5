//! Crash-point torture matrix over the durable serving layer.
//!
//! A maintenance stream (graph creation, edge toggles, explicit saves on
//! two tenants) first runs fault-free through a counting [`FaultVfs`] to
//! enumerate every durability sync point — file fsyncs, renames and
//! directory fsyncs. The stream is then replayed once per sync point with
//! a crash-stop injected immediately before it: every filesystem
//! operation after the crash fails, exactly as if the process had been
//! killed there. Each crashed directory is reopened through the ordinary
//! production path ([`CoreService::open_catalog`], real filesystem) and
//! the recovered state must equal the replica of the acknowledged prefix,
//! or that prefix plus the single in-flight operation — never a third
//! state — with the Theorem 4.1 certificate holding and `fsck` clean.
//!
//! A second test covers fail-safe multi-tenant serving: an injected
//! `ENOSPC` on one tenant must surface as a typed error and degrade that
//! graph alone to read-only — committed state keeps serving, mutations
//! are refused, and a successful space probe promotes it back — while
//! the other tenant is untouched; injected bit-rot in the degraded
//! tenant's base tables is then caught by `fsck` and correctly reported
//! as unrepairable.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use graphstore::{GroupCommitOptions, MemGraph, TempDir, Vfs, DEFAULT_BLOCK_SIZE};
use kcore_suite::{CoreService, DurableOptions};
use semicore::MaintainOp;
use testutil::{oracle_cores, FaultPlan, FaultVfs};

const BUDGET: u64 = 4 << 20;
const ALPHA: &str = "alpha";
const BETA: &str = "beta";

/// One step of the torture scenario's maintenance stream.
#[derive(Clone, Copy, Debug)]
enum Step {
    Create(&'static str),
    Insert(&'static str, u32, u32),
    Delete(&'static str, u32, u32),
    Save(&'static str),
}

/// The deterministic workload: two base graphs plus a step script whose
/// inserts and deletes are valid by construction (fresh pairs inserted,
/// present edges deleted), so every step acks on a fault-free run.
struct Scenario {
    alpha: Vec<(u32, u32)>,
    alpha_nodes: u32,
    beta: Vec<(u32, u32)>,
    beta_nodes: u32,
    steps: Vec<Step>,
}

fn normalized(raw: impl IntoIterator<Item = (u32, u32)>) -> Vec<(u32, u32)> {
    let mut set = BTreeSet::new();
    for (u, v) in raw {
        if u != v {
            set.insert((u.min(v), u.max(v)));
        }
    }
    set.into_iter().collect()
}

/// Canonical pairs over `0..n` absent from `set`, smallest first.
fn fresh_edges(set: &BTreeSet<(u32, u32)>, n: u32, count: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(count);
    'outer: for u in 0..n {
        for v in (u + 1)..n {
            if !set.contains(&(u, v)) {
                out.push((u, v));
                if out.len() == count {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(out.len(), count, "graph too dense for {count} fresh edges");
    out
}

fn scenario() -> Scenario {
    let rmat = graphgen::Rmat::web(6);
    let alpha_nodes = rmat.num_nodes();
    let alpha = normalized(graphgen::rmat_edges(rmat, 160, 33));
    let beta_nodes = 40;
    let beta = normalized(graphgen::gnm(beta_nodes, 90, 11));

    let aset: BTreeSet<(u32, u32)> = alpha.iter().copied().collect();
    let bset: BTreeSet<(u32, u32)> = beta.iter().copied().collect();
    let af = fresh_edges(&aset, alpha_nodes, 3);
    let bf = fresh_edges(&bset, beta_nodes, 2);
    let (ad, bd) = (alpha[alpha.len() / 2], beta[beta.len() / 3]);

    let steps = vec![
        Step::Create(ALPHA),
        Step::Create(BETA),
        Step::Insert(ALPHA, af[0].0, af[0].1),
        Step::Delete(ALPHA, ad.0, ad.1),
        Step::Insert(BETA, bf[0].0, bf[0].1),
        Step::Save(ALPHA),
        Step::Delete(BETA, bd.0, bd.1),
        Step::Insert(ALPHA, af[1].0, af[1].1),
        Step::Insert(BETA, bf[1].0, bf[1].1),
        // Toggle: remove the edge inserted at step 2 again.
        Step::Delete(ALPHA, af[0].0, af[0].1),
        Step::Save(BETA),
        Step::Insert(ALPHA, af[2].0, af[2].1),
    ];
    Scenario {
        alpha,
        alpha_nodes,
        beta,
        beta_nodes,
        steps,
    }
}

impl Scenario {
    fn base_of(&self, name: &str) -> (&[(u32, u32)], u32) {
        match name {
            ALPHA => (&self.alpha, self.alpha_nodes),
            _ => (&self.beta, self.beta_nodes),
        }
    }

    /// The oracle world after the first `len` steps: graph name → core
    /// numbers, computed by the in-memory reference decomposition over a
    /// replica edge set.
    fn world(&self, len: usize) -> BTreeMap<String, Vec<u32>> {
        let mut sets: BTreeMap<&str, BTreeSet<(u32, u32)>> = BTreeMap::new();
        for step in &self.steps[..len] {
            match *step {
                Step::Create(name) => {
                    let (base, _) = self.base_of(name);
                    sets.insert(name, base.iter().copied().collect());
                }
                Step::Insert(name, u, v) => {
                    sets.get_mut(name).unwrap().insert((u, v));
                }
                Step::Delete(name, u, v) => {
                    sets.get_mut(name).unwrap().remove(&(u, v));
                }
                Step::Save(_) => {}
            }
        }
        sets.into_iter()
            .map(|(name, set)| {
                let (_, n) = self.base_of(name);
                let mem = MemGraph::from_edges(set, n);
                (name.to_string(), oracle_cores(&mem))
            })
            .collect()
    }
}

/// Drive the scenario against a fresh durable directory through `vfs`.
/// Returns whether the service itself was created, and which steps acked.
fn run_scenario(vfs: Arc<dyn Vfs>, data: &Path, bases: &Path, sc: &Scenario) -> (bool, Vec<bool>) {
    let opts = DurableOptions {
        checkpoint_every: 3,
        group_commit: None,
        ..Default::default()
    };
    let svc = match CoreService::create_durable(data, DEFAULT_BLOCK_SIZE, BUDGET, opts, vfs) {
        Ok(svc) => svc,
        Err(_) => return (false, vec![false; sc.steps.len()]),
    };
    let acked = sc
        .steps
        .iter()
        .map(|step| match *step {
            Step::Create(name) => {
                let (base, n) = sc.base_of(name);
                svc.create(name, &bases.join(name), base.iter().copied(), n)
                    .is_ok()
            }
            Step::Insert(name, u, v) => svc.insert_edge(name, u, v).is_ok(),
            Step::Delete(name, u, v) => svc.delete_edge(name, u, v).is_ok(),
            Step::Save(name) => svc.save(name).is_ok(),
        })
        .collect();
    (true, acked)
}

/// The recovered world as served: graph name → core numbers, with the
/// fixpoint certificate checked on every graph.
fn observed_world(svc: &CoreService) -> BTreeMap<String, Vec<u32>> {
    let mut out = BTreeMap::new();
    for name in svc.graph_names() {
        assert!(
            svc.verify(&name).unwrap(),
            "recovered graph {name:?} fails the fixpoint certificate"
        );
        out.insert(name.clone(), svc.cores(&name).unwrap());
    }
    out
}

/// The tentpole: enumerate every sync point of the stream, crash-stop
/// before each one, recover through the production path, and demand the
/// acked-prefix ("old") or acked-prefix-plus-in-flight ("new") state —
/// never a third — with fsck clean afterwards.
#[test]
fn crash_point_torture_matrix() {
    let sc = scenario();

    // Count pass: fault-free, but through the FaultVfs so every sync
    // point (fsync, rename, directory fsync) is numbered.
    let dir = TempDir::new("torture-count").unwrap();
    let (data, bases) = (dir.path().join("data"), dir.path().join("bases"));
    std::fs::create_dir_all(&bases).unwrap();
    let fault = FaultVfs::new(FaultPlan::default());
    let (created, acked) = run_scenario(Arc::clone(&fault) as Arc<dyn Vfs>, &data, &bases, &sc);
    assert!(
        created && acked.iter().all(|&a| a),
        "fault-free run must ack"
    );
    let total = fault.sync_events();
    // Keep the matrix bounded so the CI job stays fast; a jump here means
    // a hot path grew extra fsyncs and should be looked at anyway.
    assert!(
        (20..=200).contains(&total),
        "sync-point count {total} outside the expected band"
    );
    let full = sc.world(sc.steps.len());
    let reopened = testutil::open_catalog(&data).unwrap();
    assert_eq!(observed_world(&reopened), full, "clean-run recovery");
    drop(reopened);

    for k in 1..=total {
        let dir = TempDir::new("torture-crash").unwrap();
        let (data, bases) = (dir.path().join("data"), dir.path().join("bases"));
        std::fs::create_dir_all(&bases).unwrap();
        let fault = FaultVfs::new(FaultPlan {
            crash_before_sync: Some(k),
            ..FaultPlan::default()
        });
        let (created, acked) = run_scenario(Arc::clone(&fault) as Arc<dyn Vfs>, &data, &bases, &sc);
        assert!(fault.crashed(), "crash point {k} never fired");

        // Acks must be a clean prefix: once the crash hits, every later
        // step fails (each one needs at least a journal or table write).
        let j = acked.iter().position(|&a| !a).unwrap_or(sc.steps.len());
        assert!(
            acked[j..].iter().all(|&a| !a),
            "crash {k}: acks not a prefix: {acked:?}"
        );
        if !created {
            assert_eq!(j, 0, "crash {k}: steps ran without a service");
        }

        // Recover with the REAL filesystem — the crash is over.
        match testutil::open_catalog(&data) {
            Err(e) => assert!(
                !created,
                "crash {k}: reopen failed though create_durable acked: {e}"
            ),
            Ok(svc) => {
                let got = observed_world(&svc);
                let old = sc.world(j);
                let new = sc.world((j + 1).min(sc.steps.len()));
                assert!(
                    got == old || (created && got == new),
                    "crash {k} (step {j} in flight) recovered a third state:\n  \
                     got {got:?}\n  old {old:?}\n  new {new:?}"
                );
                drop(svc);
                // Recovery already truncated any torn journal tail, so the
                // directory must check out clean without --repair.
                let report = kcore_suite::fsck(&data, false).unwrap();
                assert!(
                    report.clean(),
                    "crash {k}: fsck after recovery: {:?}",
                    report.findings
                );
            }
        }
    }
}

/// Fail-safe multi-tenant serving: one tenant's injected `ENOSPC`
/// degrades that graph alone to read-only (queries keep serving, the
/// probe promotes it back once space returns); bit-rot in its base
/// tables is caught by fsck (and correctly refused by `--repair`) while
/// the healthy tenant keeps serving through it all.
#[test]
fn quarantine_isolates_tenant_and_fsck_catches_bit_rot() {
    let dir = TempDir::new("quarantine-rot").unwrap();
    let (data, bases) = (dir.path().join("data"), dir.path().join("bases"));
    std::fs::create_dir_all(&bases).unwrap();

    let fault = FaultVfs::new(FaultPlan::default());
    let svc = CoreService::create_durable(
        &data,
        DEFAULT_BLOCK_SIZE,
        BUDGET,
        DurableOptions {
            checkpoint_every: 8,
            group_commit: None,
            ..Default::default()
        },
        Arc::clone(&fault) as Arc<dyn Vfs>,
    )
    .unwrap();
    let well = normalized(graphgen::gnm(32, 60, 5));
    let sick = normalized(graphgen::gnm(32, 60, 6));
    svc.create("well", &bases.join("well"), well.iter().copied(), 32)
        .unwrap();
    svc.create("sick", &bases.join("sick"), sick.iter().copied(), 32)
        .unwrap();

    // The disk fills: the next write on "sick" fails with a typed I/O
    // error (no panic) and trips its quarantine.
    let sick_set: BTreeSet<(u32, u32)> = sick.iter().copied().collect();
    let well_set: BTreeSet<(u32, u32)> = well.iter().copied().collect();
    let se = fresh_edges(&sick_set, 32, 1)[0];
    let we = fresh_edges(&well_set, 32, 2);
    fault.set_plan(FaultPlan {
        enospc_after: Some(0),
        ..FaultPlan::default()
    });
    let err = svc.insert_edge("sick", se.0, se.1).unwrap_err();
    assert!(
        matches!(err, graphstore::Error::Io(_)),
        "typed error: {err}"
    );

    // Disk pressure clears, but the degradation is sticky until a probe
    // proves space returned: mutations are refused with a typed
    // read-only error while queries keep serving the committed state —
    // and the neighbour is untouched throughout.
    fault.set_plan(FaultPlan::default());
    assert!(svc
        .insert_edge("sick", se.0, se.1)
        .unwrap_err()
        .is_read_only());
    svc.kmax("sick").unwrap();
    assert_eq!(
        svc.health("sick").unwrap().status,
        kcore_suite::HealthStatus::ReadOnly
    );
    assert!(svc.quarantine_reason("sick").unwrap().is_none());
    assert!(svc.quarantine_reason("well").unwrap().is_none());
    svc.insert_edge("well", we[0].0, we[0].1).unwrap();
    svc.insert_edge("well", we[1].0, we[1].1).unwrap();
    assert!(svc.verify("well").unwrap());

    // A successful probe (a real checkpoint) promotes the graph back to
    // read-write, and the refused mutation now lands.
    assert!(svc.probe_read_only("sick").unwrap());
    assert_eq!(
        svc.health("sick").unwrap().status,
        kcore_suite::HealthStatus::Healthy
    );
    svc.insert_edge("sick", se.0, se.1).unwrap();
    assert!(svc.verify("sick").unwrap());
    drop(svc);

    // Nothing actually landed during the ENOSPC window, so the directory
    // is clean...
    let report = kcore_suite::fsck(&data, false).unwrap();
    assert!(report.clean(), "pre-rot fsck: {:?}", report.findings);

    // ...until bit-rot hits "sick"'s base edge table.
    let edges_file = bases.join("sick.edges");
    let len = std::fs::metadata(&edges_file).unwrap().len();
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .open(&edges_file)
        .unwrap();
    f.seek(SeekFrom::Start(len / 2)).unwrap();
    f.write_all(&[0xff; 16]).unwrap();
    f.sync_all().unwrap();
    drop(f);

    // fsck pins the damage on "sick" alone, and --repair refuses to
    // invent base-table contents: the finding stays unrepaired.
    for repair in [false, true] {
        let report = kcore_suite::fsck(&data, repair).unwrap();
        assert!(!report.findings.is_empty(), "bit-rot must be found");
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.graph.as_deref() == Some("sick") && !f.repaired),
            "only sick, never repaired: {:?}",
            report.findings
        );
    }

    // The healthy tenant still recovers and serves.
    let svc = testutil::open_catalog(&data).unwrap();
    let mut expect: BTreeSet<(u32, u32)> = well_set.clone();
    expect.insert(we[0]);
    expect.insert(we[1]);
    let mem = MemGraph::from_edges(expect, 32);
    assert_eq!(svc.cores("well").unwrap(), oracle_cores(&mem));
    assert!(svc.verify("well").unwrap());
}

// ---------------------------------------------------------------------------
// Group-commit crash stream: the torture matrix again, but with journal
// fsyncs batched behind `GroupCommitOptions` and the ops arriving as
// `apply_batch` groups. The acknowledgement contract must not weaken: a
// batch that returned `Ok` is an *acked* batch and recovers in full at
// every crash point; the single in-flight batch may recover any prefix of
// itself (including empty) — never a suffix, never a partially-acked
// earlier batch, never a third state.
// ---------------------------------------------------------------------------

const GC: &str = "gc";
const GC_NODES: u32 = 36;

/// The batched stream: each batch is valid by construction when every
/// prior batch and every earlier op of the same batch has been applied.
fn gc_stream() -> (Vec<(u32, u32)>, Vec<Vec<MaintainOp>>) {
    let base = normalized(graphgen::gnm(GC_NODES, 80, 21));
    let mut set: BTreeSet<(u32, u32)> = base.iter().copied().collect();
    let mut batches = Vec::new();
    let mut lcg = 0x9E3779B97F4A7C15u64;
    for round in 0..6 {
        let mut batch = Vec::new();
        for _ in 0..(2 + round % 3) {
            // Alternate fresh inserts and deletes of present edges, driven
            // by a tiny deterministic generator.
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !lcg.is_multiple_of(3) || set.len() < 4 {
                let e = fresh_edges(&set, GC_NODES, 1)[0];
                set.insert(e);
                batch.push(MaintainOp::Insert(e.0, e.1));
            } else {
                let i = (lcg as usize / 3) % set.len();
                let e = *set.iter().nth(i).unwrap();
                set.remove(&e);
                batch.push(MaintainOp::Delete(e.0, e.1));
            }
        }
        batches.push(batch);
    }
    (base, batches)
}

/// Core numbers after `base` plus `ops`, by the in-memory oracle.
fn gc_world(base: &[(u32, u32)], ops: &[MaintainOp]) -> Vec<u32> {
    let mut set: BTreeSet<(u32, u32)> = base.iter().copied().collect();
    for op in ops {
        match *op {
            MaintainOp::Insert(u, v) => {
                set.insert((u, v));
            }
            MaintainOp::Delete(u, v) => {
                set.remove(&(u, v));
            }
        }
    }
    oracle_cores(&MemGraph::from_edges(set, GC_NODES))
}

/// Drive the batched stream against a fresh group-commit directory.
/// Returns whether the graph was created, and which batches acked.
fn run_gc_stream(
    vfs: Arc<dyn Vfs>,
    data: &Path,
    bases: &Path,
    base: &[(u32, u32)],
    batches: &[Vec<MaintainOp>],
) -> (bool, Vec<bool>) {
    let opts = DurableOptions {
        checkpoint_every: 4,
        group_commit: Some(GroupCommitOptions {
            max_delay: Duration::ZERO,
        }),
        ..Default::default()
    };
    let svc = match CoreService::create_durable(data, DEFAULT_BLOCK_SIZE, BUDGET, opts, vfs) {
        Ok(svc) => svc,
        Err(_) => return (false, vec![false; batches.len()]),
    };
    if svc
        .create(GC, &bases.join(GC), base.iter().copied(), GC_NODES)
        .is_err()
    {
        return (true, vec![false; batches.len()]);
    }
    let acked = batches
        .iter()
        .map(|batch| svc.apply_batch(GC, batch).is_ok())
        .collect();
    (true, acked)
}

// ---------------------------------------------------------------------------
// Compaction crash stream: a single tenant driven with a tiny
// `compact_after_edits` so the apply path folds tables + buffered edits
// into fresh generations several times mid-stream. Crash-stopping before
// every sync point of that run must recover exactly the acked prefix (or
// prefix plus the in-flight op) — compaction is state-transparent, so
// "pre-compaction" and "post-compaction" worlds serve identical cores and
// the two-state invariant is unchanged. Unlike the plain matrix, a crash
// between a generation's table renames and the catalog commit legitimately
// strands debris (orphaned `.gN` tables / checkpoints, stale `.rewrite`
// temps); fsck must find it all, `--repair` must sweep it, and the swept
// directory must check out clean and keep serving.
// ---------------------------------------------------------------------------

const CP: &str = "cg";
const CP_NODES: u32 = 30;

/// Base graph plus a toggle script long enough to drive several
/// generations at `compact_after_edits: 4` (two buffer entries per op).
fn cp_stream() -> (Vec<(u32, u32)>, Vec<MaintainOp>) {
    let base = normalized(graphgen::gnm(CP_NODES, 70, 77));
    let mut set: BTreeSet<(u32, u32)> = base.iter().copied().collect();
    let mut ops = Vec::new();
    for round in 0..8 {
        if round % 3 == 2 {
            let e = *set.iter().nth(set.len() / 2).unwrap();
            set.remove(&e);
            ops.push(MaintainOp::Delete(e.0, e.1));
        } else {
            let e = fresh_edges(&set, CP_NODES, 1)[0];
            set.insert(e);
            ops.push(MaintainOp::Insert(e.0, e.1));
        }
    }
    (base, ops)
}

/// Core numbers after `base` plus `ops`, by the in-memory oracle.
fn cp_world(base: &[(u32, u32)], ops: &[MaintainOp]) -> Vec<u32> {
    let mut set: BTreeSet<(u32, u32)> = base.iter().copied().collect();
    for op in ops {
        match *op {
            MaintainOp::Insert(u, v) => {
                set.insert((u, v));
            }
            MaintainOp::Delete(u, v) => {
                set.remove(&(u, v));
            }
        }
    }
    oracle_cores(&MemGraph::from_edges(set, CP_NODES))
}

/// Drive the stream one op at a time with compaction armed to fire every
/// couple of ops. Returns whether the graph was created, and which ops
/// acked.
fn run_cp_stream(
    vfs: Arc<dyn Vfs>,
    data: &Path,
    bases: &Path,
    base: &[(u32, u32)],
    ops: &[MaintainOp],
) -> (bool, Vec<bool>) {
    let opts = DurableOptions {
        checkpoint_every: 100,
        group_commit: None,
        compact_after_edits: 4,
    };
    let svc = match CoreService::create_durable(data, DEFAULT_BLOCK_SIZE, BUDGET, opts, vfs) {
        Ok(svc) => svc,
        Err(_) => return (false, vec![false; ops.len()]),
    };
    if svc
        .create(CP, &bases.join(CP), base.iter().copied(), CP_NODES)
        .is_err()
    {
        return (true, vec![false; ops.len()]);
    }
    let acked = ops
        .iter()
        .map(|op| match *op {
            MaintainOp::Insert(u, v) => svc.insert_edge(CP, u, v).is_ok(),
            MaintainOp::Delete(u, v) => svc.delete_edge(CP, u, v).is_ok(),
        })
        .collect();
    (true, acked)
}

#[test]
fn compaction_crash_points_recover_pre_or_post_state_and_fsck_sweeps_debris() {
    let (base, ops) = cp_stream();

    // Count pass: fault-free, numbering every sync point, and proving the
    // threshold actually drove multiple generations.
    let dir = TempDir::new("compact-count").unwrap();
    let (data, bases) = (dir.path().join("data"), dir.path().join("bases"));
    std::fs::create_dir_all(&bases).unwrap();
    let fault = FaultVfs::new(FaultPlan::default());
    let (created, acked) = run_cp_stream(
        Arc::clone(&fault) as Arc<dyn Vfs>,
        &data,
        &bases,
        &base,
        &ops,
    );
    assert!(
        created && acked.iter().all(|&a| a),
        "fault-free run must ack"
    );
    let total = fault.sync_events();
    assert!(
        (20..=300).contains(&total),
        "sync-point count {total} outside the expected band"
    );
    let reopened = testutil::open_catalog(&data).unwrap();
    assert!(
        reopened.generation(CP).unwrap() >= 2,
        "threshold 4 over {} ops must compact more than once",
        ops.len()
    );
    assert_eq!(
        reopened.cores(CP).unwrap(),
        cp_world(&base, &ops),
        "clean-run recovery"
    );
    drop(reopened);

    for k in 1..=total {
        let dir = TempDir::new("compact-crash").unwrap();
        let (data, bases) = (dir.path().join("data"), dir.path().join("bases"));
        std::fs::create_dir_all(&bases).unwrap();
        let fault = FaultVfs::new(FaultPlan {
            crash_before_sync: Some(k),
            ..FaultPlan::default()
        });
        let (created, acked) = run_cp_stream(
            Arc::clone(&fault) as Arc<dyn Vfs>,
            &data,
            &bases,
            &base,
            &ops,
        );
        assert!(fault.crashed(), "crash point {k} never fired");

        let j = acked.iter().position(|&a| !a).unwrap_or(ops.len());
        assert!(
            acked[j..].iter().all(|&a| !a),
            "crash {k}: acks not a prefix: {acked:?}"
        );

        match testutil::open_catalog(&data) {
            Err(e) => assert!(
                !created,
                "crash {k}: reopen failed though create_durable acked: {e}"
            ),
            Ok(svc) => {
                if !svc.graph_names().iter().any(|n| n == CP) {
                    assert_eq!(j, 0, "crash {k}: acked ops on an unrecovered graph");
                    continue;
                }
                assert!(svc.verify(CP).unwrap(), "crash {k}: certificate");
                let got = svc.cores(CP).unwrap();
                let old = cp_world(&base, &ops[..j]);
                let new = cp_world(&base, &ops[..(j + 1).min(ops.len())]);
                assert!(
                    got == old || got == new,
                    "crash {k} (op {j} in flight) recovered a third state:\n  \
                     got {got:?}\n  old {old:?}\n  new {new:?}"
                );
                drop(svc);

                // A crash inside a compaction's pre-commit window strands
                // orphaned generation files; recovery itself never touches
                // them (the manifest is the source of truth), so fsck must
                // find them, --repair must delete every one, and the swept
                // directory must then be clean.
                let report = kcore_suite::fsck(&data, true).unwrap();
                assert!(
                    report.findings.iter().all(|f| f.repaired),
                    "crash {k}: unrepairable debris: {:?}",
                    report.findings
                );
                let report = kcore_suite::fsck(&data, false).unwrap();
                assert!(
                    report.clean(),
                    "crash {k}: fsck after repair: {:?}",
                    report.findings
                );

                // The sweep removed only debris: the directory still
                // recovers and serves the same world.
                let svc = testutil::open_catalog(&data).unwrap();
                assert_eq!(svc.cores(CP).unwrap(), got, "crash {k}: post-sweep state");
                assert!(svc.verify(CP).unwrap(), "crash {k}: post-sweep certificate");
            }
        }
    }
}

#[test]
fn group_commit_crash_points_recover_acked_batches_or_in_flight_prefix() {
    let (base, batches) = gc_stream();
    let flat = |n: usize, p: usize| -> Vec<MaintainOp> {
        let mut ops: Vec<MaintainOp> = batches[..n].iter().flatten().copied().collect();
        ops.extend_from_slice(&batches[n][..p]);
        ops
    };

    // Count pass: fault-free, numbering every sync point.
    let dir = TempDir::new("gc-count").unwrap();
    let (data, bases) = (dir.path().join("data"), dir.path().join("bases"));
    std::fs::create_dir_all(&bases).unwrap();
    let fault = FaultVfs::new(FaultPlan::default());
    let (created, acked) = run_gc_stream(
        Arc::clone(&fault) as Arc<dyn Vfs>,
        &data,
        &bases,
        &base,
        &batches,
    );
    assert!(
        created && acked.iter().all(|&a| a),
        "fault-free run must ack"
    );
    let total = fault.sync_events();
    assert!(
        (5..=150).contains(&total),
        "sync-point count {total} outside the expected band"
    );
    let all_ops: Vec<MaintainOp> = batches.iter().flatten().copied().collect();
    let reopened = testutil::open_catalog(&data).unwrap();
    assert_eq!(
        reopened.cores(GC).unwrap(),
        gc_world(&base, &all_ops),
        "clean-run recovery"
    );
    drop(reopened);

    for k in 1..=total {
        let dir = TempDir::new("gc-crash").unwrap();
        let (data, bases) = (dir.path().join("data"), dir.path().join("bases"));
        std::fs::create_dir_all(&bases).unwrap();
        let fault = FaultVfs::new(FaultPlan {
            crash_before_sync: Some(k),
            ..FaultPlan::default()
        });
        let (created, acked) = run_gc_stream(
            Arc::clone(&fault) as Arc<dyn Vfs>,
            &data,
            &bases,
            &base,
            &batches,
        );
        assert!(fault.crashed(), "crash point {k} never fired");

        // Acked batches must form a clean prefix.
        let j = acked.iter().position(|&a| !a).unwrap_or(batches.len());
        assert!(
            acked[j..].iter().all(|&a| !a),
            "crash {k}: batch acks not a prefix: {acked:?}"
        );

        match testutil::open_catalog(&data) {
            Err(e) => assert!(
                !created,
                "crash {k}: reopen failed though create_durable acked: {e}"
            ),
            Ok(svc) => {
                if !svc.graph_names().iter().any(|n| n == GC) {
                    // The crash landed inside graph creation itself.
                    assert_eq!(j, 0, "crash {k}: acked batches on an unrecovered graph");
                    continue;
                }
                assert!(svc.verify(GC).unwrap(), "crash {k}: certificate");
                let got = svc.cores(GC).unwrap();
                // Allowed worlds: every acked batch in full, plus any
                // prefix of the single in-flight batch — never a suffix,
                // never a partially-recovered *acked* batch.
                let allowed: Vec<Vec<u32>> = if j < batches.len() {
                    (0..=batches[j].len())
                        .map(|p| gc_world(&base, &flat(j, p)))
                        .collect()
                } else {
                    vec![gc_world(&base, &all_ops)]
                };
                assert!(
                    allowed.contains(&got),
                    "crash {k} (batch {j} in flight) recovered a third state"
                );
                drop(svc);
                let report = kcore_suite::fsck(&data, false).unwrap();
                assert!(
                    report.clean(),
                    "crash {k}: fsck after recovery: {:?}",
                    report.findings
                );
            }
        }
    }
}
