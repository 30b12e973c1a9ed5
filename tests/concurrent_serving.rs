//! Concurrency differential over the serving layer: N real client threads
//! hammer one shared [`CoreService`] with a mixed query/maintenance
//! workload, and the result must be *indistinguishable* from each
//! tenant's op stream replayed sequentially on a solo service:
//!
//! * final core numbers per graph bit-identical to the sequential replay
//!   (and to the in-memory oracle over the final edge set);
//! * charged `read_ios` per tenant identical — the paper's cost model is
//!   a property of the op stream, not of scheduling luck;
//! * the Theorem 4.1 fixpoint certificate holds on every graph.
//!
//! Each client owns one graph for updates (so per-tenant op order is
//! well-defined) while its queries (`kmax`, `core`) roam across all
//! tenants — cross-tenant reads are answered from the in-memory core
//! state and charge nothing, which is exactly why the differential can
//! demand equality rather than mere plausibility. A second test runs the
//! same fleet against a durable, group-commit service and demands the
//! reopened catalog recover the final state bit-identically. A third puts
//! every writer on **one** durable graph and counts fsyncs: the journal
//! barrier is shared between concurrent writers and never skipped for a
//! lone one.
//!
//! Client counts run 1/2/4 by default; CI sets `KCORE_CLIENTS` to push
//! the soak wider (e.g. 8) without slowing the local default.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use graphstore::{
    EvictionPolicy, FaultPlan, FaultVfs, GroupCommitOptions, MemGraph, QosConfig, TempDir, Vfs,
    DEFAULT_BLOCK_SIZE,
};
use kcore_suite::{CoreService, DurableOptions};
use semicore::ScanExecutor;
use testutil::{oracle_cores, Lcg};

const BUDGET: u64 = 32 << 20;
const STEPS: usize = 40;

/// Client counts under test: 1 (sanity), 2, 4, plus whatever
/// `KCORE_CLIENTS` asks for on top (CI uses 8).
fn client_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4];
    if let Some(n) = std::env::var("KCORE_CLIENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

fn tenant(c: usize) -> String {
    format!("g{c}")
}

/// Per-client toggle script against its own graph: edge `(u, v)` is
/// inserted when absent and deleted when present, so every op is valid by
/// construction when applied in program order.
#[derive(Clone)]
struct Script {
    base: Vec<(u32, u32)>,
    nodes: u32,
    toggles: Vec<(u32, u32)>,
}

fn script(c: usize) -> Script {
    let nodes = 28 + (c as u32 % 3) * 8;
    let base: BTreeSet<(u32, u32)> = graphgen::gnm(nodes, u64::from(nodes) * 2, 40 + c as u64)
        .into_iter()
        .filter(|&(u, v)| u != v)
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    let mut rng = Lcg::new(0xC11E17 + c as u64);
    let toggles = (0..STEPS)
        .map(|_| {
            let u = rng.below(nodes);
            let mut v = rng.below(nodes);
            if v == u {
                v = (v + 1) % nodes;
            }
            (u.min(v), u.max(v))
        })
        .collect();
    Script {
        base: base.into_iter().collect(),
        nodes,
        toggles,
    }
}

/// The edge set after the whole script ran, in program order.
fn final_edges(s: &Script) -> BTreeSet<(u32, u32)> {
    let mut set: BTreeSet<(u32, u32)> = s.base.iter().copied().collect();
    for &e in &s.toggles {
        if !set.remove(&e) {
            set.insert(e);
        }
    }
    set
}

/// Apply one toggle through the service, in the op's program-order slot.
fn apply_toggle(svc: &CoreService, name: &str, present: &mut BTreeSet<(u32, u32)>, e: (u32, u32)) {
    let res = if present.remove(&e) {
        svc.delete_edge(name, e.0, e.1)
    } else {
        present.insert(e);
        svc.insert_edge(name, e.0, e.1)
    };
    res.unwrap_or_else(|err| panic!("{name}: toggle {e:?} failed: {err}"));
}

/// Serve the full fleet concurrently: one thread per client, each
/// toggling its own graph and querying everyone's. Returns per-tenant
/// (cores, charged read_ios).
fn run_concurrent(svc: &Arc<CoreService>, scripts: &[Script]) -> Vec<(Vec<u32>, u64)> {
    let n = scripts.len();
    let handles: Vec<_> = (0..n)
        .map(|c| {
            let svc = Arc::clone(svc);
            let script = scripts[c].clone();
            std::thread::spawn(move || {
                let name = tenant(c);
                let mut present: BTreeSet<(u32, u32)> = script.base.iter().copied().collect();
                let mut rng = Lcg::new(0x5EED + c as u64);
                for &e in &script.toggles {
                    apply_toggle(&svc, &name, &mut present, e);
                    // Mixed workload: between updates, read someone
                    // else's core state (charge-free, any interleaving).
                    // `core ≤ kmax` only holds when both come from the
                    // same locked view — the owner may update in between
                    // two separate calls.
                    let other = tenant(rng.below(n as u32) as usize);
                    let v = rng.below(8);
                    let (k, c_of_v) = svc
                        .with_graph(&other, |idx| Ok((idx.kmax(), idx.core(v))))
                        .unwrap();
                    assert!(c_of_v <= k, "{other}: core({v}) = {c_of_v} > kmax {k}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    (0..n)
        .map(|c| {
            let name = tenant(c);
            let cores = svc.cores(&name).unwrap();
            let ios = svc.io(&name).unwrap().read_ios;
            (cores, ios)
        })
        .collect()
}

/// The sequential referee: a fresh solo service replays each tenant's op
/// stream in program order, one tenant at a time, no concurrency at all.
fn run_sequential(dir: &TempDir, scripts: &[Script]) -> Vec<(Vec<u32>, u64)> {
    let svc = CoreService::with_config(
        DEFAULT_BLOCK_SIZE,
        BUDGET,
        EvictionPolicy::ScanLifo,
        ScanExecutor::Sequential,
    )
    .unwrap();
    scripts
        .iter()
        .enumerate()
        .map(|(c, s)| {
            let name = tenant(c);
            svc.create(
                &name,
                &dir.path().join(format!("seq-{name}")),
                s.base.iter().copied(),
                s.nodes,
            )
            .unwrap();
            let mut present: BTreeSet<(u32, u32)> = s.base.iter().copied().collect();
            for &e in &s.toggles {
                apply_toggle(&svc, &name, &mut present, e);
            }
            let cores = svc.cores(&name).unwrap();
            let ios = svc.io(&name).unwrap().read_ios;
            (cores, ios)
        })
        .collect()
}

fn check_differential(
    svc: &CoreService,
    scripts: &[Script],
    concurrent: &[(Vec<u32>, u64)],
    sequential: &[(Vec<u32>, u64)],
) {
    for (c, s) in scripts.iter().enumerate() {
        let name = tenant(c);
        let (conc_cores, conc_ios) = &concurrent[c];
        let (seq_cores, seq_ios) = &sequential[c];
        assert_eq!(
            conc_cores, seq_cores,
            "{name}: concurrent cores differ from sequential replay"
        );
        assert_eq!(
            conc_ios, seq_ios,
            "{name}: charged read_ios depend on scheduling (concurrent {conc_ios} vs sequential {seq_ios})"
        );
        let mem = MemGraph::from_edges(final_edges(s), s.nodes);
        assert_eq!(
            conc_cores,
            &oracle_cores(&mem),
            "{name}: cores differ from the in-memory oracle"
        );
        assert!(
            svc.verify(&name).unwrap(),
            "{name}: fixpoint certificate violated"
        );
    }
}

/// The differential proper, at every client count, with QoS admission
/// turned on tight enough that requests genuinely queue: fairness
/// machinery must never change *what* is computed, only *when*.
#[test]
fn concurrent_serving_is_indistinguishable_from_sequential_replay() {
    for n in client_counts() {
        let scripts: Vec<Script> = (0..n).map(script).collect();
        let dir = TempDir::new("conc-serve").unwrap();

        let svc = Arc::new(
            CoreService::with_config(
                DEFAULT_BLOCK_SIZE,
                BUDGET,
                EvictionPolicy::ScanLifo,
                ScanExecutor::Sequential,
            )
            .unwrap(),
        );
        for (c, s) in scripts.iter().enumerate() {
            let name = tenant(c);
            svc.create(
                &name,
                &dir.path().join(format!("conc-{name}")),
                s.base.iter().copied(),
                s.nodes,
            )
            .unwrap();
        }
        // Budget a bit over half the summed charges: with 2+ clients
        // someone always waits, but any single tenant still fits and the
        // queue is deep enough that nothing is ever shed.
        let charges: Vec<u64> = (0..n)
            .map(|c| {
                graphstore::working_set_charge_budget(
                    &dir.path().join(format!("conc-{}", tenant(c))),
                    DEFAULT_BLOCK_SIZE,
                )
                .unwrap()
            })
            .collect();
        let total: u64 = charges.iter().sum();
        let max: u64 = charges.iter().copied().max().unwrap_or(0);
        svc.set_qos(Some(QosConfig {
            capacity_bytes: (total / 2).max(max),
            max_waiters: 4 * n * STEPS,
        }));

        let concurrent = run_concurrent(&svc, &scripts);
        let sequential = run_sequential(&dir, &scripts);
        check_differential(&svc, &scripts, &concurrent, &sequential);
    }
}

/// The same fleet against a durable group-commit service: after the soak,
/// closing and reopening the catalog must recover every tenant's final
/// cores bit-identically (group commit batches acknowledgements, it never
/// weakens them).
#[test]
fn group_commit_soak_recovers_final_state_bit_identically() {
    let n = client_counts().into_iter().max().unwrap_or(4);
    let scripts: Vec<Script> = (0..n).map(script).collect();
    let dir = TempDir::new("conc-durable").unwrap();
    let data = dir.path().join("data");

    let svc = Arc::new(
        CoreService::create_durable_with(
            &data,
            DEFAULT_BLOCK_SIZE,
            BUDGET,
            EvictionPolicy::ScanLifo,
            ScanExecutor::Sequential,
            DurableOptions {
                checkpoint_every: 16,
                group_commit: Some(GroupCommitOptions {
                    max_delay: Duration::from_micros(200),
                }),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    for (c, s) in scripts.iter().enumerate() {
        let name = tenant(c);
        svc.create(
            &name,
            &dir.path().join(format!("base-{name}")),
            s.base.iter().copied(),
            s.nodes,
        )
        .unwrap();
    }

    let live = run_concurrent(&svc, &scripts);
    drop(svc);

    let reopened = CoreService::open_catalog(&data).unwrap();
    for (c, s) in scripts.iter().enumerate() {
        let name = tenant(c);
        let recovered = reopened.cores(&name).unwrap();
        assert_eq!(
            recovered, live[c].0,
            "{name}: recovery disagrees with the live service"
        );
        let mem = MemGraph::from_edges(final_edges(s), s.nodes);
        assert_eq!(recovered, oracle_cores(&mem), "{name}: oracle mismatch");
        assert!(reopened.verify(&name).unwrap(), "{name}: certificate");
    }
    let report = kcore_suite::fsck(&data, false).unwrap();
    assert!(report.clean(), "post-soak fsck: {:?}", report.findings);
}

/// Writers on **one** durable graph serialize on its lock, so sharing the
/// journal's fsync barrier is the only win there is, and it must be taken:
/// `writers × ops` acknowledged updates cost strictly fewer fsyncs, at
/// gather window 0 and at 200 µs. A lone writer has nobody to share with
/// and nothing may be skipped for it: exactly one fsync per op. (Whether
/// the window lowers the count further is scheduling; kbench reports it
/// as `wal.fsyncs_per_write`.)
///
/// Pair `(u, v)` belongs to writer `(u + v) mod writers`, so each writer's
/// toggles stay valid under any interleaving and the final edge set is the
/// same for every schedule.
#[test]
fn writers_on_one_graph_share_the_journal_barrier() {
    const NODES: u32 = 48;
    const OPS: usize = 60;
    let ring: BTreeSet<(u32, u32)> = (0..NODES)
        .map(|u| (u.min((u + 1) % NODES), u.max((u + 1) % NODES)))
        .collect();
    for writers in [1usize, 4] {
        let owner = |&(u, v): &(u32, u32)| (u + v) as usize % writers;
        // Each writer walks its own slice with a stride, so consecutive
        // ops touch different adjacency lists.
        let slices: Vec<Vec<(u32, u32)>> = (0..writers)
            .map(|w| {
                let mine: Vec<(u32, u32)> = (0..NODES)
                    .flat_map(|u| ((u + 1)..NODES).map(move |v| (u, v)))
                    .filter(|e| owner(e) == w)
                    .collect();
                (0..OPS).map(|i| mine[(i * 7 + w) % mine.len()]).collect()
            })
            .collect();
        let mut expected = ring.clone();
        for &e in slices.iter().flatten() {
            if !expected.remove(&e) {
                expected.insert(e);
            }
        }

        for window in [None, Some(Duration::from_micros(200))] {
            let dir = TempDir::new("conc-barrier").unwrap();
            let fault = FaultVfs::new(FaultPlan::default());
            let svc = CoreService::create_durable_with_vfs(
                &dir.path().join("data"),
                DEFAULT_BLOCK_SIZE,
                BUDGET,
                EvictionPolicy::ScanLifo,
                ScanExecutor::Sequential,
                DurableOptions {
                    // No checkpoint inside the run: every sync event
                    // counted below is a journal barrier.
                    checkpoint_every: u64::MAX,
                    group_commit: window.map(|max_delay| GroupCommitOptions { max_delay }),
                    ..Default::default()
                },
                Arc::clone(&fault) as Arc<dyn Vfs>,
            )
            .unwrap();
            svc.create(
                "shared",
                &dir.path().join("base"),
                ring.iter().copied(),
                NODES,
            )
            .unwrap();

            let before = fault.sync_events();
            std::thread::scope(|scope| {
                for (w, toggles) in slices.iter().enumerate() {
                    let svc = &svc;
                    let mut present: BTreeSet<(u32, u32)> =
                        ring.iter().copied().filter(|e| owner(e) == w).collect();
                    scope.spawn(move || {
                        for &e in toggles {
                            apply_toggle(svc, "shared", &mut present, e);
                        }
                    });
                }
            });
            let fsyncs = fault.sync_events() - before;
            let acked = (writers * OPS) as u64;
            if writers == 1 {
                assert_eq!(fsyncs, acked, "window {window:?}: a lone writer's barriers");
            } else {
                assert!(
                    fsyncs < acked,
                    "window {window:?}: {fsyncs} fsyncs for {acked} updates by {writers} \
                     writers — no barrier was shared"
                );
            }
            let mem = MemGraph::from_edges(expected.iter().copied(), NODES);
            assert_eq!(svc.cores("shared").unwrap(), oracle_cores(&mem));
        }
    }
}

/// A stock client — plain `TcpStream`, Nagle and delayed ACKs left on —
/// must see its reply in one segment: twenty sequential `kmax` round trips
/// over loopback stay far below the ~40 ms a reply split across two
/// segments costs while the client's delayed ACK holds the second back.
#[test]
fn stock_tcp_client_round_trips_are_not_stalled_by_delayed_acks() {
    use std::io::{BufRead, BufReader, Write};

    let dir = TempDir::new("conc-rtt").unwrap();
    let svc = Arc::new(CoreService::new(BUDGET).unwrap());
    svc.create("g", &dir.path().join("g"), [(0, 1), (1, 2), (0, 2)], 3)
        .unwrap();
    let mut server = kcore_suite::server::Server::start(
        Arc::clone(&svc),
        "127.0.0.1:0",
        kcore_suite::server::ServerOptions::default(),
    )
    .unwrap();
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    let mut rtt: Vec<Duration> = (0..20)
        .map(|_| {
            let t = std::time::Instant::now();
            conn.write_all(b"kmax g\n").unwrap();
            let mut reply = String::new();
            replies.read_line(&mut reply).unwrap();
            assert_eq!(reply, "kmax = 2\n");
            t.elapsed()
        })
        .collect();
    server.shutdown();
    rtt.sort_unstable();
    let median = rtt[rtt.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median stock-client RTT {median:?} (sorted: {rtt:?})"
    );
}
