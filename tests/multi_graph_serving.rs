//! Differential tests for [`CoreService`]: serving N graphs concurrently
//! against one shared budget must be *observably identical*, per graph, to
//! serving each graph alone.
//!
//! The contract under test (see `graphstore::pool` and
//! `kcore_suite::CoreService`):
//!
//! * **Cores are bit-identical** solo vs shared — the pool serves bytes, it
//!   never touches results.
//! * **Charged `read_ios` is bit-identical** solo vs shared: each graph's
//!   charge comes from its private deterministic charge cache (its own
//!   model budget `M`), never from shared-pool residency. Only
//!   `physical_reads` may move with contention.
//! * The shared pool **never exceeds its global byte budget**, no matter
//!   how many graphs hammer it from how many threads.
//! * Pooling **pays**: at a budget of the combined working set, one pool
//!   fetches every block once where a static per-graph split of the same
//!   bytes thrashes on the largest graph.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use graphstore::{mem_to_disk, IoCounter, IoSnapshot, MemGraph, TempDir, DEFAULT_BLOCK_SIZE};
use kcore_suite::CoreService;
use testutil::{fixtures, working_set_budget, Lcg};

/// A deterministic per-graph maintenance script: toggle a seeded stream of
/// edges through the service (insert when absent, delete when present).
fn run_updates(svc: &CoreService, name: &str, seed: u64, steps: u32) {
    let mut rng = Lcg::new(seed);
    let n = svc.with_graph(name, |idx| Ok(idx.num_nodes())).unwrap();
    for _ in 0..steps {
        let a = rng.below(n);
        let b = rng.below(n);
        if a == b {
            continue;
        }
        svc.with_graph(name, |idx| {
            if idx.has_edge(a, b)? {
                idx.delete_edge(a, b)?;
            } else {
                idx.insert_edge(a, b)?;
            }
            Ok(())
        })
        .unwrap();
    }
}

/// What one graph's full serving session (decompose + maintenance stream)
/// observably produced.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    cores: Vec<u32>,
    charged_reads: u64,
    kmax: u32,
}

fn observe(svc: &CoreService, name: &str, seed: u64, steps: u32) -> Observation {
    run_updates(svc, name, seed, steps);
    let io: IoSnapshot = svc.io(name).unwrap();
    Observation {
        cores: svc.cores(name).unwrap(),
        charged_reads: io.read_ios,
        kmax: svc.kmax(name).unwrap(),
    }
}

/// Write the fixture trio to disk once, returning `(name, base)` pairs.
fn fixture_bases(dir: &TempDir) -> Vec<(String, PathBuf)> {
    fixtures()
        .into_iter()
        .map(|(name, g)| {
            let base = dir.path().join(name);
            mem_to_disk(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
            (name.to_string(), base)
        })
        .collect()
}

/// A pool budget tight enough that three graphs contend hard for frames:
/// 8 frames against a fixture trio whose combined working set spans dozens
/// of blocks, so eviction is constant — exactly the regime where physical
/// reads diverge and charged reads must not.
const TIGHT_POOL_BUDGET: u64 = 8 * DEFAULT_BLOCK_SIZE as u64;

#[test]
fn n_graphs_shared_equals_n_solo_runs_across_policies_and_workers() {
    let dir = TempDir::new("svc-diff").unwrap();
    let bases = fixture_bases(&dir);
    let steps = 30u32;

    // Solo baseline: each graph gets its own service (same tight
    // global budget, of which it is the only tenant).
    let mut solo: Vec<Observation> = Vec::new();
    for (i, (name, base)) in bases.iter().enumerate() {
        let svc = testutil::service(TIGHT_POOL_BUDGET);
        svc.open(name, base).unwrap();
        solo.push(observe(&svc, name, 0xA11CE + i as u64, steps));
    }

    // Shared run: one service, every graph served concurrently
    // from its own thread.
    let svc = testutil::service(TIGHT_POOL_BUDGET);
    let shared: Vec<Observation> = std::thread::scope(|s| {
        let handles: Vec<_> = bases
            .iter()
            .enumerate()
            .map(|(i, (name, base))| {
                let svc = &svc;
                s.spawn(move || {
                    svc.open(name, base).unwrap();
                    observe(svc, name, 0xA11CE + i as u64, steps)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (name, _)) in bases.iter().enumerate() {
        assert_eq!(
            solo[i].cores, shared[i].cores,
            "{name}: cores solo vs shared"
        );
        assert_eq!(
            solo[i].charged_reads, shared[i].charged_reads,
            "{name}: charged read_ios solo vs shared"
        );
        assert_eq!(solo[i].kmax, shared[i].kmax);
        assert!(
            solo[i].charged_reads > 0,
            "{name}: a disk-served session must charge I/O"
        );
    }
    assert!(
        svc.pool().resident_bytes() <= svc.pool().budget_bytes(),
        "pool over budget after the shared run"
    );
}

#[test]
fn shared_serving_matches_the_oracle_per_graph() {
    // The cores a served graph reports are not just solo-consistent but
    // *correct*: after every graph's maintenance stream, recomputing from
    // the merged on-disk + buffered state matches the oracle.
    let dir = TempDir::new("svc-oracle").unwrap();
    let bases = fixture_bases(&dir);
    let svc = testutil::service(TIGHT_POOL_BUDGET);
    for (i, (name, base)) in bases.iter().enumerate() {
        svc.open(name, base).unwrap();
        run_updates(&svc, name, 0xBEEF + i as u64, 20);
    }
    for (name, _) in &bases {
        assert!(
            svc.verify(name).unwrap(),
            "{name}: Theorem 4.1 certificate after shared maintenance"
        );
    }
}

#[test]
fn pool_budget_holds_under_concurrent_load_with_monitor() {
    // Hammer three graphs from three threads while a monitor thread
    // samples pool occupancy: the budget must hold at every sample, not
    // just at quiescence.
    let dir = TempDir::new("svc-budget").unwrap();
    let bases = fixture_bases(&dir);
    let svc = testutil::service(TIGHT_POOL_BUDGET);
    for (name, base) in &bases {
        svc.open(name, base).unwrap();
    }

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let monitor = {
            let svc = &svc;
            let done = &done;
            s.spawn(move || {
                let mut samples = 0u64;
                while !done.load(Ordering::Relaxed) {
                    assert!(
                        svc.pool().resident_bytes() <= svc.pool().budget_bytes(),
                        "pool over budget mid-load"
                    );
                    samples += 1;
                    std::thread::yield_now();
                }
                samples
            })
        };
        let workers: Vec<_> = bases
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let svc = &svc;
                s.spawn(move || run_updates(svc, name, 0xF00D + i as u64, 60))
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        assert!(monitor.join().unwrap() > 0, "monitor never sampled");
    });

    // Contention was real: the pool evicted under the tight budget.
    assert!(
        svc.pool().stats().evictions > 0,
        "load never thrashed the pool"
    );
}

#[test]
fn eviction_frees_capacity_for_the_survivors() {
    let dir = TempDir::new("svc-evict").unwrap();
    let bases = fixture_bases(&dir);
    let svc = testutil::service(TIGHT_POOL_BUDGET);
    for (name, base) in &bases {
        svc.open(name, base).unwrap();
    }
    assert_eq!(svc.pool().registered_graphs(), 3);
    let victim = &bases[0].0;
    svc.evict(victim).unwrap();
    assert_eq!(svc.pool().registered_graphs(), 2);
    // No frame of the evicted graph survives; the others still serve.
    run_updates(&svc, &bases[1].0, 7, 10);
    assert!(svc.verify(&bases[1].0).unwrap());
    assert!(svc.io(victim).is_err());
}

/// What the pool is for. Three graphs of unequal size (the largest ~10× the
/// smallest) at a total budget `M` of their combined working set: pooled,
/// every tenant stays resident and each block is fetched exactly once —
/// physical reads equal the charged count; split statically into `M / 3`
/// each, the large graph's third cannot hold it while the small graphs'
/// thirds sit idle, so the same sessions fetch strictly more. Sequential
/// and seeded, so the counts repeat. (Mid-range budgets can wobble either
/// way under scan-resistant eviction; kbench reports those as
/// `pool.hit_ratio` / `io.physical_reads`.)
#[test]
fn pooling_the_combined_working_set_beats_a_static_split() {
    let dir = TempDir::new("svc-split").unwrap();
    let trio: Vec<(&str, PathBuf)> = [
        ("small", 9, 18_000),
        ("medium", 11, 54_000),
        ("large", 12, 180_000),
    ]
    .into_iter()
    .map(|(name, scale, draws)| {
        let web = graphgen::Rmat::web(scale);
        let g = MemGraph::from_edges(graphgen::rmat_edges(web, draws, 42), web.num_nodes());
        let base = dir.path().join(name);
        mem_to_disk(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        (name, base)
    })
    .collect();
    let total: u64 = trio.iter().map(|(_, base)| working_set_budget(base)).sum();

    // (physical, charged) reads summed over the three sessions, with the
    // total budget carved into `pools` equal pools (1 = shared by all).
    let sessions = |pools: usize| -> (u64, u64) {
        let budget = total / pools as u64;
        let services: Vec<CoreService> = (0..pools).map(|_| testutil::service(budget)).collect();
        let mut sum = (0, 0);
        for (i, (name, base)) in trio.iter().enumerate() {
            let svc = &services[i % pools];
            svc.open(name, base).unwrap();
            run_updates(svc, name, 0x5EED + i as u64, 30);
            let io = svc.io(name).unwrap();
            sum = (sum.0 + io.physical_reads, sum.1 + io.read_ios);
        }
        sum
    };
    let (pooled, split) = (sessions(1), sessions(trio.len()));
    assert_eq!(pooled.1, split.1, "charged reads never see the split");
    assert_eq!(
        pooled.0, pooled.1,
        "a pool holding every working set fetches each charged block once"
    );
    assert!(
        pooled.0 < split.0,
        "pooled {} physical reads, split {}: the pool must win at the whole working set",
        pooled.0,
        split.0
    );
}

#[test]
fn explicit_charge_budget_is_the_model_m_knob() {
    // A smaller per-graph charge budget charges *more* read I/Os for the
    // same session (less model memory absorbs fewer re-reads), without any
    // other graph or the pool size being involved. At 512 B blocks the
    // compressed fixture spans dozens of blocks, so four are a real squeeze.
    const BLOCK: usize = 512;
    let dir = TempDir::new("svc-charge").unwrap();
    let (name, g) = &fixtures()[0];
    let base = dir.path().join(name);
    mem_to_disk(&base, g, IoCounter::new(BLOCK)).unwrap();

    let mut charged = Vec::new();
    let working_set = graphstore::working_set_charge_budget(&base, BLOCK).unwrap();
    for budget in [working_set, 4 * BLOCK as u64] {
        let svc = CoreService::new(BLOCK, TIGHT_POOL_BUDGET).unwrap();
        svc.open_with_charge(name, &base, budget).unwrap();
        charged.push(observe(&svc, name, 0xCAFE, 10).charged_reads);
    }
    assert!(
        charged[1] > charged[0],
        "4-block charge budget ({}) must charge more than the working set ({})",
        charged[1],
        charged[0]
    );
}
