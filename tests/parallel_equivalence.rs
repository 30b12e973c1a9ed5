//! Sequential-vs-parallel executor equivalence over disk-resident graphs.
//!
//! The contract under test (see `semicore::executor`; the executor serves
//! SemiCore\* — the baselines are sequential and ride along at no width):
//!
//! * **Core numbers are bit-identical** between the sequential schedule and
//!   the parallel executor at any worker count, on any backend.
//! * **Charged `read_ios` is identical** when the shared block cache
//!   absorbs the algorithm's re-read working set: misses then count
//!   *distinct blocks touched*, a schedule-independent quantity, so the
//!   sharded run charges exactly what the sequential run does.
//! * The shared pool itself is safe under concurrent hammering from many
//!   reader handles (the stress test at the bottom).

use graphstore::{mem_to_disk, DiskGraph, IoCounter, MemGraph, TempDir};
use semicore::{
    semicore_plus, semicore_star_state_with, semicore_star_with, DecomposeOptions, ScanExecutor,
};
use testutil::{disk_full_budget as on_disk_full_budget, fixtures, worker_counts, Lcg};

#[test]
fn all_algorithms_all_families_all_worker_counts() {
    let dir = TempDir::new("pareq").unwrap();
    let opts = DecomposeOptions::default();
    // An algorithm, how to run it, and the parallel widths it is held to.
    type Algo = (
        &'static str,
        fn(&mut DiskGraph, &DecomposeOptions, ScanExecutor) -> graphstore::Result<Vec<u32>>,
        Vec<usize>,
    );
    let algos: Vec<Algo> = vec![
        (
            "semicore",
            |g, o, _| Ok(semicore::semicore(g, o)?.core),
            vec![],
        ),
        ("semicore+", |g, o, _| Ok(semicore_plus(g, o)?.core), vec![]),
        (
            "semicore*",
            |g, o, e| Ok(semicore_star_with(g, o, e)?.core),
            worker_counts(),
        ),
    ];

    for (family, g) in fixtures() {
        for (name, run, widths) in &algos {
            let mut seq_disk = on_disk_full_budget(&g, &dir, &format!("{family}-{name}-seq"));
            let seq_core = run(&mut seq_disk, &opts, ScanExecutor::Sequential).unwrap();
            let seq_reads = seq_disk.io().read_ios;
            assert!(seq_reads > 0, "{family}/{name}: disk run must charge I/O");

            for &workers in widths {
                let tag = format!("{family}-{name}-w{workers}");
                let mut par_disk = on_disk_full_budget(&g, &dir, &tag);
                let par_core = run(&mut par_disk, &opts, ScanExecutor::parallel(workers)).unwrap();
                let par_reads = par_disk.io().read_ios;
                assert_eq!(seq_core, par_core, "{family}/{name}/w{workers}: cores");
                assert_eq!(
                    seq_reads, par_reads,
                    "{family}/{name}/w{workers}: charged read_ios"
                );
            }
        }
    }
}

#[test]
fn parallel_star_state_satisfies_cnt_invariant_on_disk() {
    let dir = TempDir::new("parcnt").unwrap();
    for (family, g) in fixtures() {
        let mut disk = on_disk_full_budget(&g, &dir, family);
        let (state, stats) = semicore_star_state_with(
            &mut disk,
            &DecomposeOptions::default(),
            ScanExecutor::parallel(4),
        )
        .unwrap();
        assert_eq!(
            state.check_cnt_invariant(&mut disk).unwrap(),
            None,
            "{family}: Eq. 2 invariant"
        );
        assert_eq!(
            stats.io.write_ios, 0,
            "{family}: decomposition is read-only"
        );
    }
}

#[test]
fn parallel_runs_are_read_only_and_deterministic_across_repeats() {
    // Re-running the same parallel decomposition must reproduce the same
    // iteration structure and charged I/O (thread timing must not leak in).
    let dir = TempDir::new("parrep").unwrap();
    let g = MemGraph::from_edges(graphgen::gnm(400, 1600, 77), 400);
    let mut reference: Option<(Vec<u32>, u64, u64)> = None;
    for rep in 0..3 {
        let mut disk = on_disk_full_budget(&g, &dir, &format!("rep{rep}"));
        let d = semicore_star_with(
            &mut disk,
            &DecomposeOptions::default(),
            ScanExecutor::parallel(4),
        )
        .unwrap();
        assert_eq!(d.stats.io.write_ios, 0);
        let obs = (d.core, d.stats.iterations, d.stats.io.read_ios);
        match &reference {
            None => reference = Some(obs),
            Some(r) => assert_eq!(r, &obs, "repeat {rep} diverged"),
        }
    }
}

/// Stress the shared block cache from many threads at once: every handle
/// hammers random adjacency lists of the same cached graph under a budget
/// far smaller than the graph, forcing constant eviction and refill races.
/// Every read must still deliver exactly the right bytes.
#[test]
fn concurrent_cache_access_stress() {
    let n = 3000u32;
    let g = MemGraph::from_edges(graphgen::preferential_attachment(n, 6, 99), n);
    let dir = TempDir::new("stress").unwrap();
    let base = dir.path().join("g");
    // Small blocks so the graph spans many frames; budget of 8 blocks so
    // the pool thrashes.
    let block = 512usize;
    mem_to_disk(&base, &g, IoCounter::new(block)).unwrap();
    let root = DiskGraph::open_with_cache(&base, IoCounter::new(block), 8 * block as u64).unwrap();

    std::thread::scope(|s| {
        for t in 0..8u64 {
            let mut h = root.try_clone().unwrap();
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
            });
        }
    });

    let stats = root.cache_stats().unwrap();
    assert!(
        stats.misses > 0 && stats.evictions > 0,
        "stress must thrash"
    );
    // The pool itself stayed within its 8-frame budget (in-flight readers
    // may briefly keep evicted bytes alive, but never as pool residents).
    assert!(
        root.cache_resident_keys().len() <= 8,
        "pool exceeded its frame budget"
    );
}
