//! Property tests: every decomposition algorithm agrees with the IMCore
//! oracle on arbitrary graphs, over both in-memory and on-disk backends.

use graphstore::{mem_to_disk, IoCounter, MemGraph, TempDir, DEFAULT_BLOCK_SIZE};
use proptest::prelude::*;
use semicore::{verify_exact, DecomposeOptions, EmCoreOptions};
use testutil::{arb_graph, oracle_cores};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_decomposition_algorithms_agree(g in arb_graph()) {
        let mut g = g;
        let oracle = oracle_cores(&g);
        let opts = DecomposeOptions::default();

        let a = semicore::semicore(&mut g, &opts).unwrap();
        prop_assert_eq!(&a.core, &oracle);

        let b = semicore::semicore_plus(&mut g, &opts).unwrap();
        prop_assert_eq!(&b.core, &oracle);

        let c = semicore::semicore_star(&mut g, &opts).unwrap();
        prop_assert_eq!(&c.core, &oracle);

        let e = semicore::emcore(&mut g, &EmCoreOptions {
            partition_bytes: 4096,
            memory_budget: 8192,
        }).unwrap();
        prop_assert_eq!(&e.core, &oracle);

        // And the oracle itself satisfies the independent certificate.
        prop_assert!(verify_exact(&mut g, &oracle).unwrap());
    }

    #[test]
    fn node_computation_hierarchy_holds(g in arb_graph()) {
        // The paper's optimisation ladder: SemiCore* <= SemiCore+ <= SemiCore
        // in node computations.
        let mut g = g;
        let opts = DecomposeOptions::default();
        let a = semicore::semicore(&mut g, &opts).unwrap();
        let b = semicore::semicore_plus(&mut g, &opts).unwrap();
        let c = semicore::semicore_star(&mut g, &opts).unwrap();
        prop_assert!(b.stats.node_computations <= a.stats.node_computations);
        prop_assert!(c.stats.node_computations <= b.stats.node_computations);
    }

    #[test]
    fn disk_backend_matches_memory_backend(g in arb_graph()) {
        let oracle = oracle_cores(&g);
        let dir = TempDir::new("xval").unwrap();
        let mut disk = mem_to_disk(
            &dir.path().join("g"),
            &g,
            IoCounter::new(DEFAULT_BLOCK_SIZE),
        ).unwrap();
        let opts = DecomposeOptions::default();
        let d = semicore::semicore_star(&mut disk, &opts).unwrap();
        prop_assert_eq!(&d.core, &oracle);
        // Semi-external decomposition never writes.
        prop_assert_eq!(d.stats.io.write_ios, 0);
    }

    #[test]
    fn changed_node_series_sums_are_consistent(g in arb_graph()) {
        // Fig. 3 instrumentation: total changes must be identical across
        // variants (they converge through the same monotone updates), and
        // each per-iteration series must be recorded when requested.
        let mut g = g;
        let opts = DecomposeOptions { track_changed_per_iteration: true };
        let a = semicore::semicore(&mut g, &opts).unwrap();
        let c = semicore::semicore_star(&mut g, &opts).unwrap();
        let sum_a: u64 = a.stats.changed_per_iteration.as_ref().unwrap().iter().sum();
        let sum_c: u64 = c.stats.changed_per_iteration.as_ref().unwrap().iter().sum();
        prop_assert_eq!(sum_a, sum_c);
    }
}

#[test]
fn kmax_of_known_structures() {
    // Deterministic sanity points used by the figures.
    let clique6: Vec<(u32, u32)> = (0..6u32)
        .flat_map(|u| ((u + 1)..6).map(move |v| (u, v)))
        .collect();
    let mut g = MemGraph::from_edges(clique6, 6);
    let d = semicore::semicore_star(&mut g, &DecomposeOptions::default()).unwrap();
    assert_eq!(d.kmax(), 5);

    // Two cliques joined by a bridge: cores stay clique-local.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..5u32 {
        for v in (u + 1)..5 {
            edges.push((u, v));
            edges.push((u + 5, v + 5));
        }
    }
    edges.push((0, 5));
    let mut g = MemGraph::from_edges(edges, 10);
    let d = semicore::semicore_star(&mut g, &DecomposeOptions::default()).unwrap();
    assert!(d.core.iter().all(|&c| c == 4));
}
