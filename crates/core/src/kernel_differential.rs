//! Differential suite: SemiCore\*'s node kernel three ways — the paper's
//! four-sweep closure ([`with_reference_kernel`]), the fused kernel's
//! portable scalar tier ([`with_scalar_kernel`]) and its vector tier as
//! production dispatches it.
//!
//! The fused kernel does not re-announce neighbours that were already in
//! violation, which is only sound if the whole run — not just its result —
//! is unchanged; and the vector tier finds the same estimate by a different
//! search. So everything observable is compared after the decomposition and
//! after every maintenance step: `core`, `cnt`, passes,
//! node computations, the per-pass change series and, on disk, the complete
//! charged [`IoSnapshot`] (a different visiting order would surface as
//! different block misses and seeks).

use graphstore::{
    write_mem_graph_with, BufferedGraph, DiskGraph, DynGraph, DynamicGraph, FormatVersion,
    GraphPaths, IoCounter, IoSnapshot, MemGraph, SharedPool, TempDir,
};
use proptest::prelude::*;

use crate::semicore_star::{semicore_star_state, with_reference_kernel, with_scalar_kernel};
use crate::{semi_delete_star, semi_insert, CoreState, DecomposeOptions, SparseMarks};

/// What one step of a run exposes.
#[derive(Debug, PartialEq)]
struct Observed {
    state: CoreState,
    iterations: u64,
    node_computations: u64,
    changed_per_iteration: Option<Vec<u64>>,
    io: IoSnapshot,
}

/// Decompose `g`, then toggle each of `pairs` in turn — SemiDelete\* when
/// the edge is present, two-phase SemiInsert (whose second phase is the
/// convergence loop) when it is absent — observing every step.
fn run(g: &mut impl DynamicGraph, pairs: &[(u32, u32)]) -> Vec<Observed> {
    let opts = DecomposeOptions {
        track_changed_per_iteration: true,
    };
    let (mut state, stats) = semicore_star_state(g, &opts).unwrap();
    let mut steps = vec![Observed {
        state: state.clone(),
        iterations: stats.iterations,
        node_computations: stats.node_computations,
        changed_per_iteration: stats.changed_per_iteration,
        io: stats.io,
    }];
    let mut marks = SparseMarks::new(state.num_nodes());
    let mut nbrs = Vec::new();
    for &(a, b) in pairs.iter().filter(|(a, b)| a != b) {
        g.adjacency(a, &mut nbrs).unwrap();
        let stats = if nbrs.binary_search(&b).is_ok() {
            semi_delete_star(g, &mut state, a, b)
        } else {
            semi_insert(g, &mut state, &mut marks, a, b)
        }
        .unwrap();
        steps.push(Observed {
            state: state.clone(),
            iterations: stats.iterations,
            node_computations: stats.node_computations,
            changed_per_iteration: None,
            io: stats.io,
        });
    }
    steps
}

/// A toggle stream that deletes about as often as it inserts: existing
/// edges alternate with random pairs (mostly absent on sparse graphs).
fn toggles(g: &MemGraph, seed: u64, count: usize) -> Vec<(u32, u32)> {
    let mut rng = testutil::Lcg::new(seed);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    (0..count)
        .map(|i| {
            if i % 2 == 0 && !edges.is_empty() {
                edges[rng.below(edges.len() as u32) as usize]
            } else {
                (rng.below(g.num_nodes()), rng.below(g.num_nodes()))
            }
        })
        .collect()
}

/// `observe` under each of the three kernels, the production dispatch
/// (the vector tier on an AVX2 CPU) first.
fn three_ways<T>(mut observe: impl FnMut() -> T) -> [(&'static str, T); 3] {
    [
        ("vector kernel", observe()),
        ("paper reference", with_reference_kernel(&mut observe)),
        ("scalar twin", with_scalar_kernel(&mut observe)),
    ]
}

/// All three kernels over an in-memory graph; the run must also be *right*.
fn assert_kernels_agree_in_memory(g: &MemGraph, pairs: &[(u32, u32)]) {
    let mut dynamic = DynGraph::from_mem(g);
    let [(_, vector), others @ ..] = three_ways(|| {
        dynamic = DynGraph::from_mem(g);
        run(&mut dynamic, pairs)
    });
    for (kernel, steps) in &others {
        assert_eq!(&vector, steps, "vector kernel vs {kernel}");
    }
    assert_eq!(vector[0].state.core, testutil::oracle_cores(g));
    let last = vector.last().unwrap();
    assert_eq!(last.state.core, testutil::oracle_cores(&dynamic.to_mem()));
    assert_eq!(last.state.check_cnt_invariant(&mut dynamic).unwrap(), None);
}

#[test]
fn kernel_differential_on_generator_fixtures() {
    for (name, g) in testutil::fixtures() {
        let pairs = toggles(&g, 31, 60);
        assert_kernels_agree_in_memory(&g, &pairs);
        assert!(
            pairs.iter().any(|&(a, b)| g.has_edge(a, b)),
            "{name}: the stream must contain deletions"
        );
    }
}

/// The three ways a served graph reads its tables, at a block size the
/// fixtures span hundreds of.
const BLOCK: usize = 512;

fn open_variants(base: &std::path::Path, pool: &SharedPool) -> Vec<(&'static str, DiskGraph)> {
    let edge_bytes = std::fs::metadata(GraphPaths::from_base(base).edges)
        .unwrap()
        .len();
    let tenth = edge_bytes / 10;
    vec![
        (
            "uncached",
            DiskGraph::open(base, IoCounter::new(BLOCK)).unwrap(),
        ),
        (
            "10% private cache",
            DiskGraph::open_with_cache(base, IoCounter::new(BLOCK), tenth).unwrap(),
        ),
        (
            "pooled with charge cache",
            DiskGraph::open_pooled(base, IoCounter::new(BLOCK), pool, tenth).unwrap(),
        ),
    ]
}

#[test]
fn kernel_differential_on_disk_charges_identically() {
    for (name, g) in testutil::fixtures() {
        let pairs = toggles(&g, 47, 24);
        let dir = TempDir::new("kdiff").unwrap();
        let base = dir.path().join("g");
        write_mem_graph_with(&base, &g, IoCounter::new(BLOCK), FormatVersion::V3).unwrap();
        let observe = || -> Vec<(&'static str, Vec<Observed>)> {
            // A fresh pool per sweep: pool residency is physical state, but
            // the sweeps should start from the same one anyway.
            let pool = SharedPool::new(BLOCK, 64 * BLOCK as u64).unwrap();
            open_variants(&base, &pool)
                .into_iter()
                .map(|(label, disk)| {
                    // Capacity above the stream length: no flush rewrites
                    // the tables under the second sweep.
                    let mut buffered = BufferedGraph::new(disk, 1 << 20);
                    (label, run(&mut buffered, &pairs))
                })
                .collect()
        };
        let [(_, vector), others @ ..] = three_ways(observe);
        for (label, steps) in &vector {
            assert!(
                steps[0].io.read_ios > 0,
                "{name} {label}: nothing was charged"
            );
        }
        for (kernel, opened) in &others {
            assert_eq!(&vector, opened, "{name}: vector kernel vs {kernel}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_differential_on_arbitrary_toggle_streams(
        (g, pairs) in testutil::arb_toggle_stream()
    ) {
        assert_kernels_agree_in_memory(&g, &pairs);
    }
}
