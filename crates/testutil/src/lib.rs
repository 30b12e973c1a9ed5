//! Shared test scaffolding for the k-core suite.
//!
//! Before this crate existed, every suite that needed "a seeded random
//! graph checked against recomputation from scratch" grew its own copy of
//! the same three ingredients: an inline LCG, an ad-hoc random edge-list
//! builder, and an `imcore` oracle call. This crate is the single home for
//! that scaffolding — a **dev-dependency only** (it sits above `semicore`
//! in the build graph, which Cargo permits for dev-dependencies), so it can
//! never leak into shipped code.
//!
//! What lives here:
//!
//! * [`Lcg`] — the deterministic generator every seeded test uses;
//! * [`random_mem_graph`] / [`random_edges`] — the seeded multigraph
//!   builders behind the maintenance stream tests;
//! * [`oracle_cores`] — recompute-from-scratch core numbers (the IMCore
//!   oracle);
//! * [`fixtures`] — the ER/BA/RMAT generator-family trio at test size;
//! * [`disk_full_budget`] — write a graph to disk and open it with a
//!   whole-working-set cache budget (the regime where charged I/O is
//!   schedule-independent);
//! * [`worker_counts`] / [`env_executor`] — the one place that reads
//!   `SEMICORE_WORKERS`, CI's knob for re-running a suite at another width;
//! * [`arb_graph`] / [`arb_toggle_stream`] — the proptest strategies shared
//!   by the cross-validation and maintenance property suites.

#![deny(missing_docs)]

use graphstore::{mem_to_disk, DiskGraph, IoCounter, MemGraph, TempDir, DEFAULT_BLOCK_SIZE};
use proptest::prelude::*;
use semicore::ScanExecutor;

/// The suite's standard deterministic generator (a 64-bit LCG with the
/// Knuth multiplier, emitting the high bits). Same stream as the inline
/// closures it replaces.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// A generator seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> Lcg {
        Lcg { state: seed }
    }

    /// Next 31 random bits, as the `u32` the tests consume.
    pub fn next_u32(&mut self) -> u32 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 33) as u32
    }

    /// Uniform-ish draw from `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "cannot sample an empty range");
        self.next_u32() % bound
    }
}

/// `count` random (possibly duplicate, possibly self-loop) node pairs over
/// `0..n` — the raw material of a seeded multigraph.
pub fn random_edges(rng: &mut Lcg, n: u32, count: u32) -> Vec<(u32, u32)> {
    (0..count).map(|_| (rng.below(n), rng.below(n))).collect()
}

/// A seeded random multigraph: `min_nodes + below(node_span)` nodes and
/// roughly `density` times as many candidate edges as nodes (self-loops and
/// duplicates dropped by [`MemGraph::from_edges`]). This is the shape every
/// maintenance suite draws its starting graphs from.
pub fn random_mem_graph(rng: &mut Lcg, min_nodes: u32, node_span: u32, density: u32) -> MemGraph {
    let n = min_nodes + rng.below(node_span.max(1));
    let m = n + rng.below((density * n).max(1));
    MemGraph::from_edges(random_edges(rng, n, m), n)
}

/// The width `SEMICORE_WORKERS` asks for, if any — the CI knob that re-runs
/// a suite at another width (see `.github/workflows/ci.yml`). The product
/// does not read it: there, `--workers N` is the one way.
fn env_workers() -> Option<usize> {
    std::env::var("SEMICORE_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w >= 1)
}

/// Worker counts the executor-equivalence suites sweep: 1/2/4 always, plus
/// whatever `SEMICORE_WORKERS` asks for.
pub fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4];
    if let Some(w) = env_workers().filter(|w| !counts.contains(w)) {
        counts.push(w);
    }
    counts
}

/// The executor of a suite that runs at one width: sequential, unless
/// `SEMICORE_WORKERS` asks for two workers or more.
pub fn env_executor() -> ScanExecutor {
    match env_workers() {
        Some(w) if w >= 2 => ScanExecutor::parallel(w),
        _ => ScanExecutor::Sequential,
    }
}

/// Core numbers recomputed from scratch by the in-memory oracle (IMCore) —
/// the ground truth every incremental or external result is checked
/// against.
pub fn oracle_cores(g: &MemGraph) -> Vec<u32> {
    semicore::imcore(g).core
}

/// The three generator-family fixtures the equivalence and bench suites
/// share, at test size: ER (`gnm`), BA (preferential attachment) and R-MAT
/// (web-like skew).
pub fn fixtures() -> Vec<(&'static str, MemGraph)> {
    let er = MemGraph::from_edges(graphgen::gnm(600, 2400, 11), 600);
    let ba = MemGraph::from_edges(graphgen::preferential_attachment(500, 4, 22), 500);
    let rmat_params = graphgen::Rmat::web(9);
    let rmat = MemGraph::from_edges(
        graphgen::rmat_edges(rmat_params, 3000, 33),
        rmat_params.num_nodes(),
    );
    vec![("ER", er), ("BA", ba), ("RMAT", rmat)]
}

/// Write `g` to disk under `dir/tag` and open it with a cache budget
/// covering the whole graph — the regime in which charged I/O equals
/// *distinct blocks touched* and is therefore schedule-independent (what
/// the sequential-vs-parallel equivalence suites rely on).
///
/// Headroom of a few frames over the byte total: each table rounds up to
/// whole blocks, and a pool one frame short of the working set would evict
/// — making charged misses schedule-dependent again.
pub fn disk_full_budget(g: &MemGraph, dir: &TempDir, tag: &str) -> DiskGraph {
    let base = dir.path().join(tag);
    drop(mem_to_disk(&base, g, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap());
    DiskGraph::open_with_cache(
        &base,
        IoCounter::new(DEFAULT_BLOCK_SIZE),
        working_set_budget(&base),
    )
    .unwrap()
}

/// The working-set charge/cache budget of the graph stored at `base`, at
/// the default block size — a panicking test-side wrapper over the one
/// canonical formula, [`graphstore::working_set_charge_budget`].
pub fn working_set_budget(base: &std::path::Path) -> u64 {
    graphstore::working_set_charge_budget(base, DEFAULT_BLOCK_SIZE).unwrap()
}

/// Strategy: an arbitrary small multigraph (edge list plus node count) —
/// the input shape of the cross-validation property suites.
pub fn arb_graph() -> impl Strategy<Value = MemGraph> {
    arb_graph_with(2, 120, 400)
}

/// [`arb_graph`] with explicit bounds: `min_nodes..max_nodes` nodes and up
/// to `max_edges` candidate edges.
pub fn arb_graph_with(
    min_nodes: u32,
    max_nodes: u32,
    max_edges: usize,
) -> impl Strategy<Value = MemGraph> {
    (min_nodes..max_nodes, 0usize..max_edges).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m)
            .prop_map(move |edges| MemGraph::from_edges(edges, n))
    })
}

/// Strategy: a starting multigraph plus a stream of node-pair *toggles*
/// (insert the edge when absent, delete it when present) — the input shape
/// of the maintenance property suites.
pub fn arb_toggle_stream() -> impl Strategy<Value = (MemGraph, Vec<(u32, u32)>)> {
    (3u32..60, 0usize..150).prop_flat_map(|(n, m)| {
        let edges = proptest::collection::vec((0..n, 0..n), m);
        let ops = proptest::collection::vec((0..n, 0..n), 0usize..40);
        (edges, ops).prop_map(move |(e, o)| (MemGraph::from_edges(e, n), o))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_matches_the_inline_closures_it_replaced() {
        // The exact constants and shift the suite's tests used inline.
        let mut seed = 13u64;
        let mut inline = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut lcg = Lcg::new(13);
        for _ in 0..100 {
            assert_eq!(lcg.next_u32(), inline());
        }
    }

    #[test]
    fn random_graph_is_deterministic_per_seed() {
        let a = random_mem_graph(&mut Lcg::new(42), 3, 50, 3);
        let b = random_mem_graph(&mut Lcg::new(42), 3, 50, 3);
        assert_eq!(a, b);
        let c = random_mem_graph(&mut Lcg::new(43), 3, 50, 3);
        assert!(a != c || a.num_edges() == 0);
    }

    #[test]
    fn oracle_matches_known_structure() {
        let clique4: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|u| ((u + 1)..4).map(move |v| (u, v)))
            .collect();
        let g = MemGraph::from_edges(clique4, 5);
        assert_eq!(oracle_cores(&g), vec![3, 3, 3, 3, 0]);
    }

    #[test]
    fn fixtures_are_nonempty_and_distinct() {
        let fx = fixtures();
        assert_eq!(fx.len(), 3);
        for (name, g) in &fx {
            assert!(g.num_edges() > 0, "{name} must have edges");
        }
    }

    #[test]
    fn disk_full_budget_round_trips() {
        let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2)], 3);
        let dir = TempDir::new("testutil").unwrap();
        let mut disk = disk_full_budget(&g, &dir, "g");
        let mut buf = Vec::new();
        disk.adjacency(1, &mut buf).unwrap();
        assert_eq!(buf, vec![0, 2]);
        assert!(disk.cache_budget_bytes() > 0);
    }
}
