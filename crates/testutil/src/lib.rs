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
//! * [`service`] / [`create_durable`] / [`open_catalog`] — the service's
//!   lifecycle constructors at the default block size and options, on the
//!   real filesystem (the facade's own unit tests cannot use them: there
//!   the facade is a different crate instance);
//! * [`arb_graph`] / [`arb_toggle_stream`] — the proptest strategies shared
//!   by the cross-validation and maintenance property suites;
//! * [`forge_checkpoint`] / [`checkpoint_v1`] — hand-framed state
//!   checkpoints: crafted bodies, and the version-1 layout no writer
//!   produces any more;
//! * [`write_legacy_tables`] — a table pair whose node table predates the
//!   packed node index (12-byte entries), which no writer produces any
//!   more.
//! * [`FaultVfs`] / [`FaultPlan`] ([`fault`]) — the deterministic fault
//!   injector behind the crash, fault-property and self-healing suites.

#![deny(missing_docs)]

pub mod fault;

pub use fault::{FaultPlan, FaultVfs};

use std::path::Path;

use graphstore::format::{encode_node_entry, encode_node_header};
use graphstore::{
    write_mem_graph_with, DiskGraph, FormatVersion, GraphMeta, GraphPaths, IoCounter, MemGraph,
    Result, StdVfs, DEFAULT_BLOCK_SIZE,
};
use kcore_suite::{CoreService, DurableOptions};
use proptest::prelude::*;

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

/// [`CoreService::new`] at the default block size.
pub fn service(budget_bytes: u64) -> CoreService {
    CoreService::new(DEFAULT_BLOCK_SIZE, budget_bytes).unwrap()
}

/// [`CoreService::create_durable`] at the default block size and options.
pub fn create_durable(dir: &Path, budget_bytes: u64) -> Result<CoreService> {
    let opts = DurableOptions::default();
    CoreService::create_durable(dir, DEFAULT_BLOCK_SIZE, budget_bytes, opts, StdVfs::arc())
}

/// [`CoreService::open_catalog`] with the default options.
pub fn open_catalog(dir: &Path) -> Result<CoreService> {
    CoreService::open_catalog(dir, DurableOptions::default(), StdVfs::arc())
}

/// A state checkpoint file framed around `payload`: the magic, `version`,
/// `payload` (everything after the version) and a valid CRC — the bytes a
/// reader gets past its checksum with.
pub fn forge_checkpoint(version: u32, payload: &[u8]) -> Vec<u8> {
    let body = [&version.to_le_bytes()[..], payload].concat();
    let crc = graphstore::codec::crc32(&body);
    [
        &graphstore::catalog::CHECKPOINT_MAGIC[..],
        &body,
        &crc.to_le_bytes(),
    ]
    .concat()
}

/// The version-1 rendering of a checkpoint: `seq`, the counts, `n` raw
/// `u32` cores, `n` raw `i32` counters and the 9-byte edits — what a
/// directory written before checkpoint version 2 holds.
pub fn checkpoint_v1(seq: u64, cores: &[u32], cnt: &[i32], edits: &[(u32, u32, bool)]) -> Vec<u8> {
    let mut p = seq.to_le_bytes().to_vec();
    p.extend_from_slice(&(cores.len() as u32).to_le_bytes());
    p.extend_from_slice(&(edits.len() as u32).to_le_bytes());
    for c in cores {
        p.extend_from_slice(&c.to_le_bytes());
    }
    for c in cnt {
        p.extend_from_slice(&c.to_le_bytes());
    }
    for &(u, v, inserted) in edits {
        p.extend_from_slice(&u.to_le_bytes());
        p.extend_from_slice(&v.to_le_bytes());
        p.push(inserted as u8);
    }
    forge_checkpoint(1, &p)
}

/// Write `g` at `base` as tables from before the packed node index: the
/// edge table of encoding `version`, under a legacy node table of one
/// 12-byte `(offset, degree)` entry per node (magic `KCORNOD1`, a 32-byte
/// v1 or 40-byte v3 header).
pub fn write_legacy_tables(base: &Path, g: &MemGraph, version: FormatVersion) -> Result<()> {
    let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
    write_mem_graph_with(base, g, counter.clone(), version)?;
    let mut disk = DiskGraph::open(base, counter)?;
    let meta = disk.meta();
    let legacy = match version {
        FormatVersion::V1 => GraphMeta::v1(meta.num_nodes, meta.degree_sum),
        FormatVersion::V3 => GraphMeta::v3(meta.num_nodes, meta.degree_sum, meta.edge_bytes),
    };
    let mut nodes = encode_node_header(&legacy);
    for v in 0..meta.num_nodes {
        let (offset, degree) = disk.node_entry(v)?;
        nodes.extend_from_slice(&encode_node_entry(offset, degree));
    }
    drop(disk);
    std::fs::write(GraphPaths::from_base(base).nodes, nodes)?;
    Ok(())
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
}
