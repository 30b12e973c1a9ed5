//! # kcore-suite — semi-external k-core decomposition at web scale
//!
//! Facade crate for the reproduction of *"I/O Efficient Core Graph
//! Decomposition at Web Scale"* (Wen et al., ICDE 2016). It re-exports the
//! three layers —
//!
//! * [`graphstore`]: disk-resident graph substrate with block-accurate I/O
//!   accounting,
//! * [`semicore`]: the SemiCore / SemiCore+ / SemiCore\* algorithms, the
//!   EMCore / IMCore baselines, and the maintenance algorithms,
//! * [`graphgen`]: seeded workload generators standing in for the paper's
//!   12 datasets,
//!
//! — and adds two batteries-included handles:
//!
//! * [`CoreIndex`] — one disk-resident dynamic graph with its maintained
//!   core numbers;
//! * [`CoreService`] — many such graphs served concurrently against **one**
//!   process-wide memory budget (a [`graphstore::SharedPool`]), with
//!   per-graph registration, eviction, deterministic charged I/O and —
//!   via [`CoreService::create_durable`] / [`CoreService::open_catalog`] —
//!   a persistent catalog plus per-graph maintenance journal, so a
//!   restart restores every maintained graph without re-decomposing.
//!
//! ```
//! use kcore_suite::CoreIndex;
//! use graphstore::TempDir;
//!
//! let dir = TempDir::new("doc").unwrap();
//! let mut index = CoreIndex::create(
//!     &dir.path().join("g"),
//!     [(0, 1), (1, 2), (0, 2), (2, 3)],
//!     4,
//! ).unwrap();
//! assert_eq!(index.core(0), 2);
//! index.insert_edge(1, 3).unwrap();
//! index.insert_edge(0, 3).unwrap();   // 0,1,2,3 now form a K4
//! assert_eq!(index.core(3), 3);
//! index.delete_edge(0, 1).unwrap();
//! assert_eq!(index.core(3), 2);
//! ```

#![warn(missing_docs)]

pub use graphgen;
pub use graphstore;
pub use semicore;

mod compat;

// The serving layer must never bring the process down on one tenant's
// failure: panicking unwraps are banned outright (tests excepted).
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
mod service;

/// Line-protocol dispatch and the multi-client TCP front-end.
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod server;

/// Offline integrity checking and repair of durable data directories.
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod fsck;

pub use fsck::{fsck, fsck_graph_with, FsckFinding, FsckReport};
pub use server::{Server, ServerOptions};
pub use service::{
    start_self_heal, CoreService, DurableOptions, HealthReport, HealthStatus, SelfHealHandle,
    SelfHealOptions, DEFAULT_COMPACT_AFTER_EDITS, DEFAULT_SCRUB_RATE,
};

use std::path::Path;

use graphstore::{
    AdjacencyRead, BufferedGraph, DiskGraph, IoCounter, IoSnapshot, MemGraph, Result,
    DEFAULT_BLOCK_SIZE, DEFAULT_BUFFER_CAPACITY,
};
use semicore::{
    semicore_star_state, CoreState, DecomposeOptions, MaintainOp, MaintainStats, MaintenanceEngine,
    RunStats,
};

/// Collect `edges` for [`MemGraph::from_edges`], refusing the id `u32::MAX`
/// first: the node count must fit `u32`.
fn checked_edges(edges: impl IntoIterator<Item = (u32, u32)>) -> Result<Vec<(u32, u32)>> {
    let edges: Vec<_> = edges.into_iter().collect();
    for &(u, v) in &edges {
        graphstore::Error::check_node_id(u.max(v))?;
    }
    Ok(edges)
}

/// Refuse a maintained `state` that does not cover `disk`'s node count.
fn check_covers(state: &CoreState, disk: &DiskGraph) -> Result<()> {
    let (covered, n) = (state.num_nodes(), disk.num_nodes());
    if covered == n {
        return Ok(());
    }
    Err(graphstore::Error::corrupt(format!(
        "restored state covers {covered} nodes but the graph has {n}"
    )))
}

/// A disk-resident dynamic graph with continuously maintained core numbers.
///
/// Construction runs SemiCore\* once; every subsequent edge update is
/// maintained incrementally with SemiDelete\* / SemiInsert\* — the paper's
/// recommended configuration. All I/O flows through a block-granular
/// counter, exposed via [`CoreIndex::io`].
#[derive(Debug)]
pub struct CoreIndex {
    graph: BufferedGraph,
    state: CoreState,
    engine: MaintenanceEngine,
    decompose_stats: RunStats,
}

impl CoreIndex {
    /// Build a graph from `edges` (undirected; self-loops and duplicates
    /// dropped) at `<base>.nodes/.edges`, then decompose it uncached. The
    /// id `u32::MAX` is [`Error::InvalidArgument`](graphstore::Error), as
    /// at [`ExternalGraphBuilder::add_edge`](graphstore::ExternalGraphBuilder::add_edge).
    pub fn create(
        base: &Path,
        edges: impl IntoIterator<Item = (u32, u32)>,
        min_nodes: u32,
    ) -> Result<CoreIndex> {
        let mem = MemGraph::from_edges(checked_edges(edges)?, min_nodes);
        graphstore::write_mem_graph(base, &mem, IoCounter::new(DEFAULT_BLOCK_SIZE))?;
        Self::open_with_cache(base, 0)
    }

    /// Open an existing on-disk graph with a block-cache budget of
    /// `cache_bytes` (the external-memory model's `M`; zero keeps the
    /// uncached one-frame reader) and decompose it.
    pub fn open_with_cache(base: &Path, cache_bytes: u64) -> Result<CoreIndex> {
        let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
        let disk = DiskGraph::open_with_cache(base, counter, cache_bytes)?;
        Self::decompose(disk, DEFAULT_BUFFER_CAPACITY)
    }

    /// Hit/miss statistics of the disk block cache (`None` when opened
    /// without a budget).
    pub fn cache_stats(&self) -> Option<graphstore::CacheStats> {
        self.graph.disk().cache_stats()
    }

    /// Decompose `disk` with SemiCore\*, then wrap it with an update buffer
    /// of `capacity` edit entries for maintenance. Every decomposing
    /// constructor ends here, [`CoreService`]'s included.
    pub fn decompose(mut disk: DiskGraph, capacity: usize) -> Result<CoreIndex> {
        let (state, decompose_stats) =
            semicore_star_state(&mut disk, &DecomposeOptions::default())?;
        Ok(Self::assemble(disk, capacity, state, decompose_stats))
    }

    /// Adopt `disk` with an already-maintained `state` — **no**
    /// decomposition runs. This is the recovery constructor: the state
    /// comes from a checkpoint (one sequential read) and the caller then
    /// replays the journal tail through [`CoreIndex::apply`], so reopening
    /// a maintained graph costs a scan plus the tail instead of the
    /// multi-pass decomposition the incremental algorithms exist to avoid.
    ///
    /// `state` must be the exact decomposition (with the Eq. 2 `cnt`
    /// invariant) of the graph `disk` + the edits the caller is about to
    /// replay from; a mismatched node count is rejected.
    pub fn restore(disk: DiskGraph, capacity: usize, state: CoreState) -> Result<CoreIndex> {
        check_covers(&state, &disk)?;
        Ok(Self::assemble(
            disk,
            capacity,
            state,
            RunStats::new("Restored"),
        ))
    }

    /// Compaction's swap: move onto `disk`, the same graph as new tables,
    /// behind an empty buffer of `capacity` entries. State and engine stay
    /// put (nothing node-sized is copied); a node-count mismatch is refused
    /// with the index untouched.
    pub(crate) fn adopt_tables(&mut self, disk: DiskGraph, capacity: usize) -> Result<()> {
        check_covers(&self.state, &disk)?;
        self.graph = BufferedGraph::new(disk, capacity);
        self.decompose_stats = RunStats::new("Restored");
        Ok(())
    }

    /// The one place an index is put together.
    fn assemble(
        disk: DiskGraph,
        capacity: usize,
        state: CoreState,
        decompose_stats: RunStats,
    ) -> CoreIndex {
        let engine = MaintenanceEngine::new(disk.num_nodes());
        CoreIndex {
            graph: BufferedGraph::new(disk, capacity),
            state,
            engine,
            decompose_stats,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.graph.num_nodes()
    }

    /// Number of undirected edges (including buffered updates).
    pub fn num_edges(&self) -> u64 {
        self.graph.degree_sum() / 2
    }

    /// Core number of `v`.
    pub fn core(&self, v: u32) -> u32 {
        self.state.core[v as usize]
    }

    /// All core numbers.
    pub fn cores(&self) -> &[u32] {
        &self.state.core
    }

    /// The degeneracy `kmax`.
    pub fn kmax(&self) -> u32 {
        self.state.kmax()
    }

    /// Nodes of the k-core (`core(v) ≥ k`), per Lemma 2.1.
    pub fn kcore_nodes(&self, k: u32) -> Vec<u32> {
        (0..self.num_nodes())
            .filter(|&v| self.state.core[v as usize] >= k)
            .collect()
    }

    /// Statistics of the initial decomposition run.
    pub fn decompose_stats(&self) -> &RunStats {
        &self.decompose_stats
    }

    /// Apply one typed maintenance operation, updating the cores
    /// incrementally through the index's [`MaintenanceEngine`] (SemiInsert\*
    /// for insertions, SemiDelete\* for deletions). This is the single
    /// mutation path: the convenience wrappers, the journal replay in
    /// [`CoreService::open_catalog`] and any future batch ingestion all
    /// dispatch the same value.
    pub fn apply(&mut self, op: MaintainOp) -> Result<MaintainStats> {
        self.engine.apply(&mut self.graph, &mut self.state, op)
    }

    /// Insert edge `(u, v)` (must be absent) and maintain the cores
    /// incrementally (SemiInsert\*).
    pub fn insert_edge(&mut self, u: u32, v: u32) -> Result<MaintainStats> {
        self.apply(MaintainOp::Insert(u, v))
    }

    /// Delete edge `(u, v)` (must be present) and maintain the cores
    /// incrementally (SemiDelete\*).
    pub fn delete_edge(&mut self, u: u32, v: u32) -> Result<MaintainStats> {
        self.apply(MaintainOp::Delete(u, v))
    }

    /// The maintained per-node state (cores plus Eq. 2 counters) — what a
    /// durability checkpoint persists.
    pub fn maintained_state(&self) -> &CoreState {
        &self.state
    }

    /// True when `(u, v)` exists (costs one adjacency read).
    pub fn has_edge(&mut self, u: u32, v: u32) -> Result<bool> {
        self.graph.has_edge(u, v)
    }

    /// Cumulative I/O performed through this index.
    pub fn io(&self) -> IoSnapshot {
        self.graph.io()
    }

    /// Bytes of in-memory node state (`core` + `cnt` + flags + buffer) —
    /// the semi-external footprint.
    pub fn resident_bytes(&self) -> u64 {
        self.state.resident_bytes() + self.engine.resident_bytes() + self.graph.buffer_bytes()
    }

    /// Mutable access to the underlying graph (flush control, etc.).
    pub fn graph_mut(&mut self) -> &mut BufferedGraph {
        &mut self.graph
    }

    /// Edge-table encoding of the backing disk graph (v1 raw `u32`s or v3
    /// stream-vbyte groups) — what `kcore serve` reports per served graph.
    pub fn format_version(&self) -> graphstore::FormatVersion {
        self.graph.disk().format_version()
    }

    /// Check the Theorem 4.1 fixpoint certificate on the current state.
    pub fn verify(&mut self) -> Result<bool> {
        semicore::verify_cores(&mut self.graph, &self.state.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::TempDir;

    #[test]
    fn create_query_update_cycle() {
        let dir = TempDir::new("suite").unwrap();
        let mut idx = CoreIndex::create(
            &dir.path().join("g"),
            semicore::fixtures::PAPER_EXAMPLE_EDGES,
            9,
        )
        .unwrap();
        assert_eq!(idx.cores(), &[3, 3, 3, 3, 2, 2, 2, 2, 1]);
        assert_eq!(idx.kmax(), 3);
        assert_eq!(idx.kcore_nodes(3), vec![0, 1, 2, 3]);
        assert!(idx.verify().unwrap());

        idx.delete_edge(0, 1).unwrap();
        assert_eq!(idx.kmax(), 2);
        idx.insert_edge(4, 6).unwrap();
        assert_eq!(idx.cores(), &[2, 2, 2, 3, 3, 3, 3, 2, 1]);
        assert!(idx.verify().unwrap());
        assert_eq!(idx.num_edges(), 15);
    }

    #[test]
    fn open_reuses_files() {
        let dir = TempDir::new("suite").unwrap();
        let base = dir.path().join("g");
        {
            CoreIndex::create(&base, [(0u32, 1u32), (1, 2), (0, 2)], 3).unwrap();
        }
        let idx = CoreIndex::open_with_cache(&base, 0).unwrap();
        assert_eq!(idx.cores(), &[2, 2, 2]);
    }

    #[test]
    fn adopt_tables_keeps_the_state_and_refuses_another_node_count() {
        let dir = TempDir::new("suite").unwrap();
        let mut idx =
            CoreIndex::create(&dir.path().join("g"), [(0, 1), (1, 2), (0, 2)], 3).unwrap();
        let other = dir.path().join("h");
        CoreIndex::create(&other, [(0, 1), (2, 3)], 4).unwrap();
        let disk = |base: &Path| DiskGraph::open(base, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        let err = idx.adopt_tables(disk(&other), 8).unwrap_err();
        assert!(err.is_corrupt(), "{err:?}");
        assert_eq!(idx.cores(), &[2, 2, 2]);
        assert!(
            idx.verify().unwrap(),
            "a refused swap leaves the index whole"
        );

        idx.delete_edge(0, 1).unwrap();
        let rewritten = dir.path().join("g1");
        idx.graph_mut().rewrite_to(&rewritten).unwrap();
        idx.adopt_tables(disk(&rewritten), 8).unwrap();
        assert_eq!(idx.cores(), &[1, 1, 1]);
        assert!(idx.verify().unwrap());
        assert!(!idx.has_edge(0, 1).unwrap());
    }

    #[test]
    fn create_refuses_the_id_u32_max() {
        let dir = TempDir::new("suite").unwrap();
        let base = dir.path().join("g");
        let err = CoreIndex::create(&base, [(0, 1), (1, u32::MAX)], 2).unwrap_err();
        assert!(
            matches!(&err, graphstore::Error::InvalidArgument(m) if m.contains("must fit u32")),
            "{err:?}"
        );
        assert!(!graphstore::GraphPaths::from_base(&base).nodes.exists());
    }
}
