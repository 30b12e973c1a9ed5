//! # semicore — I/O-efficient core graph decomposition
//!
//! A from-scratch reproduction of *"I/O Efficient Core Graph Decomposition
//! at Web Scale"* (Wen, Qin, Zhang, Lin, Yu — ICDE 2016): semi-external
//! k-core decomposition and maintenance over disk-resident graphs, with the
//! baselines the paper evaluates against.
//!
//! ## Decomposition (§IV)
//!
//! | Algorithm | Paper | Entry point | Trigger for recomputation |
//! |---|---|---|---|
//! | SemiCore   | Alg. 3 | [`semicore`](fn@semicore)        | every node, every iteration |
//! | SemiCore+  | Alg. 4 | [`semicore_plus`](fn@semicore_plus)   | `active(v)` flags (Lemma 4.1) |
//! | SemiCore\* | Alg. 5 | [`semicore_star`](fn@semicore_star)   | `cnt(v) < core(v)` (Lemma 4.2 — optimal) |
//! | IMCore     | Alg. 1 | [`imcore`](fn@imcore)          | in-memory bin-sort peeling baseline |
//! | EMCore     | Alg. 2 | [`emcore`](fn@emcore)          | partition-based external baseline |
//!
//! All semi-external algorithms are generic over
//! [`graphstore::AdjacencyRead`], so the same code runs against disk graphs
//! (with block-accurate I/O accounting), buffered dynamic graphs, or pure
//! in-memory graphs.
//!
//! ## Scan execution (sequential, or parallel for SemiCore\*)
//!
//! SemiCore and SemiCore+ are sequential, as in the paper. SemiCore\* also
//! comes in a `_with` form ([`semicore_star_with`],
//! [`semicore_star_state_with`]) taking a [`ScanExecutor`]: the sequential
//! executor reproduces the paper's exact schedule, while
//! [`ScanExecutor::Parallel`] shards every convergence pass across a worker
//! pool reading through [`graphstore::ShardableRead`] handles — final core
//! numbers are bit-identical, but wall-clock does **not** yet drop with
//! cores: two workers measure 0.15–0.35× the sequential scan on the
//! repository benchmark (`executor.parallel2_speedup`), and ROADMAP's
//! "Parallel executor: make it pay or cut it" item decides its future. See
//! [`executor`] for the determinism and charged-I/O guarantees.
//!
//! ## Maintenance (§V)
//!
//! [`semi_delete_star`] (Alg. 6), [`semi_insert`] (Alg. 7) and
//! [`semi_insert_star`] (Alg. 8) update a maintained [`CoreState`]
//! incrementally; [`InMemoryCores`] packages the in-memory baseline
//! (IMInsert / IMDelete). Serving layers speak in the typed
//! [`MaintainOp`] value instead of picking a function per call:
//! [`MaintenanceEngine`] owns algorithm selection and dispatch, and the
//! op's stable wire encoding is what maintenance journals persist and
//! replay.
//!
//! ## Example
//!
//! ```
//! use graphstore::{IoCounter, MemGraph, mem_to_disk, TempDir};
//! use semicore::{semicore_star, DecomposeOptions};
//!
//! let dir = TempDir::new("doc").unwrap();
//! let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 4);
//! let mut disk = mem_to_disk(&dir.path().join("g"), &g, IoCounter::new(4096)).unwrap();
//! let d = semicore_star(&mut disk, &DecomposeOptions::default()).unwrap();
//! assert_eq!(d.core, vec![2, 2, 2, 1]);
//! assert_eq!(d.stats.io.write_ios, 0); // read-only, unlike EMCore
//! ```

#![deny(missing_docs)]
// `localcore`'s AVX2 tier is this crate's only `unsafe`: every block states
// why it is sound (the CPU feature check, the slice it points into).
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod analysis;
pub mod bits;
pub mod emcore;
pub mod executor;
pub mod fixtures;
pub mod imcore;
#[cfg(test)]
mod kernel_differential;
pub mod localcore;
pub mod maintain;
pub mod semicore;
pub mod semicore_plus;
pub mod semicore_star;
pub mod state;
pub mod stats;
pub mod verify;
pub mod window;

pub use emcore::{emcore, EmCoreOptions};
pub use executor::ScanExecutor;
pub use imcore::imcore;
pub use maintain::delete::semi_delete_star;
pub use maintain::engine::{MaintainOp, MaintenanceEngine, MAINTAIN_OP_LEN};
pub use maintain::inmem::InMemoryCores;
pub use maintain::insert::semi_insert;
pub use maintain::insert_star::semi_insert_star;
pub use maintain::{MaintainStats, SparseMarks};
pub use semicore::semicore;
pub use semicore_plus::semicore_plus;
pub use semicore_star::{
    semicore_star, semicore_star_state, semicore_star_state_with, semicore_star_with,
};
pub use state::CoreState;
pub use stats::{DecomposeOptions, Decomposition, RunStats};
pub use verify::{find_violations, verify_cores, verify_exact, Violation};
