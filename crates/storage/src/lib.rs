//! # graphstore — disk-resident graph substrate
//!
//! Storage layer for the semi-external k-core suite (a reproduction of
//! *"I/O Efficient Core Graph Decomposition at Web Scale"*, Wen et al.,
//! ICDE 2016). It provides everything the paper's algorithms assume from the
//! machine below them:
//!
//! * an **external-memory cost model** ([`io`]): all disk access is charged
//!   per block of `B` bytes, so algorithms report I/O exactly as the paper's
//!   plots do;
//! * the **node-table / edge-table on-disk format** ([`format`](mod@format), [`graph`])
//!   from §II of the paper, with streaming and memory-bounded builders
//!   ([`builder`]);
//! * the **edge update buffer** ([`update_buffer`]) from §V, enabling
//!   dynamic graphs under the semi-external model;
//! * **partitioned storage** ([`partition`]) for the EMCore baseline;
//! * in-memory representations ([`memgraph`]) for the in-memory baselines
//!   and for test oracles.
//!
//! ```
//! use graphstore::{AdjacencyRead, IoCounter, MemGraph, mem_to_disk, TempDir};
//!
//! let dir = TempDir::new("doc").unwrap();
//! let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2)], 3);
//! let counter = IoCounter::new(4096);
//! let mut disk = mem_to_disk(&dir.path().join("g"), &g, counter).unwrap();
//! let mut nbrs = Vec::new();
//! disk.adjacency(1, &mut nbrs).unwrap();
//! assert_eq!(nbrs, vec![0, 2]);
//! assert!(disk.io().read_ios >= 1);
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// `codec`'s AVX2 tier and `graph`'s aligned reinterpretation are this
// crate's only `unsafe`: every block states why it is sound (the CPU
// feature check, the bytes readable at a pointer, the room reserved behind
// a raw store).
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod access;
pub mod builder;
pub mod cache;
pub mod catalog;
pub mod codec;
mod compat;
pub mod edgelist;
pub mod error;
pub mod format;
pub mod graph;
pub mod io;
pub mod memgraph;
pub mod partition;
pub mod pool;
pub mod tempdir;
pub mod update_buffer;
pub mod vfs;
pub mod wal;

pub use access::{snapshot_mem, AdjacencyRead, DynamicGraph};
pub use builder::{
    disk_to_mem, mem_to_disk, write_mem_graph, write_mem_graph_with, DiskGraphWriter,
    ExternalGraphBuilder,
};
pub use cache::{BlockCache, CacheStats};
pub use catalog::{generation_base, Catalog, CatalogEntry, StateCheckpoint};
pub use compat::EvictionPolicy;
pub use error::{Error, Result};
pub use format::{FormatVersion, GraphMeta, GraphPaths};
pub use graph::DiskGraph;
pub use io::{IoCounter, IoSnapshot, DEFAULT_BLOCK_SIZE};
pub use memgraph::{DynGraph, MemGraph};
pub use partition::{LoadedPartition, PartitionStore};
pub use pool::{
    working_set_charge_budget, AdmissionController, AdmissionPermit, PendingAdmission, PoolLease,
    QosConfig, SharedPool,
};
pub use tempdir::TempDir;
pub use update_buffer::{
    rewrite_temp_base, rewrite_temp_paths, BufferedGraph, UpdateBuffer, DEFAULT_BUFFER_CAPACITY,
};
pub use vfs::{StdVfs, ThrottledVfs, Vfs, VfsFile};
pub use wal::{GroupCommitOptions, GroupCommitWal, Wal, WalScan, WAL_MAGIC};

/// Node identifier. The paper's largest graph (978.4M nodes) fits in `u32`.
pub type NodeId = u32;
