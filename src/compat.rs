//! Kbench-only constructors (ROADMAP item 12b): each forwards to the
//! product constructor it names, ignoring the policy and schedule
//! parameters that no longer choose anything.

use std::path::Path;
use std::sync::Arc;

use graphstore::{DiskGraph, EvictionPolicy, Result, Vfs};
use semicore::ScanExecutor;

use crate::{CoreIndex, CoreService, DurableOptions};

impl CoreIndex {
    /// [`CoreIndex::decompose`], ignoring `_exec`.
    pub fn from_disk_graph(
        disk: DiskGraph,
        capacity: usize,
        _exec: ScanExecutor,
    ) -> Result<CoreIndex> {
        Self::decompose(disk, capacity)
    }
}

impl CoreService {
    /// [`CoreService::new`], ignoring `_policy` and `_exec`.
    pub fn with_config(
        block_size: usize,
        budget_bytes: u64,
        _policy: EvictionPolicy,
        _exec: ScanExecutor,
    ) -> Result<CoreService> {
        Self::new(block_size, budget_bytes)
    }

    /// [`CoreService::create_durable`], ignoring `_policy` and `_exec`.
    pub fn create_durable_with_vfs(
        dir: &Path,
        block_size: usize,
        budget_bytes: u64,
        _policy: EvictionPolicy,
        _exec: ScanExecutor,
        opts: DurableOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<CoreService> {
        Self::create_durable(dir, block_size, budget_bytes, opts, vfs)
    }

    /// [`CoreService::open_catalog`], ignoring `_exec`.
    pub fn open_catalog_with_vfs(
        dir: &Path,
        _exec: ScanExecutor,
        opts: DurableOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<CoreService> {
        Self::open_catalog(dir, opts, vfs)
    }
}
