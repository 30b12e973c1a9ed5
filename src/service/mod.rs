//! Multi-graph serving: many [`CoreIndex`]es against one memory budget,
//! optionally durable across restarts.
//!
//! The paper prices everything against a single memory budget `M`;
//! [`CoreService`] makes that budget a *process-wide* resource. It owns one
//! [`SharedPool`] and a registry of named graphs, each opened against it
//! with [`DiskGraph::open_pooled`] and decomposed by
//! [`CoreIndex::decompose`]: the pool arbitrates the global byte budget
//! across whichever graphs are busy, while every graph keeps a private
//! deterministic charge cache so its charged `read_ios` is bit-identical
//! whether it is served alone or alongside `K` contending graphs — only
//! [`physical_reads`](graphstore::IoSnapshot::physical_reads) move with
//! contention (see [`graphstore::pool`] for the accounting contract).
//!
//! Concurrency: the registry lock is held only to look names up; each graph
//! sits behind its own mutex, so operations on *different* graphs proceed
//! in parallel while operations on the same graph serialize. Evicting a
//! graph drops it from the registry; its pool frames are invalidated when
//! the last in-flight operation on it finishes (invalidate-on-drop via the
//! graph's [`PoolLease`](graphstore::PoolLease)).
//!
//! ## Durability
//!
//! A service built with [`CoreService::create_durable`] (or reopened with
//! [`CoreService::open_catalog`]) journals every maintenance operation and
//! survives restarts — including `SIGKILL` — without re-decomposing:
//!
//! * the **catalog** ([`graphstore::catalog::Catalog`], `catalog.kc`)
//!   records the pool configuration and every served graph's name, base
//!   path and charge budget;
//! * each graph has a **checkpoint** (`<name>.ckpt`): its maintained
//!   cores + `cnt` and pending update-buffer edits at a journal sequence
//!   number, replaced atomically;
//! * and a **write-ahead journal** (`<name>.wal`): every applied
//!   [`semicore::MaintainOp`], appended *before* it is applied and
//!   fsynced before it is acknowledged.
//!
//! [`CoreService::apply_batch`] is the single mutation path (`apply` is
//! a batch of one): stage each op under the graph's lock, join once,
//! then cross the acknowledging fsync barrier after the lock is released
//! — the `durable` submodule documents the protocol and owns it.
//! Recovery loads the checkpoint in one sequential scan and replays the
//! journal tail through the very same [`CoreIndex::apply`] dispatch.
//! Durable graphs never rewrite their tables *in place*: a table file is
//! immutable from creation to deletion while edits accumulate in the
//! (checkpointed) update buffer, which is what makes recovery exact at
//! any kill point. What bounds that accumulation is **generational
//! compaction** ([`CoreService::compact`]): tables plus buffered edits
//! are rewritten into a fresh generation of files and the catalog
//! manifest's bumped generation number is the single commit point. The
//! full crash-window analysis lives in ARCHITECTURE.md ("Durability" and
//! "Compaction").
//!
//! ## Failure containment and self-healing
//!
//! The service is multi-tenant, so one graph's failure must never take the
//! others down. Every fallible path returns a typed
//! [`graphstore::Error`] — nothing in this module panics on I/O failure —
//! and each served graph carries a four-state health machine
//! ([`HealthStatus`]):
//!
//! * **Healthy → Quarantined**: an operation failing with an I/O or
//!   corruption error (or a mutex poisoned by a panicking thread) seals
//!   the graph — its slot stays in the registry but every further
//!   operation is rejected with [`graphstore::Error::Quarantined`], while
//!   all other graphs keep serving. After a mid-mutation failure the
//!   in-memory cores/`cnt` can no longer be trusted; the on-disk
//!   journal/checkpoint protocol is what makes recovery safe.
//! * **Healthy → ReadOnly**: a *disk-full* failure on the journal or
//!   checkpoint writers damages nothing — it only stops writers — so the
//!   graph degrades instead of sealing: queries keep serving the last
//!   committed state, mutations are refused with
//!   [`graphstore::Error::ReadOnly`], and the graph is promoted back once
//!   a probe ([`CoreService::probe_read_only`]) proves space returned.
//! * **Quarantined → Repairing → Healthy**: [`CoreService::repair`]
//!   rebuilds a quarantined graph *online* — fsck tail-repair of its
//!   durable artefacts, the same recovery path a restart uses, and the
//!   Theorem 4.1 fixpoint certificate as the re-admission gate — without
//!   disturbing any other tenant.
//!
//! The [`start_self_heal`] supervisor automates all three transitions
//! (bounded repair retries with exponential backoff, read-only probing,
//! and a rate-limited background scrub through the fsck invariants);
//! every reason along the way is kept in a bounded per-graph history so
//! [`CoreService::health`] can show the full causal chain.
//! [`CoreService::evict`] (which bypasses quarantine) followed by a
//! re-open remains the manual big hammer. All file I/O flows through a
//! [`graphstore::Vfs`], so the crash-point torture tests inject faults
//! here without touching production code paths.
//!
//! ## Module map
//!
//! This file holds the registry, slots, admission and the query paths;
//! `durable` owns the write protocol (journal, checkpoint, generation
//! commit, recovery); `health` is the pure state machine; `heal` is
//! repair, scrub, probe and the supervisor.

mod durable;
mod heal;
mod health;

pub use heal::{start_self_heal, SelfHealHandle, SelfHealOptions, DEFAULT_SCRUB_RATE};
pub use health::{HealthReport, HealthStatus};

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use graphstore::{
    working_set_charge_budget, AdmissionController, AdmissionPermit, Catalog, CatalogEntry,
    DiskGraph, FormatVersion, GroupCommitOptions, GroupCommitWal, IoCounter, IoSnapshot, QosConfig,
    Result, SharedPool, StdVfs, Vfs,
};

use crate::CoreIndex;
use durable::{validate_durable_name, Durable, DURABLE_BUFFER_CAPACITY};
use health::HealthState;

/// Default [`DurableOptions::compact_after_edits`]: one million buffered
/// edit entries (~16 MiB of buffer) before the apply path compacts.
pub const DEFAULT_COMPACT_AFTER_EDITS: usize = 1 << 20;

/// Durability knobs for [`CoreService::create_durable`] /
/// [`CoreService::open_catalog`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Checkpoint (and truncate the journal) after this many maintenance
    /// ops per graph. Smaller values bound the replay tail; larger values
    /// amortise the `O(n)` checkpoint write. Clamped to at least 1.
    pub checkpoint_every: u64,
    /// The journal's **gather window**, default `None` = zero. Every
    /// journal is a group-commit one ([`GroupCommitWal`]): appends land
    /// unsynced, [`CoreService::apply`] waits on a shared fsync barrier
    /// *after* releasing the graph's lock, and concurrent appliers
    /// coalesce into one fsync. `Some(opts)` only makes the barrier's
    /// leader wait `opts.max_delay` first, so more appliers join each
    /// fsync at the cost of per-op latency. The acknowledgement contract
    /// does not depend on it — an op whose success was reported is
    /// durable.
    pub group_commit: Option<GroupCommitOptions>,
    /// Compact a graph once its update buffer holds this many edit
    /// entries (an undirected edge op buffers two entries, one per
    /// endpoint). This is the durable path's **memory bound**: without
    /// it the buffer — and with it every checkpoint and every recovery
    /// replay — grows without limit, because durable graphs never
    /// self-flush. Each buffered entry costs a few tens of bytes
    /// (hash-map node + `u32` id), so the per-graph buffer ceiling is
    /// `O(compact_after_edits)`. Clamped to at least 2 (one edge op).
    pub compact_after_edits: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            checkpoint_every: 64,
            group_commit: None,
            compact_after_edits: DEFAULT_COMPACT_AFTER_EDITS,
        }
    }
}

/// One served graph: its index plus the journaling state of the durable
/// apply path. The whole struct sits behind the graph's mutex, so sequence
/// numbers never race with the ops they number.
#[derive(Debug)]
struct Served {
    index: CoreIndex,
    /// The graph's journal (durable services only). Shared so a writer
    /// can wait on its barrier after releasing the graph's lock.
    wal: Option<Arc<GroupCommitWal>>,
    /// Sequence number of the last applied op.
    seq: u64,
    /// Sequence number of the last completed checkpoint.
    ck_seq: u64,
}

impl Served {
    /// A freshly decomposed graph with no journal (yet).
    fn new(index: CoreIndex) -> Served {
        Served {
            index,
            wal: None,
            seq: 0,
            ck_seq: 0,
        }
    }
}

/// A process-wide k-core serving layer: open, decompose, maintain, query
/// and evict many disk-resident graphs concurrently against **one** global
/// byte budget — with optional on-disk durability of the whole registry.
///
/// ```
/// use graphstore::{TempDir, DEFAULT_BLOCK_SIZE};
/// use kcore_suite::CoreService;
///
/// let dir = TempDir::new("doc-service").unwrap();
/// let service = CoreService::new(DEFAULT_BLOCK_SIZE, 1 << 20).unwrap(); // 1 MiB for everyone
/// service
///     .create("tri", &dir.path().join("tri"), [(0, 1), (1, 2), (0, 2)], 3)
///     .unwrap();
/// service
///     .create("path", &dir.path().join("path"), [(0, 1), (1, 2)], 3)
///     .unwrap();
/// assert_eq!(service.kmax("tri").unwrap(), 2);
/// assert_eq!(service.kmax("path").unwrap(), 1);
/// service.insert_edge("path", 0, 2).unwrap(); // now a triangle too
/// assert_eq!(service.kmax("path").unwrap(), 2);
/// service.evict("tri").unwrap(); // frames return to the pool
/// assert_eq!(service.graph_names(), vec!["path".to_string()]);
/// ```
///
/// The durable variant survives a restart with its maintained state:
///
/// ```
/// use graphstore::{StdVfs, TempDir, DEFAULT_BLOCK_SIZE};
/// use kcore_suite::{CoreService, DurableOptions};
///
/// let dir = TempDir::new("doc-durable").unwrap();
/// let data = dir.path().join("data");
/// let opts = DurableOptions::default();
/// {
///     let svc = CoreService::create_durable(
///         &data,
///         DEFAULT_BLOCK_SIZE,
///         1 << 20,
///         opts.clone(),
///         StdVfs::arc(),
///     )
///     .unwrap();
///     svc.create("g", &dir.path().join("g"), [(0, 1), (1, 2)], 3).unwrap();
///     svc.insert_edge("g", 0, 2).unwrap(); // journaled, then applied
/// } // process "dies" here
/// let svc = CoreService::open_catalog(&data, opts, StdVfs::arc()).unwrap();
/// assert_eq!(svc.kmax("g").unwrap(), 2); // restored without re-decomposing
/// ```
#[derive(Debug)]
pub struct CoreService {
    pool: SharedPool,
    graphs: Mutex<HashMap<String, Slot>>,
    durable: Option<Durable>,
    /// Filesystem seam every counter (and the catalog writer) goes
    /// through; [`StdVfs`] in production, a fault-injecting one
    /// (`testutil::FaultVfs`) under the torture tests.
    vfs: Arc<dyn Vfs>,
    /// Per-tenant admission control over the charge budget (`None` admits
    /// everything). Installed by [`CoreService::set_qos`]; every serving
    /// entry point takes a permit sized by the graph's working set before
    /// touching its lock.
    qos: Mutex<Option<Arc<AdmissionController>>>,
    /// Per-operation deadline (`None` runs unlimited). Installed by
    /// [`CoreService::set_op_timeout`]; armed on the graph's I/O counter
    /// for the cancellable stretch of each operation.
    op_timeout: Mutex<Option<Duration>>,
}

/// Registry slot: the graph's lock plus metadata readable without it.
#[derive(Debug)]
struct Slot {
    handle: Arc<Mutex<Served>>,
    /// Edge-table encoding of the current tables, kept current by
    /// [`CoreService::note_format`]. Listing/diagnostic commands read it
    /// under the registry lock alone, so they never stall behind a graph
    /// that is mid-scan or mid-maintenance.
    format: FormatVersion,
    /// The graph's charge budget — also the working-set size its
    /// operations are admitted at when QoS is enabled.
    charge_bytes: u64,
    /// Registered base path of the graph's generation-0 tables — what a
    /// repair of a *non-durable* graph re-opens and re-decomposes.
    base: PathBuf,
    /// The graph's health record. Shared (not inline in the slot) so a
    /// failing operation can update it after the registry lock has been
    /// released, without re-entering the registry.
    health: Arc<Mutex<HealthState>>,
}

impl Slot {
    fn new(
        handle: Arc<Mutex<Served>>,
        format: FormatVersion,
        charge_bytes: u64,
        base: &Path,
    ) -> Slot {
        Slot {
            handle,
            format,
            charge_bytes,
            base: base.to_path_buf(),
            health: Arc::default(),
        }
    }
}

/// Lock a metadata mutex, recovering from poison. Safe for the registry,
/// health and catalog-entry maps: they hold plain lookup data that is
/// updated in single assignments, so a panicking holder cannot leave them
/// half-written the way a mid-maintenance graph can be.
fn lock_meta<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// RAII per-op deadline on a graph's I/O counter: armed at construction,
/// disarmed on drop whatever path the operation exits through.
struct DeadlineGuard(Arc<IoCounter>);

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        self.0.set_deadline(None);
    }
}

impl CoreService {
    /// A service arbitrating `budget_bytes` across all served graphs in
    /// blocks of `block_size` bytes. Errors when the block size is zero or
    /// beyond `u32::MAX`, or the budget holds fewer than two blocks.
    /// Nothing is persisted — see [`CoreService::create_durable`].
    pub fn new(block_size: usize, budget_bytes: u64) -> Result<CoreService> {
        let pool = SharedPool::new(block_size, budget_bytes)?;
        Ok(Self::assemble(pool, None, StdVfs::arc()))
    }

    /// The one place a service is put together.
    fn assemble(pool: SharedPool, durable: Option<Durable>, vfs: Arc<dyn Vfs>) -> CoreService {
        CoreService {
            pool,
            graphs: Mutex::new(HashMap::new()),
            durable,
            vfs,
            qos: Mutex::new(None),
            op_timeout: Mutex::new(None),
        }
    }

    /// A durable service persisting its registry under `dir` (created if
    /// absent). The pool configuration (block size, budget) is written
    /// into the catalog and restored by [`CoreService::open_catalog`]; the
    /// durability options are runtime choices and are not. Every I/O
    /// counter the service creates routes through `vfs`, so a
    /// fault-injecting one (`testutil::FaultVfs`) here puts the whole
    /// serving stack under fault injection. Errors, before `dir` is created, on a pool
    /// [`CoreService::new`] refuses, and if `dir` already holds a catalog —
    /// reopen an existing one with [`CoreService::open_catalog`].
    pub fn create_durable(
        dir: &Path,
        block_size: usize,
        budget_bytes: u64,
        opts: DurableOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<CoreService> {
        let pool = SharedPool::new(block_size, budget_bytes)?;
        std::fs::create_dir_all(dir)?;
        if Catalog::exists_in(dir) {
            return Err(graphstore::Error::InvalidArgument(format!(
                "{} already holds a catalog; reopen it with open_catalog",
                dir.display()
            )));
        }
        let durable = Durable::new(dir, opts, Vec::new());
        durable.commit(&pool, vfs.as_ref(), |_| {})?;
        Ok(Self::assemble(pool, Some(durable), vfs))
    }

    /// Reopen the durable service persisted under `dir`: load the manifest,
    /// rebuild the pool it describes, and restore every catalogued graph —
    /// checkpoint first (one sequential scan, **no** re-decomposition),
    /// then the journal tail replayed through the same typed-op path live
    /// traffic uses. Recovery itself — catalog, checkpoint and journal
    /// reads — goes through `vfs` too.
    pub fn open_catalog(
        dir: &Path,
        opts: DurableOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<CoreService> {
        let catalog = Catalog::read_with(dir, vfs.as_ref())?;
        let pool = SharedPool::new(catalog.block_size, catalog.budget_bytes)?;
        let durable = Durable::new(dir, opts, catalog.entries.clone());
        let svc = Self::assemble(pool, Some(durable), vfs);
        for entry in &catalog.entries {
            svc.recover_entry(entry)?;
        }
        Ok(svc)
    }

    /// The data directory of a durable service (`None` when nothing is
    /// persisted).
    pub fn data_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// The durability state, or the typed refusal of an operation that
    /// only makes sense with a data directory (`what` completes the
    /// message: "nothing to save", …).
    fn durable(&self, what: &str) -> Result<&Durable> {
        self.durable.as_ref().ok_or_else(|| {
            graphstore::Error::InvalidArgument(format!("service has no data directory; {what}"))
        })
    }

    /// The shared pool, for budget/occupancy/hit-rate introspection.
    pub fn pool(&self) -> &SharedPool {
        &self.pool
    }

    /// Install (or, with `None`, remove) per-tenant admission control.
    /// With QoS enabled, every query/maintenance entry point first admits
    /// the graph's working set against [`QosConfig::capacity_bytes`]:
    /// concurrent ops on one graph share a single admission (they share a
    /// working set), distinct graphs queue in weighted-fair order, and
    /// requests that cannot be queued are shed with
    /// [`graphstore::Error::Overloaded`]. Replacing the controller drops
    /// the old queue's bookkeeping once its in-flight permits finish.
    pub fn set_qos(&self, config: Option<QosConfig>) {
        *lock_meta(&self.qos) = config.map(AdmissionController::new);
    }

    /// The live admission controller, for introspection (`None` when QoS
    /// is off).
    pub fn qos(&self) -> Option<Arc<AdmissionController>> {
        lock_meta(&self.qos).clone()
    }

    /// Set a tenant's QoS weight (see
    /// [`AdmissionController::set_weight`]). Errors when QoS is off.
    pub fn set_tenant_weight(&self, name: &str, weight: u32) -> Result<()> {
        let ctl = self.qos().ok_or_else(|| {
            graphstore::Error::InvalidArgument("no QoS configured; set a budget first".to_string())
        })?;
        ctl.set_weight(name, weight);
        Ok(())
    }

    /// Take an admission permit for one operation on `name` (a no-op
    /// `None` when QoS is off). Called *before* the graph lock so a
    /// queued request never blocks the graph it is waiting to use.
    fn admit(&self, name: &str) -> Result<Option<AdmissionPermit>> {
        let Some(ctl) = self.qos() else {
            return Ok(None);
        };
        let bytes = self
            .registry()
            .get(name)
            .map(|s| s.charge_bytes)
            .ok_or_else(|| not_serving(name))?;
        ctl.admit(name, bytes).map(Some)
    }

    /// Names of the graphs currently being served, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.registry().keys().cloned().collect();
        names.sort();
        names
    }

    /// True when `name` is currently being served.
    pub fn contains(&self, name: &str) -> bool {
        self.registry().contains_key(name)
    }

    /// Open the graph stored at `<base>.nodes/.edges` and serve it as
    /// `name`, decomposing it on the way in. The charge budget defaults to
    /// the graph's whole working set (both tables plus headroom), which
    /// makes its charged `read_ios` equal *distinct blocks touched*.
    pub fn open(&self, name: &str, base: &Path) -> Result<()> {
        let charge = working_set_charge_budget(base, self.pool.block_size())?;
        self.open_with_charge(name, base, charge)
    }

    /// [`CoreService::open`] with an explicit per-graph charge budget (the
    /// model `M` this graph's `read_ios` is priced against). Budgets below
    /// two blocks charge per shared-pool miss instead — honest, but
    /// dependent on the other graphs' traffic.
    ///
    /// On a durable service this also registers the graph in the catalog,
    /// writes its initial checkpoint and creates its journal, so a restart
    /// restores it.
    pub fn open_with_charge(&self, name: &str, base: &Path, charge_bytes: u64) -> Result<()> {
        if self.durable.is_some() {
            validate_durable_name(name)?;
        }
        if self.contains(name) {
            return Err(already_serving(name));
        }
        // Decompose outside the registry lock: other graphs keep serving.
        let index = self.decompose(base, charge_bytes)?;
        let format = index.format_version();

        // Win the name *before* touching any on-disk sidecar: a losing
        // racer must never overwrite the winner's checkpoint or truncate a
        // journal the winner is already appending to. The graph's own lock
        // is held across the sidecar writes so no apply can slip in while
        // `wal` is still `None` (which would skip journaling on a durable
        // service). Lock order (graph, then catalog entries) matches
        // `checkpoint_locked`; nothing locks a graph while holding the
        // registry lock, so holding the graph lock across the registry
        // insert below cannot deadlock.
        let handle = Arc::new(Mutex::new(Served::new(index)));
        // Freshly created mutex: nothing else holds it, so locking cannot
        // observe poison — but recover anyway rather than assert.
        let mut served = lock_meta(&handle);
        {
            let mut graphs = self.registry();
            if graphs.contains_key(name) {
                // A racing open beat us; the loser's lease frees its frames.
                return Err(already_serving(name));
            }
            graphs.insert(
                name.to_string(),
                Slot::new(Arc::clone(&handle), format, charge_bytes, base),
            );
        }
        if let Some(d) = &self.durable {
            let entry = CatalogEntry {
                name: name.to_string(),
                base: base.to_path_buf(),
                charge_bytes,
                checkpoint_seq: 0,
                format,
                generation: 0,
            };
            if let Err(e) = self.publish_locked(d, entry, &mut served) {
                // Roll the registration back rather than serve a graph the
                // catalog will not restore.
                self.registry().remove(name);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Open the tables at `base` against the pool and decompose them —
    /// how a graph enters service, and how a repair re-derives a
    /// non-durable one.
    fn decompose(&self, base: &Path, charge_bytes: u64) -> Result<CoreIndex> {
        let counter = IoCounter::with_vfs(self.pool.block_size(), Arc::clone(&self.vfs));
        let disk = DiskGraph::open_pooled(base, counter, &self.pool, charge_bytes)?;
        let capacity = if self.durable.is_some() {
            DURABLE_BUFFER_CAPACITY
        } else {
            graphstore::DEFAULT_BUFFER_CAPACITY
        };
        CoreIndex::decompose(disk, capacity)
    }

    /// Build a graph from `edges` at `<base>.nodes/.edges`, then serve it
    /// as `name` (see [`CoreIndex::create`] for the edge-list semantics).
    pub fn create(
        &self,
        name: &str,
        base: &Path,
        edges: impl IntoIterator<Item = (u32, u32)>,
        min_nodes: u32,
    ) -> Result<()> {
        if self.contains(name) {
            return Err(already_serving(name));
        }
        let mem = graphstore::MemGraph::from_edges(crate::checked_edges(edges)?, min_nodes);
        let counter = IoCounter::with_vfs(self.pool.block_size(), Arc::clone(&self.vfs));
        graphstore::write_mem_graph(base, &mem, counter)?;
        self.open(name, base)
    }

    /// Stop serving `name`. In-flight operations on the graph finish
    /// normally; its pool frames are invalidated when the last one drops
    /// its handle. On a durable service the graph also leaves the catalog
    /// and its checkpoint/journal files are removed — as are tables of
    /// generation > 0, which are service-created compaction output. A
    /// durable graph never writes its registered base tables (generation
    /// 0), so it can be re-opened (and re-decomposed) from them later. A
    /// non-durable graph's buffer flushes rewrite the tables at its
    /// registered base in place: evicting it leaves its last flush there,
    /// not the tables it was opened on.
    ///
    /// Eviction deliberately **bypasses quarantine**: removing a poisoned
    /// or corrupted graph is how an operator clears it for re-open. On a
    /// durable service the manifest commit comes first: if it fails, the
    /// graph stays served and catalogued.
    pub fn evict(&self, name: &str) -> Result<()> {
        if let Some(d) = &self.durable {
            if !self.contains(name) {
                return Err(not_serving(name));
            }
            return self.retire(d, name);
        }
        self.registry()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| not_serving(name))
    }

    /// Run `f` against the named graph's [`CoreIndex`], holding that
    /// graph's lock (and no other) for the duration. This is the generic
    /// access path every convenience *query* goes through. On a durable
    /// service, mutate only via [`CoreService::apply`] (or its wrappers):
    /// edits made directly through `f` bypass the journal and will not
    /// survive a restart.
    ///
    /// A quarantined graph rejects `f` outright; an `f` that fails with an
    /// I/O or corruption error quarantines the graph, a disk-full failure
    /// degrades it to read-only (see the module docs, "Failure containment
    /// and self-healing"). A read-only graph still runs `f` — this is the
    /// query path; durable mutations go through [`CoreService::apply`],
    /// which is gated.
    pub fn with_graph<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut CoreIndex) -> Result<R>,
    ) -> Result<R> {
        let _permit = self.admit(name)?;
        let (handle, health) = self.served_for(name, false)?;
        // The registry lock is released; only this graph serializes.
        let mut served = lock_served(name, &handle, &health)?;
        let _deadline = self.arm_deadline(&mut served);
        let before = served.index.format_version();
        let res = f(&mut served.index);
        self.note_format(name, &handle, before, &served);
        if let Err(e) = &res {
            lock_meta(&health).record_failure(e, "operation failed");
        }
        res
    }

    /// Why the named graph is quarantined (`None` while it is serving —
    /// healthy, read-only or under repair). Kept as the stable one-line
    /// answer; the full state machine is exposed by
    /// [`CoreService::health`]. Errors when `name` is not being served at
    /// all.
    pub fn quarantine_reason(&self, name: &str) -> Result<Option<String>> {
        let (_, health) = self.slot_parts(name)?;
        let reason = lock_meta(&health).quarantine_reason();
        Ok(reason)
    }

    /// Point-in-time health snapshot of the named graph: its status, the
    /// bounded causal chain of degradation reasons, the repair-attempt
    /// counters and the repair log. Reads slot metadata only — never
    /// blocks on the graph's own lock, so an operator can inspect a graph
    /// that is wedged mid-operation.
    pub fn health(&self, name: &str) -> Result<HealthReport> {
        let (_, health) = self.slot_parts(name)?;
        let report = lock_meta(&health).report();
        Ok(report)
    }

    /// Install (or with `None`, remove) a **per-operation deadline**:
    /// charged block reads check it and abort the operation with
    /// [`graphstore::Error::Timeout`] once it expires. Queries are
    /// cancellable at any read; mutations only during their *validation*
    /// read — once an op is journaled it always runs to completion, so a
    /// deadline can never leave maintenance half-applied. Timeouts never
    /// quarantine, and the admission claim is released like any other
    /// return.
    pub fn set_op_timeout(&self, timeout: Option<Duration>) {
        *lock_meta(&self.op_timeout) = timeout;
    }

    /// The current per-operation deadline (`None` when unlimited).
    pub fn op_timeout(&self) -> Option<Duration> {
        *lock_meta(&self.op_timeout)
    }

    /// Arm the configured per-op deadline on the graph's I/O counter
    /// (`None` when no timeout is set). The graph's lock is held by the
    /// caller, so exactly one operation owns the counter's deadline at a
    /// time.
    fn arm_deadline(&self, served: &mut Served) -> Option<DeadlineGuard> {
        let budget = self.op_timeout()?;
        let counter = served.index.graph_mut().disk().counter().clone();
        counter.set_deadline(Some((Instant::now() + budget, budget)));
        Some(DeadlineGuard(counter))
    }

    /// All core numbers of the named graph.
    pub fn cores(&self, name: &str) -> Result<Vec<u32>> {
        self.with_graph(name, |idx| Ok(idx.cores().to_vec()))
    }

    /// Core number of node `v` in the named graph. Unlike
    /// [`CoreIndex::core`], an out-of-range node is an error, not a panic —
    /// a serving layer must survive bad queries.
    pub fn core(&self, name: &str, v: u32) -> Result<u32> {
        self.with_graph(name, |idx| {
            graphstore::Error::check_node(v, idx.num_nodes())?;
            Ok(idx.core(v))
        })
    }

    /// Degeneracy `kmax` of the named graph.
    pub fn kmax(&self, name: &str) -> Result<u32> {
        self.with_graph(name, |idx| Ok(idx.kmax()))
    }

    /// Cumulative I/O charged to the named graph (its own counter: charged
    /// reads are contention-independent, physical reads are not). On a
    /// recovered graph this starts at the recovery cost — checkpoint scan
    /// plus journal-tail replay — the number the restart differential
    /// suite compares against a fresh decomposition.
    pub fn io(&self, name: &str) -> Result<IoSnapshot> {
        self.with_graph(name, |idx| Ok(idx.io()))
    }

    /// Check the Theorem 4.1 fixpoint certificate on the named graph.
    pub fn verify(&self, name: &str) -> Result<bool> {
        self.with_graph(name, |idx| idx.verify())
    }

    /// Edge-table encoding of the named graph's current tables (v1 raw
    /// `u32`s or v3 stream-vbyte groups). Reads registry metadata only —
    /// never blocks on the graph's own lock, so listings stay responsive
    /// while a graph is mid-scan.
    pub fn format_version(&self, name: &str) -> Result<FormatVersion> {
        self.registry()
            .get(name)
            .map(|s| s.format)
            .ok_or_else(|| not_serving(name))
    }

    /// After an operation that may have flushed the graph's tables (a
    /// flush writes v3), refresh the registry's lock-free copy of their
    /// encoding so listings never report a stale tag. The registry is
    /// touched only on a change, and only while `handle` is still the
    /// slot's graph.
    fn note_format(
        &self,
        name: &str,
        handle: &Arc<Mutex<Served>>,
        before: FormatVersion,
        served: &Served,
    ) {
        let now = served.index.format_version();
        if now == before {
            return;
        }
        let mut registry = self.registry();
        if let Some(slot) = registry
            .get_mut(name)
            .filter(|s| Arc::ptr_eq(&s.handle, handle))
        {
            slot.format = now;
        }
    }

    /// Look the graph up without any health gate, returning its handle
    /// plus the shared health record (so a failing caller can update it
    /// after this registry guard is gone). The repair/scrub/probe paths
    /// use this directly — they exist to operate on unhealthy graphs.
    #[allow(clippy::type_complexity)]
    fn slot_parts(&self, name: &str) -> Result<(Arc<Mutex<Served>>, Arc<Mutex<HealthState>>)> {
        let registry = self.registry();
        let slot = registry.get(name).ok_or_else(|| not_serving(name))?;
        Ok((Arc::clone(&slot.handle), Arc::clone(&slot.health)))
    }

    /// [`CoreService::slot_parts`] behind the health gate
    /// ([`HealthState::gate`]): `write` marks a mutating entry point.
    #[allow(clippy::type_complexity)]
    fn served_for(
        &self,
        name: &str,
        write: bool,
    ) -> Result<(Arc<Mutex<Served>>, Arc<Mutex<HealthState>>)> {
        let (handle, health) = self.slot_parts(name)?;
        lock_meta(&health).gate(name, write)?;
        Ok((handle, health))
    }

    fn registry(&self) -> MutexGuard<'_, HashMap<String, Slot>> {
        lock_meta(&self.graphs)
    }
}

/// Lock a served graph, converting a poisoned mutex into quarantine. A
/// panicking holder may have left the index mid-mutation, so — unlike the
/// metadata maps — the state must **not** be recovered into; it is sealed
/// off and rebuilt from durable state by the repair path instead.
fn lock_served<'a>(
    name: &str,
    handle: &'a Mutex<Served>,
    health: &Mutex<HealthState>,
) -> Result<MutexGuard<'a, Served>> {
    handle.lock().map_err(|_| {
        let reason =
            "a thread panicked while operating on this graph; in-memory state is untrusted"
                .to_string();
        lock_meta(health).quarantine(&reason);
        graphstore::Error::Quarantined {
            graph: name.to_string(),
            reason,
        }
    })
}

fn already_serving(name: &str) -> graphstore::Error {
    graphstore::Error::InvalidArgument(format!("a graph named {name:?} is already being served"))
}

fn not_serving(name: &str) -> graphstore::Error {
    graphstore::Error::InvalidArgument(format!("no graph named {name:?} is being served"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::{TempDir, DEFAULT_BLOCK_SIZE};

    fn triangle_plus_tail() -> Vec<(u32, u32)> {
        vec![(0, 1), (1, 2), (0, 2), (2, 3)]
    }

    /// A volatile service at the default block size.
    fn volatile(budget: u64) -> CoreService {
        CoreService::new(DEFAULT_BLOCK_SIZE, budget).unwrap()
    }

    /// [`CoreService::create_durable`] at the default block size and options.
    fn create_durable(data: &Path, budget: u64) -> Result<CoreService> {
        let opts = DurableOptions::default();
        CoreService::create_durable(data, DEFAULT_BLOCK_SIZE, budget, opts, StdVfs::arc())
    }

    /// [`CoreService::open_catalog`] with the default options.
    fn open_catalog(data: &Path) -> Result<CoreService> {
        CoreService::open_catalog(data, DurableOptions::default(), StdVfs::arc())
    }

    #[test]
    fn serve_two_graphs_and_evict() {
        let dir = TempDir::new("svc").unwrap();
        let svc = volatile(1 << 20);
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("b", &dir.path().join("b"), [(0u32, 1u32), (1, 2)], 3)
            .unwrap();
        assert_eq!(svc.graph_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(svc.pool().registered_graphs(), 2);
        assert_eq!(svc.cores("a").unwrap(), vec![2, 2, 2, 1]);
        assert_eq!(svc.kmax("b").unwrap(), 1);
        assert!(svc.verify("a").unwrap());

        svc.evict("a").unwrap();
        assert!(!svc.contains("a"));
        assert_eq!(svc.pool().registered_graphs(), 1);
        assert!(svc.cores("a").is_err());
        // b is untouched by a's teardown.
        assert_eq!(svc.kmax("b").unwrap(), 1);
    }

    #[test]
    fn create_refuses_the_id_u32_max() {
        let dir = TempDir::new("svc").unwrap();
        let svc = volatile(1 << 20);
        let err = svc
            .create("a", &dir.path().join("a"), [(u32::MAX, 0)], 0)
            .unwrap_err();
        assert!(
            matches!(&err, graphstore::Error::InvalidArgument(m) if m.contains("must fit u32")),
            "{err:?}"
        );
        assert!(!svc.contains("a"));
    }

    #[test]
    fn maintenance_is_per_graph() {
        let dir = TempDir::new("svc").unwrap();
        let svc = volatile(1 << 20);
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("b", &dir.path().join("b"), triangle_plus_tail(), 4)
            .unwrap();
        svc.insert_edge("a", 1, 3).unwrap();
        svc.insert_edge("a", 0, 3).unwrap(); // a is now K4
        assert_eq!(svc.kmax("a").unwrap(), 3);
        assert_eq!(svc.kmax("b").unwrap(), 2, "b must not see a's updates");
        svc.delete_edge("a", 0, 1).unwrap();
        assert_eq!(svc.kmax("a").unwrap(), 2);
        assert!(svc.verify("a").unwrap() && svc.verify("b").unwrap());
    }

    #[test]
    fn duplicate_and_missing_names_are_errors() {
        let dir = TempDir::new("svc").unwrap();
        let svc = volatile(1 << 20);
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(svc
            .create("a", &dir.path().join("a2"), triangle_plus_tail(), 4)
            .is_err());
        assert!(svc.evict("ghost").is_err());
        assert!(svc.insert_edge("ghost", 0, 1).is_err());
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_errors_not_corruption() {
        let dir = TempDir::new("svc").unwrap();
        let svc = volatile(1 << 20);
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        let edges_before = svc.with_graph("a", |idx| Ok(idx.num_edges())).unwrap();
        assert!(svc.insert_edge("a", 0, 1).is_err(), "edge already present");
        assert!(svc.delete_edge("a", 1, 3).is_err(), "edge absent");
        assert!(svc.delete_edge("a", 1, 3).is_err(), "still absent");
        assert_eq!(
            svc.with_graph("a", |idx| Ok(idx.num_edges())).unwrap(),
            edges_before,
            "rejected updates must not drift the edge count"
        );
        assert!(svc.verify("a").unwrap(), "state untouched by bad updates");
    }

    #[test]
    fn out_of_range_queries_error_instead_of_panicking() {
        let dir = TempDir::new("svc").unwrap();
        let svc = volatile(1 << 20);
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(matches!(
            svc.core("a", 99),
            Err(graphstore::Error::NodeOutOfRange { node: 99, .. })
        ));
        assert!(svc.insert_edge("a", 0, 99).is_err());
        assert_eq!(svc.core("a", 3).unwrap(), 1);
    }

    #[test]
    fn save_without_data_dir_is_an_error() {
        let dir = TempDir::new("svc").unwrap();
        let svc = volatile(1 << 20);
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(svc.data_dir().is_none());
        assert!(svc.save("a").is_err());
    }

    #[test]
    fn durable_restart_restores_registry_and_state() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        {
            let svc = create_durable(&data, 1 << 20).unwrap();
            assert_eq!(svc.data_dir(), Some(data.as_path()));
            svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
                .unwrap();
            svc.create("b", &dir.path().join("b"), [(0u32, 1u32), (1, 2)], 3)
                .unwrap();
            svc.insert_edge("a", 1, 3).unwrap();
            svc.insert_edge("a", 0, 3).unwrap(); // K4
            svc.delete_edge("b", 0, 1).unwrap();
            // No save: the journal alone must carry the tail.
        }
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.graph_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(svc.kmax("a").unwrap(), 3);
        assert_eq!(svc.cores("b").unwrap(), vec![0, 1, 1]);
        assert!(svc.verify("a").unwrap() && svc.verify("b").unwrap());
        // The restored graph keeps serving updates durably.
        svc.delete_edge("a", 0, 1).unwrap();
        assert_eq!(svc.kmax("a").unwrap(), 2);
    }

    #[test]
    fn durable_restart_after_explicit_save_replays_nothing() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        {
            let svc = create_durable(&data, 1 << 20).unwrap();
            svc.create("g", &dir.path().join("g"), triangle_plus_tail(), 4)
                .unwrap();
            svc.insert_edge("g", 1, 3).unwrap();
            svc.save("g").unwrap();
        }
        // After save, the journal is empty: recovery is checkpoint-only.
        let wal_len = std::fs::metadata(data.join("g.wal")).unwrap().len();
        assert_eq!(wal_len, 8, "journal truncated to its header by save");
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.kmax("g").unwrap(), 2);
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn checkpoint_threshold_truncates_journal_mid_stream() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        let svc = CoreService::create_durable(
            &data,
            DEFAULT_BLOCK_SIZE,
            1 << 20,
            DurableOptions {
                checkpoint_every: 2,
                ..Default::default()
            },
            StdVfs::arc(),
        )
        .unwrap();
        svc.create("g", &dir.path().join("g"), [(0u32, 1u32)], 6)
            .unwrap();
        svc.insert_edge("g", 1, 2).unwrap();
        svc.insert_edge("g", 2, 3).unwrap(); // threshold: checkpoint + truncate
        let wal_len = std::fs::metadata(data.join("g.wal")).unwrap().len();
        assert_eq!(wal_len, 8, "threshold checkpoint must truncate the journal");
        svc.insert_edge("g", 3, 4).unwrap(); // journaled on the fresh log
        drop(svc);
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.cores("g").unwrap(), vec![1, 1, 1, 1, 1, 0]);
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn explicit_compact_commits_a_new_generation_and_survives_restart() {
        let dir = TempDir::new("svc-compact").unwrap();
        let data = dir.path().join("data");
        let base = dir.path().join("g");
        {
            let svc = create_durable(&data, 1 << 20).unwrap();
            svc.create("g", &base, triangle_plus_tail(), 5).unwrap();
            svc.insert_edge("g", 1, 3).unwrap();
            svc.insert_edge("g", 3, 4).unwrap();
            let cores_before = svc.cores("g").unwrap();
            assert_eq!(svc.generation("g").unwrap(), 0);

            assert_eq!(svc.compact("g").unwrap(), 1);
            assert_eq!(svc.generation("g").unwrap(), 1);
            // New generation tables + checkpoint, old checkpoint gone,
            // journal truncated to its header, buffer empty.
            assert!(dir.path().join("g.g1.nodes").exists());
            assert!(dir.path().join("g.g1.edges").exists());
            assert!(data.join("g.g1.ckpt").exists());
            assert!(!data.join("g.ckpt").exists());
            assert_eq!(std::fs::metadata(data.join("g.wal")).unwrap().len(), 8);
            let pending = svc
                .with_graph("g", |idx| Ok(idx.graph_mut().pending_edits()))
                .unwrap();
            assert_eq!(pending, 0, "compaction must empty the update buffer");
            // The user's registered base is never deleted.
            assert!(base.with_extension("nodes").exists());
            // State is preserved bit-for-bit and keeps serving.
            assert_eq!(svc.cores("g").unwrap(), cores_before);
            assert!(svc.verify("g").unwrap());
            svc.insert_edge("g", 0, 3).unwrap();

            // A second compaction supersedes (and removes) the first.
            assert_eq!(svc.compact("g").unwrap(), 2);
            assert!(!dir.path().join("g.g1.nodes").exists());
            assert!(!data.join("g.g1.ckpt").exists());
            assert!(dir.path().join("g.g2.nodes").exists());
        }
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.generation("g").unwrap(), 2);
        assert_eq!(svc.kmax("g").unwrap(), 3, "0-1-2-3 is a K4 after (0,3)");
        assert!(svc.verify("g").unwrap());
        // Compacted graphs keep taking durable updates.
        svc.delete_edge("g", 0, 3).unwrap();
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn compaction_threshold_bounds_buffer_and_journal_on_the_apply_path() {
        let dir = TempDir::new("svc-compact").unwrap();
        let data = dir.path().join("data");
        let svc = CoreService::create_durable(
            &data,
            DEFAULT_BLOCK_SIZE,
            1 << 20,
            DurableOptions {
                // Checkpoints alone would let the buffer grow without
                // bound; the compaction threshold is the memory bound.
                checkpoint_every: 1000,
                compact_after_edits: 4,
                ..Default::default()
            },
            StdVfs::arc(),
        )
        .unwrap();
        svc.create("g", &dir.path().join("g"), [(0u32, 1u32)], 8)
            .unwrap();
        for (u, v) in [(1u32, 2u32), (2, 3), (3, 4), (4, 5), (5, 6)] {
            svc.insert_edge("g", u, v).unwrap();
            let pending = svc
                .with_graph("g", |idx| Ok(idx.graph_mut().pending_edits()))
                .unwrap();
            assert!(
                pending < 4,
                "apply path must compact at the threshold (pending = {pending})"
            );
        }
        assert!(
            svc.generation("g").unwrap() >= 2,
            "five ops over a 2-op threshold compact more than once"
        );
        drop(svc);
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.cores("g").unwrap(), vec![1, 1, 1, 1, 1, 1, 1, 0]);
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn compact_without_data_dir_is_an_error() {
        let dir = TempDir::new("svc").unwrap();
        let svc = volatile(1 << 20);
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(svc.compact("a").is_err());
        assert!(svc.generation("a").is_err());
    }

    #[test]
    fn durable_evict_removes_catalog_entry_and_sidecars() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        let svc = create_durable(&data, 1 << 20).unwrap();
        svc.create("gone", &dir.path().join("gone"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("kept", &dir.path().join("kept"), triangle_plus_tail(), 4)
            .unwrap();
        svc.evict("gone").unwrap();
        assert!(!data.join("gone.ckpt").exists());
        assert!(!data.join("gone.wal").exists());
        drop(svc);
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.graph_names(), vec!["kept".to_string()]);
    }

    #[test]
    fn failed_evict_commit_keeps_the_graph_served_and_catalogued() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        let fault = testutil::FaultVfs::new(testutil::FaultPlan::default());
        let svc = CoreService::create_durable(
            &data,
            DEFAULT_BLOCK_SIZE,
            1 << 20,
            DurableOptions::default(),
            Arc::clone(&fault) as Arc<dyn Vfs>,
        )
        .unwrap();
        for name in ["g", "h"] {
            svc.create(name, &dir.path().join(name), triangle_plus_tail(), 4)
                .unwrap();
        }
        // Count pass: an evict writes one manifest (its fsync, the rename,
        // the directory fsync) and syncs nothing else, so the manifest's
        // fsync is the first one after re-arming.
        fault.set_plan(testutil::FaultPlan::default());
        svc.evict("h").unwrap();
        assert_eq!(fault.sync_events(), 3);

        fault.set_plan(testutil::FaultPlan {
            fail_fsync: Some(1),
            ..testutil::FaultPlan::default()
        });
        assert!(svc.evict("g").is_err());
        fault.set_plan(testutil::FaultPlan::default());
        assert!(svc.contains("g"), "a failed evict must keep serving");
        assert!(svc.verify("g").unwrap());
        // The next commit still catalogues `g`.
        svc.create("k", &dir.path().join("k"), triangle_plus_tail(), 4)
            .unwrap();
        drop(svc);
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.graph_names(), vec!["g".to_string(), "k".to_string()]);
        assert!(svc.verify("g").unwrap());
    }

    #[test]
    fn durable_names_are_restricted_to_safe_characters() {
        let dir = TempDir::new("svc-durable").unwrap();
        let svc = create_durable(&dir.path().join("data"), 1 << 20).unwrap();
        for bad in ["", "../escape", "a/b", "dot.dot", "sp ace"] {
            assert!(
                svc.create(bad, &dir.path().join("g"), triangle_plus_tail(), 4)
                    .is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn io_failure_quarantines_only_the_failing_graph() {
        let dir = TempDir::new("svc-quarantine").unwrap();
        let svc = volatile(1 << 20);
        svc.create("sick", &dir.path().join("sick"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("well", &dir.path().join("well"), triangle_plus_tail(), 4)
            .unwrap();
        assert_eq!(svc.quarantine_reason("sick").unwrap(), None);

        // An operation that fails with an I/O error trips quarantine…
        let err = svc
            .with_graph("sick", |_idx| -> Result<()> {
                Err(graphstore::Error::Io(std::io::Error::other("injected")))
            })
            .unwrap_err();
        assert!(
            matches!(err, graphstore::Error::Io(_)),
            "first failure surfaces as-is"
        );

        // …so every further operation is rejected with the typed error.
        assert!(svc.kmax("sick").unwrap_err().is_quarantined());
        assert!(svc.insert_edge("sick", 1, 3).unwrap_err().is_quarantined());
        assert!(svc.quarantine_reason("sick").unwrap().is_some());

        // Other tenants are untouched.
        assert_eq!(svc.kmax("well").unwrap(), 2);
        assert!(svc.verify("well").unwrap());

        // Eviction bypasses quarantine and clears the slot for re-open.
        svc.evict("sick").unwrap();
        svc.open("sick", &dir.path().join("sick")).unwrap();
        assert_eq!(svc.kmax("sick").unwrap(), 2);
    }

    #[test]
    fn validation_errors_do_not_quarantine() {
        let dir = TempDir::new("svc-quarantine").unwrap();
        let svc = volatile(1 << 20);
        svc.create("a", &dir.path().join("a"), triangle_plus_tail(), 4)
            .unwrap();
        assert!(svc.insert_edge("a", 0, 1).is_err()); // duplicate
        assert!(svc.core("a", 99).is_err()); // out of range
        assert_eq!(svc.quarantine_reason("a").unwrap(), None);
        assert_eq!(svc.kmax("a").unwrap(), 2, "graph keeps serving");
    }

    #[test]
    fn poisoned_graph_lock_becomes_quarantine_not_a_crash() {
        let dir = TempDir::new("svc-poison").unwrap();
        let svc = Arc::new(volatile(1 << 20));
        svc.create("p", &dir.path().join("p"), triangle_plus_tail(), 4)
            .unwrap();
        svc.create("q", &dir.path().join("q"), triangle_plus_tail(), 4)
            .unwrap();
        let svc2 = Arc::clone(&svc);
        let panicked = std::thread::spawn(move || {
            let _ = svc2.with_graph("p", |_idx| -> Result<()> {
                panic!("simulated crash mid-operation");
            });
        })
        .join();
        assert!(panicked.is_err(), "the worker thread must have panicked");

        // The poisoned graph is quarantined, not `.expect(...)`-fatal…
        let err = svc.kmax("p").unwrap_err();
        assert!(err.is_quarantined(), "got {err}");
        // …the registry (locked by graph_names) recovered fine, and the
        // other tenant still serves.
        assert_eq!(svc.graph_names().len(), 2);
        assert_eq!(svc.kmax("q").unwrap(), 2);
        svc.evict("p").unwrap();
        assert!(!svc.contains("p"));
    }

    #[test]
    fn create_durable_refuses_an_existing_catalog() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        drop(create_durable(&data, 1 << 20).unwrap());
        assert!(create_durable(&data, 1 << 20).is_err());
        assert!(open_catalog(&data).is_ok());
    }

    /// Block sizes the catalog's `u32` field cannot hold back.
    const BAD_BLOCK_SIZES: [usize; 2] = [0, u32::MAX as usize + 1];

    #[test]
    fn new_refuses_a_block_size_outside_u32() {
        for block in BAD_BLOCK_SIZES {
            let err = CoreService::new(block, 1 << 20).unwrap_err();
            assert!(
                matches!(err, graphstore::Error::InvalidArgument(_)),
                "{err}"
            );
        }
    }

    #[test]
    fn create_durable_refuses_a_block_size_outside_u32_before_creating_the_dir() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        for block in BAD_BLOCK_SIZES {
            let opts = DurableOptions::default();
            let err = CoreService::create_durable(&data, block, 1 << 20, opts, StdVfs::arc())
                .unwrap_err();
            assert!(
                matches!(err, graphstore::Error::InvalidArgument(_)),
                "{err}"
            );
            assert!(!data.exists(), "B = {block} created the data directory");
        }
    }

    #[test]
    fn open_catalog_refuses_a_zero_block_size() {
        let dir = TempDir::new("svc-durable").unwrap();
        let data = dir.path().join("data");
        drop(create_durable(&data, 1 << 20).unwrap());
        // Magic (8 bytes), layout version (4), then the block size; the
        // CRC over the body is recomputed so the field itself is what fails.
        let path = Catalog::path_in(&data);
        let mut bytes = std::fs::read(&path).unwrap();
        let body_end = bytes.len() - 4;
        bytes[12..16].copy_from_slice(&0u32.to_le_bytes());
        let crc = graphstore::codec::crc32(&bytes[8..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let err = open_catalog(&data).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }
}
