//! Process-wide shared buffer pool: one byte budget, many graphs.
//!
//! [`BlockCache`] already keys every frame by `(file id, block)`, but until
//! now each [`DiskGraph`](crate::DiskGraph) built a private pool with the
//! fixed file ids 0/1. [`SharedPool`] turns the same machinery into a
//! process-wide resource: it owns **one** cache under **one** byte budget
//! and a monotone **file-id allocator**, so any number of graphs can be
//! opened against it ([`DiskGraph::open_pooled`](crate::DiskGraph::open_pooled))
//! without their frames colliding. The global budget is then *arbitrated*
//! by the eviction policy across every registered graph: a graph under
//! heavy traffic naturally claims more frames, an idle one decays to its
//! pinned current blocks — capacity follows demand instead of being
//! statically split `M / K` ways.
//!
//! ## Registration and teardown
//!
//! [`SharedPool::register`] leases a contiguous run of file ids and returns
//! a [`PoolLease`]; dropping the lease (when the graph is dropped)
//! invalidates every frame belonging to those ids, returning the
//! capacity to the pool. Ids are never reused, so a stale read handle can
//! never alias a newer graph's frames.
//!
//! ## Accounting: the charge cache
//!
//! A shared pool makes *physical* residency dependent on what every other
//! graph is doing — exactly what the external-memory model's per-run charge
//! must **not** depend on. Pooled opens therefore split the two roles:
//!
//! * the **shared pool** stores bytes and counts
//!   [`physical_reads`](crate::IoSnapshot::physical_reads);
//! * a private, deterministic **charge cache** (a second [`BlockCache`]
//!   whose frames hold zero-length buffers — keys and eviction state only)
//!   replays the graph's own access stream against the graph's own budget
//!   `M` and decides the charged
//!   [`read_ios`](crate::IoSnapshot::read_ios).
//!
//! Charged I/O is then a pure function of (graph, access stream, per-graph
//! budget): bit-identical whether the graph is served alone or alongside
//! `K` contending graphs, while physical reads move with contention.

use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::{BlockCache, CacheStats};
use crate::error::{Error, Result};
use crate::format::GraphPaths;

/// Headroom blocks added by [`working_set_charge_budget`]: each of the two
/// table files rounds up to whole frames, and a charge cache one frame
/// short of the working set would evict — making charged misses
/// schedule-dependent again.
const CHARGE_HEADROOM_BLOCKS: u64 = 4;

/// The conventional per-graph charge budget for the graph stored at
/// `<base>.nodes/.edges`: its whole on-disk working set — both table files
/// plus a few blocks of rounding headroom. With this budget, charged
/// `read_ios` equals *distinct blocks touched*, a schedule-independent
/// quantity, so the solo-vs-shared equivalence holds however the graph's
/// requests interleave. The single source of truth for the
/// formula — the serving layer, the benches and the test suites all price
/// against this.
pub fn working_set_charge_budget(base: &Path, block_size: usize) -> Result<u64> {
    let paths = GraphPaths::from_base(base);
    let len = |p: &Path| -> Result<u64> { Ok(std::fs::metadata(p)?.len()) };
    Ok(len(&paths.nodes)? + len(&paths.edges)? + CHARGE_HEADROOM_BLOCKS * block_size as u64)
}

/// A process-wide buffer pool shared by several disk graphs: one byte
/// budget, one frame store, one file-id allocator. Cheap to clone (all
/// clones are the same pool). See the [module docs](self) for the
/// arbitration and accounting contracts.
///
/// ```
/// use graphstore::{mem_to_disk, DiskGraph, IoCounter, MemGraph, SharedPool, TempDir};
///
/// let dir = TempDir::new("doc-pool").unwrap();
/// let pool = SharedPool::new(4096, 64 * 4096).unwrap();
/// let mut graphs = Vec::new();
/// for i in 0..3 {
///     let base = dir.path().join(format!("g{i}"));
///     let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2)], 3);
///     mem_to_disk(&base, &g, IoCounter::new(4096)).unwrap();
///     // Every graph shares the pool's 64-frame budget; each keeps its own
///     // deterministic charge budget (here 8 blocks).
///     graphs.push(
///         DiskGraph::open_pooled(&base, IoCounter::new(4096), &pool, 8 * 4096).unwrap(),
///     );
/// }
/// assert_eq!(pool.registered_graphs(), 3);
/// drop(graphs);
/// assert_eq!(pool.registered_graphs(), 0);
/// assert_eq!(pool.resident_frames(), 0); // teardown freed every frame
/// ```
#[derive(Debug, Clone)]
pub struct SharedPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    cache: Arc<Mutex<BlockCache>>,
    block_size: usize,
    budget_bytes: u64,
    next_file: AtomicU32,
    graphs: AtomicUsize,
}

impl SharedPool {
    /// A pool of `B = block_size` frames under `budget_bytes`, evicting by
    /// the scan-resistant policy of [`crate::cache`].
    ///
    /// Errors when `block_size` is zero or does not fit the catalog's
    /// 32-bit field, or when the budget cannot hold two frames — a pool
    /// that cannot keep even one graph's current blocks resident arbitrates
    /// nothing; callers wanting one frame per table should open graphs
    /// without a pool.
    pub fn new(block_size: usize, budget_bytes: u64) -> Result<SharedPool> {
        if block_size == 0 || u32::try_from(block_size).is_err() {
            return Err(Error::InvalidArgument(format!(
                "block size {block_size} B is outside 1..=u32::MAX"
            )));
        }
        let cache = BlockCache::shared(block_size, budget_bytes, 2).ok_or_else(|| {
            Error::InvalidArgument(format!(
                "shared pool budget of {budget_bytes} B holds fewer than two {block_size} B frames"
            ))
        })?;
        Ok(SharedPool {
            inner: Arc::new(PoolInner {
                cache,
                block_size,
                budget_bytes,
                next_file: AtomicU32::new(0),
                graphs: AtomicUsize::new(0),
            }),
        })
    }

    /// The frame size `B` every attached graph must be opened with.
    pub fn block_size(&self) -> usize {
        self.inner.block_size
    }

    /// The global byte budget arbitrated across all registered graphs.
    pub fn budget_bytes(&self) -> u64 {
        self.inner.budget_bytes
    }

    /// Number of currently registered (leased, not yet dropped) graphs.
    pub fn registered_graphs(&self) -> usize {
        self.inner.graphs.load(Ordering::Relaxed)
    }

    /// Pool-wide hit/miss/eviction counters (all graphs combined).
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Bytes currently resident in frames — never exceeds
    /// [`SharedPool::budget_bytes`].
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident_bytes()
    }

    /// Frames currently holding a block.
    pub fn resident_frames(&self) -> usize {
        self.lock().resident_frames()
    }

    /// Maximum number of resident frames (`M / B`).
    pub fn capacity_frames(&self) -> usize {
        self.lock().capacity_frames()
    }

    /// Lease `files` fresh file ids (one per backing file the graph will
    /// read through the pool). The lease's [`Drop`] hands the capacity
    /// back; see [`PoolLease`].
    pub fn register(&self, files: u32) -> Result<PoolLease> {
        assert!(files > 0, "a lease must cover at least one file");
        // Validate before committing the allocation: a blind fetch_add
        // would wrap the counter on exhaustion and hand the *next* caller
        // ids that alias live leases. Ids are never reused, so 2^32
        // registrations exhaust the space for the life of the pool.
        let mut first = self.inner.next_file.load(Ordering::Relaxed);
        loop {
            let Some(end) = first.checked_add(files) else {
                return Err(Error::TooLarge(
                    "shared pool file-id space exhausted".into(),
                ));
            };
            match self.inner.next_file.compare_exchange_weak(
                first,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => first = actual,
            }
        }
        self.inner.graphs.fetch_add(1, Ordering::Relaxed);
        Ok(PoolLease {
            inner: Arc::clone(&self.inner),
            first,
            files,
        })
    }

    /// Keys of all resident blocks as `(file id, block)` pairs
    /// (diagnostics; order unspecified).
    pub fn resident_keys(&self) -> Vec<(u32, u64)> {
        self.lock().resident_keys()
    }

    /// Run `f` against the raw frame store, under the pool lock.
    ///
    /// Normal reads go through [`crate::io::BlockReader`]; this is the
    /// escape hatch for diagnostics and invariant tests that need to drive
    /// the cache against leased file ids directly.
    pub fn with_cache_mut<R>(&self, f: impl FnOnce(&mut BlockCache) -> R) -> R {
        f(&mut self.lock())
    }

    /// The underlying frame store, for readers opened against this pool.
    pub(crate) fn cache(&self) -> Arc<Mutex<BlockCache>> {
        Arc::clone(&self.inner.cache)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BlockCache> {
        crate::io::lock_cache(&self.inner.cache)
    }
}

/// A registered graph's claim on a [`SharedPool`]: a contiguous run of file
/// ids reserved for its backing files.
///
/// Dropping the lease is the teardown path: every frame belonging to the
/// leased ids is invalidated (the pool's capacity returns to the other
/// graphs) and the registration count decrements. A pooled
/// [`DiskGraph`](crate::DiskGraph) owns its lease, so the graph's frames
/// go when it does.
#[derive(Debug)]
pub struct PoolLease {
    inner: Arc<PoolInner>,
    first: u32,
    files: u32,
}

impl PoolLease {
    /// The pool file id of the lease's `i`-th file.
    pub fn file_id(&self, i: u32) -> u32 {
        assert!(i < self.files, "lease covers {} file(s)", self.files);
        self.first + i
    }

    /// Number of file ids this lease covers.
    pub fn file_count(&self) -> u32 {
        self.files
    }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        // A poisoned pool means some reader panicked mid-fetch; skipping
        // invalidation is safe because the ids are never reallocated. The
        // range form keeps teardown O(frames) even for the widest lease.
        if let Ok(mut cache) = self.inner.cache.lock() {
            cache.invalidate_file_range(self.first, self.files);
        }
        self.inner.graphs.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Scale factor for weighted-fair-queueing virtual time: a request's tag
/// advance is `bytes * WFQ_SCALE / weight`, so weights act as bandwidth
/// shares without losing precision on small requests.
const WFQ_SCALE: u128 = 1 << 20;

/// Configuration for the serving layer's [`AdmissionController`].
#[derive(Debug, Clone, Copy)]
pub struct QosConfig {
    /// Combined working-set bytes the controller may admit at once —
    /// conventionally the shared pool budget `M` (or a small multiple).
    /// Admitting more than the pool can hold does not fail, it *thrashes*;
    /// the controller queues or sheds instead.
    pub capacity_bytes: u64,
    /// Queued (admitted-later) requests allowed before new arrivals are
    /// shed with [`Error::Overloaded`].
    pub max_waiters: usize,
}

/// Per-tenant admission control over a shared charge budget.
///
/// The serving layer sizes each tenant's request by its *working set* (the
/// graph's [`working_set_charge_budget`]) and asks the controller for a
/// permit before touching the pool. The controller keeps the sum of
/// admitted working sets within [`QosConfig::capacity_bytes`]:
///
/// * **Weighted fairness.** Queued requests are ordered by a
///   weighted-fair-queueing tag — virtual time plus
///   `bytes * WFQ_SCALE / weight` — and granted strictly min-tag-first with
///   **no bypass**: a small request never jumps over a large one that was
///   tagged earlier. That head-of-line discipline is the no-starvation
///   guarantee — while a request waits, other tenants can only be granted
///   bytes proportional to their weight (see the QoS proptest suite).
/// * **Piggybacking.** Concurrent operations on the *same* tenant share one
///   working set, so a tenant that is already admitted is granted
///   immediately by refcount — no new bytes are charged.
/// * **Shedding.** A request whose working set alone exceeds the whole
///   budget, or that arrives when the queue is full, fails with
///   [`Error::Overloaded`] — a load condition, not damage; the queue being
///   non-empty already means the smallest-tag waiter does not fit.
///
/// [`AdmissionController::admit`] is the blocking entry point;
/// [`AdmissionController::request`] + [`PendingAdmission::try_permit`] form
/// a deterministic, single-threaded step API used by the property tests.
#[derive(Debug)]
pub struct AdmissionController {
    state: Mutex<AdmissionState>,
    cv: std::sync::Condvar,
    capacity: u64,
    max_waiters: usize,
}

#[derive(Debug, Default)]
struct AdmissionState {
    in_use: u64,
    vtime: u128,
    next_ticket: u64,
    weights: std::collections::HashMap<String, u32>,
    last_tag: std::collections::HashMap<String, u128>,
    active: std::collections::HashMap<String, ActiveTenant>,
    queue: Vec<Waiter>,
    granted: std::collections::HashSet<u64>,
}

#[derive(Debug)]
struct ActiveTenant {
    refs: usize,
    bytes: u64,
}

#[derive(Debug)]
struct Waiter {
    ticket: u64,
    tenant: String,
    bytes: u64,
    tag: u128,
}

fn lock_admission(m: &Mutex<AdmissionState>) -> std::sync::MutexGuard<'_, AdmissionState> {
    // Admission state is plain counters and queues — a panicking waiter
    // cannot leave it logically torn, so poison is recovered by adoption.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl AdmissionController {
    /// A controller enforcing `config`. Weights default to 1 until
    /// [`AdmissionController::set_weight`] raises them.
    pub fn new(config: QosConfig) -> Arc<AdmissionController> {
        Arc::new(AdmissionController {
            state: Mutex::new(AdmissionState::default()),
            cv: std::sync::Condvar::new(),
            capacity: config.capacity_bytes,
            max_waiters: config.max_waiters,
        })
    }

    /// The configured budget ceiling.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently admitted (sum of active tenants' working sets).
    /// Never exceeds [`AdmissionController::capacity_bytes`].
    pub fn in_use_bytes(&self) -> u64 {
        lock_admission(&self.state).in_use
    }

    /// Requests currently queued (tagged, not yet admitted).
    pub fn queue_len(&self) -> usize {
        lock_admission(&self.state).queue.len()
    }

    /// Sum of the queued requests' working-set bytes.
    pub fn queued_demand_bytes(&self) -> u64 {
        lock_admission(&self.state)
            .queue
            .iter()
            .map(|w| w.bytes)
            .sum()
    }

    /// Set `tenant`'s bandwidth share (minimum 1). A weight of `w` makes
    /// the tenant's queued requests accumulate virtual time `w`× slower, so
    /// under contention it is granted ~`w`× the bytes of a weight-1 tenant.
    pub fn set_weight(&self, tenant: &str, weight: u32) {
        lock_admission(&self.state)
            .weights
            .insert(tenant.to_string(), weight.max(1));
    }

    /// The tenant's configured weight (1 if never set).
    pub fn weight_of(&self, tenant: &str) -> u32 {
        lock_admission(&self.state)
            .weights
            .get(tenant)
            .copied()
            .unwrap_or(1)
    }

    /// Ask to admit `bytes` of working set for `tenant`. Returns a
    /// [`PendingAdmission`] — possibly already granted (same-tenant
    /// piggyback, or the budget has room and nobody is queued ahead) — or
    /// [`Error::Overloaded`] when the request is shed.
    pub fn request(self: &Arc<Self>, tenant: &str, bytes: u64) -> Result<PendingAdmission> {
        let mut st = lock_admission(&self.state);
        if bytes > self.capacity {
            return Err(Error::Overloaded {
                tenant: tenant.to_string(),
                reason: format!(
                    "working set of {bytes} B exceeds the whole {} B admission budget",
                    self.capacity
                ),
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        if let Some(active) = st.active.get_mut(tenant) {
            // Piggyback: concurrent ops on one tenant share its working set.
            active.refs += 1;
            st.granted.insert(ticket);
        } else {
            let weight = u128::from(st.weights.get(tenant).copied().unwrap_or(1));
            let start = st.vtime.max(st.last_tag.get(tenant).copied().unwrap_or(0));
            let tag = start + u128::from(bytes) * WFQ_SCALE / weight;
            if st.queue.is_empty() && st.in_use + bytes <= self.capacity {
                st.last_tag.insert(tenant.to_string(), tag);
                st.vtime = st.vtime.max(tag);
                st.in_use += bytes;
                st.active
                    .insert(tenant.to_string(), ActiveTenant { refs: 1, bytes });
                st.granted.insert(ticket);
            } else if st.queue.len() >= self.max_waiters {
                return Err(Error::Overloaded {
                    tenant: tenant.to_string(),
                    reason: format!("admission queue full ({} waiting)", st.queue.len()),
                });
            } else {
                st.last_tag.insert(tenant.to_string(), tag);
                st.queue.push(Waiter {
                    ticket,
                    tenant: tenant.to_string(),
                    bytes,
                    tag,
                });
                // The newcomer may itself hold the minimum tag *and* fit —
                // then WFQ order says it goes now. The pass still stops at
                // the first blocked minimum, so it can never leapfrog an
                // earlier-tagged waiter.
                self.grant_pass(&mut st);
            }
        }
        drop(st);
        Ok(PendingAdmission {
            ctl: Arc::clone(self),
            ticket,
            tenant: tenant.to_string(),
            claimed: false,
        })
    }

    /// [`AdmissionController::request`] + [`PendingAdmission::wait`]: block
    /// until admitted (or shed immediately).
    pub fn admit(self: &Arc<Self>, tenant: &str, bytes: u64) -> Result<AdmissionPermit> {
        Ok(self.request(tenant, bytes)?.wait())
    }

    /// Grant queued waiters strictly min-(tag, ticket) first. Stops at the
    /// first waiter that neither piggybacks nor fits — no bypass, so a
    /// blocked head is never starved by later small requests.
    fn grant_pass(&self, st: &mut AdmissionState) {
        while let Some(best) = st
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| (w.tag, w.ticket))
            .map(|(i, _)| i)
        {
            let fits = {
                let w = &st.queue[best];
                st.active.contains_key(&w.tenant) || st.in_use + w.bytes <= self.capacity
            };
            if !fits {
                break;
            }
            let w = st.queue.remove(best);
            if let Some(active) = st.active.get_mut(&w.tenant) {
                active.refs += 1;
            } else {
                st.in_use += w.bytes;
                st.active.insert(
                    w.tenant.clone(),
                    ActiveTenant {
                        refs: 1,
                        bytes: w.bytes,
                    },
                );
            }
            st.vtime = st.vtime.max(w.tag);
            st.granted.insert(w.ticket);
        }
    }

    fn release(&self, tenant: &str) {
        let mut st = lock_admission(&self.state);
        let emptied = match st.active.get_mut(tenant) {
            Some(active) => {
                active.refs -= 1;
                active.refs == 0
            }
            None => false,
        };
        if emptied {
            if let Some(active) = st.active.remove(tenant) {
                st.in_use = st.in_use.saturating_sub(active.bytes);
            }
        }
        self.grant_pass(&mut st);
        drop(st);
        self.cv.notify_all();
    }

    fn cancel(&self, ticket: u64, tenant: &str) {
        let mut st = lock_admission(&self.state);
        if st.granted.remove(&ticket) {
            drop(st);
            self.release(tenant);
            return;
        }
        // Still queued: removing it may unblock the head of the line.
        st.queue.retain(|w| w.ticket != ticket);
        self.grant_pass(&mut st);
        drop(st);
        self.cv.notify_all();
    }
}

/// An admission request in flight: poll it ([`PendingAdmission::try_permit`])
/// or block on it ([`PendingAdmission::wait`]). Dropping it un-asks — the
/// queued entry is removed, or the grant is released if it already landed.
#[derive(Debug)]
pub struct PendingAdmission {
    ctl: Arc<AdmissionController>,
    ticket: u64,
    tenant: String,
    claimed: bool,
}

impl PendingAdmission {
    /// Non-blocking poll: the permit, if the grant has landed.
    pub fn try_permit(&mut self) -> Option<AdmissionPermit> {
        let mut st = lock_admission(&self.ctl.state);
        if st.granted.remove(&self.ticket) {
            drop(st);
            self.claimed = true;
            Some(AdmissionPermit {
                ctl: Arc::clone(&self.ctl),
                tenant: self.tenant.clone(),
            })
        } else {
            None
        }
    }

    /// Block until the grant lands.
    pub fn wait(mut self) -> AdmissionPermit {
        let mut st = lock_admission(&self.ctl.state);
        while !st.granted.contains(&self.ticket) {
            st = self
                .ctl
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.granted.remove(&self.ticket);
        drop(st);
        self.claimed = true;
        AdmissionPermit {
            ctl: Arc::clone(&self.ctl),
            tenant: self.tenant.clone(),
        }
    }
}

impl Drop for PendingAdmission {
    fn drop(&mut self) {
        if !self.claimed {
            self.ctl.cancel(self.ticket, &self.tenant);
        }
    }
}

/// A granted admission: the tenant's working set is charged against the
/// budget until the permit drops (last permit out releases the bytes and
/// wakes the queue).
#[derive(Debug)]
pub struct AdmissionPermit {
    ctl: Arc<AdmissionController>,
    tenant: String,
}

impl AdmissionPermit {
    /// The tenant this permit admits.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.ctl.release(&self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(pool: &SharedPool, file: u32, block: u64) {
        pool.cache()
            .lock()
            .unwrap()
            .get_or_load(file, block, 4, |buf| {
                buf.fill(7);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn budget_floor_is_enforced() {
        assert!(SharedPool::new(4096, 0).is_err());
        assert!(SharedPool::new(4096, 4096).is_err());
        assert!(SharedPool::new(4096, 8192).is_ok());
    }

    #[test]
    fn block_size_outside_u32_is_an_error_not_a_panic() {
        for block in [0, u32::MAX as usize + 1] {
            let err = SharedPool::new(block, 1 << 20).unwrap_err();
            assert!(
                matches!(err, Error::InvalidArgument(_)),
                "B = {block}: {err}"
            );
        }
        assert!(SharedPool::new(u32::MAX as usize, 1 << 40).is_ok());
    }

    #[test]
    fn leases_get_disjoint_ids_and_count_graphs() {
        let pool = SharedPool::new(4096, 1 << 20).unwrap();
        let a = pool.register(2).unwrap();
        let b = pool.register(3).unwrap();
        assert_eq!(pool.registered_graphs(), 2);
        let a_ids: Vec<u32> = (0..a.file_count()).map(|i| a.file_id(i)).collect();
        let b_ids: Vec<u32> = (0..b.file_count()).map(|i| b.file_id(i)).collect();
        assert!(a_ids.iter().all(|id| !b_ids.contains(id)));
        drop(a);
        assert_eq!(pool.registered_graphs(), 1);
        drop(b);
        assert_eq!(pool.registered_graphs(), 0);
    }

    #[test]
    fn dropping_a_lease_invalidates_only_its_frames() {
        let pool = SharedPool::new(16, 16 * 16).unwrap();
        let a = pool.register(1).unwrap();
        let b = pool.register(1).unwrap();
        fill(&pool, a.file_id(0), 0);
        fill(&pool, a.file_id(0), 1);
        fill(&pool, b.file_id(0), 0);
        assert_eq!(pool.resident_frames(), 3);
        let b_id = b.file_id(0);
        drop(a);
        let keys = pool.cache().lock().unwrap().resident_keys();
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].0, b_id, "only the live lease's frame survives");
        drop(b);
        assert_eq!(pool.resident_frames(), 0);
    }

    #[test]
    fn file_id_exhaustion_errors_without_aliasing() {
        let pool = SharedPool::new(4096, 1 << 20).unwrap();
        let big = pool.register(u32::MAX - 1).unwrap();
        assert!(pool.register(2).is_err(), "exhaustion must surface");
        // The failed attempt must not have moved the allocator: the last
        // single-file lease still fits, at the expected id.
        let last = pool.register(1).unwrap();
        assert_eq!(last.file_id(0), u32::MAX - 1);
        drop((big, last));
    }

    #[test]
    fn clones_are_the_same_pool() {
        let pool = SharedPool::new(4096, 1 << 20).unwrap();
        let clone = pool.clone();
        let lease = clone.register(2).unwrap();
        assert_eq!(pool.registered_graphs(), 1);
        assert_eq!(lease.file_count(), 2);
    }

    fn qos(capacity_bytes: u64, max_waiters: usize) -> Arc<AdmissionController> {
        AdmissionController::new(QosConfig {
            capacity_bytes,
            max_waiters,
        })
    }

    #[test]
    fn admission_grants_and_releases_budget() {
        let ctl = qos(100, 4);
        let a = ctl.admit("a", 60).unwrap();
        assert_eq!(ctl.in_use_bytes(), 60);
        let b = ctl.admit("b", 40).unwrap();
        assert_eq!(ctl.in_use_bytes(), 100);
        drop(a);
        assert_eq!(ctl.in_use_bytes(), 40);
        drop(b);
        assert_eq!(ctl.in_use_bytes(), 0);
    }

    #[test]
    fn same_tenant_piggybacks_without_new_bytes() {
        let ctl = qos(100, 4);
        let first = ctl.admit("a", 90).unwrap();
        // A second op on the same graph shares the working set: admitted
        // immediately even though 90 + 90 > 100.
        let second = ctl.admit("a", 90).unwrap();
        assert_eq!(ctl.in_use_bytes(), 90);
        drop(first);
        assert_eq!(ctl.in_use_bytes(), 90, "still one ref holding the bytes");
        drop(second);
        assert_eq!(ctl.in_use_bytes(), 0);
    }

    #[test]
    fn oversized_and_queue_full_requests_are_shed_typed() {
        let ctl = qos(100, 1);
        let err = ctl.admit("big", 101).unwrap_err();
        assert!(err.is_overloaded(), "whole-budget overflow: {err}");

        let _held = ctl.admit("a", 100).unwrap();
        let _waiting = ctl.request("b", 50).unwrap();
        assert_eq!(ctl.queue_len(), 1);
        let err = ctl.request("c", 50).unwrap_err();
        assert!(err.is_overloaded(), "queue full: {err}");
        assert_eq!(ctl.queued_demand_bytes(), 50);
    }

    #[test]
    fn queued_requests_grant_min_tag_first_without_bypass() {
        // Tags in WFQ_SCALE units; vtime is 100 after the hog's grant:
        // a = 100 + 80/8 = 110, b = 100 + 80/4 = 120, c = 100 + 10/1 = 110
        // (ties broken by arrival, so a precedes c).
        let ctl = qos(100, 8);
        let held = ctl.admit("hog", 100).unwrap();
        ctl.set_weight("a", 8);
        ctl.set_weight("b", 4);
        let mut a = ctl.request("a", 80).unwrap();
        let mut b = ctl.request("b", 80).unwrap();
        let mut c = ctl.request("c", 10).unwrap();
        // Budget is exhausted: nobody is granted yet, smallest tag or not.
        assert!(a.try_permit().is_none());
        drop(held);
        // Grant order is strictly by (tag, arrival): a (110) then c (110)
        // fit; b (120) blocks at 80 + 10 + 80 > 100.
        let pa = a.try_permit().expect("min tag granted first");
        let pc = c.try_permit().expect("tie-broken next, and it fits");
        assert!(b.try_permit().is_none(), "largest tag still blocked");
        assert_eq!(ctl.in_use_bytes(), 90);
        // A brand-new request now tags at 120 too (vtime is 110 + 10/1),
        // tying b but arriving later — it fits the free 10 B yet must not
        // leapfrog the blocked head.
        let mut late = ctl.request("late", 10).unwrap();
        assert!(late.try_permit().is_none(), "no bypass past a blocked head");
        drop(late);
        drop(pa);
        // Cancelling `late` and freeing a's 80 B re-runs the pass: b fits.
        let pb = b.try_permit();
        assert!(pb.is_some(), "head unblocks once budget frees");
        drop(pc);
        assert_eq!(ctl.in_use_bytes(), 80);
    }

    #[test]
    fn dropping_a_queued_request_unblocks_the_line() {
        // b (weight 8) tags at 60 + 80/8 = 70; c at 60 + 30/1 = 90 — so b
        // is the minimum-tag head, blocked at 60 + 80 > 100, and c (which
        // would fit) waits behind it.
        let ctl = qos(100, 8);
        let held = ctl.admit("a", 60).unwrap();
        ctl.set_weight("b", 8);
        let blocked = ctl.request("b", 80).unwrap();
        let mut behind = ctl.request("c", 30).unwrap();
        assert!(behind.try_permit().is_none(), "blocked behind b");
        drop(blocked);
        let pc = behind.try_permit();
        assert!(pc.is_some(), "cancelling the head re-runs the grant pass");
        drop(held);
        assert_eq!(ctl.in_use_bytes(), 30);
        assert_eq!(ctl.queue_len(), 0);
    }

    #[test]
    fn blocking_wait_wakes_on_release() {
        let ctl = qos(100, 8);
        let held = ctl.admit("a", 100).unwrap();
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || {
            let permit = ctl2.admit("b", 50).unwrap();
            drop(permit);
        });
        // Give the waiter time to enqueue, then free the budget.
        while ctl.queue_len() == 0 {
            std::thread::yield_now();
        }
        drop(held);
        waiter.join().unwrap();
        assert_eq!(ctl.in_use_bytes(), 0);
    }
}
