//! The scan executor: how SemiCore\*'s convergence loop schedules its passes.
//!
//! SemiCore\* is a fixpoint iteration of repeated scans over a
//! `[vmin, vmax]` vertex window (see [`crate::window`]). [`ScanExecutor`]
//! abstracts *how* one such pass is driven (SemiCore and SemiCore+, the
//! paper's baselines, are sequential only):
//!
//! * [`ScanExecutor::Sequential`] — the paper's exact schedule: one thread
//!   walks the window in ascending node order and updates state **in
//!   place**, so a node recomputed late in a pass already sees the pass's
//!   earlier updates (Gauss–Seidel propagation). This is the schedule whose
//!   iteration and node-computation counts match Example 4.3, and it is
//!   what the plain entry point ([`crate::semicore_star()`]) always runs.
//! * [`ScanExecutor::Parallel`] — deterministic sharded passes: the pass's
//!   victim set is fixed up front from the state at pass start, split into
//!   contiguous shards, and scanned by a pool of worker threads that each
//!   read the graph through their own shard handle
//!   ([`graphstore::ShardableRead`]). A worker evaluates estimates through
//!   a *shard view*: nodes of its own shard reflect the updates it has
//!   already applied this pass (Gauss–Seidel **within** the shard — the
//!   worker only ever observes its own writes), every other node reads
//!   from a **frozen snapshot** of the pass start (Jacobi **across**
//!   shards). Workers produce per-shard update and message lists that are
//!   merged in shard order after the pass, so the evolution of the state
//!   is a pure function of the input and the worker count — independent of
//!   thread interleaving, reproducible run over run.
//!
//! ## What the two schedules share, and what they don't
//!
//! Both schedules drive the estimates down the same monotone lattice from
//! the same upper bound (`core(v) ≤ deg(v)`), so both converge to the unique
//! core decomposition: **final core numbers are bit-identical** — for any
//! worker count. The paths there differ: cross-shard propagation happens
//! one "hop" per pass where the sequential schedule propagates along the
//! whole scan direction, so the parallel executor typically runs more
//! (cheaper, concurrent) passes and its `iterations` /
//! `node_computations` stats are not comparable with the sequential ones
//! (nor across worker counts — more shards mean more cross-shard edges on
//! the slow path).
//!
//! ## Charged I/O
//!
//! All shard handles of a disk graph charge one shared `Arc`-atomic
//! [`graphstore::IoCounter`] and fetch through one shared block-cache pool,
//! where a miss is charged exactly once per block residency no matter how
//! many workers race for the block. When the cache budget absorbs the
//! algorithm's re-read working set (in the limit, a whole-graph budget),
//! charged `read_ios` collapses to *distinct blocks touched* — a schedule-
//! independent quantity, so the parallel run charges **exactly** the same
//! `read_ios` as the sequential one. Under tighter budgets the two
//! schedules touch blocks in different orders and evict differently, and
//! the counts (both still honest miss counts) drift apart.
//!
//! ## Memory
//!
//! The parallel executor trades memory for concurrency: each pass holds a
//! snapshot of the estimates (`O(n)`) plus the per-shard update/message
//! buffers (`O(Σ deg(changed))` in the worst first pass). The sequential
//! schedule remains the memory-frugal choice the paper analyses.

use std::thread;

use graphstore::{AdjacencyRead, Result, ShardableRead};

use crate::localcore::{compute_cnt, local_core_by, Scratch};

/// Strategy for driving convergence passes — see the [module docs](self)
/// for the semantics and guarantees of each variant.
///
/// ```
/// use semicore::{semicore_star_with, DecomposeOptions, ScanExecutor};
/// use graphstore::MemGraph;
///
/// let mut g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 4);
/// let opts = DecomposeOptions::default();
/// let seq = semicore_star_with(&mut g, &opts, ScanExecutor::Sequential).unwrap();
/// let par = semicore_star_with(&mut g, &opts, ScanExecutor::parallel(4)).unwrap();
/// assert_eq!(seq.core, par.core); // always bit-identical
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanExecutor {
    /// The paper's exact single-threaded schedule (in-place propagation).
    Sequential,
    /// Deterministic sharded passes over a pool of worker threads
    /// (Gauss–Seidel within each shard, Jacobi across shards).
    Parallel {
        /// Number of worker threads (values below 1 are treated as 1; one
        /// worker runs the snapshot/merge schedule over a single shard —
        /// useful for testing the parallel machinery without concurrency).
        workers: usize,
    },
}

impl ScanExecutor {
    /// A parallel executor with `workers` threads (min 1).
    pub fn parallel(workers: usize) -> ScanExecutor {
        ScanExecutor::Parallel {
            workers: workers.max(1),
        }
    }

    /// Worker count when parallel, `None` when sequential.
    pub(crate) fn worker_count(self) -> Option<usize> {
        match self {
            ScanExecutor::Sequential => None,
            ScanExecutor::Parallel { workers } => Some(workers.max(1)),
        }
    }
}

/// Open `workers` shard handles over `g`, or `None` when the backend opts
/// out of sharding (the executor then falls back to the sequential
/// schedule).
pub(crate) fn shard_handles<G: ShardableRead>(
    g: &G,
    workers: usize,
) -> Result<Option<Vec<G::Shard>>> {
    let mut shards = Vec::with_capacity(workers);
    for _ in 0..workers.max(1) {
        match g.shard_handle()? {
            Some(h) => shards.push(h),
            None => return Ok(None),
        }
    }
    Ok(Some(shards))
}

/// One recomputation result produced by a worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeUpdate {
    /// The recomputed node.
    pub v: u32,
    /// Estimate before the pass (snapshot value).
    pub cold: u32,
    /// Estimate after recomputation (`≤ cold`).
    pub cnew: u32,
    /// `|{u ∈ nbr(v) | snapshot(u) ≥ cnew}|`: the node's Eq. 2 support
    /// relative to the snapshot.
    pub support: u32,
}

/// A neighbour implicated by a changed node: "my estimate dropped from
/// `wold` to `wnew`". The merge turns these into `cnt` corrections.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Touch {
    /// The implicated neighbour.
    pub u: u32,
    /// The changed node's snapshot estimate.
    pub wold: u32,
    /// The changed node's new estimate.
    pub wnew: u32,
}

/// Everything one shard produced in one pass.
#[derive(Debug, Default)]
pub(crate) struct ShardOutput {
    pub updates: Vec<NodeUpdate>,
    pub touched: Vec<Touch>,
    /// Bytes the worker's shard view held (peak-memory accounting).
    pub overlay_bytes: u64,
}

impl ShardOutput {
    /// Bytes held by this output's buffers plus the worker's shard view
    /// (for peak-memory accounting).
    pub fn resident_bytes(&self) -> u64 {
        (self.updates.capacity() * std::mem::size_of::<NodeUpdate>()
            + self.touched.capacity() * std::mem::size_of::<Touch>()) as u64
            + self.overlay_bytes
    }
}

/// A worker's view of the core estimates during one pass: nodes inside its
/// own shard's span read the values the worker has already written this
/// pass, everything else reads the frozen pass-start snapshot. A worker
/// only ever observes its own writes, which is what keeps the pass
/// deterministic under any thread interleaving.
///
/// Using fresher (lower) in-shard values is safe everywhere an upper bound
/// is required: estimates decrease monotonically, so every view value is
/// itself a valid upper bound of the true core.
struct ShardView<'a> {
    snapshot: &'a [u32],
    lo: usize,
    local: Vec<u32>,
}

impl ShardView<'_> {
    fn new<'a>(snapshot: &'a [u32], victims: &[u32]) -> ShardView<'a> {
        let (lo, local) = match (victims.first(), victims.last()) {
            (Some(&a), Some(&b)) => (a as usize, snapshot[a as usize..=b as usize].to_vec()),
            _ => (0, Vec::new()),
        };
        ShardView {
            snapshot,
            lo,
            local,
        }
    }

    #[inline]
    fn get(&self, u: u32) -> u32 {
        match (u as usize).checked_sub(self.lo) {
            Some(off) if off < self.local.len() => self.local[off],
            _ => self.snapshot[u as usize],
        }
    }

    #[inline]
    fn set(&mut self, v: u32, c: u32) {
        self.local[v as usize - self.lo] = c;
    }

    fn resident_bytes(&self) -> u64 {
        (self.local.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// Scan one shard's victim list as SemiCore\* (Alg. 5) does: record every
/// victim with its Eq. 2 support, and emit neighbour messages where the
/// estimate changed. Runs on a worker thread with the shard's private graph
/// handle.
///
/// `cold` and the Eq. 2 support are always taken against the **snapshot**
/// (each victim is recomputed at most once per pass, and the merge's
/// message corrections assume snapshot-relative supports); only the
/// `LocalCore` evaluation reads through the shard view.
fn scan_shard<G: AdjacencyRead>(
    g: &mut G,
    snapshot: &[u32],
    victims: &[u32],
) -> Result<ShardOutput> {
    let mut scratch = Scratch::new();
    let mut out = ShardOutput::default();
    let mut view = ShardView::new(snapshot, victims);
    for &v in victims {
        let cold = snapshot[v as usize];
        g.with_adjacency(v, |nbrs| {
            let cnew = local_core_by(cold, nbrs, &mut scratch, |u| view.get(u));
            let changed = cnew != cold;
            if changed {
                view.set(v, cnew);
            }
            // Every victim re-establishes its Eq. 2 support, changed or
            // not — mirroring Alg. 5 line 10.
            let support = compute_cnt(cnew, snapshot, nbrs);
            out.updates.push(NodeUpdate {
                v,
                cold,
                cnew,
                support,
            });
            if changed {
                out.touched.extend(nbrs.iter().map(|&u| Touch {
                    u,
                    wold: cold,
                    wnew: cnew,
                }));
            }
        })?;
    }
    out.overlay_bytes = view.resident_bytes();
    Ok(out)
}

/// Split `victims` into at most `shards` contiguous chunks of roughly equal
/// total degree (each victim's cost is `O(deg(v))` — LocalCore plus the
/// adjacency read — so degree, not node count, is the balance unit).
/// Deterministic: a pure greedy walk over the ascending victim list.
fn balanced_chunks<'a>(victims: &'a [u32], degrees: &[u32], shards: usize) -> Vec<&'a [u32]> {
    if victims.is_empty() {
        return vec![victims];
    }
    // +1 per node keeps zero-degree stretches from collapsing into one
    // giant chunk.
    let total: u64 = victims
        .iter()
        .map(|&v| degrees[v as usize] as u64 + 1)
        .sum();
    let target = total.div_ceil(shards as u64);
    let mut chunks = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &v) in victims.iter().enumerate() {
        acc += degrees[v as usize] as u64 + 1;
        if acc >= target && chunks.len() + 1 < shards {
            chunks.push(&victims[start..=i]);
            start = i + 1;
            acc = 0;
        }
    }
    if start < victims.len() {
        chunks.push(&victims[start..]);
    }
    chunks
}

/// Run one sharded pass: split `victims` into contiguous degree-balanced
/// chunks, scan each on its own worker thread, and return the per-shard
/// outputs **in shard order** (the order the merge consumes them in —
/// this, plus workers observing only their own writes, is what makes the
/// pass deterministic).
///
/// Threads are scoped per pass rather than pooled for the run: spawn/join
/// costs tens of microseconds per worker against millisecond-scale passes,
/// and scoped borrows of the snapshot/victims keep the code free of
/// channel plumbing. A persistent pool is the upgrade path if profiles
/// ever show pass counts dominated by spawn overhead.
pub(crate) fn run_pass<S: AdjacencyRead + Send>(
    shards: &mut [S],
    snapshot: &[u32],
    degrees: &[u32],
    victims: &[u32],
) -> Result<Vec<ShardOutput>> {
    debug_assert!(!shards.is_empty());
    // Late-stage convergence passes shrink to a handful of victims; below
    // this size thread spawn/join costs more than the pass itself, so run
    // single-sharded. Deterministic: the cutoff is a function of the
    // victim count only.
    const MIN_VICTIMS_TO_FAN_OUT: usize = 64;
    if shards.len() == 1 || victims.len() < MIN_VICTIMS_TO_FAN_OUT {
        return Ok(vec![scan_shard(&mut shards[0], snapshot, victims)?]);
    }
    let chunks = balanced_chunks(victims, degrees, shards.len());
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(chunks.len());
        for (shard, vs) in shards.iter_mut().zip(chunks) {
            handles.push(scope.spawn(move || scan_shard(shard, snapshot, vs)));
        }
        let mut outs = Vec::with_capacity(handles.len());
        for h in handles {
            outs.push(h.join().expect("scan worker panicked")?);
        }
        Ok(outs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::MemGraph;

    #[test]
    fn balanced_chunks_covers_all_victims_in_order() {
        let victims: Vec<u32> = (0..100).collect();
        // A skewed degree profile: hubs at the front.
        let degrees: Vec<u32> = (0..100).map(|v| if v < 10 { 90 } else { 1 }).collect();
        for shards in [1usize, 2, 3, 4, 7] {
            let chunks = balanced_chunks(&victims, &degrees, shards);
            assert!(chunks.len() <= shards);
            let flat: Vec<u32> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flat, victims, "{shards} shards: cover exactly, in order");
        }
        // With the hubs up front, 2-way splitting must not put half the
        // *nodes* in each shard — the hub shard is much shorter.
        let chunks = balanced_chunks(&victims, &degrees, 2);
        assert!(chunks[0].len() < 20, "hub shard is cut early");
    }

    #[test]
    fn parallel_clamps_to_one() {
        assert_eq!(
            ScanExecutor::parallel(0),
            ScanExecutor::Parallel { workers: 1 }
        );
    }

    #[test]
    fn run_pass_is_shard_ordered_and_repeatable() {
        // A path of 200 nodes (above the fan-out cutoff): every interior
        // estimate starts at 2, the true core everywhere is 1.
        let n = 200u32;
        let g = MemGraph::from_edges((0..n - 1).map(|v| (v, v + 1)), n);
        let snapshot: Vec<u32> = (0..n).map(|v| g.degree(v)).collect();
        let degrees = snapshot.clone();
        let victims: Vec<u32> = (0..n).collect();
        let collect = |workers: usize| -> Vec<(u32, u32)> {
            let mut shards: Vec<MemGraph> = (0..workers).map(|_| g.clone()).collect();
            // Every victim reports; the changed ones are the pass's effect.
            run_pass(&mut shards, &snapshot, &degrees, &victims)
                .unwrap()
                .iter()
                .flat_map(|o| o.updates.iter().filter(|u| u.cnew != u.cold))
                .map(|u| (u.v, u.cnew))
                .collect()
        };
        for workers in [1usize, 2, 4] {
            let first = collect(workers);
            // Deterministic at a fixed worker count: repeats are identical.
            assert_eq!(first, collect(workers), "workers {workers}");
            // Updates arrive in ascending node order (contiguous shards,
            // merged in shard order).
            assert!(first.windows(2).all(|w| w[0].0 < w[1].0));
        }
        // One worker = one shard = a full Gauss–Seidel pass: the collapse
        // cascades from the path's end through every interior node.
        let full: Vec<(u32, u32)> = (1..n - 1).map(|v| (v, 1)).collect();
        assert_eq!(collect(1), full);
        // More shards propagate less per pass: collapse still cascades
        // within each shard, but stops at cross-shard boundaries.
        assert!(collect(2).len() < collect(1).len());
        assert!(collect(4).len() < collect(2).len());
    }
}
