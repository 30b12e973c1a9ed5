//! SemiCore* — optimal node computation (Algorithm 5).
//!
//! SemiCore+ still recomputes nodes whose estimate turns out unchanged. With
//! `cnt(v) = |{u ∈ nbr(v) | core(u) ≥ core(v)}|` (Eq. 2) maintained
//! incrementally, Lemma 4.2 gives an exact trigger: `core(v)` must change
//! **iff** `cnt(v) < core(v)`. After the first pass, every adjacency load is
//! therefore guaranteed to decrease a core estimate — no wasted I/O and no
//! wasted `LocalCore` call.
//!
//! The convergence loop (`star_converge`) is shared verbatim with edge
//! deletion (Algorithm 6 line 11) and the second phase of two-phase
//! insertion (Algorithm 7 line 25).

use std::time::Instant;

use graphstore::{AdjacencyRead, Result};

#[cfg(any(test, feature = "testing"))]
use crate::localcore::{compute_cnt, local_core};
use crate::localcore::{recompute_node, Scratch};
use crate::state::CoreState;
use crate::stats::{DecomposeOptions, Decomposition, RunStats};
use crate::window::ScanWindow;

/// Lines 4–14 of Algorithm 5: drive `(core, cnt)` to the fixpoint, visiting
/// only nodes with `cnt < core` inside the shrinking `[vmin, vmax]` window.
///
/// On entry `core[v]` must be an upper bound of the true core of every node
/// and `cnt` must satisfy Eq. 2 — except that nodes whose `cnt` is *lower*
/// than Eq. 2's value (e.g. the all-zero initial state) are simply
/// recomputed, which Algorithm 5 relies on for its first iteration — and
/// every node with `cnt < core` must lie inside `window`.
///
/// Each node computation is one gather ([`recompute_node`], which searches
/// the gathered estimates for the new one) and — only when the estimate
/// dropped — a sequential pass over the gathered values picking out the
/// neighbours that lost a supporter. Only those are scheduled: a neighbour
/// already in violation was announced by the computation that pushed it
/// there (or lies in the caller's initial window), so announcing it again
/// would move neither `vmax` nor the next window.
///
/// Leaves the kernel scratch's size (`O(d_max)`) in
/// `stats.peak_memory_bytes`, for the caller to add its node state to.
pub(crate) fn star_converge(
    g: &mut impl AdjacencyRead,
    state: &mut CoreState,
    window: &mut ScanWindow,
    stats: &mut RunStats,
    mut per_iter: Option<&mut Vec<u64>>,
) -> Result<()> {
    #[cfg(any(test, feature = "testing"))]
    if REFERENCE_KERNEL.with(std::cell::Cell::get) {
        return star_converge_reference(g, state, window, stats, per_iter);
    }
    let mut scratch = Scratch::new();
    let core = &mut state.core;
    let cnt = &mut state.cnt;
    if core.is_empty() {
        window.update = false;
    }
    while window.update {
        window.begin_iteration();
        let mut changed = 0u64;
        let mut v = window.vmin as u64;
        // `window.vmax` may grow while scanning.
        while v <= window.vmax as u64 {
            let vu = v as u32;
            // Line 7: the Lemma 4.2 trigger.
            if (cnt[vu as usize] as i64) < core[vu as usize] as i64 {
                stats.node_computations += 1;
                g.with_adjacency(vu, |nbrs| {
                    let cold = core[vu as usize];
                    // Lines 8-10: the new estimate and its Eq. 2 support.
                    let (cnew, support) = recompute_node(cold, core, nbrs, &mut scratch);
                    cnt[vu as usize] = support as i32;
                    if cnew == cold {
                        return;
                    }
                    changed += 1;
                    core[vu as usize] = cnew;
                    // Lines 11-13: v stopped supporting neighbours whose
                    // core lies in (cnew, cold]; schedule those it pushed
                    // into violating Lemma 4.2.
                    let (lost, cores) = scratch.lost_support(nbrs.len(), cnew, cold);
                    for &i in lost {
                        let u = nbrs[i as usize];
                        cnt[u as usize] -= 1;
                        if (cnt[u as usize] as i64) < cores[i as usize] as i64 {
                            window.schedule(u, vu);
                        }
                    }
                })?;
            }
            v += 1;
        }
        stats.iterations += 1;
        if let Some(p) = per_iter.as_deref_mut() {
            p.push(changed);
        }
        window.end_iteration();
    }
    stats.peak_memory_bytes = scratch.resident_bytes();
    Ok(())
}

#[cfg(any(test, feature = "testing"))]
thread_local! {
    /// Set while [`with_reference_kernel`] runs on this thread.
    static REFERENCE_KERNEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with every SemiCore\* convergence loop on this thread — full
/// decomposition, SemiDelete\*, SemiInsert's second phase — driven by the
/// four-sweep reference closure instead of the fused kernel. The
/// differential seam: results, counters and charged I/O must not depend on
/// which one ran.
#[cfg(any(test, feature = "testing"))]
pub fn with_reference_kernel<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            REFERENCE_KERNEL.with(|k| k.set(self.0));
        }
    }
    let _restore = Restore(REFERENCE_KERNEL.with(|k| k.replace(true)));
    f()
}

/// Run `f` with the fused kernel's portable scalar tier on this thread,
/// whatever the CPU offers — the twin the vector tier is held equal to.
#[cfg(any(test, feature = "testing"))]
pub fn with_scalar_kernel<R>(f: impl FnOnce() -> R) -> R {
    crate::localcore::with_scalar_kernel(f)
}

/// [`star_converge`] as the paper writes it — `LocalCore`, `ComputeCnt`,
/// `UpdateNbrCnt` and the scheduling sweep as four separate passes over the
/// adjacency, every violating neighbour re-announced — kept as the
/// reference the kernel-differential tests compare the fused kernel
/// against ([`with_reference_kernel`]).
#[cfg(any(test, feature = "testing"))]
fn star_converge_reference(
    g: &mut impl AdjacencyRead,
    state: &mut CoreState,
    window: &mut ScanWindow,
    stats: &mut RunStats,
    mut per_iter: Option<&mut Vec<u64>>,
) -> Result<()> {
    let mut scratch = Scratch::new();
    let core = &mut state.core;
    let cnt = &mut state.cnt;
    if core.is_empty() {
        window.update = false;
    }
    while window.update {
        window.begin_iteration();
        let mut changed = 0u64;
        let mut v = window.vmin as u64;
        // `window.vmax` may grow while scanning.
        while v <= window.vmax as u64 {
            let vu = v as u32;
            // Line 7: the Lemma 4.2 trigger.
            if (cnt[vu as usize] as i64) < core[vu as usize] as i64 {
                stats.node_computations += 1;
                g.with_adjacency(vu, |nbrs| {
                    let cold = core[vu as usize];
                    let cnew = local_core(cold, core, nbrs, &mut scratch);
                    if cnew != cold {
                        changed += 1;
                    }
                    core[vu as usize] = cnew;
                    // Line 10: re-establish Eq. 2 for v itself.
                    cnt[vu as usize] = compute_cnt(cnew, core, nbrs) as i32;
                    // Line 11 (UpdateNbrCnt): v stopped supporting neighbours
                    // whose core lies in (cnew, cold].
                    for &u in nbrs {
                        let cu = core[u as usize];
                        if cu > cnew && cu <= cold {
                            cnt[u as usize] -= 1;
                        }
                    }
                    // Lines 12-13: schedule neighbours violating Lemma 4.2.
                    for &u in nbrs {
                        if (cnt[u as usize] as i64) < core[u as usize] as i64 {
                            window.schedule(u, vu);
                        }
                    }
                })?;
            }
            v += 1;
        }
        stats.iterations += 1;
        if let Some(p) = per_iter.as_deref_mut() {
            p.push(changed);
        }
        window.end_iteration();
    }
    Ok(())
}

/// Run SemiCore* (Algorithm 5) and return the full `(core, cnt)` state —
/// the form consumed by the maintenance algorithms.
pub fn semicore_star_state(
    g: &mut impl AdjacencyRead,
    opts: &DecomposeOptions,
) -> Result<(CoreState, RunStats)> {
    let start = Instant::now();
    let io_before = g.io();
    let mut stats = RunStats::new("SemiCore*");

    // Lines 1-4: core <- deg, cnt <- 0, full window.
    let mut state = CoreState::initial(g.read_degrees()?);
    let mut window = ScanWindow::full(g.num_nodes());
    let mut per_iter = opts.track_changed_per_iteration.then(Vec::new);

    star_converge(g, &mut state, &mut window, &mut stats, per_iter.as_mut())?;

    if let Some(p) = per_iter.as_mut() {
        while p.last() == Some(&0) {
            p.pop();
        }
    }
    // The O(n) node state on top of the kernel scratch `star_converge` left.
    stats.peak_memory_bytes += state.resident_bytes();
    stats.io = g.io().since(&io_before);
    stats.wall_time = start.elapsed();
    stats.changed_per_iteration = per_iter;
    Ok((state, stats))
}

/// Run SemiCore* (Algorithm 5) over any graph access.
pub fn semicore_star(g: &mut impl AdjacencyRead, opts: &DecomposeOptions) -> Result<Decomposition> {
    let (state, stats) = semicore_star_state(g, opts)?;
    Ok(Decomposition {
        core: state.core,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_example_graph, PAPER_EXAMPLE_CORES};
    use crate::imcore::imcore;
    use crate::semicore::semicore;
    use crate::semicore_plus::semicore_plus;
    use graphstore::{mem_to_disk, IoCounter, MemGraph, TempDir, DEFAULT_BLOCK_SIZE};

    #[test]
    fn paper_example_converges_to_exact_cores() {
        let mut g = paper_example_graph();
        let d = semicore_star(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(d.core, PAPER_EXAMPLE_CORES);
    }

    #[test]
    fn paper_example_matches_example_4_3_counters() {
        // Example 4.3: 3 iterations, 11 node computations.
        let mut g = paper_example_graph();
        let d = semicore_star(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(d.stats.iterations, 3);
        assert_eq!(d.stats.node_computations, 11);
    }

    #[test]
    fn final_state_satisfies_cnt_invariant() {
        let mut g = paper_example_graph();
        let (state, _) = semicore_star_state(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(state.check_cnt_invariant(&mut g).unwrap(), None);
        // Example 4.3: after convergence cnt(v5) reflects Eq. 2.
        assert_eq!(state.cnt[5], 4);
    }

    #[test]
    fn matches_imcore_on_random_graphs() {
        let mut state = 555u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..30 {
            let n = 2 + next() % 90;
            let m = next() % (4 * n);
            let edges: Vec<(u32, u32)> = (0..m).map(|_| (next() % n, next() % n)).collect();
            let mut g = MemGraph::from_edges(edges, n);
            let d = semicore_star(&mut g, &DecomposeOptions::default()).unwrap();
            assert_eq!(d.core, imcore(&g).core);
        }
    }

    #[test]
    fn computes_no_more_than_semicore_plus() {
        let mut state = 2024u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 400u32;
        let edges: Vec<(u32, u32)> = (0..1600).map(|_| (next() % n, next() % n)).collect();
        let mut g = MemGraph::from_edges(edges, n);
        let plus = semicore_plus(&mut g, &DecomposeOptions::default()).unwrap();
        let star = semicore_star(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(plus.core, star.core);
        assert!(star.stats.node_computations <= plus.stats.node_computations);
    }

    #[test]
    fn after_first_pass_every_computation_changes_a_core() {
        // The "optimal node computation" claim: node computations beyond the
        // first full pass must each decrease a core estimate.
        let mut state = 808u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 300u32;
        let edges: Vec<(u32, u32)> = (0..1200).map(|_| (next() % n, next() % n)).collect();
        let mut g = MemGraph::from_edges(edges, n);
        let opts = DecomposeOptions {
            track_changed_per_iteration: true,
        };
        let base = semicore(&mut g, &opts).unwrap();
        let star = semicore_star(&mut g, &opts).unwrap();
        assert_eq!(base.core, star.core);
        let changed: u64 = star
            .stats
            .changed_per_iteration
            .as_ref()
            .unwrap()
            .iter()
            .sum();
        // First pass computes every non-isolated node; afterwards
        // computations == changes.
        let first_pass = star.stats.changed_per_iteration.as_ref().unwrap()[0];
        let nonisolated = (0..n).filter(|&v| g.degree(v) > 0).count() as u64;
        assert_eq!(
            star.stats.node_computations,
            nonisolated + (changed - first_pass),
            "every post-first-pass computation must update a core"
        );
    }

    #[test]
    fn disk_run_reads_less_than_semicore() {
        let mut state = 99999u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 3000u32;
        let edges: Vec<(u32, u32)> = (0..9000).map(|_| (next() % n, next() % n)).collect();
        let g = MemGraph::from_edges(edges, n);
        let dir = TempDir::new("semistar").unwrap();
        let mut d1 = mem_to_disk(
            &dir.path().join("a"),
            &g,
            IoCounter::new(DEFAULT_BLOCK_SIZE),
        )
        .unwrap();
        let base = semicore(&mut d1, &DecomposeOptions::default()).unwrap();
        let mut d2 = mem_to_disk(
            &dir.path().join("b"),
            &g,
            IoCounter::new(DEFAULT_BLOCK_SIZE),
        )
        .unwrap();
        let star = semicore_star(&mut d2, &DecomposeOptions::default()).unwrap();
        assert_eq!(base.core, star.core);
        assert_eq!(star.stats.io.write_ios, 0);
        assert!(star.stats.io.read_ios <= base.stats.io.read_ios);
    }

    #[test]
    fn empty_graph() {
        let mut g = MemGraph::from_edges(Vec::<(u32, u32)>::new(), 0);
        let d = semicore_star(&mut g, &DecomposeOptions::default()).unwrap();
        assert!(d.core.is_empty());
    }
}
