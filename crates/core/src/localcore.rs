//! Shared computation kernels of Algorithms 3–8.
//!
//! * [`local_core`] — the `LocalCore` procedure (Alg. 3 lines 11–20):
//!   evaluate Eq. 1, `core(v) = max k s.t. |{u ∈ nbr(v) | core(u) ≥ k}| ≥ k`,
//!   given the current estimate upper bound `cold`.
//! * [`compute_cnt`] — the `ComputeCnt` procedure (Alg. 5 lines 16–20):
//!   evaluate Eq. 2, `cnt(v) = |{u ∈ nbr(v) | core(u) ≥ core(v)}|`.
//! * `recompute_node` — SemiCore\*'s fused node recomputation: Eq. 1 *and*
//!   Eq. 2 from one gather of the neighbours' estimates, which
//!   `Scratch::lost_support` then re-reads sequentially to find the
//!   neighbours the drop un-supports.
//!
//! All are `O(deg(v))` and allocation-free thanks to a reusable [`Scratch`].

/// Reusable buffers for the node kernels.
///
/// `num(i)` counters indexed by core value, plus — for SemiCore\*'s fused
/// kernel — the neighbours' gathered estimates and the positions a drop
/// un-supports. Reused across calls so the inner loop of every
/// semi-external algorithm allocates nothing; all three only ever grow, to
/// `O(d_max)`.
#[derive(Debug, Default)]
pub struct Scratch {
    num: Vec<u32>,
    /// `core(u)` per neighbour of the last `recompute_node` call, in
    /// adjacency order (entries past that call's degree are stale).
    cores: Vec<u32>,
    /// Output of [`Scratch::lost_support`]: positions into the adjacency.
    hits: Vec<u32>,
}

impl Scratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Bytes currently held (for memory accounting).
    pub fn resident_bytes(&self) -> u64 {
        ((self.num.capacity() + self.cores.capacity() + self.hits.capacity())
            * std::mem::size_of::<u32>()) as u64
    }

    /// Sweep B of the fused kernel, over the estimates `recompute_node`
    /// just gathered for a `deg`-neighbour adjacency: the positions `i`
    /// with `cnew < core(nbrs[i]) ≤ cold` — the neighbours that counted the
    /// node as a supporter at `cold` and no longer do at `cnew` (Alg. 5
    /// line 11) — and the gathered estimates themselves. Sequential and
    /// branch-free: every position is written, the cursor advances only
    /// past a hit.
    pub(crate) fn lost_support(&mut self, deg: usize, cnew: u32, cold: u32) -> (&[u32], &[u32]) {
        let cores = &self.cores[..deg];
        if self.hits.len() < deg {
            self.hits.resize(deg, 0);
        }
        let mut n = 0usize;
        for (i, &cu) in cores.iter().enumerate() {
            self.hits[n] = i as u32;
            n += usize::from((cu > cnew) & (cu <= cold));
        }
        (&self.hits[..n], cores)
    }
}

/// The zeroed histogram `num[0..=cold]`.
fn histogram(num: &mut Vec<u32>, cold: u32) -> &mut [u32] {
    let len = cold as usize + 1;
    if num.len() < len {
        num.resize(len, 0);
    }
    let num = &mut num[..len];
    num.fill(0);
    num
}

/// Walk `k` downward from `cold = num.len() − 1`, accumulating
/// `s = #neighbours with estimate ≥ k`, to the largest `k ≥ 1` with
/// `s ≥ k`. Returns `(k, s)`, or `(0, deg)` when no such `k` exists.
fn walk_down(num: &[u32]) -> (u32, u32) {
    let mut s = 0u32;
    for k in (1..num.len()).rev() {
        s += num[k];
        if s as usize >= k {
            return (k as u32, s);
        }
    }
    (0, s + num[0])
}

/// The `LocalCore` procedure: recompute `v`'s core estimate from the
/// estimates of its neighbours, given its current estimate `cold`.
///
/// Returns the largest `k ≤ cold` with at least `k` neighbours whose
/// estimate is `≥ k` (0 when no such `k` exists). Estimates never increase,
/// matching Theorem 4.1's fixpoint iteration started from an upper bound.
///
/// Note: the paper's line 19 reads `if s ≥ i then break`, a typo for
/// `s ≥ k`; we implement the intended comparison.
pub fn local_core(cold: u32, core: &[u32], nbrs: &[u32], scratch: &mut Scratch) -> u32 {
    local_core_by(cold, nbrs, scratch, |u| core[u as usize])
}

/// [`local_core`] with the estimates behind an accessor instead of a slice.
///
/// The parallel scan executor reads a node's neighbours through a shard
/// view (own shard: freshest in-pass values; other shards: the pass-start
/// snapshot), which has no contiguous slice to hand out. Monomorphises to
/// the same code as [`local_core`] for the slice case.
pub fn local_core_by(
    cold: u32,
    nbrs: &[u32],
    scratch: &mut Scratch,
    core_of: impl Fn(u32) -> u32,
) -> u32 {
    if cold == 0 || nbrs.is_empty() {
        return 0;
    }
    // num(i) = #neighbours with min(cold, core(u)) == i.
    let num = histogram(&mut scratch.num, cold);
    for &u in nbrs {
        num[cold.min(core_of(u)) as usize] += 1;
    }
    walk_down(num).0
}

/// SemiCore\*'s node recomputation (Alg. 5 lines 8–10 fused): one random
/// gather of the neighbours' estimates builds the [`local_core`] histogram
/// *and* stays in `scratch` for [`Scratch::lost_support`]. Returns
/// `(cnew, support)` where `cnew` is [`local_core`]'s result and `support`
/// is `|{u ∈ nbr(v) | core(u) ≥ cnew}|` — the walk's running sum at the
/// level it stops at, which is exactly Eq. 2's `cnt(v)` for the new
/// estimate, so no separate [`compute_cnt`] sweep is needed.
pub(crate) fn recompute_node(
    cold: u32,
    core: &[u32],
    nbrs: &[u32],
    scratch: &mut Scratch,
) -> (u32, u32) {
    if cold == 0 || nbrs.is_empty() {
        return (0, nbrs.len() as u32);
    }
    if scratch.cores.len() < nbrs.len() {
        scratch.cores.resize(nbrs.len(), 0);
    }
    let num = histogram(&mut scratch.num, cold);
    for (&u, slot) in nbrs.iter().zip(&mut scratch.cores) {
        let cu = core[u as usize];
        *slot = cu;
        num[cold.min(cu) as usize] += 1;
    }
    walk_down(num)
}

/// The `ComputeCnt` procedure: `|{u ∈ nbr(v) | core(u) ≥ threshold}|` (Eq. 2
/// with `threshold = core(v)`).
#[inline]
pub fn compute_cnt(threshold: u32, core: &[u32], nbrs: &[u32]) -> u32 {
    let mut s = 0u32;
    for &u in nbrs {
        if core[u as usize] >= threshold {
            s += 1;
        }
    }
    s
}

/// Reference implementation of Eq. 1 by direct search (used in tests to
/// cross-check [`local_core`], deliberately written differently).
#[cfg(any(test, feature = "testing"))]
pub fn local_core_naive(cold: u32, core: &[u32], nbrs: &[u32]) -> u32 {
    let mut best = 0;
    for k in 1..=cold {
        let support = nbrs.iter().filter(|&&u| core[u as usize] >= k).count() as u32;
        if support >= k {
            best = k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_v3_iteration1() {
        // Fig. 2: processing v3 in iteration 1, neighbour cores
        // {3, 3, 3, 3, 5, 3}, cold = 6 -> new core 3.
        let core = vec![3, 3, 3, 6, 3, 5, 3];
        let nbrs = vec![0, 1, 2, 4, 5, 6];
        let mut s = Scratch::new();
        assert_eq!(local_core(6, &core, &nbrs, &mut s), 3);
    }

    #[test]
    fn zero_cases() {
        let mut s = Scratch::new();
        assert_eq!(local_core(0, &[], &[], &mut s), 0);
        let core = vec![5u32, 5];
        assert_eq!(local_core(3, &core, &[], &mut s), 0);
    }

    #[test]
    fn all_neighbours_at_zero_gives_zero() {
        let core = vec![0, 0, 4];
        let nbrs = vec![0, 1];
        let mut s = Scratch::new();
        assert_eq!(local_core(4, &core, &nbrs, &mut s), 0);
    }

    #[test]
    fn result_capped_by_cold() {
        // 5 neighbours all with huge cores, but cold = 2.
        let core = vec![9, 9, 9, 9, 9, 2];
        let nbrs = vec![0, 1, 2, 3, 4];
        let mut s = Scratch::new();
        assert_eq!(local_core(2, &core, &nbrs, &mut s), 2);
    }

    #[test]
    fn compute_cnt_counts_threshold() {
        let core = vec![1, 2, 3, 4, 5];
        let nbrs = vec![0, 1, 2, 3, 4];
        assert_eq!(compute_cnt(3, &core, &nbrs), 3);
        assert_eq!(compute_cnt(1, &core, &nbrs), 5);
        assert_eq!(compute_cnt(6, &core, &nbrs), 0);
    }

    /// `recompute_node` against the two sweeps it fuses, plus sweep B
    /// against the direct filter.
    fn check_fused(cold: u32, core: &[u32], nbrs: &[u32], s: &mut Scratch) -> (u32, u32) {
        let (cnew, support) = recompute_node(cold, core, nbrs, s);
        assert_eq!(cnew, local_core_naive(cold, core, nbrs));
        assert_eq!(support, compute_cnt(cnew, core, nbrs), "support is Eq. 2");
        if cnew != cold {
            let want: Vec<u32> = (0..nbrs.len() as u32)
                .filter(|&i| {
                    let cu = core[nbrs[i as usize] as usize];
                    cu > cnew && cu <= cold
                })
                .collect();
            let (hits, cores) = s.lost_support(nbrs.len(), cnew, cold);
            assert_eq!(hits, want);
            assert!(cores.iter().zip(nbrs).all(|(&c, &u)| c == core[u as usize]));
        }
        (cnew, support)
    }

    #[test]
    fn fused_support_when_the_estimate_collapses_to_zero() {
        // cnew = 0: every neighbour has core >= 0, so support = degree.
        let core = vec![0, 0, 0, 4];
        let mut s = Scratch::new();
        assert_eq!(check_fused(4, &core, &[0, 1, 2], &mut s), (0, 3));
        // The early-outs report the same thing without touching scratch.
        assert_eq!(recompute_node(0, &core, &[0, 1, 3], &mut s), (0, 3));
        assert_eq!(recompute_node(7, &core, &[], &mut s), (0, 0));
    }

    #[test]
    fn fused_support_when_cold_exceeds_the_degree() {
        // A stale estimate far above the degree: the walk crosses empty
        // levels before any neighbour counts.
        let core = vec![9, 9, 9, 1, 50];
        let mut s = Scratch::new();
        assert_eq!(check_fused(50, &core, &[0, 1, 2, 3], &mut s), (3, 3));
    }

    #[test]
    fn fused_support_with_all_equal_cores() {
        let core = vec![3; 8];
        let nbrs: Vec<u32> = (0..7).collect();
        let mut s = Scratch::new();
        // Unchanged estimate: all seven neighbours support it.
        assert_eq!(check_fused(3, &core, &nbrs, &mut s), (3, 7));
        // From above: clamped down to the common level.
        assert_eq!(check_fused(7, &core, &nbrs, &mut s), (3, 7));
        // Too few of them: two neighbours at 3 sustain only 2.
        assert_eq!(check_fused(3, &core, &nbrs[..2], &mut s), (2, 2));
    }

    #[test]
    fn fused_kernel_ignores_a_stale_larger_scratch() {
        let mut s = Scratch::new();
        // Fill every buffer from a long, high-core adjacency first.
        let big = vec![40u32; 64];
        let all: Vec<u32> = (0..64).collect();
        assert_eq!(check_fused(60, &big, &all, &mut s), (40, 64));
        // A short adjacency afterwards must not see the stale tail.
        let core = vec![5, 1, 1, 2];
        assert_eq!(check_fused(5, &core, &[1, 2, 3], &mut s), (1, 3));
        assert_eq!(check_fused(2, &core, &[0, 3], &mut s), (2, 2));
    }

    #[test]
    fn fused_kernel_matches_the_sweeps_on_pseudorandom_inputs() {
        let mut s = Scratch::new();
        let mut rng = testutil::Lcg::new(2718);
        for _ in 0..500 {
            let n = 1 + rng.below(40);
            let core: Vec<u32> = (0..n).map(|_| rng.below(12)).collect();
            let nbrs: Vec<u32> = (0..rng.below(n)).map(|_| rng.below(n)).collect();
            check_fused(1 + rng.below(14), &core, &nbrs, &mut s);
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom_inputs() {
        let mut s = Scratch::new();
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for trial in 0..500 {
            let n = 1 + (next() % 40) as usize;
            let core: Vec<u32> = (0..n).map(|_| next() % 12).collect();
            let deg = (next() % n as u32) as usize;
            let nbrs: Vec<u32> = (0..deg).map(|_| next() % n as u32).collect();
            let cold = 1 + next() % 12;
            assert_eq!(
                local_core(cold, &core, &nbrs, &mut s),
                local_core_naive(cold, &core, &nbrs),
                "trial {trial}: cold={cold} core={core:?} nbrs={nbrs:?}"
            );
        }
    }

    #[test]
    fn scratch_is_reusable_across_growing_colds() {
        let mut s = Scratch::new();
        let core = vec![2, 2, 2];
        let nbrs = vec![0, 1, 2];
        assert_eq!(local_core(2, &core, &nbrs, &mut s), 2);
        let core = vec![9; 10];
        let nbrs: Vec<u32> = (0..10).collect();
        assert_eq!(local_core(9, &core, &nbrs, &mut s), 9);
        // Shrink back down: stale histogram entries must not leak.
        let core = vec![1, 1];
        let nbrs = vec![0, 1];
        assert_eq!(local_core(1, &core, &nbrs, &mut s), 1);
    }
}
