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
//! `recompute_node` and `lost_support` come in two tiers that return the
//! same values: a portable scalar one (gather into a histogram, walk it
//! down) and, on x86-64 CPUs with AVX2, *gather, then probe* — after pass 1
//! the new estimate sits just under the old one, so a handful of
//! compare-and-count sweeps over the gathered values find it without a
//! histogram (`probe_down`).
//!
//! All are `O(deg(v))` and allocation-free thanks to a reusable [`Scratch`].

/// Reusable buffers for the node kernels.
///
/// `num(i)` counters indexed by core value, plus — for SemiCore\*'s fused
/// kernel — the neighbours' gathered estimates and the positions a drop
/// un-supports. Reused across calls so the inner loop of every
/// semi-external algorithm allocates nothing; all three only ever grow, to
/// `O(d_max)`. The vector tier rounds `cores` and `hits` up to whole
/// vectors and never touches `num`.
#[derive(Debug, Default)]
pub struct Scratch {
    num: Vec<u32>,
    /// `core(u)` per neighbour of the last `recompute_node` call, in
    /// adjacency order (entries past that call's degree are stale, except
    /// that the vector tier zeroes the rest of the last vector).
    cores: Vec<u32>,
    /// Whether the vector tier made that call, so `cores` holds whole
    /// zero-padded vectors: [`Scratch::lost_support`] follows the tier that
    /// gathered instead of choosing one again.
    padded: bool,
    /// Output of [`Scratch::lost_support`]: positions into the adjacency.
    hits: Vec<u32>,
}

impl Scratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Bytes currently held (for memory accounting): the allocations
    /// themselves, so vector padding and a never-grown `num` both show.
    pub fn resident_bytes(&self) -> u64 {
        ((self.num.capacity() + self.cores.capacity() + self.hits.capacity())
            * std::mem::size_of::<u32>()) as u64
    }

    /// Sweep B of the fused kernel, over the estimates `recompute_node`
    /// just gathered for a `deg`-neighbour adjacency: the positions `i`
    /// with `cnew < core(nbrs[i]) ≤ cold` — the neighbours that counted the
    /// node as a supporter at `cold` and no longer do at `cnew` (Alg. 5
    /// line 11) — and the gathered estimates themselves. Sequential and
    /// branch-free in both tiers; runs in the tier that gathered.
    pub(crate) fn lost_support(&mut self, deg: usize, cnew: u32, cold: u32) -> (&[u32], &[u32]) {
        #[cfg(target_arch = "x86_64")]
        if self.padded {
            let padded = deg.next_multiple_of(avx2::LANES);
            if self.hits.len() < padded {
                self.hits.resize(padded, 0);
            }
            // SAFETY: only `avx2::recompute_node` sets `padded`, and it is
            // only ever called after detecting AVX2 on this CPU.
            let n = unsafe {
                avx2::lost_support(&self.cores[..padded], cnew, cold, &mut self.hits[..padded])
            };
            return (&self.hits[..n], &self.cores[..deg]);
        }
        self.lost_support_scalar(deg, cnew, cold)
    }

    /// The portable tier of [`Scratch::lost_support`]: every position is
    /// written, the cursor advances only past a hit.
    fn lost_support_scalar(&mut self, deg: usize, cnew: u32, cold: u32) -> (&[u32], &[u32]) {
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

#[cfg(any(test, feature = "testing"))]
thread_local! {
    /// Set while [`with_scalar_kernel`] runs on this thread.
    static SCALAR_KERNEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with [`recompute_node`] pinned to its portable tier on this
/// thread, whatever the CPU offers.
#[cfg(any(test, feature = "testing"))]
pub(crate) fn with_scalar_kernel<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCALAR_KERNEL.with(|k| k.set(self.0));
        }
    }
    let _restore = Restore(SCALAR_KERNEL.with(|k| k.replace(true)));
    f()
}

/// Whether the vector tier runs: the CPU has AVX2 and no test pinned this
/// thread to the portable tier.
#[cfg(target_arch = "x86_64")]
fn vector_tier() -> bool {
    #[cfg(any(test, feature = "testing"))]
    if SCALAR_KERNEL.with(std::cell::Cell::get) {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx2")
}

/// How far below `cold` each opening probe of [`probe_down`] looks.
#[cfg(any(target_arch = "x86_64", test))]
const GALLOP: [u32; 5] = [0, 1, 2, 4, 8];

/// Eq. 1 by compare-and-count: the largest `k ≤ cold` with
/// `count_ge(k) ≥ k`, and that count — which is Eq. 2's support at `k`.
/// `count_ge(k)` must be `|{u : core(u) ≥ k}|`, so it never increases with
/// `k` and level 0 always holds.
///
/// Gallops down from `cold` by the steps of [`GALLOP`], then bisects between
/// the first level that holds — level 0 when no probed one did, which is
/// the pass-1 hub whose `cold` is its degree and far above its core — and
/// the last that did not.
///
/// Always inlined, so that `count_ge` is compiled with the target features
/// of the tier that calls this.
#[cfg(any(target_arch = "x86_64", test))]
#[inline(always)]
fn probe_down(cold: u32, count_ge: impl Fn(u32) -> u32) -> (u32, u32) {
    // Invariant: `hi` fails (`cold + 1` is out of range), `lo` holds.
    let mut hi = cold + 1;
    let (mut lo, mut support) = (0, count_ge(0));
    for step in GALLOP {
        let k = cold.saturating_sub(step);
        let s = count_ge(k);
        if s >= k {
            (lo, support) = (k, s);
            break;
        }
        hi = k;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let s = count_ge(mid);
        if s >= mid {
            (lo, support) = (mid, s);
        } else {
            hi = mid;
        }
    }
    (lo, support)
}

/// The vector tier: AVX2, eight estimates per compare. Estimates are
/// compared *signed*, so they must stay below 2³¹ — `cnt` is an `i32`
/// already, so degrees and with them estimates do; the gather
/// `debug_assert!`s it. A violation could only miscount, never touch
/// memory it should not.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{probe_down, Scratch};

    /// Estimates per vector.
    pub(super) const LANES: usize = 8;

    /// For every 8-bit lane mask, the set lanes' numbers in ascending order
    /// (the rest of the row is zero and lands past the cursor).
    static COMPACT: [[u8; LANES]; 256] = {
        let mut table = [[0u8; LANES]; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut n, mut lane) = (0, 0);
            while lane < LANES {
                if mask >> lane & 1 == 1 {
                    table[mask][n] = lane as u8;
                    n += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    };

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(lanes: &[u32; LANES]) -> __m256i {
        // SAFETY: `lanes` is 32 readable bytes; `loadu` needs no alignment.
        unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) }
    }

    /// `|{cu ∈ cores : cu ≥ k}|` for `k ≥ 1`, over whole vectors.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn count_ge(cores: &[[u32; LANES]], k: u32) -> u32 {
        // cu ≥ k  ⇔  cu > k − 1 (signed: both sides are below 2³¹).
        let below = _mm256_set1_epi32(k as i32 - 1);
        let mut acc = _mm256_setzero_si256();
        for lanes in cores {
            // A hit lane is −1: subtracting it counts.
            acc = _mm256_sub_epi32(acc, _mm256_cmpgt_epi32(load(lanes), below));
        }
        let sum = _mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256(acc, 1),
        );
        let sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0b01_00_11_10));
        let sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0b10_11_00_01));
        _mm_cvtsi128_si32(sum) as u32
    }

    /// [`super::recompute_node`], gather then probe. One plain gather of
    /// `core[u]` into `scratch.cores` (the last vector zero-padded: a zero
    /// is `≥ k` for no `k ≥ 1` and lies in no `(cnew, cold]`), then
    /// [`probe_down`] over them.
    #[target_feature(enable = "avx2")]
    pub(super) fn recompute_node(
        cold: u32,
        core: &[u32],
        nbrs: &[u32],
        scratch: &mut Scratch,
    ) -> (u32, u32) {
        let deg = nbrs.len();
        let padded = deg.next_multiple_of(LANES);
        if scratch.cores.len() < padded {
            scratch.cores.resize(padded, 0);
        }
        let cores = &mut scratch.cores[..padded];
        for (&u, slot) in nbrs.iter().zip(cores.iter_mut()) {
            let cu = core[u as usize];
            debug_assert!(cu <= i32::MAX as u32, "estimates are compared signed");
            *slot = cu;
        }
        cores[deg..].fill(0);
        scratch.padded = true;
        // Eq. 1's answer never exceeds the degree.
        let cold = cold.min(deg as u32);
        let (vectors, _) = cores.as_chunks::<LANES>();
        probe_down(cold, |k| match k {
            0 => deg as u32,
            _ => count_ge(vectors, k),
        })
    }

    /// [`Scratch::lost_support`] as a vector compaction: the positions `i`
    /// with `cnew < cores[i] ≤ cold`, ascending, at the front of `hits`;
    /// returns how many. Per vector: compare, movemask, permute the lane
    /// indices so the hits come first, store all eight lanes at the cursor,
    /// advance it by the popcount. `cores` is whole zero-padded vectors and
    /// `hits` is as long — that is the slack the unconditional store needs:
    /// before vector `j` the cursor is at most `8j`, so the store ends at or
    /// before `8(j + 1)`.
    #[target_feature(enable = "avx2")]
    pub(super) fn lost_support(cores: &[u32], cnew: u32, cold: u32, hits: &mut [u32]) -> usize {
        let (vectors, rest) = cores.as_chunks::<LANES>();
        assert!(rest.is_empty() && hits.len() == cores.len());
        let above_new = _mm256_set1_epi32(cnew as i32);
        let above_old = _mm256_set1_epi32(cold as i32);
        let mut index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut n = 0usize;
        for lanes in vectors {
            let cu = load(lanes);
            let lost = _mm256_andnot_si256(
                _mm256_cmpgt_epi32(cu, above_old),
                _mm256_cmpgt_epi32(cu, above_new),
            );
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(lost)) as usize;
            let order = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(i64::from_le_bytes(COMPACT[mask])));
            let packed = _mm256_permutevar8x32_epi32(index, order);
            let slot: &mut [u32; LANES] = (&mut hits[n..n + LANES])
                .try_into()
                .expect("an eight-lane slice");
            // SAFETY: `slot` is 32 writable bytes; `storeu` needs no
            // alignment.
            unsafe { _mm256_storeu_si256(slot.as_mut_ptr().cast(), packed) };
            n += mask.count_ones() as usize;
            index = _mm256_add_epi32(index, _mm256_set1_epi32(LANES as i32));
        }
        n
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
/// gather of the neighbours' estimates answers Eq. 1 *and* stays in
/// `scratch` for [`Scratch::lost_support`]. Returns `(cnew, support)` where
/// `cnew` is [`local_core`]'s result and `support` is
/// `|{u ∈ nbr(v) | core(u) ≥ cnew}|` — the count at the level the search
/// stops at, which is exactly Eq. 2's `cnt(v)` for the new estimate, so no
/// separate [`compute_cnt`] sweep is needed. Both tiers return the same
/// pair for every input.
pub(crate) fn recompute_node(
    cold: u32,
    core: &[u32],
    nbrs: &[u32],
    scratch: &mut Scratch,
) -> (u32, u32) {
    if cold == 0 || nbrs.is_empty() {
        return (0, nbrs.len() as u32);
    }
    #[cfg(target_arch = "x86_64")]
    if vector_tier() {
        // SAFETY: `vector_tier` is true only after detecting AVX2 on this
        // CPU.
        return unsafe { avx2::recompute_node(cold, core, nbrs, scratch) };
    }
    recompute_node_scalar(cold, core, nbrs, scratch)
}

/// The portable tier of [`recompute_node`]: the gather builds the
/// [`local_core`] histogram as it goes, and the downward walk's running sum
/// at the level it stops at is the support.
fn recompute_node_scalar(
    cold: u32,
    core: &[u32],
    nbrs: &[u32],
    scratch: &mut Scratch,
) -> (u32, u32) {
    if scratch.cores.len() < nbrs.len() {
        scratch.cores.resize(nbrs.len(), 0);
    }
    scratch.padded = false;
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
    /// against the direct filter — in every tier, on one shared scratch (so
    /// each tier also meets what the others left behind).
    fn check_fused(cold: u32, core: &[u32], nbrs: &[u32], s: &mut Scratch) -> (u32, u32) {
        let cnew = local_core_naive(cold, core, nbrs);
        let support = compute_cnt(cnew, core, nbrs);
        let lost: Vec<u32> = (0..nbrs.len() as u32)
            .filter(|&i| {
                let cu = core[nbrs[i as usize] as usize];
                cu > cnew && cu <= cold
            })
            .collect();
        let mut check = |tier: &str| {
            let got = recompute_node(cold, core, nbrs, s);
            assert_eq!(got, (cnew, support), "{tier}: (cnew, Eq. 2 support)");
            if cnew != cold {
                let (hits, cores) = s.lost_support(nbrs.len(), cnew, cold);
                assert_eq!(hits, lost, "{tier}");
                assert_eq!(cores.len(), nbrs.len());
                assert!(cores.iter().zip(nbrs).all(|(&c, &u)| c == core[u as usize]));
            }
        };
        check("as dispatched");
        with_scalar_kernel(|| check("scalar"));
        (cnew, support)
    }

    /// A `deg`-neighbour node whose Eq. 1 answer from `cold` is `answer`:
    /// `answer` neighbours sit at estimates `answer, answer + 1, …` (so the
    /// counts differ level by level above it), the rest strictly below.
    fn node_answering(answer: u32, deg: u32) -> (Vec<u32>, Vec<u32>) {
        assert!(answer <= deg);
        let core: Vec<u32> = (0..deg)
            .map(|i| {
                if i < answer {
                    answer + i
                } else {
                    i % answer.max(1)
                }
            })
            .collect();
        // A stride, not index order: estimates arrive unsorted.
        let nbrs: Vec<u32> = (0..deg).map(|i| (i * 7 + 3) % deg).collect();
        assert!(!deg.is_multiple_of(7), "the stride visits every neighbour");
        (core, nbrs)
    }

    #[test]
    fn fused_support_when_the_estimate_collapses_to_zero() {
        // cnew = 0: every neighbour has core >= 0, so support = degree.
        let core = vec![0, 0, 0, 4];
        let mut s = Scratch::new();
        assert_eq!(check_fused(4, &core, &[0, 1, 2], &mut s), (0, 3));
        // The early-outs report the same thing without touching scratch.
        assert_eq!(check_fused(0, &core, &[0, 1, 3], &mut s), (0, 3));
        assert_eq!(check_fused(7, &core, &[], &mut s), (0, 0));
    }

    #[test]
    fn fused_support_when_cold_exceeds_the_degree() {
        // A stale estimate far above the degree: the search starts from the
        // degree, and `lost_support` still filters on the caller's `cold`.
        let core = vec![9, 9, 9, 1, 50];
        let mut s = Scratch::new();
        assert_eq!(check_fused(50, &core, &[0, 1, 2, 3], &mut s), (3, 3));
        assert_eq!(check_fused(50, &core, &[0, 1, 2, 3, 4], &mut s), (4, 4));
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
    fn fused_kernel_at_every_distance_below_cold() {
        // The answer at each gallop step (0, 1, 2, 4, 8 below `cold`), at
        // the levels bisection has to find between them, one past the last
        // step (9 below: bisected up from level 0) and far past it.
        let mut s = Scratch::new();
        for cold in [12, 20, 33] {
            for below in (0..=10).chain([cold - 1, cold]) {
                let answer = cold - below;
                for deg in [cold, cold + 6, 41] {
                    let (core, nbrs) = node_answering(answer, deg);
                    let got = check_fused(cold, &core, &nbrs, &mut s);
                    assert_eq!(got.0, answer, "cold {cold} deg {deg}");
                }
            }
        }
    }

    #[test]
    fn fused_kernel_at_every_vector_tail_length() {
        // Degrees 0..=17: every remainder of an eight-lane loop, twice.
        let mut s = Scratch::new();
        for deg in 0..=17u32 {
            let core: Vec<u32> = (0..deg).map(|i| 1 + (i * 5) % 6).collect();
            let nbrs: Vec<u32> = (0..deg).collect();
            for cold in [1, 3, deg.max(1), deg + 4] {
                check_fused(cold, &core, &nbrs, &mut s);
            }
        }
    }

    #[test]
    fn lost_support_hit_in_the_last_lane_of_a_full_vector() {
        // Sixteen neighbours, every one of them a hit: the second store
        // starts at position 8 and ends exactly at the buffer's end. Then
        // only position 15: the last lane of the last full vector.
        let mut s = Scratch::new();
        let nbrs: Vec<u32> = (0..16).collect();
        let (cnew, _) = check_fused(9, &[5; 16], &nbrs, &mut s);
        assert_eq!(cnew, 5);
        let mut core = vec![2; 16];
        core[15] = 3;
        assert_eq!(check_fused(3, &core, &nbrs, &mut s), (2, 16));
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
        for round in 0..1500 {
            // Small estimates (an opening probe holds), then wide ones (hubs
            // whose answer lies far below `cold`: none does).
            let (n, top) = if round < 500 { (40, 12) } else { (90, 60) };
            let n = 1 + rng.below(n);
            let core: Vec<u32> = (0..n).map(|_| rng.below(top)).collect();
            let nbrs: Vec<u32> = (0..rng.below(n)).map(|_| rng.below(n)).collect();
            check_fused(1 + rng.below(top + 2), &core, &nbrs, &mut s);
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn resident_bytes_reports_padding_and_an_untouched_histogram() {
        if !vector_tier() {
            return;
        }
        // Ten neighbours: `cores` and `hits` hold two whole vectors each,
        // and the histogram is never allocated — not even by a hub far
        // above its answer.
        let mut s = Scratch::new();
        let (core, nbrs) = node_answering(9, 10);
        assert_eq!(recompute_node(10, &core, &nbrs, &mut s).0, 9);
        s.lost_support(nbrs.len(), 9, 10);
        assert_eq!((s.cores.len(), s.hits.len()), (16, 16));
        let (core, nbrs) = node_answering(3, 16);
        assert_eq!(recompute_node(16, &core, &nbrs, &mut s).0, 3);
        assert_eq!(s.num.capacity(), 0);
        let held = (s.cores.capacity() + s.hits.capacity()) * 4;
        assert_eq!(s.resident_bytes(), held as u64);
    }

    #[test]
    fn lost_support_follows_the_tier_that_gathered() {
        // Gather pinned to the scalar tier, compact outside the pin (and
        // the other way round): `lost_support` must not pick a tier again,
        // or it would read vectors the scalar gather never padded.
        let (core, nbrs) = node_answering(3, 13);
        let lost: Vec<u32> = (0..13u32)
            .filter(|&i| core[nbrs[i as usize] as usize] > 3)
            .collect();
        let mut s = Scratch::new();
        let got = with_scalar_kernel(|| recompute_node(13, &core, &nbrs, &mut s));
        assert_eq!(got.0, 3);
        assert_eq!(s.lost_support(13, 3, 13).0, lost);
        let mut s = Scratch::new();
        assert_eq!(recompute_node(13, &core, &nbrs, &mut s).0, 3);
        assert_eq!(
            with_scalar_kernel(|| s.lost_support(13, 3, 13).0.to_vec()),
            lost
        );
    }

    /// [`probe_down`] over a plain scalar count.
    fn check_probe(cold: u32, cores: &[u32]) {
        let count_ge = |k: u32| cores.iter().filter(|&&cu| cu >= k).count() as u32;
        let answer = (0..=cold).rev().find(|&k| count_ge(k) >= k).unwrap();
        assert_eq!(probe_down(cold, count_ge), (answer, count_ge(answer)));
    }

    #[test]
    fn probe_down_finds_the_largest_level_that_holds() {
        let mut rng = testutil::Lcg::new(1618);
        for _ in 0..2000 {
            let cores: Vec<u32> = (0..rng.below(30)).map(|_| rng.below(25)).collect();
            check_probe(rng.below(28), &cores);
        }
        // No neighbours at all: level 0 holds with nothing counted.
        check_probe(5, &[]);
        check_probe(0, &[3, 3]);
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
