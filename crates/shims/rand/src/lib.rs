//! In-repo shim for the subset of the `rand` 0.8 API this workspace uses.
//!
//! The build environment has no access to a crates registry, so the handful
//! of `rand` entry points the generators and benches rely on are implemented
//! here: [`rngs::SmallRng`], [`SeedableRng::seed_from_u64`], the [`Rng`]
//! methods `gen`, `gen_range`, `gen_bool`, and [`seq::SliceRandom::shuffle`];
//! plus one call upstream lacks, the jump-ahead [`rngs::SmallRng::advance`].
//!
//! The generator is SplitMix64 — deterministic per seed, statistically solid
//! for workload generation, and a different stream from upstream `rand`
//! (callers only depend on determinism, never on exact values).

#![warn(missing_docs)]

use core::ops::Range;

/// Low-level entropy source: a stream of `u64` values.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Values samplable uniformly from their full domain (`rng.gen()`).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Integer types uniformly samplable from a `Range` (`rng.gen_range(a..b)`).
pub trait SampleUniform: Copy + PartialOrd {
    /// Draw uniformly from `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                // Plain modulo reduction, no rejection: the bias is below
                // 2^-32 for every span this workspace uses. Changing the
                // mapping would change every seeded stream.
                let x = rng.next_u64() % span;
                lo.wrapping_add(x as $t)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i32, i64);

/// The user-facing sampling interface (blanket-implemented for all RNGs).
pub trait Rng: RngCore {
    /// Sample a value uniformly from the type's full domain
    /// (`[0, 1)` for floats).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from `range` (must be non-empty).
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range.start, range.end)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Small, fast generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The Weyl increment SplitMix64 adds to its state per draw.
    const GAMMA: u64 = 0x9E3779B97F4A7C15;

    /// SplitMix64: 64 bits of state, passes BigCrush, one add to the state
    /// and two multiply–xorshift rounds of finaliser per output. Stands in
    /// for rand's `SmallRng`.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        state: u64,
    }

    impl SmallRng {
        /// Skip `draws` outputs in O(1): the state is a counter stepped by
        /// a constant, so this equals `draws` calls to `next_u64` for every
        /// `draws` (modulo 2⁶⁴, the state's own period), and a range of
        /// the stream can be drawn on its own.
        pub fn advance(&mut self, draws: u64) {
            self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng { state: seed }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GAMMA);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::Rng;

    /// Extension methods on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen::<u64>()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn advance_equals_that_many_draws() {
        for k in [0u64, 1, 17, 1_000] {
            let mut drawn = SmallRng::seed_from_u64(99);
            for _ in 0..k {
                drawn.next_u64();
            }
            let mut skipped = SmallRng::seed_from_u64(99);
            skipped.advance(k);
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "k = {k}");
        }
        // 2⁶⁴ − 1 draws and one more wrap the state round to where it was.
        let mut rng = SmallRng::seed_from_u64(5);
        rng.advance(u64::MAX);
        rng.advance(1);
        assert_eq!(rng.next_u64(), SmallRng::seed_from_u64(5).next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let x = rng.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0usize..5);
            assert!(y < 5);
        }
    }

    #[test]
    fn floats_live_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move something");
    }
}
