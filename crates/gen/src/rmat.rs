//! R-MAT recursive-matrix graph generation (Chakrabarti, Zhan, Faloutsos).
//!
//! Each edge picks its endpoints by descending a 2×2 probability matrix
//! `[[a, b], [c, d]]` over the adjacency matrix, producing the skewed,
//! community-ish degree distributions typical of web crawls. The suite uses
//! it as the stand-in for the paper's web-graph datasets (Webbase, IT, SK,
//! UK, Clueweb, WIKI).

use rand::rngs::SmallRng;
#[cfg(test)]
use rand::Rng;
use rand::{RngCore, SeedableRng};
use std::ops::Range;

/// R-MAT parameter set. Probabilities must be non-negative and sum to ~1.
#[derive(Debug, Clone, Copy)]
pub struct Rmat {
    /// Top-left quadrant probability (self-community mass).
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// log2 of the node-id space.
    pub scale: u32,
}

impl Rmat {
    /// The classic web-graph parameterisation (a=0.57, b=c=0.19).
    pub fn web(scale: u32) -> Rmat {
        Rmat {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            scale,
        }
    }

    /// Number of node ids (`2^scale`).
    pub fn num_nodes(&self) -> u32 {
        1u32 << self.scale
    }

    /// Sample one directed edge the way the sampler is specified: one
    /// uniform `f64` per level, compared against the cumulative quadrant
    /// probabilities. [`rmat_range`] must reproduce it draw for draw.
    #[cfg(test)]
    fn edge(&self, rng: &mut SmallRng) -> (u32, u32) {
        let mut u = 0u32;
        let mut v = 0u32;
        for _ in 0..self.scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < self.a {
                // top-left: (0, 0)
            } else if r < self.a + self.b {
                v |= 1;
            } else if r < self.a + self.b + self.c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        (u, v)
    }
}

/// The cumulative quadrant probabilities `a`, `a + b`, `a + b + c` as
/// thresholds on the 53-bit integer behind one uniform `f64` draw.
///
/// The rand shim's `f64` is exactly `k · 2⁻⁵³` with `k = next_u64() >> 11`,
/// so `r < p` holds iff `k < ceil(p · 2⁵³)`: `p · 2⁵³` is exact in `f64`
/// (a power-of-two scaling), and for an integer `k`, `k < x` iff
/// `k < ceil(x)`. The sums are the same `f64` expressions the float
/// reference (`Rmat::edge`, built for tests) compares against, so every
/// draw lands in the same quadrant.
struct Thresholds {
    t1: u64,
    t2: u64,
    t3: u64,
}

impl Thresholds {
    fn new(p: &Rmat) -> Thresholds {
        let scaled = |x: f64| (x * (1u64 << 53) as f64).ceil() as u64;
        Thresholds {
            t1: scaled(p.a),
            t2: scaled(p.a + p.b),
            t3: scaled(p.a + p.b + p.c),
        }
    }

    /// One edge, one `next_u64` per level. The quadrants in draw order are
    /// `(0,0)`, `(0,1)`, `(1,0)`, `(1,1)`, so `u` is set past `t2` and `v`
    /// in the second and fourth bands; `t1 ≤ t2 ≤ t3` because the
    /// probabilities are non-negative.
    fn edge(&self, scale: u32, rng: &mut SmallRng) -> (u32, u32) {
        let mut u = 0u32;
        let mut v = 0u32;
        for _ in 0..scale {
            let k = rng.next_u64() >> 11;
            let u_bit = k >= self.t2;
            let v_bit = (k >= self.t1) & !u_bit | (k >= self.t3);
            u = (u << 1) | u_bit as u32;
            v = (v << 1) | v_bit as u32;
        }
        (u, v)
    }
}

/// Draw edges `edges.start..edges.end` of the R-MAT sample stream for
/// `seed` (with possible duplicates / self-loops — callers normalise
/// through the graph builders), calling `emit` per edge.
///
/// Every edge takes exactly `scale` draws, so edge `i`'s draws start
/// `i · scale` draws into the stream: the generator jumps there with
/// [`SmallRng::advance`] and the edges come out exactly as a sequential
/// draw of `0..edges.end` would produce them. Disjoint ranges can
/// therefore be drawn on separate threads and concatenated in order.
pub fn rmat_range(params: Rmat, edges: Range<u64>, seed: u64, mut emit: impl FnMut(u32, u32)) {
    assert!(
        params.scale >= 1 && params.scale < 32,
        "scale must be in 1..32"
    );
    assert!(
        params.a >= 0.0
            && params.b >= 0.0
            && params.c >= 0.0
            && params.a + params.b + params.c <= 1.0 + 1e-9,
        "probabilities must be a valid distribution"
    );
    let thresholds = Thresholds::new(&params);
    let mut rng = SmallRng::seed_from_u64(seed);
    rng.advance(edges.start.wrapping_mul(params.scale as u64));
    for _ in edges {
        let (u, v) = thresholds.edge(params.scale, &mut rng);
        emit(u, v);
    }
}

/// Generate `m` R-MAT edge samples, calling `emit` per edge: the first `m`
/// edges of [`rmat_range`]'s stream.
pub fn rmat_stream(params: Rmat, m: u64, seed: u64, emit: impl FnMut(u32, u32)) {
    rmat_range(params, 0..m, seed, emit);
}

/// Collect `m` R-MAT edge samples into a vector.
pub fn rmat_edges(params: Rmat, m: u64, seed: u64) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(m as usize);
    rmat_stream(params, m, seed, |u, v| out.push((u, v)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::MemGraph;

    fn rmat(a: f64, b: f64, c: f64, scale: u32) -> Rmat {
        Rmat { a, b, c, scale }
    }

    /// `m` edges from the float reference sampler, `Rmat::edge`.
    fn reference_edges(p: Rmat, m: u64, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..m).map(|_| p.edge(&mut rng)).collect()
    }

    #[test]
    fn integer_sampler_matches_the_float_reference() {
        let params = [
            Rmat::web(17),
            Rmat::web(1),
            Rmat::web(31),
            rmat(0.25, 0.25, 0.25, 12),
            // Sums that do not round-trip through decimal (0.1 + 0.2).
            rmat(0.1, 0.2, 0.3, 9),
            // Empty bands: `t1 = 0`, `t1 = t2`, `t2 = t3` and `t3 = 2⁵³`.
            rmat(0.0, 0.5, 0.5, 10),
            rmat(0.6, 0.0, 0.0, 10),
            rmat(1.0, 0.0, 0.0, 5),
            rmat(0.0, 0.0, 0.0, 5),
        ];
        for p in params {
            for seed in [0, 1, 112, u64::MAX] {
                assert_eq!(
                    rmat_edges(p, 5_000, seed),
                    reference_edges(p, 5_000, seed),
                    "{p:?}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn thresholds_split_draws_exactly_where_the_floats_do() {
        // At each threshold's neighbours, `k < t` must agree with the float
        // comparison `k · 2⁻⁵³ < p` that the reference makes.
        for p in [
            Rmat::web(8),
            rmat(0.1, 0.2, 0.3, 8),
            rmat(0.5, 0.25, 0.125, 8),
            rmat(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 8),
        ] {
            let t = Thresholds::new(&p);
            for (threshold, prob) in [(t.t1, p.a), (t.t2, p.a + p.b), (t.t3, p.a + p.b + p.c)] {
                for k in threshold.saturating_sub(2)..threshold + 2 {
                    let r = k as f64 * (1.0 / (1u64 << 53) as f64);
                    assert_eq!(
                        k < threshold,
                        r < prob,
                        "{p:?}: k {k}, threshold {threshold}"
                    );
                }
            }
        }
    }

    /// Edges `lo..hi` of the stream, drawn on their own.
    fn range(p: Rmat, lo: u64, hi: u64, seed: u64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        rmat_range(p, lo..hi, seed, |u, v| out.push((u, v)));
        out
    }

    #[test]
    fn ranges_concatenate_to_the_sequential_stream() {
        for (p, m) in [
            (Rmat::web(13), 10_001u64),
            (Rmat::web(1), 7),
            (Rmat::web(31), 999),
        ] {
            let whole = rmat_edges(p, m, 77);
            // Uneven cuts, with empty (`lo == hi`) and single-edge ranges.
            let cuts = [
                vec![0, m],
                vec![0, 0, 1, m / 3, m / 3, m / 3 + 1, m - 1, m],
                vec![0, 1, 2, 3, m / 2 + 1, m],
            ];
            for cut in cuts {
                let glued: Vec<_> = cut
                    .windows(2)
                    .flat_map(|w| range(p, w[0], w[1], 77))
                    .collect();
                assert_eq!(glued, whole, "{p:?}, m {m}, cuts {cut:?}");
            }
            assert!(range(p, m, m, 77).is_empty());
            assert_eq!(range(p, m - 1, m, 77), [whole[m as usize - 1]]);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let p = Rmat::web(10);
        assert_eq!(rmat_edges(p, 500, 42), rmat_edges(p, 500, 42));
        assert_ne!(rmat_edges(p, 500, 42), rmat_edges(p, 500, 43));
    }

    #[test]
    fn ids_stay_in_range() {
        let p = Rmat::web(8);
        for (u, v) in rmat_edges(p, 2000, 7) {
            assert!(u < 256 && v < 256);
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // The hallmark of R-MAT: a heavy-tailed degree distribution. The max
        // degree should far exceed the mean.
        let p = Rmat::web(12);
        let g = MemGraph::from_edges(rmat_edges(p, 40_000, 1), p.num_nodes());
        let degrees = g.degrees();
        let max = *degrees.iter().max().unwrap() as f64;
        let mean = g.degree_sum() as f64 / g.num_nodes() as f64;
        assert!(
            max > 8.0 * mean,
            "max degree {max} should dwarf mean {mean}"
        );
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_scale_32() {
        rmat_edges(rmat(0.25, 0.25, 0.25, 32), 1, 0);
    }
}
