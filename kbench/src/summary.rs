//! One latency summary for every timing kbench reports: sample count,
//! median, and the highest percentile the sample can support.
//!
//! A percentile is only as good as the samples beyond it. Following the
//! `choosing-metrics` rule, a percentile is *supported* when at least
//! [`MIN_BEYOND`] samples lie above it: p99 needs 1000 samples, p99.9 needs
//! 10 000, and fewer than 100 samples support no tail percentile at all.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// A sorted sample with the statistics kbench prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarise `samples` (any order; NaNs are a caller bug and panic).
    pub fn new(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
        Summary { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The median (mean of the two middle samples for an even count);
    /// `None` for an empty sample.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100), supported or not; `None`
    /// for an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        // The epsilon keeps binary rounding of `p` (99.9 × 10 000 lands a
        // hair above 999 000) from bumping an exact rank up by one.
        let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
        Some(self.sorted[rank.clamp(1, n) - 1])
    }

    /// True when at least [`MIN_BEYOND`] samples lie beyond percentile `p`.
    pub fn supports(&self, p: f64) -> bool {
        let beyond = self.sorted.len() as f64 * (1.0 - p / 100.0);
        // The products are exact for the sample sizes that matter
        // (1000 × 0.01); the epsilon absorbs binary rounding of `p / 100`.
        beyond + 1e-9 >= MIN_BEYOND as f64
    }

    /// The highest supported tail percentile as `(p, value)`, `None` when
    /// the sample supports none (fewer than 100 samples).
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAILS
            .iter()
            .find(|&&p| self.supports(p))
            .and_then(|&p| self.percentile(p).map(|v| (p, v)))
    }

    /// The value reported under a `*_p99_*` metric name: p99 when the
    /// sample supports it, otherwise the best lower percentile it does
    /// support, otherwise the maximum. The second field says which, so the
    /// printed table can flag an under-sampled tail.
    pub fn p99_or_best(&self) -> Option<(f64, &'static str)> {
        if self.supports(99.0) {
            return self.percentile(99.0).map(|v| (v, "p99"));
        }
        if self.supports(90.0) {
            return self
                .percentile(90.0)
                .map(|v| (v, "p90 (under 1000 samples)"));
        }
        self.sorted.last().map(|&v| (v, "max (under 100 samples)"))
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default *exclusive*
/// method): the three cut points of the quartiles. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread the
/// benchmark contract bounds. `None` below two values or at a zero median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_samples_do_not_panic() {
        let empty = Summary::new(Vec::new());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.median(), None);
        assert_eq!(empty.percentile(99.0), None);
        assert_eq!(empty.tail(), None);
        assert_eq!(empty.p99_or_best(), None);

        // The hand-rolled `latencies[(len * 99) / 100 - 1]` underflows here.
        let one = Summary::new(vec![7.0]);
        assert_eq!(one.median(), Some(7.0));
        assert_eq!(one.percentile(99.0), Some(7.0));
        assert_eq!(one.tail(), None);
        assert_eq!(one.p99_or_best(), Some((7.0, "max (under 100 samples)")));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(Summary::new(vec![3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(Summary::new(vec![4.0, 1.0, 2.0, 3.0]).median(), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| Summary::new((1..=n).map(|x| x as f64).collect());
        assert_eq!(ramp(99).tail(), None);
        assert_eq!(ramp(100).tail(), Some((90.0, 90.0)));
        assert_eq!(ramp(999).tail().map(|t| t.0), Some(90.0));
        assert_eq!(ramp(1000).tail(), Some((99.0, 990.0)));
        assert_eq!(ramp(10_000).tail(), Some((99.9, 9990.0)));
        assert_eq!(ramp(1000).p99_or_best(), Some((990.0, "p99")));
        assert_eq!(ramp(500).p99_or_best().map(|t| t.0), Some(450.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&v), Some(1.0));
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }
}
