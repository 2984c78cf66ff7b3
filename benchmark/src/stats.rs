//! Medians, quartiles and percentiles.
//!
//! A metric's reported value is the median of its trial values and its
//! spread is the distance between their quartiles as a share of the
//! median. The quartiles are computed as Python's
//! `statistics.quantiles(values, n=4)` computes them, because that is
//! what judges the benchmark from outside.

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile (the "exclusive" method); `None` with fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 when it cannot be
/// computed (one value, or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, … that still
/// has at least ten samples beyond it, as a fraction; `None` with fewer
/// than twenty samples.
pub fn top_percentile(count: u64) -> Option<f64> {
    if count < 20 {
        return None;
    }
    let mut best = 0.5;
    let mut tail = 0.1;
    while count as f64 * tail >= 10.0 {
        best = 1.0 - tail;
        tail /= 10.0;
    }
    Some(best)
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Histogram of nanosecond values with 64 buckets per power of two
/// (buckets 1.6% wide at most). Percentiles interpolate inside the
/// bucket by rank, so they are not quantised to bucket edges.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (SUB + u64::from(shift) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            return (i, 1);
        }
        let shift = (i - SUB) / SUB;
        ((SUB + (i - SUB) % SUB) << shift, 1 << shift)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value below which fraction `p` of the samples lie; 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = p.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = Self::bounds(i);
                if width == 1 {
                    return lo as f64;
                }
                let inside = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * inside;
            }
            below += c;
        }
        let (lo, width) = Self::bounds(BUCKETS - 1);
        (lo + width) as f64
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(fraction, value)`.
    pub fn top(&self) -> Option<(f64, f64)> {
        top_percentile(self.total).map(|p| (p, self.percentile(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(0.5));
        assert_eq!(top_percentile(99), Some(0.5));
        assert_eq!(top_percentile(100), Some(0.9));
        assert_eq!(top_percentile(999), Some(0.9));
        assert_eq!(top_percentile(1_000), Some(0.99));
        assert_eq!(top_percentile(10_000), Some(0.999));
        assert_eq!(top_percentile(1_000_000), Some(0.99999));
    }

    #[test]
    fn hist_buckets_tile_the_range() {
        for v in [0, 1, 63, 64, 65, 127, 128, 1_000, 123_456_789, u64::MAX] {
            let (lo, width) = Hist::bounds(Hist::index(v));
            assert!(
                lo <= v && v - lo < width,
                "{v} outside [{lo}, {lo}+{width})"
            );
        }
        assert_eq!(Hist::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn hist_percentiles_are_close_and_interpolated() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for p in [0.5, 0.9, 0.99, 0.999] {
            let exact = p * 1_000_000.0;
            let got = h.percentile(p);
            assert!((got - exact).abs() / exact < 0.02, "p{p}: {got} vs {exact}");
        }
        assert!((h.mean() - 500_005.0).abs() < 1.0);
        // Two nearby ranks in one bucket give different values.
        assert!(h.percentile(0.5) < h.percentile(0.5001));
        assert_eq!(h.top().map(|t| t.0), Some(0.9999));
        assert_eq!(Hist::default().percentile(0.5), 0.0);
    }
}
