//! Tail-latency metrics.
//!
//! The paper reports the 99.9th percentile of end-to-end latency (or
//! server-side sojourn time) per job class, and slowdown (sojourn ÷ service)
//! for multi-modal workloads, discarding the first 10% of samples as warm-up
//! (§5.1). This module implements exactly that pipeline.
//!
//! The recorder is a *single-pass* pipeline: the warm-up cutoff is found
//! by an O(n) selection (no full arrival sort on the summary path; the
//! slower per-query accessors amortize one sort), classes are
//! bucketed in one scan, and [`ClassRecorder::summarize_all`] produces
//! end-to-end, sojourn, and overall-slowdown statistics together — the
//! end-to-end and sojourn summaries even share one sorted latency array
//! per class, since adding a constant RTT commutes with nearest-rank
//! percentiles. The pre-optimization multi-pass implementation is kept
//! in the integration tests as `tq_integration::oracle::metrics`, the
//! differential-testing oracle.

use serde::{Deserialize, Serialize};
use tq_core::job::Completion;
use tq_core::{ClassId, Nanos};

/// A sample collector with percentile queries (nearest-rank definition).
///
/// # Example
///
/// ```
/// use tq_sim::TailStats;
///
/// let mut s = TailStats::new();
/// for v in 1..=100u64 {
///     s.record(v);
/// }
/// assert_eq!(s.percentile(50.0), 50);
/// assert_eq!(s.percentile(99.0), 99);
/// assert_eq!(s.percentile(100.0), 100);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TailStats {
    samples: Vec<u64>,
    #[serde(skip)]
    sorted: bool,
}

impl TailStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        TailStats::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Merges another collector's samples into this one (used to fold
    /// per-client tails into a run-wide distribution).
    pub fn absorb(&mut self, other: &TailStats) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        self.try_mean().unwrap_or(0.0)
    }

    /// Arithmetic mean, or `None` with no samples — for consumers (like
    /// a feedback controller window) that must distinguish "no traffic"
    /// from "zero latency".
    pub fn try_mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64)
    }

    /// Largest sample, or 0 with no samples.
    pub fn max(&self) -> u64 {
        self.try_max().unwrap_or(0)
    }

    /// Largest sample, or `None` with no samples.
    pub fn try_max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Nearest-rank percentile: the smallest sample such that at least
    /// `p`% of samples are ≤ it. Returns 0 with no samples.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
        self.try_percentile(p).unwrap_or(0)
    }

    /// Nearest-rank percentile, or `None` with no samples. An empty
    /// window is *absence of evidence*, not a perfect tail: callers that
    /// feed a controller must treat `None` differently from 0.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn try_percentile(&mut self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
        Some(self.samples[rank.clamp(1, n) - 1])
    }

    /// Convenience: the 99.9th percentile the paper reports everywhere.
    pub fn p999(&mut self) -> u64 {
        self.percentile(99.9)
    }
}

impl FromIterator<u64> for TailStats {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        TailStats {
            samples: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

impl Extend<u64> for TailStats {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        self.samples.extend(iter);
        self.sorted = false;
    }
}

/// Everything [`ClassRecorder::summarize_all`] produces in one pass:
/// the per-class end-to-end summaries, the per-class sojourn-only
/// summaries, and the class-blind overall slowdown tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Per-class summaries with the fixed extra latency (network RTT)
    /// added to every sojourn, ordered by class id.
    pub classes_e2e: Vec<ClassSummary>,
    /// Per-class summaries of bare sojourn time (extra = 0), ordered by
    /// class id.
    pub classes_sojourn: Vec<ClassSummary>,
    /// The overall (class-blind) 99.9th-percentile slowdown.
    pub overall_slowdown_p999: f64,
}

/// Per-class summary produced by [`ClassRecorder::summarize`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSummary {
    /// The class summarized.
    pub class: ClassId,
    /// Completions counted after warm-up discarding.
    pub count: usize,
    /// Median latency (sojourn + any fixed extra) in nanoseconds.
    pub p50: Nanos,
    /// 99th percentile latency.
    pub p99: Nanos,
    /// 99.9th percentile latency — the paper's headline metric.
    pub p999: Nanos,
    /// Mean latency.
    pub mean: Nanos,
    /// 99.9th percentile slowdown (sojourn ÷ service; the fixed extra is
    /// *not* included, matching how the paper computes server slowdown).
    pub slowdown_p999: f64,
    /// Mean slowdown.
    pub slowdown_mean: f64,
}

/// Collects [`Completion`]s and produces the paper's metrics: per-class
/// latency percentiles with warm-up discarding and optional fixed
/// network RTT added (end-to-end vs. sojourn reporting).
///
/// # Example
///
/// ```
/// use tq_core::job::Completion;
/// use tq_core::{ClassId, JobId, Nanos};
/// use tq_sim::ClassRecorder;
///
/// let mut rec = ClassRecorder::new(0.0);
/// rec.record(Completion {
///     id: JobId(0), class: ClassId(0),
///     arrival: Nanos::ZERO,
///     service: Nanos::from_nanos(500),
///     finish: Nanos::from_micros(1),
/// });
/// let all = rec.summarize(Nanos::ZERO);
/// assert_eq!(all[0].p999, Nanos::from_micros(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClassRecorder {
    completions: Vec<Completion>,
    warmup_frac: f64,
    /// Whether `completions` is currently sorted by `(arrival, id)`.
    sorted: bool,
    arrival_sorts: u64,
}

impl ClassRecorder {
    /// Creates a recorder that discards the earliest-arriving
    /// `warmup_frac` fraction of samples (the paper uses 0.1).
    ///
    /// # Panics
    ///
    /// Panics if `warmup_frac` is not within `[0, 1)`.
    pub fn new(warmup_frac: f64) -> Self {
        ClassRecorder::with_capacity(warmup_frac, 0)
    }

    /// Like [`ClassRecorder::new`], preallocating room for `expected`
    /// completions so a simulation never reallocates on the record path.
    ///
    /// # Panics
    ///
    /// Panics if `warmup_frac` is not within `[0, 1)`.
    pub fn with_capacity(warmup_frac: f64, expected: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&warmup_frac),
            "warm-up fraction out of range: {warmup_frac}"
        );
        ClassRecorder {
            completions: Vec::with_capacity(expected),
            warmup_frac,
            sorted: false,
            arrival_sorts: 0,
        }
    }

    /// Records a completed job.
    pub fn record(&mut self, c: Completion) {
        self.completions.push(c);
        self.sorted = false;
    }

    /// Records a whole simulation's completions at once by taking the
    /// vector's contents (leaving `batch` empty, capacity intact). Into
    /// an empty recorder this is a pointer swap — no per-completion
    /// copying — which is how `tq_harness::summarize` feeds each run's
    /// completions in.
    pub fn record_all(&mut self, batch: &mut Vec<Completion>) {
        if self.completions.is_empty() {
            std::mem::swap(&mut self.completions, batch);
        } else {
            self.completions.append(batch);
        }
        self.sorted = false;
    }

    /// Total completions recorded (before warm-up discarding).
    pub fn count(&self) -> usize {
        self.completions.len()
    }

    /// The raw recorded completions, in unspecified order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// How many times the completion vector has actually been sorted by
    /// arrival. [`ClassRecorder::summarize_all`] needs no sort (it
    /// partitions), so a recorder driven only through it reports 0; the
    /// per-query accessors sort at most once per batch of recordings.
    /// Diagnostic for perf tests.
    pub fn arrival_sorts(&self) -> u64 {
        self.arrival_sorts
    }

    /// Produces every metric [`crate::metrics`] knows in a single pass
    /// over the completions: one O(n) warm-up partition (no arrival
    /// sort), one bucketing scan, and O(n) order-statistic selections
    /// per class in place of full value sorts. The end-to-end and
    /// sojourn summaries share each selection — adding the constant
    /// `extra` commutes with nearest-rank percentiles.
    ///
    /// `extra` is the fixed latency added to each sojourn for the
    /// end-to-end view (e.g. the network RTT); the sojourn view always
    /// uses zero. Every percentile equals the seed's multi-pass
    /// pipeline (`tq_integration::oracle::metrics`) exactly: the warm-up
    /// cutoff is found by selecting the k-th smallest `(arrival, id)`
    /// key, so the kept *set* matches the sorted seed's while the full
    /// completion sort (the dominant cost on big runs) never happens.
    /// The means can differ from the seed's in the last ULP because they
    /// are accumulated in scan order instead of ascending order.
    pub fn summarize_all(&mut self, extra: Nanos) -> RunSummary {
        let kept: &[Completion] = if self.sorted {
            self.kept()
        } else {
            let len = self.completions.len();
            let skip = (len as f64 * self.warmup_frac).floor() as usize;
            if skip > 0 {
                // Partition around the skip-th smallest key: everything
                // before index `skip` is the discarded warm-up set —
                // exactly the elements an arrival sort would discard.
                self.completions
                    .select_nth_unstable_by_key(skip, |c| (c.arrival, c.id));
            }
            &self.completions[skip..]
        };

        // A cheap counting pass sizes every bucket exactly, so the fill
        // pass below never reallocates. Runs have a handful of classes at
        // most, so a linear probe over a sorted flat vec beats a map.
        let mut counts: Vec<(ClassId, usize)> = Vec::new();
        for c in kept {
            match counts.iter_mut().find(|&&mut (id, _)| id == c.class) {
                Some((_, n)) => *n += 1,
                None => counts.push((c.class, 1)),
            }
        }
        counts.sort_unstable_by_key(|&(id, _)| id);

        // One scan: bucket sojourns and slowdowns per class, and collect
        // the class-blind slowdowns for the overall tail.
        let mut buckets: Vec<(ClassId, Vec<u64>, Vec<f64>)> = counts
            .iter()
            .map(|&(id, n)| (id, Vec::with_capacity(n), Vec::with_capacity(n)))
            .collect();
        let mut all_slow: Vec<f64> = Vec::with_capacity(kept.len());
        for c in kept {
            let slowdown = c.slowdown();
            let (_, soj, slow) = buckets
                .iter_mut()
                .find(|&&mut (id, _, _)| id == c.class)
                .expect("every class was counted");
            soj.push(c.sojourn().as_nanos());
            slow.push(slowdown);
            all_slow.push(slowdown);
        }

        let extra_ns = extra.as_nanos();
        let mut classes_e2e = Vec::with_capacity(buckets.len());
        let mut classes_sojourn = Vec::with_capacity(buckets.len());
        for (class, mut soj, mut slow) in buckets {
            let n = soj.len();
            // Order-statistic selection instead of full sorts: each
            // percentile is an exact k-th smallest, found in O(n) rather
            // than O(n log n). Values are identical to sorting; only the
            // means (summed in scan order rather than ascending) can
            // differ from the seed's multi-pass pipeline in the last ULP.
            let [p50, p99, p999] =
                select_ranks_u64(&mut soj, [rank_index(n, 50.0), rank_index(n, 99.0), rank_index(n, 99.9)]);
            let soj_mean = soj.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
            let e2e_mean = soj.iter().map(|&v| (v + extra_ns) as f64).sum::<f64>() / n as f64;
            let slowdown_mean = slow.iter().sum::<f64>() / n as f64;
            let slowdown_p999 = select_rank_f64(&mut slow, rank_index(n, 99.9));
            classes_e2e.push(ClassSummary {
                class,
                count: n,
                p50: Nanos::from_nanos(p50 + extra_ns),
                p99: Nanos::from_nanos(p99 + extra_ns),
                p999: Nanos::from_nanos(p999 + extra_ns),
                mean: Nanos::from_nanos(e2e_mean.round() as u64),
                slowdown_p999,
                slowdown_mean,
            });
            classes_sojourn.push(ClassSummary {
                class,
                count: n,
                p50: Nanos::from_nanos(p50),
                p99: Nanos::from_nanos(p99),
                p999: Nanos::from_nanos(p999),
                mean: Nanos::from_nanos(soj_mean.round() as u64),
                slowdown_p999,
                slowdown_mean,
            });
        }

        let overall_slowdown_p999 = if all_slow.is_empty() {
            0.0
        } else {
            let rank = rank_index(all_slow.len(), 99.9);
            select_rank_f64(&mut all_slow, rank)
        };
        RunSummary {
            classes_e2e,
            classes_sojourn,
            overall_slowdown_p999,
        }
    }

    /// Summarizes every class present, ordered by class id. `extra` is a
    /// fixed latency added to each sojourn (e.g. the network RTT when
    /// reporting end-to-end latency; pass [`Nanos::ZERO`] for sojourn).
    ///
    /// Needing only one view? This still computes the slowdown columns
    /// (they are shared work); use [`ClassRecorder::summarize_all`] when
    /// you need more than one.
    pub fn summarize(&mut self, extra: Nanos) -> Vec<ClassSummary> {
        self.summarize_all(extra).classes_e2e
    }

    /// The overall (class-blind) slowdown percentile, as Figure 8 reports
    /// for TPC-C.
    pub fn overall_slowdown(&mut self, p: f64) -> f64 {
        let mut slow: Vec<f64> = self.kept().iter().map(|c| c.slowdown()).collect();
        percentile_f64(&mut slow, p)
    }

    /// The overall latency percentile across all classes.
    pub fn overall_latency(&mut self, p: f64, extra: Nanos) -> Nanos {
        let mut lat: Vec<u64> = self
            .kept()
            .iter()
            .map(|c| (c.sojourn() + extra).as_nanos())
            .collect();
        if lat.is_empty() {
            return Nanos::ZERO;
        }
        lat.sort_unstable();
        Nanos::from_nanos(lat[rank_index(lat.len(), p)])
    }

    /// Completions surviving warm-up discarding, ordered by arrival.
    /// Sorts in place at most once between mutations.
    fn kept(&mut self) -> &[Completion] {
        if !self.sorted {
            self.completions
                .sort_unstable_by_key(|c| (c.arrival, c.id));
            self.sorted = true;
            self.arrival_sorts += 1;
        }
        let skip = (self.completions.len() as f64 * self.warmup_frac).floor() as usize;
        &self.completions[skip.min(self.completions.len())..]
    }
}

/// Index of the nearest-rank `p`th percentile in a sorted slice of
/// length `n ≥ 1`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 100]` — the same contract
/// [`TailStats::percentile`] enforces, checked in every build profile
/// (a release build must not silently clamp a bogus percentile to the
/// max sample).
fn rank_index(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The k-th smallest values of `v` for ascending ranks, via repeated
/// `select_nth_unstable` on the shrinking right partition — O(n)
/// expected total, and each result equals `sorted(v)[rank]` exactly.
fn select_ranks_u64<const K: usize>(v: &mut [u64], ranks: [usize; K]) -> [u64; K] {
    let mut out = [0u64; K];
    let mut base = 0;
    for (i, &rank) in ranks.iter().enumerate() {
        debug_assert!(i == 0 || rank >= ranks[i - 1], "ranks must be ascending");
        let rel = rank - base;
        out[i] = *v[base..].select_nth_unstable(rel).1;
        base = rank;
    }
    out
}

/// The k-th smallest of `v` (exactly `sorted(v)[rank]`), in O(n).
///
/// # Panics
///
/// Panics if any value is NaN.
fn select_rank_f64(v: &mut [f64], rank: usize) -> f64 {
    *v.select_nth_unstable_by(rank, |a, b| {
        a.partial_cmp(b)
            .expect("NaN slowdown (service is never zero)")
    })
    .1
}

/// A log₂-bucketed histogram of nanosecond samples — the compact way to
/// eyeball a latency distribution's whole body and tail at once.
///
/// # Example
///
/// ```
/// use tq_sim::metrics::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// h.record(700);      // bucket [512, 1024)
/// h.record(900);
/// h.record(100_000);  // far tail
/// assert_eq!(h.count(), 3);
/// let rows = h.buckets();
/// assert_eq!(rows[0], (512, 1024, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    counts: Vec<u64>, // always 64 buckets
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; 64],
            total: 0,
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one sample (nanoseconds; 0 lands in the first bucket).
    pub fn record(&mut self, v: u64) {
        let bucket = 63 - v.max(1).leading_zeros() as usize;
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Non-empty buckets as `(lower_bound, upper_bound, count)`, in order.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, 1u64 << (i + 1).min(63), c))
            .collect()
    }

    /// The sample value below which at least `p`% of samples fall,
    /// resolved to its bucket's upper bound (a coarse percentile for
    /// quick looks; use [`TailStats`] for exact ones).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn approx_percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
        if self.total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

impl Extend<u64> for LogHistogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

/// Nearest-rank percentile of a float slice (sorts in place). Returns 0
/// for an empty slice.
fn percentile_f64(v: &mut [f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN slowdown"));
    let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_core::JobId;

    fn comp(id: u64, class: u16, arrival_ns: u64, service_ns: u64, finish_ns: u64) -> Completion {
        Completion {
            id: JobId(id),
            class: ClassId(class),
            arrival: Nanos::from_nanos(arrival_ns),
            service: Nanos::from_nanos(service_ns),
            finish: Nanos::from_nanos(finish_ns),
        }
    }

    #[test]
    fn log_histogram_buckets_and_percentiles() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 1, 3, 900, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let rows = h.buckets();
        assert_eq!(rows[0], (1, 2, 3)); // 0, 1, 1 clamp into [1,2)
        assert_eq!(rows[1], (2, 4, 1));
        // 50% of 6 = 3rd sample → the [1,2) bucket, upper bound 2.
        assert_eq!(h.approx_percentile(50.0), 2);
        assert!(h.approx_percentile(100.0) >= 1_000_000);
    }

    #[test]
    fn log_histogram_empty() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.buckets().is_empty());
        assert_eq!(h.approx_percentile(99.9), 0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s: TailStats = (1..=1000u64).collect();
        assert_eq!(s.percentile(99.9), 999);
        assert_eq!(s.percentile(0.1), 1);
        assert_eq!(s.percentile(100.0), 1000);
    }

    #[test]
    fn percentile_single_sample() {
        let mut s = TailStats::new();
        s.record(42);
        assert_eq!(s.percentile(50.0), 42);
        assert_eq!(s.p999(), 42);
    }

    #[test]
    fn percentile_empty_is_zero() {
        let mut s = TailStats::new();
        assert_eq!(s.p999(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn try_accessors_surface_emptiness() {
        let mut s = TailStats::new();
        assert_eq!(s.try_percentile(99.9), None);
        assert_eq!(s.try_mean(), None);
        assert_eq!(s.try_max(), None);
        s.record(7);
        assert_eq!(s.try_percentile(99.9), Some(7));
        assert_eq!(s.try_mean(), Some(7.0));
        assert_eq!(s.try_max(), Some(7));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn try_percentile_rejects_out_of_range_even_when_empty() {
        let mut s = TailStats::new();
        let _ = s.try_percentile(0.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn rank_index_rejects_out_of_range_in_all_profiles() {
        // Regression: `rank_index` used to debug_assert only, so a
        // release build silently clamped e.g. p=200 to the max sample.
        // `overall_latency` is the user-supplied-percentile path into it.
        let mut rec = ClassRecorder::new(0.0);
        rec.record(comp(0, 0, 0, 100, 200));
        let _ = rec.overall_latency(200.0, Nanos::ZERO);
    }

    #[test]
    fn recording_after_query_resorts() {
        let mut s = TailStats::new();
        s.record(10);
        assert_eq!(s.p999(), 10);
        s.record(5);
        assert_eq!(s.percentile(50.0), 5);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_zero() {
        let mut s = TailStats::new();
        s.record(1);
        let _ = s.percentile(0.0);
    }

    #[test]
    fn recorder_separates_classes() {
        let mut rec = ClassRecorder::new(0.0);
        rec.record(comp(0, 0, 0, 500, 1_000));
        rec.record(comp(1, 1, 0, 1_000, 5_000));
        rec.record(comp(2, 0, 10, 500, 600));
        let sums = rec.summarize(Nanos::ZERO);
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].class, ClassId(0));
        assert_eq!(sums[0].count, 2);
        assert_eq!(sums[1].count, 1);
        assert_eq!(sums[1].p999, Nanos::from_nanos(5_000));
    }

    #[test]
    fn warmup_discards_earliest_arrivals() {
        let mut rec = ClassRecorder::new(0.5);
        rec.record(comp(0, 0, 0, 100, 10_000)); // slow warm-up sample
        rec.record(comp(1, 0, 100, 100, 300));
        let sums = rec.summarize(Nanos::ZERO);
        assert_eq!(sums[0].count, 1);
        assert_eq!(sums[0].p999, Nanos::from_nanos(200));
    }

    #[test]
    fn extra_latency_added_to_latency_not_slowdown() {
        let mut rec = ClassRecorder::new(0.0);
        rec.record(comp(0, 0, 0, 500, 1_000));
        let sums = rec.summarize(Nanos::from_micros(10));
        assert_eq!(sums[0].p999, Nanos::from_nanos(11_000));
        assert!((sums[0].slowdown_p999 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn one_arrival_sort_amortized_over_all_queries() {
        let mut rec = ClassRecorder::new(0.1);
        for i in 0..100u64 {
            rec.record(comp(i, (i % 3) as u16, 1_000 - i * 10, 50, 2_000));
        }
        assert_eq!(rec.arrival_sorts(), 0);
        // The summary path partitions instead of sorting.
        let _ = rec.summarize_all(Nanos::from_micros(5));
        let _ = rec.summarize(Nanos::ZERO);
        assert_eq!(rec.arrival_sorts(), 0);
        // The per-query accessors sort once, then reuse the order.
        let _ = rec.overall_slowdown(99.9);
        let _ = rec.overall_latency(50.0, Nanos::ZERO);
        let _ = rec.summarize_all(Nanos::ZERO);
        assert_eq!(rec.arrival_sorts(), 1);
        // New data invalidates the order; exactly one more sort follows.
        rec.record(comp(200, 0, 5, 50, 100));
        let _ = rec.summarize_all(Nanos::ZERO);
        assert_eq!(rec.arrival_sorts(), 1);
        let _ = rec.overall_slowdown(99.9);
        assert_eq!(rec.arrival_sorts(), 2);
    }

    #[test]
    fn summarize_all_views_are_consistent() {
        let mut rec = ClassRecorder::new(0.0);
        rec.record(comp(0, 0, 0, 500, 1_000));
        rec.record(comp(1, 0, 10, 500, 1_200));
        let s = rec.summarize_all(Nanos::from_micros(10));
        assert_eq!(s.classes_e2e.len(), 1);
        assert_eq!(
            s.classes_e2e[0].p999,
            s.classes_sojourn[0].p999 + Nanos::from_micros(10)
        );
        // Slowdown never includes the extra latency.
        assert_eq!(
            s.classes_e2e[0].slowdown_p999,
            s.classes_sojourn[0].slowdown_p999
        );
        assert!((s.overall_slowdown_p999 - 1_190.0 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_all_empty_recorder() {
        let mut rec = ClassRecorder::new(0.1);
        let s = rec.summarize_all(Nanos::from_micros(5));
        assert!(s.classes_e2e.is_empty());
        assert!(s.classes_sojourn.is_empty());
        assert_eq!(s.overall_slowdown_p999, 0.0);
    }

    #[test]
    fn overall_metrics() {
        let mut rec = ClassRecorder::new(0.0);
        rec.record(comp(0, 0, 0, 100, 200)); // slowdown 2
        rec.record(comp(1, 1, 0, 100, 500)); // slowdown 5
        assert!((rec.overall_slowdown(99.9) - 5.0).abs() < 1e-12);
        assert_eq!(
            rec.overall_latency(99.9, Nanos::ZERO),
            Nanos::from_nanos(500)
        );
    }
}
