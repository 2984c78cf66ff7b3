//! The seed's multi-pass metrics pipeline, the oracle for the
//! single-pass `tq_sim::ClassRecorder::summarize_all`: the fast path
//! must reproduce [`summarize_all`]'s percentiles exactly.

use tq_core::job::Completion;
use tq_core::{ClassId, Nanos};
use tq_sim::metrics::{ClassSummary, RunSummary};
use tq_sim::TailStats;

/// Multi-pass equivalent of `ClassRecorder::summarize_all`: two
/// independent `summarize` passes plus an `overall_slowdown` pass, each
/// re-sorting and re-filtering from scratch.
pub fn summarize_all(completions: &[Completion], warmup_frac: f64, extra: Nanos) -> RunSummary {
    RunSummary {
        classes_e2e: summarize(completions, warmup_frac, extra),
        classes_sojourn: summarize(completions, warmup_frac, Nanos::ZERO),
        overall_slowdown_p999: overall_slowdown(completions, warmup_frac, 99.9),
    }
}

/// The seed's `ClassRecorder::summarize`: clones and sorts the
/// completions, then filters the kept slice once per class.
fn summarize(completions: &[Completion], warmup_frac: f64, extra: Nanos) -> Vec<ClassSummary> {
    let kept = after_warmup(completions, warmup_frac);
    let mut classes: Vec<ClassId> = kept.iter().map(|c| c.class).collect();
    classes.sort_unstable();
    classes.dedup();
    classes
        .into_iter()
        .map(|class| {
            let mut lat = TailStats::new();
            let mut slow = Vec::new();
            for c in kept.iter().filter(|c| c.class == class) {
                lat.record((c.sojourn() + extra).as_nanos());
                slow.push(c.slowdown());
            }
            let slowdown_p999 = percentile_f64(&mut slow, 99.9);
            let slowdown_mean = slow.iter().sum::<f64>() / slow.len() as f64;
            ClassSummary {
                class,
                count: lat.count(),
                p50: Nanos::from_nanos(lat.percentile(50.0)),
                p99: Nanos::from_nanos(lat.percentile(99.0)),
                p999: Nanos::from_nanos(lat.percentile(99.9)),
                mean: Nanos::from_nanos(lat.mean().round() as u64),
                slowdown_p999,
                slowdown_mean,
            }
        })
        .collect()
}

/// The seed's `ClassRecorder::overall_slowdown`.
fn overall_slowdown(completions: &[Completion], warmup_frac: f64, p: f64) -> f64 {
    let mut slow: Vec<f64> = after_warmup(completions, warmup_frac)
        .iter()
        .map(|c| c.slowdown())
        .collect();
    percentile_f64(&mut slow, p)
}

fn after_warmup(completions: &[Completion], warmup_frac: f64) -> Vec<Completion> {
    let mut by_arrival = completions.to_vec();
    by_arrival.sort_unstable_by_key(|c| (c.arrival, c.id));
    let skip = (by_arrival.len() as f64 * warmup_frac).floor() as usize;
    by_arrival.split_off(skip.min(by_arrival.len()))
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

/// Asserts the single-pass summary `fast` matches the multi-pass `slow`:
/// percentiles exactly, means within the ULP slack the different
/// summation order permits (±1 ns latency, 1e-9 relative slowdown).
///
/// # Panics
///
/// Panics at the first field that differs.
pub fn assert_matches(fast: &RunSummary, slow: &RunSummary) {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let check = |f: &[ClassSummary], s: &[ClassSummary]| {
        assert_eq!(f.len(), s.len(), "class sets differ");
        for (a, b) in f.iter().zip(s) {
            assert_eq!((a.class, a.count), (b.class, b.count));
            assert_eq!(
                (a.p50, a.p99, a.p999),
                (b.p50, b.p99, b.p999),
                "class {}",
                a.class
            );
            assert!(
                a.mean.as_nanos().abs_diff(b.mean.as_nanos()) <= 1,
                "mean {} vs {}",
                a.mean,
                b.mean
            );
            assert_eq!(a.slowdown_p999, b.slowdown_p999, "class {}", a.class);
            assert!(
                close(a.slowdown_mean, b.slowdown_mean),
                "slowdown mean {} vs {}",
                a.slowdown_mean,
                b.slowdown_mean
            );
        }
    };
    check(&fast.classes_e2e, &slow.classes_e2e);
    check(&fast.classes_sojourn, &slow.classes_sojourn);
    assert_eq!(fast.overall_slowdown_p999, slow.overall_slowdown_p999);
}
