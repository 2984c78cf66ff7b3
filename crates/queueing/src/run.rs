//! Experiment driver: run one configured system against one workload at
//! one offered rate, producing the paper's metrics.
//!
//! Sweeps and replications fan independent `(rate, seed)` points out over
//! a scoped thread pool ([`default_jobs`] workers, `TQ_JOBS` to override).
//! Each point is deterministic given its inputs and results are collected
//! back in input order, so parallel output is bit-identical to serial.

use crate::config::SystemConfig;
use crate::engine::simulate_into;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tq_core::costs;
use tq_core::job::Completion;
use tq_core::Nanos;
use tq_sim::metrics::ClassSummary;
use tq_sim::{ClassRecorder, SimRng};
use tq_workloads::{ArrivalGen, ArrivalProcess, Workload};

thread_local! {
    /// Per-thread completion buffer reused across sweep points: a long
    /// sweep performs one completions allocation per worker thread
    /// instead of one per `(rate, seed)` point.
    static COMPLETIONS_SCRATCH: RefCell<Vec<Completion>> = const { RefCell::new(Vec::new()) };
}

/// Warm-up fraction discarded from every run (§5.1: "the first 10% samples
/// are discarded").
pub const WARMUP_FRAC: f64 = 0.1;

/// The measured outcome of one `(system, workload, rate)` point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// System label (e.g. `"TQ"`).
    pub system: String,
    /// Workload name.
    pub workload: String,
    /// Offered request rate (requests per second).
    pub rate_rps: f64,
    /// Per-class end-to-end latency summaries (sojourn + network RTT),
    /// ordered by class id — what Figures 5–12 plot.
    pub classes: Vec<ClassSummary>,
    /// Per-class server-side sojourn summaries (no RTT), used by the
    /// within-TQ comparisons.
    pub classes_sojourn: Vec<ClassSummary>,
    /// 99.9th percentile slowdown across all classes (Figure 8's TPC-C
    /// metric, and the §2 analysis metric).
    pub overall_slowdown_p999: f64,
    /// Jobs completed after warm-up discarding.
    pub completed: usize,
    /// Goodput: completions within the arrival horizon per second.
    pub achieved_rps: f64,
    /// Simulator events processed to produce this point (the perf
    /// harness's work counter; no effect on the modeled metrics).
    pub sim_events: u64,
}

impl RunResult {
    /// The end-to-end summary for one class by its index.
    ///
    /// # Panics
    ///
    /// Panics if no job of that class completed.
    pub fn class(&self, idx: usize) -> &ClassSummary {
        self.classes
            .iter()
            .find(|c| c.class.0 as usize == idx)
            .unwrap_or_else(|| panic!("no completions for class {idx}"))
    }
}

/// Runs `cfg` serving `workload` at `rate_rps` for `duration` of simulated
/// arrivals (the system then drains), with the given seed.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_once(
    cfg: &SystemConfig,
    workload: &Workload,
    rate_rps: f64,
    duration: Nanos,
    seed: u64,
) -> RunResult {
    run_once_process(cfg, workload, ArrivalProcess::Poisson, rate_rps, duration, seed)
}

/// [`run_once`] under an explicit arrival process (MMPP bursts, diurnal
/// ramps). With [`ArrivalProcess::Poisson`] the output is bit-identical
/// to `run_once`.
///
/// # Panics
///
/// Panics if the configuration or the process parameters are invalid.
pub fn run_once_process(
    cfg: &SystemConfig,
    workload: &Workload,
    process: ArrivalProcess,
    rate_rps: f64,
    duration: Nanos,
    seed: u64,
) -> RunResult {
    cfg.validate();
    let gen = ArrivalGen::with_process(workload.clone(), rate_rps, process, SimRng::new(seed));
    let mut completions = COMPLETIONS_SCRATCH.with(|cell| cell.take());
    // The engine counts in-horizon completions during the run, so goodput
    // needs no extra pass over the completion stream.
    let stats = simulate_into(cfg, gen, duration, seed ^ 0xD15, &mut completions);
    // Zero-copy hand-off: the recorder takes the scratch buffer (pointer
    // swap, not a per-completion copy) and returns it afterwards.
    let mut rec = ClassRecorder::with_capacity(WARMUP_FRAC, 0);
    rec.record_all(&mut completions);
    let summary = rec.summarize_all(costs::NETWORK_RTT);
    debug_assert_eq!(
        rec.arrival_sorts(),
        0,
        "run_once must never need a full arrival sort"
    );
    COMPLETIONS_SCRATCH.with(|cell| cell.replace(rec.into_completions()));
    let completed = summary.classes_e2e.iter().map(|c| c.count).sum();
    RunResult {
        system: cfg.name.clone(),
        workload: workload.name().to_string(),
        rate_rps,
        classes: summary.classes_e2e,
        classes_sojourn: summary.classes_sojourn,
        overall_slowdown_p999: summary.overall_slowdown_p999,
        completed,
        achieved_rps: stats.in_horizon as f64 / duration.as_secs_f64(),
        sim_events: stats.events,
    }
}

/// The worker count used by the parallel experiment harness: `TQ_JOBS`
/// if set to a positive integer, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
pub fn default_jobs() -> usize {
    std::env::var("TQ_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Evaluates `f(0..n)` on up to `jobs` scoped threads and returns the
/// results in index order — so parallel callers observe output identical
/// to a serial loop. Work is handed out through a shared counter
/// (dynamic load balancing: sweep points near saturation take far longer
/// than low-load ones). A panic in any `f` propagates to the caller.
fn parallel_map<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n);
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                slots.lock().expect("worker panicked").push((i, v));
            });
        }
    });
    let mut slots = slots.into_inner().expect("worker panicked");
    debug_assert_eq!(slots.len(), n);
    slots.sort_unstable_by_key(|&(i, _)| i);
    slots.into_iter().map(|(_, v)| v).collect()
}

/// Sweeps a list of offered rates, returning one [`RunResult`] per rate
/// in input order, running points on [`default_jobs`] threads.
pub fn sweep(
    cfg: &SystemConfig,
    workload: &Workload,
    rates_rps: &[f64],
    duration: Nanos,
    seed: u64,
) -> Vec<RunResult> {
    sweep_jobs(cfg, workload, rates_rps, duration, seed, default_jobs())
}

/// [`sweep`] with an explicit worker count (`1` forces the serial path;
/// any count produces identical results).
pub fn sweep_jobs(
    cfg: &SystemConfig,
    workload: &Workload,
    rates_rps: &[f64],
    duration: Nanos,
    seed: u64,
    jobs: usize,
) -> Vec<RunResult> {
    sweep_jobs_process(
        cfg,
        workload,
        ArrivalProcess::Poisson,
        rates_rps,
        duration,
        seed,
        jobs,
    )
}

/// [`sweep_jobs`] under an explicit arrival process; Poisson reproduces
/// `sweep_jobs` bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn sweep_jobs_process(
    cfg: &SystemConfig,
    workload: &Workload,
    process: ArrivalProcess,
    rates_rps: &[f64],
    duration: Nanos,
    seed: u64,
    jobs: usize,
) -> Vec<RunResult> {
    parallel_map(rates_rps.len(), jobs, |i| {
        run_once_process(cfg, workload, process, rates_rps[i], duration, seed)
    })
}

/// Finds the highest rate whose metric stays under a budget — the
/// paper's "maximum load under a latency SLO" summary. The metric is
/// extracted per run by `metric`.
///
/// Contract: the scan stops at the *first violation* and returns the
/// last rate before it satisfying `metric <= budget` (`None` if the
/// first result already violates). Rates that dip back under the budget
/// after a violation are deliberately ignored: tail metrics are noisy
/// near saturation, and a rate is only operable if every rate below it
/// also met the SLO. For a non-monotone series this therefore reports
/// the first crossing, not the global maximum satisfying rate.
pub fn max_rate_under<F>(results: &[RunResult], budget: f64, metric: F) -> Option<f64>
where
    F: Fn(&RunResult) -> f64,
{
    let mut best = None;
    for r in results {
        if metric(r) <= budget {
            best = Some(r.rate_rps);
        } else {
            break;
        }
    }
    best
}

/// A metric replicated over independent seeds: mean and sample standard
/// deviation. Tail percentiles at short simulated durations are noisy;
/// replication quantifies how much.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Replicated {
    /// Mean across seeds.
    pub mean: f64,
    /// Sample standard deviation (0 for a single seed).
    pub std_dev: f64,
    /// Number of seeds.
    pub n: usize,
}

impl Replicated {
    /// Aggregates raw samples into mean and sample standard deviation.
    /// An empty slice yields all-zero statistics (`n = 0`), never NaN.
    pub fn from_samples(xs: &[f64]) -> Self {
        let n = xs.len();
        if n == 0 {
            return Replicated {
                mean: 0.0,
                std_dev: 0.0,
                n: 0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Replicated {
            mean,
            std_dev: var.sqrt(),
            n,
        }
    }
}

/// Runs the same `(system, workload, rate)` point under several seeds and
/// returns the replicated per-class p999 (end-to-end) and overall
/// slowdown statistics, in class-id order.
///
/// # Panics
///
/// Panics if `seeds` is empty or class sets differ between seeds (a class
/// with no completions under some seed — lengthen the duration).
pub fn run_replicated(
    cfg: &SystemConfig,
    workload: &Workload,
    rate_rps: f64,
    duration: Nanos,
    seeds: &[u64],
) -> (Vec<Replicated>, Replicated) {
    run_replicated_jobs(cfg, workload, rate_rps, duration, seeds, default_jobs())
}

/// [`run_replicated`] with an explicit worker count (`1` forces the
/// serial path; any count produces identical results).
///
/// # Panics
///
/// Panics if `seeds` is empty or class sets differ between seeds.
pub fn run_replicated_jobs(
    cfg: &SystemConfig,
    workload: &Workload,
    rate_rps: f64,
    duration: Nanos,
    seeds: &[u64],
    jobs: usize,
) -> (Vec<Replicated>, Replicated) {
    assert!(!seeds.is_empty(), "need at least one seed");
    let runs: Vec<RunResult> = parallel_map(seeds.len(), jobs, |i| {
        run_once(cfg, workload, rate_rps, duration, seeds[i])
    });
    let n_classes = runs[0].classes.len();
    assert!(
        runs.iter().all(|r| r.classes.len() == n_classes),
        "class sets differ across seeds; lengthen the duration"
    );
    let per_class = (0..n_classes)
        .map(|c| {
            let xs: Vec<f64> = runs
                .iter()
                .map(|r| r.classes[c].p999.as_nanos() as f64)
                .collect();
            Replicated::from_samples(&xs)
        })
        .collect();
    let slowdowns: Vec<f64> = runs.iter().map(|r| r.overall_slowdown_p999).collect();
    (per_class, Replicated::from_samples(&slowdowns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use tq_core::policy::TieBreak;
    use tq_workloads::table1;

    #[test]
    fn low_load_has_low_slowdown() {
        let cfg = presets::ideal_centralized_ps(8, Nanos::from_micros(1));
        let wl = table1::extreme_bimodal();
        let r = run_once(&cfg, &wl, wl.rate_for_load(8, 0.1), Nanos::from_millis(20), 42);
        assert!(
            r.overall_slowdown_p999 < 3.0,
            "slowdown {} at 10% load",
            r.overall_slowdown_p999
        );
    }

    #[test]
    fn slowdown_grows_with_load() {
        let cfg = presets::tq(8, Nanos::from_micros(2));
        let wl = table1::extreme_bimodal();
        let lo = run_once(&cfg, &wl, wl.rate_for_load(8, 0.2), Nanos::from_millis(20), 1);
        let hi = run_once(&cfg, &wl, wl.rate_for_load(8, 0.8), Nanos::from_millis(20), 1);
        assert!(hi.overall_slowdown_p999 > lo.overall_slowdown_p999);
    }

    #[test]
    fn e2e_includes_rtt() {
        let cfg = presets::tq(4, Nanos::from_micros(2));
        let wl = table1::exp1();
        let r = run_once(&cfg, &wl, wl.rate_for_load(4, 0.3), Nanos::from_millis(10), 3);
        let e2e = r.classes[0].p999;
        let soj = r.classes_sojourn[0].p999;
        assert_eq!(e2e, soj + costs::NETWORK_RTT);
    }

    #[test]
    fn msq_improves_long_job_tail_over_random_tiebreak() {
        // The Figure 4 phenomenon: with ideal overheads, JSQ-PS with MSQ
        // tie-breaking beats random tie-breaking on long-job p999 slowdown.
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(16, 0.55);
        let dur = Nanos::from_millis(60);
        let msq = run_once(
            &presets::ideal_two_level(16, Nanos::from_micros(1), TieBreak::MaxServicedQuanta),
            &wl,
            rate,
            dur,
            7,
        );
        let rnd = run_once(
            &presets::ideal_two_level(16, Nanos::from_micros(1), TieBreak::Random),
            &wl,
            rate,
            dur,
            7,
        );
        let msq_slow = msq.classes_sojourn[1].slowdown_p999;
        let rnd_slow = rnd.classes_sojourn[1].slowdown_p999;
        assert!(
            msq_slow < rnd_slow,
            "MSQ {msq_slow} should beat random {rnd_slow} for long jobs"
        );
    }

    #[test]
    fn replication_quantifies_noise() {
        let cfg = presets::tq(8, Nanos::from_micros(2));
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(8, 0.5);
        let (classes, slowdown) =
            run_replicated(&cfg, &wl, rate, Nanos::from_millis(15), &[1, 2, 3]);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].n, 3);
        assert!(classes[0].mean > 0.0);
        assert!(classes[0].std_dev >= 0.0);
        assert!(slowdown.mean >= 1.0);
        // Single seed ⇒ zero spread.
        let (single, _) = run_replicated(&cfg, &wl, rate, Nanos::from_millis(15), &[7]);
        assert_eq!(single[0].std_dev, 0.0);
    }

    #[test]
    fn max_rate_under_picks_last_satisfying() {
        let cfg = presets::tq(4, Nanos::from_micros(2));
        let wl = table1::exp1();
        let rates: Vec<f64> = (1..=4).map(|i| wl.rate_for_load(4, 0.2 * i as f64)).collect();
        let results = sweep(&cfg, &wl, &rates, Nanos::from_millis(8), 5);
        let cap = max_rate_under(&results, 100_000.0, |r| r.class(0).p999.as_nanos() as f64);
        assert!(cap.is_some());
    }

    /// A RunResult carrying only the fields `max_rate_under` reads.
    fn stub_result(rate_rps: f64, slowdown: f64) -> RunResult {
        RunResult {
            system: "stub".into(),
            workload: "stub".into(),
            rate_rps,
            classes: Vec::new(),
            classes_sojourn: Vec::new(),
            overall_slowdown_p999: slowdown,
            completed: 0,
            achieved_rps: rate_rps,
            sim_events: 0,
        }
    }

    #[test]
    fn max_rate_under_stops_at_first_violation() {
        // Non-monotone series: 2.0 dips back under the budget after the
        // violation at rate 3e5, but only the first crossing counts.
        let results: Vec<RunResult> = [(1.0e5, 1.5), (2.0e5, 2.5), (3.0e5, 9.0), (4.0e5, 2.0)]
            .into_iter()
            .map(|(r, s)| stub_result(r, s))
            .collect();
        let cap = max_rate_under(&results, 3.0, |r| r.overall_slowdown_p999);
        assert_eq!(cap, Some(2.0e5));
        // First result already violating ⇒ no operable rate at all.
        assert_eq!(
            max_rate_under(&results[2..], 3.0, |r| r.overall_slowdown_p999),
            None
        );
    }

    #[test]
    fn replicated_from_samples_handles_empty_and_degenerate_input() {
        let empty = Replicated::from_samples(&[]);
        assert_eq!(empty, Replicated { mean: 0.0, std_dev: 0.0, n: 0 });
        assert!(!empty.mean.is_nan());
        let one = Replicated::from_samples(&[7.5]);
        assert_eq!(one, Replicated { mean: 7.5, std_dev: 0.0, n: 1 });
        let two = Replicated::from_samples(&[1.0, 3.0]);
        assert_eq!(two.mean, 2.0);
        assert!((two.std_dev - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn parallel_sweep_identical_to_serial() {
        let cfg = presets::tq(4, Nanos::from_micros(2));
        let wl = table1::extreme_bimodal();
        let rates: Vec<f64> = (1..=5).map(|i| wl.rate_for_load(4, 0.15 * i as f64)).collect();
        let serial = sweep_jobs(&cfg, &wl, &rates, Nanos::from_millis(6), 9, 1);
        let parallel = sweep_jobs(&cfg, &wl, &rates, Nanos::from_millis(6), 9, 4);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn parallel_replication_identical_to_serial() {
        let cfg = presets::tq(4, Nanos::from_micros(2));
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(4, 0.5);
        let seeds = [1, 2, 3, 4];
        let serial = run_replicated_jobs(&cfg, &wl, rate, Nanos::from_millis(6), &seeds, 1);
        let parallel = run_replicated_jobs(&cfg, &wl, rate, Nanos::from_millis(6), &seeds, 3);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn run_once_never_sorts_completions() {
        // The single-pass pipeline's contract, end to end: one run, zero
        // arrival sorts — the warm-up cutoff is a selection (enforced in
        // run_once by a debug assertion; this test pins the counter into
        // the observable RunResult path).
        let cfg = presets::tq(4, Nanos::from_micros(2));
        let wl = table1::extreme_bimodal();
        let r = run_once(&cfg, &wl, wl.rate_for_load(4, 0.4), Nanos::from_millis(6), 13);
        assert!(r.sim_events > 0);
        assert!(r.completed > 0);
    }
}
