//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index) and prints the same series
//! the paper plots. A simulated point runs through `tq_harness`'s
//! [`SimEngine`] ([`run_point`], or [`tq_harness::sweep`] for a list of
//! rates). Common knobs come from the environment, each read by one
//! function here:
//!
//! * `TQ_SIM_MILLIS` — simulated milliseconds of arrivals per point
//!   (default 80 ms; the paper runs 10 s — larger values sharpen the
//!   99.9th percentiles at proportional cost). See [`sim_duration`].
//! * `TQ_SEED` — the run seed (default 42). See [`seed`].
//! * `TQ_JOBS` — worker threads for independent sweep points (default:
//!   all cores). Results are identical at any setting; see
//!   [`default_jobs`].
//! * `TQ_AUDIT` — the invariant auditor on live runs (default on). See
//!   [`audit_enabled`].
//! * `TQ_RT_WORKERS` — live-runtime worker threads (default 2). See
//!   [`rt_workers`].

use tq_core::Nanos;
use tq_harness::{run_to_record, RunRecord, RunSpec, SimEngine};
use tq_queueing::SystemConfig;
use tq_workloads::{ArrivalProcess, Workload};

/// Simulated arrival horizon per measurement point.
pub fn sim_duration() -> Nanos {
    let ms = std::env::var("TQ_SIM_MILLIS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(80);
    Nanos::from_millis(ms.max(1))
}

/// The run seed.
pub fn seed() -> u64 {
    std::env::var("TQ_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(42)
}

/// The worker count for independent sweep points: `TQ_JOBS` if set to a
/// positive integer, otherwise the machine's available parallelism (1 if
/// that cannot be determined).
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

/// Whether live runs carry the invariant auditor (`TQ_AUDIT=0` turns it
/// off; on by default).
pub fn audit_enabled() -> bool {
    std::env::var("TQ_AUDIT").map_or(true, |v| v != "0")
}

/// Live-runtime worker threads: `TQ_RT_WORKERS` if set to a positive
/// integer, otherwise 2.
pub fn rt_workers() -> usize {
    std::env::var("TQ_RT_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(2)
}

/// The figure point for `workload` at `rate_rps`: Poisson arrivals over
/// [`sim_duration`] under [`seed`].
fn point(workload: &Workload, rate_rps: f64) -> RunSpec {
    RunSpec {
        workload: workload.clone(),
        process: ArrivalProcess::Poisson,
        rate_rps,
        horizon: sim_duration(),
        seed: seed(),
    }
}

/// Runs `cfg` serving `workload` at `rate_rps` for [`sim_duration`] of
/// Poisson arrivals under [`seed`] (the system then drains).
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_point(cfg: &SystemConfig, workload: &Workload, rate_rps: f64) -> RunRecord {
    run_to_record(&mut SimEngine::new(cfg.clone()), &point(workload, rate_rps))
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
pub fn max_rate_under<F>(results: &[RunRecord], budget: f64, metric: F) -> Option<f64>
where
    F: Fn(&RunRecord) -> f64,
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

/// Requests/second for a list of offered loads on `cores` cores.
pub fn rate_grid(workload: &Workload, cores: usize, loads: &[f64]) -> Vec<f64> {
    loads.iter().map(|&l| workload.rate_for_load(cores, l)).collect()
}

/// The standard load sweep the figures use (35%…95% of capacity).
pub const LOAD_SWEEP: [f64; 9] = [0.35, 0.45, 0.55, 0.65, 0.75, 0.8, 0.85, 0.9, 0.95];

/// Formats a rate as Mrps with two decimals.
pub fn mrps(rate_rps: f64) -> String {
    format!("{:.2}", rate_rps / 1e6)
}

/// Formats a latency in µs with one decimal (`>10ms` for blowups, so
/// saturated points read clearly in the tables).
pub fn us(lat: Nanos) -> String {
    if lat >= Nanos::from_millis(10) {
        ">10ms".to_string()
    } else {
        format!("{:.1}", lat.as_micros_f64())
    }
}

/// Resolves a `--policy <name>` argument against the named presets in
/// [`tq_queueing::presets`], exiting with the known-name list on a miss.
pub fn policy_or_exit(name: &str, n_workers: usize, quantum: Nanos) -> SystemConfig {
    tq_queueing::presets::by_name(name, n_workers, quantum).unwrap_or_else(|| {
        eprintln!(
            "--policy: unknown preset {name:?} (known: {})",
            tq_queueing::presets::NAMES.join(", ")
        );
        std::process::exit(2);
    })
}

/// Resolves a `--workload <name>` argument against the hostile-traffic
/// catalog in [`tq_workloads::hostile`], exiting with the known-name
/// list on a miss.
pub fn workload_or_exit(name: &str) -> tq_workloads::TrafficPreset {
    tq_workloads::hostile::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "--workload: unknown preset {name:?} (known: {})",
            tq_workloads::hostile::NAMES.join(", ")
        );
        std::process::exit(2);
    })
}

/// Maps a two-level preset onto the live runtime: the dispatch policy,
/// worker discipline, quantum, and stealing flag carry over; the modeled
/// overheads do not (here they are real). Exits for centralized presets,
/// which the runtime does not implement.
pub fn server_config_for(preset: &SystemConfig) -> tq_runtime::ServerConfig {
    let dispatch = match preset.arch {
        tq_queueing::Architecture::TwoLevel { dispatch } => dispatch,
        tq_queueing::Architecture::Centralized => {
            eprintln!(
                "--policy: preset {:?} is centralized; the live runtime only \
                 implements two-level dispatch",
                preset.name
            );
            std::process::exit(2);
        }
    };
    tq_runtime::ServerConfig {
        workers: preset.n_workers,
        quantum: preset.quantum,
        dispatch,
        discipline: preset.worker_policy,
        work_stealing: preset.work_stealing,
        ..tq_runtime::ServerConfig::default()
    }
}

/// Prints a figure banner with the paper reference.
pub fn banner(id: &str, what: &str, paper_expectation: &str) {
    println!("=== {id}: {what} ===");
    println!("paper: {paper_expectation}");
    println!(
        "(sim horizon {} per point, seed {}; set TQ_SIM_MILLIS / TQ_SEED to change)",
        sim_duration(),
        seed()
    );
    println!();
}

/// Runs `systems` over the load sweep on `workload` and prints one block
/// per job class: rate vs. per-system p999 end-to-end latency. This is
/// the layout Figures 7–12 share.
pub fn compare_systems(systems: &[SystemConfig], workload: &Workload) {
    compare_systems_with_loads(systems, workload, &LOAD_SWEEP);
}

/// [`compare_systems`] with a custom load sweep — used when a baseline's
/// capacity is far below the default 35%-of-16-cores starting point
/// (e.g. Shinjuku on Exp(1), whose dispatcher saturates first).
pub fn compare_systems_with_loads(systems: &[SystemConfig], workload: &Workload, loads: &[f64]) {
    let spec = point(workload, 0.0);
    let results: Vec<Vec<RunRecord>> = systems
        .iter()
        .map(|cfg| {
            let rates = rate_grid(workload, cfg.n_workers, loads);
            tq_harness::sweep(&SimEngine::new(cfg.clone()), &spec, &rates, default_jobs())
        })
        .collect();
    for (class_idx, class) in workload.classes().iter().enumerate() {
        println!("-- class {}: {} --", class_idx, class.name);
        print!("{:>10}", "Mrps");
        for cfg in systems {
            print!("{:>24}", cfg.name);
        }
        println!("   (p999 end-to-end, us)");
        for (li, &load) in loads.iter().enumerate() {
            let rate = workload.rate_for_load(16, load);
            print!("{:>10}", mrps(rate));
            for sys_results in &results {
                let r = &sys_results[li];
                match r.classes.iter().find(|c| c.class.0 as usize == class_idx) {
                    Some(c) => print!("{:>24}", us(c.p999)),
                    None => print!("{:>24}", "-"),
                }
            }
            println!();
        }
        println!();
    }
}

/// Picks the better Caladan mode for a workload (the paper evaluates
/// Caladan under both modes and reports the better one): higher load
/// sustained with short-class p999 under 50 µs wins; tie → directpath.
pub fn better_caladan(workload: &Workload) -> SystemConfig {
    let budget = Nanos::from_micros(50);
    let score = |cfg: &SystemConfig| -> usize {
        LOAD_SWEEP
            .iter()
            .take_while(|&&l| {
                let r = run_point(cfg, workload, workload.rate_for_load(cfg.n_workers, l));
                r.classes.first().map(|c| c.p999 <= budget).unwrap_or(false)
            })
            .count()
    };
    let io = tq_queueing::presets::caladan_iokernel(16);
    let dp = tq_queueing::presets::caladan_directpath(16);
    if score(&io) > score(&dp) {
        io
    } else {
        dp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_workloads::table1;

    #[test]
    fn max_rate_under_picks_last_satisfying() {
        let engine = SimEngine::new(tq_queueing::presets::tq(4, Nanos::from_micros(2)));
        let wl = table1::exp1();
        let rates: Vec<f64> = (1..=4)
            .map(|i| wl.rate_for_load(4, 0.2 * i as f64))
            .collect();
        let spec = RunSpec {
            workload: wl,
            process: ArrivalProcess::Poisson,
            rate_rps: 0.0,
            horizon: Nanos::from_millis(8),
            seed: 5,
        };
        let results = tq_harness::sweep(&engine, &spec, &rates, default_jobs());
        let cap = max_rate_under(&results, 100_000.0, |r| r.class(0).p999.as_nanos() as f64);
        assert!(cap.is_some());
    }

    #[test]
    fn max_rate_under_stops_at_first_violation() {
        // Non-monotone series: 2.0 dips back under the budget after the
        // violation at rate 3e5, but only the first crossing counts.
        let base = run_to_record(
            &mut SimEngine::new(tq_queueing::presets::tq(4, Nanos::from_micros(2))),
            &RunSpec {
                workload: table1::exp1(),
                process: ArrivalProcess::Poisson,
                rate_rps: 1.0e5,
                horizon: Nanos::from_millis(1),
                seed: 1,
            },
        );
        // Records differing only in the fields `max_rate_under` reads.
        let results: Vec<RunRecord> = [(1.0e5, 1.5), (2.0e5, 2.5), (3.0e5, 9.0), (4.0e5, 2.0)]
            .into_iter()
            .map(|(rate_rps, overall_slowdown_p999)| RunRecord {
                rate_rps,
                overall_slowdown_p999,
                ..base.clone()
            })
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
    fn rate_grid_scales_with_load() {
        let wl = table1::exp1();
        let rates = rate_grid(&wl, 16, &[0.5, 1.0]);
        assert!((rates[1] / rates[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn formatting() {
        assert_eq!(mrps(4_500_000.0), "4.50");
        assert_eq!(us(Nanos::from_micros(53)), "53.0");
        assert_eq!(us(Nanos::from_millis(20)), ">10ms");
    }
}
