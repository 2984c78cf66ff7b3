//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index) and prints the same series
//! the paper plots. Common knobs come from the environment:
//!
//! * `TQ_SIM_MILLIS` — simulated seconds of arrivals per point
//!   (default 80 ms; the paper runs 10 s — larger values sharpen the
//!   99.9th percentiles at proportional cost).
//! * `TQ_SEED` — the run seed (default 42).
//! * `TQ_JOBS` — worker threads for independent sweep points (default:
//!   all cores). Results are identical at any setting; see
//!   [`tq_queueing::default_jobs`].

use tq_core::Nanos;
use tq_workloads::Workload;

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
pub fn policy_or_exit(name: &str, n_workers: usize, quantum: Nanos) -> tq_queueing::SystemConfig {
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
pub fn server_config_for(preset: &tq_queueing::SystemConfig) -> tq_runtime::ServerConfig {
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
pub fn compare_systems(systems: &[tq_queueing::SystemConfig], workload: &Workload) {
    compare_systems_with_loads(systems, workload, &LOAD_SWEEP);
}

/// [`compare_systems`] with a custom load sweep — used when a baseline's
/// capacity is far below the default 35%-of-16-cores starting point
/// (e.g. Shinjuku on Exp(1), whose dispatcher saturates first).
pub fn compare_systems_with_loads(
    systems: &[tq_queueing::SystemConfig],
    workload: &Workload,
    loads: &[f64],
) {
    let duration = sim_duration();
    let results: Vec<Vec<tq_queueing::RunResult>> = systems
        .iter()
        .map(|cfg| {
            let rates = rate_grid(workload, cfg.n_workers, loads);
            tq_queueing::sweep(cfg, workload, &rates, duration, seed())
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
pub fn better_caladan(workload: &Workload) -> tq_queueing::SystemConfig {
    let duration = sim_duration();
    let budget = Nanos::from_micros(50);
    let score = |cfg: &tq_queueing::SystemConfig| -> usize {
        LOAD_SWEEP
            .iter()
            .take_while(|&&l| {
                let r = tq_queueing::run_once(
                    cfg,
                    workload,
                    workload.rate_for_load(cfg.n_workers, l),
                    duration,
                    seed(),
                );
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
