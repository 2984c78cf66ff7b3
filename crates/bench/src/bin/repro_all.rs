//! Reproduce everything: runs every figure/table binary, writing each
//! one's output under `results/`.
//!
//! ```text
//! cargo run --release -p tq-bench --bin repro_all            # default horizons
//! TQ_SIM_MILLIS=500 cargo run --release -p tq-bench --bin repro_all
//! cargo run --release -p tq-bench --bin repro_all -- --jobs 4
//! cargo run --release -p tq-bench --bin repro_all -- --engine rt   # live runtime only
//! ```
//!
//! `--engine sim` (the default) runs the figure/table simulations;
//! `--engine rt` runs the live-runtime experiment (`bench_rt`, which
//! also writes `results/bench_rt.json`); `--engine all` runs both.
//! Simulation experiments run as child processes, up to `--jobs` (or
//! `TQ_JOBS`, default: all cores) at a time; completion is reported —
//! and outputs written — in the fixed index order regardless of which
//! child finishes first, so logs and `results/` are identical at any
//! parallelism. Live-runtime experiments always run one at a time, after
//! every simulation child has exited: their measurements are wall-clock
//! and must not compete with sibling processes for cores.
//!
//! Binaries are located next to this executable (the cargo target dir),
//! so build the whole package first: `cargo build --release -p tq-bench`.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Every regeneration binary, in DESIGN.md's experiment-index order.
pub const ALL_BINARIES: [&str; 23] = [
    "fig01_quanta_slowdown",
    "fig02_overhead_capacity",
    "fig04_msq_tiebreak",
    "fig05_tq_quanta_short",
    "fig06_tq_quanta_long",
    "fig07_bimodal_comparison",
    "fig08_tpcc",
    "fig09_exp",
    "fig10_rocksdb",
    "fig11_breakdown_fm",
    "fig12_breakdown_tls",
    "fig13_cache_quanta",
    "fig14_cache_tls_ct",
    "fig15_reuse_hist",
    "fig16_dispatcher_scaling",
    "table1_workloads",
    "table2_reuse_analysis",
    "table3_instrumentation",
    "dispatcher_throughput",
    "methodology_prefetch",
    "ext_las",
    "ext_multi_dispatcher",
    "related_concord",
];

/// The live-runtime experiments, run serially after the simulations.
pub const RT_BINARIES: [&str; 1] = ["bench_rt"];

#[derive(Clone, Copy, PartialEq)]
enum EngineChoice {
    Sim,
    Rt,
    All,
}

fn parse_args() -> (usize, EngineChoice) {
    let mut jobs = None;
    let mut engine = EngineChoice::Sim;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" || a == "-j" {
            let v = args.next().unwrap_or_else(|| {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            });
            match v.parse::<usize>() {
                Ok(n) if n > 0 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs needs a positive integer, got {v:?}");
                    std::process::exit(2);
                }
            }
        } else if a == "--engine" {
            let v = args.next().unwrap_or_default();
            engine = match v.as_str() {
                "sim" => EngineChoice::Sim,
                "rt" => EngineChoice::Rt,
                "all" => EngineChoice::All,
                _ => {
                    eprintln!("--engine takes sim|rt|all, got {v:?}");
                    std::process::exit(2);
                }
            };
        } else {
            eprintln!("unknown argument {a:?} (supported: --jobs N, --engine sim|rt|all)");
            std::process::exit(2);
        }
    }
    (jobs.unwrap_or_else(tq_bench::default_jobs), engine)
}

/// Spawns one experiment binary, or records it as failed if missing.
/// `audit` forces the invariant auditor on in the child (the live-runtime
/// phase runs fully audited; a violation fails that experiment).
fn spawn_one<'a>(
    bin_dir: &std::path::Path,
    name: &'a str,
    audit: bool,
    failures: &mut Vec<&'a str>,
) -> Option<Child> {
    let exe = bin_dir.join(name);
    if !exe.exists() {
        eprintln!("missing {name} — run `cargo build --release -p tq-bench` first");
        failures.push(name);
        return None;
    }
    let mut cmd = Command::new(&exe);
    if audit {
        cmd.env("TQ_AUDIT", "1");
    }
    Some(
        cmd.stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn"),
    )
}

/// Waits for a child and writes its stdout under `results/`.
fn harvest_one<'a>(
    out_dir: &std::path::Path,
    name: &'a str,
    child: Child,
    failures: &mut Vec<&'a str>,
) {
    print!("{name:<28}");
    let out = child.wait_with_output().expect("wait");
    let path = out_dir.join(format!("{name}.txt"));
    std::fs::write(&path, &out.stdout).expect("write output");
    if out.status.success() {
        println!("ok -> {}", path.display());
    } else {
        println!("FAILED (status {:?})", out.status.code());
        failures.push(name);
    }
}

fn main() {
    let me = std::env::current_exe().expect("own path");
    let bin_dir = me.parent().expect("target dir").to_path_buf();
    let out_dir = PathBuf::from("results");
    std::fs::create_dir_all(&out_dir).expect("create results/");
    let (jobs, engine) = parse_args();
    let sim: &[&str] = if engine == EngineChoice::Rt { &[] } else { &ALL_BINARIES };
    let rt: &[&str] = if engine == EngineChoice::Sim { &[] } else { &RT_BINARIES };
    let mut failures: Vec<&str> = Vec::new();

    // Simulation phase — a sliding window of spawned children: keep up
    // to `jobs` in flight, but always harvest the oldest first, so
    // output order is fixed regardless of which child finishes first.
    let mut in_flight: VecDeque<(&str, Child)> = VecDeque::new();
    let mut pending = sim.iter();
    loop {
        while in_flight.len() < jobs {
            let Some(&name) = pending.next() else { break };
            if let Some(child) = spawn_one(&bin_dir, name, false, &mut failures) {
                in_flight.push_back((name, child));
            }
        }
        let Some((name, child)) = in_flight.pop_front() else { break };
        harvest_one(&out_dir, name, child, &mut failures);
    }

    // Live-runtime phase — strictly one at a time, after every sim child
    // has exited: these measure real time and must not compete with
    // sibling processes for cores.
    for &name in rt {
        if let Some(child) = spawn_one(&bin_dir, name, true, &mut failures) {
            harvest_one(&out_dir, name, child, &mut failures);
        }
    }

    if failures.is_empty() {
        println!("\nall {} experiments regenerated.", sim.len() + rt.len());
    } else {
        eprintln!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
}
