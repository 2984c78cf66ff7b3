//! Live-runtime experiment driver: runs a bimodal `WorkloadSpec`
//! end-to-end through the real [`TinyQuanta`] server (and, for
//! comparison, the discrete-event model of the same system) via the
//! engine-agnostic harness, and writes both to `results/bench_rt.json`
//! in the shared `tq-run/v1` schema.
//!
//! ```text
//! cargo run --release -p tq-bench --bin bench_rt                 # sim + rt comparison
//! cargo run --release -p tq-bench --bin bench_rt -- --engine rt  # runtime only
//! cargo run --release -p tq-bench --bin bench_rt -- --smoke      # CI gate: ≤1s, 2 workers
//! cargo run --release -p tq-bench --bin bench_rt -- --workload bursty --adaptive
//!                                  # hostile-traffic preset + adaptive-quantum controller
//! ```
//!
//! Every run is checked for the conservation invariant (submitted ==
//! completed, no duplicated `JobId`) and a non-empty summary; any
//! violation exits non-zero, which is what the CI smoke job gates on.
//!
//! Real-time numbers depend on the host: workers here are oversubscribed
//! OS threads, not dedicated cores, so absolute latencies on a shared CI
//! box are **not** the paper's — see EXPERIMENTS.md ("Live-runtime runs")
//! before reading anything into them. Conservation and summary shape are
//! host-independent; that is what the smoke mode asserts.
//!
//! Knobs: `TQ_RT_WORKERS` (default 2),
//! `TQ_RT_MILLIS` (arrival horizon, default 80 full / 40 smoke),
//! `TQ_SEED` as everywhere else, and
//! `TQ_AUDIT` (default on; `TQ_AUDIT=0` disables the invariant auditor).
//! With auditing on, every run also carries a `tq_audit` report —
//! conservation with named drops, exactly-once ids, per-ring FIFO,
//! timestamp monotonicity, counter agreement — and any violation fails
//! the process just like the built-in checks.
//!
//! [`TinyQuanta`]: tq_runtime::TinyQuanta

use tq_core::adaptive::ControllerConfig;
use tq_core::Nanos;
use tq_harness::{json, Engine, RtEngine, RunRecord, RunSpec, SimEngine};
use tq_runtime::ServerConfig;
use tq_workloads::{table1, ArrivalProcess};

#[derive(Clone, Copy, PartialEq)]
enum EngineChoice {
    Sim,
    Rt,
    Both,
}

struct Args {
    engine: EngineChoice,
    smoke: bool,
    policy: Option<String>,
    /// `--workload NAME`: a hostile-traffic preset from
    /// `tq_workloads::hostile` instead of the default bimodal sweep.
    workload: Option<String>,
    /// `--adaptive`: attach the default adaptive-quantum controller to
    /// both engines (the sim via `SystemConfig::with_controller`, the
    /// runtime via `RtEngine::with_controller`).
    adaptive: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        engine: EngineChoice::Both,
        smoke: false,
        policy: None,
        workload: None,
        adaptive: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => parsed.smoke = true,
            "--adaptive" => parsed.adaptive = true,
            "--policy" => {
                parsed.policy = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--policy needs a preset name");
                    std::process::exit(2);
                }));
            }
            "--workload" => {
                parsed.workload = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--workload needs a preset name");
                    std::process::exit(2);
                }));
            }
            "--engine" => {
                let v = args.next().unwrap_or_default();
                parsed.engine = match v.as_str() {
                    "sim" => EngineChoice::Sim,
                    "rt" => EngineChoice::Rt,
                    "both" | "all" => EngineChoice::Both,
                    _ => {
                        eprintln!("--engine takes sim|rt|both, got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            _ => {
                eprintln!(
                    "unknown argument {a:?} (supported: --engine sim|rt|both, --smoke, \
                     --policy NAME, --workload NAME, --adaptive)"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn rt_horizon(smoke: bool) -> Nanos {
    let default_ms = if smoke { 40 } else { 80 };
    let ms = std::env::var("TQ_RT_MILLIS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_ms);
    Nanos::from_millis(ms.max(1))
}

/// Conservation and summary-shape checks shared by every run. Returns
/// the violations found (empty = clean).
fn check_record(r: &RunRecord, completions_ids: &[u64]) -> Vec<String> {
    let mut violations = Vec::new();
    if !r.conserved() {
        violations.push(format!(
            "conservation: submitted {} != completed {}",
            r.submitted, r.completed
        ));
    }
    let mut ids = completions_ids.to_vec();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() as u64 != r.completed {
        violations.push(format!(
            "duplicated JobId: {} unique of {} completions",
            ids.len(),
            r.completed
        ));
    }
    if r.classes.is_empty() || r.classes_sojourn.is_empty() {
        violations.push("empty summary".to_string());
    }
    violations
}

/// Runs one spec through `engine`, prints its headline and per-worker
/// counters, and returns the record plus any invariant violations.
fn run_and_report(engine: &mut dyn Engine, spec: &RunSpec, load: f64) -> (RunRecord, Vec<String>) {
    // Re-run the engine output through the harness to keep the ids for
    // the duplication check (run_to_record consumes the completions).
    let mut out = engine.run(spec, spec.arrivals(), spec.horizon);
    let ids: Vec<u64> = out.completions.iter().map(|c| c.id.0).collect();
    let completed = out.completions.len() as u64;
    let audit = out.audit.take();
    let controller = out.controller.take();
    let summary = tq_harness::summarize(&mut out.completions);
    let record = RunRecord {
        engine: engine.kind().as_str(),
        model: engine.model(),
        system: engine.system(),
        workload: spec.workload.name().to_string(),
        process: spec.process.name(),
        workers: engine.workers(),
        rate_rps: spec.rate_rps,
        horizon: spec.horizon,
        seed: spec.seed,
        submitted: out.submitted,
        completed,
        in_horizon: out.in_horizon,
        achieved_rps: out.in_horizon as f64 / spec.horizon.as_secs_f64(),
        classes: summary.classes_e2e,
        classes_sojourn: summary.classes_sojourn,
        overall_slowdown_p999: summary.overall_slowdown_p999,
        counters: out.counters,
        policy: engine.policy_meta(),
        audit,
        rack: engine.take_rack_meta(),
        net: None,
        controller,
    };
    let mut violations = check_record(&record, &ids);
    if let Some(report) = &record.audit {
        for v in &report.violations {
            violations.push(format!("audit[{}] {v}", report.context));
        }
    }

    println!(
        "[{}] {:<28} load {:.0}%  rate {} Mrps  achieved {} Mrps  submitted {}  completed {}",
        record.engine,
        record.system,
        load * 100.0,
        tq_bench::mrps(record.rate_rps),
        tq_bench::mrps(record.achieved_rps),
        record.submitted,
        record.completed,
    );
    for c in &record.classes {
        println!(
            "      class {}: n {:>7}  p50 {:>8}  p999 {:>8}  (us, e2e)  slowdown_p999 {:.1}",
            c.class.0,
            c.count,
            tq_bench::us(c.p50),
            tq_bench::us(c.p999),
            c.slowdown_p999,
        );
    }
    // Satellite of the shutdown-path refactor: worker counters are
    // surfaced here instead of being dropped at shutdown.
    println!(
        "      {:>6} {:>12} {:>12} {:>8} {:>9}",
        "worker", "quanta", "completed", "steals", "ring_max"
    );
    for (i, w) in record.counters.workers.iter().enumerate() {
        println!(
            "      {:>6} {:>12} {:>12} {:>8} {:>9}",
            i, w.quanta, w.completed, w.steals, w.max_ring_occupancy
        );
    }
    if let Some(c) = &record.controller {
        println!(
            "      controller: final quantum {}  (windows {}, empty {}, grows {}, shrinks {}, range {}..{})",
            c.final_quantum,
            c.stats.windows,
            c.stats.empty_windows,
            c.stats.grows,
            c.stats.shrinks,
            c.stats.min_quantum_seen,
            c.stats.max_quantum_seen,
        );
    }
    if let Some(report) = &record.audit {
        println!("      {report}");
    }
    for v in &violations {
        eprintln!("      INVARIANT VIOLATION: {v}");
    }
    println!();
    (record, violations)
}

fn main() {
    let args = parse_args();
    let (choice, smoke) = (args.engine, args.smoke);
    let audit = tq_bench::audit_enabled();
    let workers = tq_bench::rt_workers();
    let horizon = rt_horizon(smoke);
    let seed = tq_bench::seed();
    // Default: the bimodal sweep at conservative loads (the live workers
    // are oversubscribed OS threads on whatever host runs this, not
    // dedicated cores at paper capacity). `--workload NAME` swaps in one
    // hostile-traffic preset at its catalog load — including >1.0 for
    // the sustained-overload scenario.
    let (workload, process, loads): (_, _, Vec<f64>) = match args.workload.as_deref() {
        Some(name) => {
            let p = tq_bench::workload_or_exit(name);
            (p.workload, p.process, vec![p.load])
        }
        None => {
            let loads: &[f64] = if smoke { &[0.2] } else { &[0.2, 0.4] };
            (table1::extreme_bimodal(), ArrivalProcess::Poisson, loads.to_vec())
        }
    };
    let quantum = Nanos::from_micros(5);
    // One preset drives both engines: the sim runs it verbatim, the
    // runtime takes its dispatch/discipline/stealing via the shared
    // mapping — the same policy impl on both sides of the comparison.
    let mut preset = tq_bench::policy_or_exit(args.policy.as_deref().unwrap_or("tq"), workers, quantum);
    if args.adaptive {
        preset = preset.with_controller(ControllerConfig::default());
    }

    println!(
        "bench_rt ({}): {} workers, horizon {}, seed {}, audit {}, policy {}, workload {}{}",
        if smoke { "smoke" } else { "full" },
        workers,
        horizon,
        seed,
        if audit { "on" } else { "off" },
        preset.name,
        workload.name(),
        if args.adaptive { ", adaptive quantum" } else { "" },
    );
    println!();

    let mut records: Vec<RunRecord> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for &load in &loads {
        let spec = RunSpec {
            workload: workload.clone(),
            process,
            rate_rps: workload.rate_for_load(workers, load),
            horizon,
            seed,
        };
        if choice != EngineChoice::Rt {
            let mut sim = SimEngine::new(preset.clone()).with_audit(audit);
            let (rec, viol) = run_and_report(&mut sim, &spec, load);
            records.push(rec);
            violations.extend(viol);
        }
        if choice != EngineChoice::Sim {
            let base = ServerConfig {
                seed,
                audit,
                ..tq_bench::server_config_for(&preset)
            };
            let mut configs = vec![base.clone()];
            if !smoke && args.policy.is_none() && args.workload.is_none() {
                configs.push(ServerConfig {
                    work_stealing: true,
                    ..base
                });
            }
            for config in configs {
                let mut rt = RtEngine::new(config);
                if args.adaptive {
                    rt = rt.with_controller(ControllerConfig::default());
                }
                let (rec, viol) = run_and_report(&mut rt, &spec, load);
                records.push(rec);
                violations.extend(viol);
            }
        }
    }

    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/bench_rt.json";
    std::fs::write(path, json::document(&records)).expect("write bench_rt.json");
    println!("wrote {path} ({} runs, schema {})", records.len(), json::SCHEMA);

    if !violations.is_empty() {
        eprintln!("\n{} invariant violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!(
        "all invariants held (conservation, unique ids, non-empty summaries{})",
        if audit { ", audit clean" } else { "" }
    );
}
