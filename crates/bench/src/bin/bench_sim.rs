//! Perf-regression harness for the simulation engine itself.
//!
//! Times three things the experiment pipeline spends nearly all its
//! time on and writes a machine-readable baseline to `BENCH_sim.json`
//! (schema `tq-bench-sim/v3`):
//!
//! 1. **Sweep throughput** — a canonical two-system sweep over the
//!    standard load grid (TQ and Shinjuku on extreme-bimodal), serial
//!    and with the parallel harness, reported as points/sec, simulator
//!    events/sec, and ns/event, with a per-model breakdown (two-level
//!    vs centralized engine) so a regression can be localized to one
//!    engine. The parallel arm always requests at least 2 jobs so it
//!    exercises the threaded sweep path even on single-core hosts; the
//!    recorded `host_cores` says how much parallelism was really there.
//! 2. **Rack throughput** — a multi-server rack sweep on the sharded
//!    PDES core, once with a single thread (the serial reference
//!    schedule) and once with one thread per shard (clamped to the
//!    host's cores). Aggregate events/sec across all shards is the
//!    scaling signal; on a multi-core host the sharded arm should beat
//!    the single-server serial engines.
//! 3. **Summarize cost** — `ClassRecorder::summarize_all` on a large
//!    synthetic completion set, in ns/completion, against the seed's
//!    multi-pass implementation (`tq_sim::metrics::reference`), whose
//!    ratio is the pipeline's speedup.
//!
//! ```text
//! cargo run --release -p tq-bench --bin bench_sim             # full baseline
//! cargo run --release -p tq-bench --bin bench_sim -- --quick  # CI smoke (~seconds)
//! cargo run --release -p tq-bench --bin bench_sim -- --check  # perf gate vs committed baseline
//! cargo run --release -p tq-bench --bin bench_sim -- --quick --workload bursty --adaptive
//!                                  # ad-hoc: hostile preset + adaptive quantum (no baseline write)
//! ```
//!
//! `--check` runs the quick sweeps (best of 2 trials) and exits
//! non-zero if serial events/sec regressed more than
//! [`CHECK_TOLERANCE`] — or the sharded rack arm more than
//! [`RACK_CHECK_TOLERANCE`] — against the committed `BENCH_sim.json`;
//! it never rewrites the baseline. Events/sec is a rate, so quick CI
//! runs gate against the committed full baseline. The rack arm is
//! gated only when the baseline's `threads` equals this run's (it
//! follows the host's cores), else loudly skipped. Full mode keeps the
//! best of 5 trials per engine, so the committed number measures the
//! code, not host noise.
//!
//! `TQ_SIM_MILLIS`, `TQ_SEED`, and `TQ_JOBS` apply as everywhere else.
//! Comparing two checkouts: run with the same settings and diff the
//! JSON; points/sec and ns/event are the regression signals.

use std::time::Instant;
use tq_bench::host_cores;
use tq_core::{costs, Nanos};
use tq_queueing::rack::{simulate_rack_into, RackPolicy, RackSpec};
use tq_queueing::{presets, sweep_jobs_process, Architecture, SystemConfig};
use tq_sim::metrics::reference;
use tq_sim::{ClassRecorder, SimRng};
use tq_workloads::{table1, ArrivalGen, ArrivalProcess, Workload};

/// `--check` fails when serial events/sec drops below this fraction of
/// the committed baseline (>25% regression).
const CHECK_TOLERANCE: f64 = 0.75;

/// `--check` floor for the sharded rack arm: looser than the serial
/// gate because its thread count tracks the host's core count.
const RACK_CHECK_TOLERANCE: f64 = 0.70;

/// Servers in the benchmark rack (shards = servers + 1 scheduler).
const RACK_SERVERS: usize = 4;

/// One system's share of a sweep measurement, keyed by which engine
/// (two-level or centralized) it exercises.
struct ModelMeasure {
    model: &'static str,
    system: String,
    points: usize,
    elapsed_s: f64,
    trials: usize,
    events: u64,
    completions: u64,
}

impl ModelMeasure {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_s
    }

    fn ns_per_event(&self) -> f64 {
        self.elapsed_s * 1e9 / self.events as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"model\": \"{}\", \"system\": \"{}\", \"points\": {}, ",
                "\"elapsed_s\": {:.6}, \"trials\": {}, \"sim_events\": {}, ",
                "\"completions\": {}, ",
                "\"events_per_sec\": {:.0}, \"ns_per_event\": {:.2}}}"
            ),
            self.model,
            self.system,
            self.points,
            self.elapsed_s,
            self.trials,
            self.events,
            self.completions,
            self.events_per_sec(),
            self.ns_per_event(),
        )
    }
}

struct SweepMeasure {
    label: &'static str,
    jobs: usize,
    per_model: Vec<ModelMeasure>,
}

impl SweepMeasure {
    fn points(&self) -> usize {
        self.per_model.iter().map(|m| m.points).sum()
    }

    fn elapsed_s(&self) -> f64 {
        self.per_model.iter().map(|m| m.elapsed_s).sum()
    }

    fn events(&self) -> u64 {
        self.per_model.iter().map(|m| m.events).sum()
    }

    fn completions(&self) -> u64 {
        self.per_model.iter().map(|m| m.completions).sum()
    }

    fn points_per_sec(&self) -> f64 {
        self.points() as f64 / self.elapsed_s()
    }

    fn events_per_sec(&self) -> f64 {
        self.events() as f64 / self.elapsed_s()
    }

    fn ns_per_event(&self) -> f64 {
        self.elapsed_s() * 1e9 / self.events() as f64
    }

    fn json(&self) -> String {
        let per_model: Vec<String> = self.per_model.iter().map(|m| m.json()).collect();
        format!(
            concat!(
                "{{\"label\": \"{}\", \"jobs\": {}, \"points\": {}, ",
                "\"elapsed_s\": {:.6}, \"sim_events\": {}, \"completions\": {}, ",
                "\"points_per_sec\": {:.2}, \"events_per_sec\": {:.0}, ",
                "\"ns_per_event\": {:.2},\n",
                "     \"per_model\": [\n      {}\n     ]}}"
            ),
            self.label,
            self.jobs,
            self.points(),
            self.elapsed_s(),
            self.events(),
            self.completions(),
            self.points_per_sec(),
            self.events_per_sec(),
            self.ns_per_event(),
            per_model.join(",\n      "),
        )
    }
}

fn measure_sweep(
    label: &'static str,
    systems: &[SystemConfig],
    workload: &Workload,
    process: ArrivalProcess,
    loads: &[f64],
    jobs: usize,
    trials: usize,
) -> SweepMeasure {
    let duration = tq_bench::sim_duration();
    let per_model = systems
        .iter()
        .map(|cfg| {
            let rates = tq_bench::rate_grid(workload, cfg.n_workers, loads);
            // The sweep is deterministic, so trials differ only in wall
            // time; keep the fastest (criterion-style) — on a shared host
            // the minimum is the trial least polluted by scheduler noise.
            let mut elapsed_s = f64::INFINITY;
            let mut results = Vec::new();
            for _ in 0..trials.max(1) {
                let start = Instant::now();
                results = sweep_jobs_process(
                    cfg,
                    workload,
                    process,
                    &rates,
                    duration,
                    tq_bench::seed(),
                    jobs,
                );
                elapsed_s = elapsed_s.min(start.elapsed().as_secs_f64());
            }
            ModelMeasure {
                model: match cfg.arch {
                    Architecture::TwoLevel { .. } => "two_level",
                    Architecture::Centralized => "centralized",
                },
                system: cfg.name.clone(),
                points: results.len(),
                elapsed_s,
                trials: trials.max(1),
                events: results.iter().map(|r| r.sim_events).sum(),
                completions: results.iter().map(|r| r.completed as u64).sum(),
            }
        })
        .collect();
    SweepMeasure {
        label,
        jobs,
        per_model,
    }
}

/// One rack sweep's measurement on the sharded PDES core.
struct RackMeasure {
    label: &'static str,
    n_servers: usize,
    /// Threads requested (the PDES pool clamps to shard count).
    threads: usize,
    points: usize,
    elapsed_s: f64,
    trials: usize,
    events: u64,
    completions: u64,
    windows: u64,
    messages: u64,
}

impl RackMeasure {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_s
    }

    fn ns_per_event(&self) -> f64 {
        self.elapsed_s * 1e9 / self.events as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"label\": \"{}\", \"n_servers\": {}, \"threads\": {}, ",
                "\"points\": {}, \"elapsed_s\": {:.6}, \"trials\": {}, ",
                "\"sim_events\": {}, \"completions\": {}, \"windows\": {}, ",
                "\"messages\": {}, \"events_per_sec\": {:.0}, ",
                "\"ns_per_event\": {:.2}}}"
            ),
            self.label,
            self.n_servers,
            self.threads,
            self.points,
            self.elapsed_s,
            self.trials,
            self.events,
            self.completions,
            self.windows,
            self.messages,
            self.events_per_sec(),
            self.ns_per_event(),
        )
    }
}

/// Sweeps the benchmark rack over the load grid with a given PDES
/// thread count, keeping the fastest trial (same protocol as
/// [`measure_sweep`]). The offered rate scales with the server count so
/// each server sees the single-server per-load rate.
fn measure_rack(
    label: &'static str,
    spec: &RackSpec,
    workload: &Workload,
    loads: &[f64],
    threads: usize,
    trials: usize,
) -> RackMeasure {
    let duration = tq_bench::sim_duration();
    let rates: Vec<f64> = tq_bench::rate_grid(workload, spec.server.n_workers, loads)
        .iter()
        .map(|r| r * spec.n_servers as f64)
        .collect();
    let mut elapsed_s = f64::INFINITY;
    let mut events = 0;
    let mut completions = 0;
    let mut windows = 0;
    let mut messages = 0;
    let mut buf = Vec::new();
    for _ in 0..trials.max(1) {
        (events, completions, windows, messages) = (0, 0, 0, 0);
        let start = Instant::now();
        for &rate in &rates {
            let gen = ArrivalGen::new(workload.clone(), rate, SimRng::new(tq_bench::seed()));
            let stats = simulate_rack_into(
                spec,
                gen,
                duration,
                tq_bench::seed(),
                threads,
                &mut buf,
            );
            events += stats.events;
            completions += buf.len() as u64;
            windows += stats.windows;
            messages += stats.messages;
        }
        elapsed_s = elapsed_s.min(start.elapsed().as_secs_f64());
    }
    RackMeasure {
        label,
        n_servers: spec.n_servers,
        threads,
        points: rates.len(),
        elapsed_s,
        trials: trials.max(1),
        events,
        completions,
        windows,
        messages,
    }
}

/// Synthetic completion set with the workload's true class/size mix and
/// dispersed finish times — what the summarizer sees after a real run.
fn synthetic_completions(n: usize, seed: u64) -> Vec<tq_core::job::Completion> {
    let mut gen = ArrivalGen::new(table1::extreme_bimodal(), 4.0e6, SimRng::new(seed));
    let mut jitter = SimRng::new(seed ^ 0xFEED);
    (0..n)
        .map(|_| {
            let r = gen.next_request();
            // Sojourn between 1x and ~21x the service time.
            let wait = r.service.scale(20.0 * jitter.f64());
            tq_core::job::Completion {
                id: r.id,
                class: r.class,
                arrival: r.arrival,
                service: r.service,
                finish: r.arrival + r.service + wait,
            }
        })
        .collect()
}

struct SummarizeMeasure {
    completions: usize,
    reps: usize,
    single_pass_ns: f64,
    multi_pass_ns: f64,
}

impl SummarizeMeasure {
    fn speedup(&self) -> f64 {
        self.multi_pass_ns / self.single_pass_ns
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"completions\": {}, \"reps\": {}, ",
                "\"single_pass_ns_per_completion\": {:.2}, ",
                "\"multi_pass_ns_per_completion\": {:.2}, \"speedup\": {:.2}}}"
            ),
            self.completions,
            self.reps,
            self.single_pass_ns,
            self.multi_pass_ns,
            self.speedup(),
        )
    }
}

fn measure_summarize(n: usize, reps: usize) -> SummarizeMeasure {
    let completions = synthetic_completions(n, tq_bench::seed());
    let warmup = tq_queueing::run::WARMUP_FRAC;

    // Reps interleave the two implementations and the best rep is kept:
    // on a shared/oversubscribed host the minimum is the measurement
    // least polluted by scheduler noise and first-touch page faults.
    let mut single_best = f64::INFINITY;
    let mut multi_best = f64::INFINITY;
    for _ in 0..reps {
        // Single pass: record + summarize_all, exactly run_once's usage.
        let start = Instant::now();
        let mut rec = ClassRecorder::with_capacity(warmup, completions.len());
        for c in &completions {
            rec.record(*c);
        }
        std::hint::black_box(rec.summarize_all(costs::NETWORK_RTT));
        single_best = single_best.min(start.elapsed().as_nanos() as f64 / n as f64);

        // The seed pipeline: two summaries plus the overall slowdown,
        // each cloning, sorting, and filtering from scratch.
        let start = Instant::now();
        std::hint::black_box(reference::summarize_all(
            &completions,
            warmup,
            costs::NETWORK_RTT,
        ));
        multi_best = multi_best.min(start.elapsed().as_nanos() as f64 / n as f64);
    }

    SummarizeMeasure {
        completions: n,
        reps,
        single_pass_ns: single_best,
        multi_pass_ns: multi_best,
    }
}

/// Extracts `"<field>": <number>` from the sweep object labeled
/// `label` in a committed `BENCH_sim.json` (v1 or v2 — the field order
/// puts the sweep total before any `per_model` entries).
fn baseline_field(json: &str, label: &str, field: &str) -> Option<f64> {
    let at = json.find(&format!("\"{label}\""))?;
    let rest = &json[at..];
    let key = format!("\"{field}\": ");
    let v = &rest[rest.find(&key)? + key.len()..];
    let end = v.find([',', '}', '\n'])?;
    v[..end].trim().parse().ok()
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut policy: Option<String> = None;
    let mut hostile: Option<String> = None;
    let mut adaptive = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--adaptive" => adaptive = true,
            "--policy" => {
                policy = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--policy needs a preset name");
                    std::process::exit(2);
                }));
            }
            "--workload" => {
                hostile = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--workload needs a preset name");
                    std::process::exit(2);
                }));
            }
            _ => {
                eprintln!(
                    "unknown argument {a:?} (supported: --quick, --check, --policy NAME, \
                     --workload NAME, --adaptive)"
                );
                std::process::exit(2);
            }
        }
    }
    if (policy.is_some() || hostile.is_some() || adaptive) && check {
        // The committed baseline measures the canonical two-system sweep;
        // gating a different sweep against it would be meaningless.
        eprintln!("--policy/--workload/--adaptive cannot be combined with --check");
        std::process::exit(2);
    }
    // The gate compares rates, not totals, so it always uses the short
    // grid: regressions show up at any horizon.
    quick |= check;
    let cores = host_cores();
    // At least 2 so the parallel arm is a real multi-job measurement
    // even when TQ_JOBS/available_parallelism says 1.
    let jobs = tq_queueing::default_jobs().max(2);
    // A hostile preset runs at its catalog load (overload really means
    // λ > µ); otherwise the standard grid.
    let preset_load;
    let loads: &[f64] = if let Some(name) = &hostile {
        preset_load = [tq_bench::workload_or_exit(name).load];
        &preset_load
    } else if quick {
        &[0.5, 0.8]
    } else {
        &tq_bench::LOAD_SWEEP
    };
    let mut systems = match &policy {
        // A named preset sweeps alone; the default pair is the committed
        // baseline's canonical TQ-vs-Shinjuku measurement.
        Some(name) => vec![tq_bench::policy_or_exit(name, 16, Nanos::from_micros(2))],
        None => vec![
            presets::tq(16, Nanos::from_micros(2)),
            presets::shinjuku(16, Nanos::from_micros(5)),
        ],
    };
    if adaptive {
        systems = systems
            .into_iter()
            .map(|s| s.with_controller(tq_core::adaptive::ControllerConfig::default()))
            .collect();
    }
    // `--workload NAME` swaps a hostile-traffic preset's workload *and*
    // arrival process into the sweep (ad-hoc, like --policy: the
    // committed baseline stays canonical).
    let (workload, process) = match &hostile {
        Some(name) => {
            let p = tq_bench::workload_or_exit(name);
            (p.workload, p.process)
        }
        None => (table1::extreme_bimodal(), ArrivalProcess::Poisson),
    };

    println!(
        "bench_sim ({})",
        if check {
            "check"
        } else if quick {
            "quick"
        } else {
            "full"
        }
    );
    println!(
        "sim horizon {} per point, seed {}, {jobs} jobs, {cores} host core(s)",
        tq_bench::sim_duration(),
        tq_bench::seed()
    );
    if hostile.is_some() || adaptive {
        println!(
            "workload {} ({} arrivals){}",
            workload.name(),
            process.name(),
            if adaptive { ", adaptive quantum" } else { "" }
        );
    }
    println!();

    // Full mode takes the best of 5 trials per engine so the committed
    // baseline reflects the code's cost, not the host's noise floor
    // (observed slow phases last seconds and span whole 3-trial runs).
    // The gate takes 2 (a falsely slow single trial could trip the 25%
    // tolerance on a noisy runner); the plain CI smoke stays at 1.
    let trials = if check {
        2
    } else if quick {
        1
    } else {
        5
    };
    let serial = measure_sweep("sweep_serial", &systems, &workload, process, loads, 1, trials);
    println!(
        "sweep serial:   {:>3} points in {:.2}s — {:.2} points/s, {:.2}M events/s ({:.1} ns/event)",
        serial.points(),
        serial.elapsed_s(),
        serial.points_per_sec(),
        serial.events_per_sec() / 1e6,
        serial.ns_per_event(),
    );
    for m in &serial.per_model {
        println!(
            "  {:<12} {:.2}M events/s ({:.1} ns/event) over {} points [{}]",
            m.model,
            m.events_per_sec() / 1e6,
            m.ns_per_event(),
            m.points,
            m.system,
        );
    }

    // The rack arms share the load grid; per-server workers stay at 16
    // so the sharded arm's per-shard work matches the serial engines.
    let rack_spec = {
        let mut s = RackSpec::new(presets::tq(16, Nanos::from_micros(2)), RACK_SERVERS);
        s.policy = RackPolicy::PowerOfK(2);
        s
    };
    let rack_threads = (RACK_SERVERS + 1).min(cores);

    if check {
        let committed = std::fs::read_to_string("BENCH_sim.json")
            .expect("--check needs a committed BENCH_sim.json");
        let baseline = baseline_field(&committed, "sweep_serial", "events_per_sec")
            .expect("BENCH_sim.json has no sweep_serial events_per_sec");
        let current = serial.events_per_sec();
        let ratio = current / baseline;
        println!();
        println!(
            "perf gate: {:.2}M events/s vs committed {:.2}M events/s — {:.0}% (floor {:.0}%)",
            current / 1e6,
            baseline / 1e6,
            ratio * 100.0,
            CHECK_TOLERANCE * 100.0,
        );
        if ratio < CHECK_TOLERANCE {
            eprintln!(
                "PERF REGRESSION: serial events/sec fell to {:.0}% of the committed baseline",
                ratio * 100.0
            );
            std::process::exit(1);
        }
        // Sharded-engine scaling arm: same protocol against the
        // committed rack_sharded baseline, with the looser floor.
        let sharded = measure_rack(
            "rack_sharded",
            &rack_spec,
            &workload,
            loads,
            rack_threads,
            trials,
        );
        println!(
            "rack sharded:   {:>3} points in {:.2}s — {:.2}M events/s ({} threads, {} windows)",
            sharded.points,
            sharded.elapsed_s,
            sharded.events_per_sec() / 1e6,
            sharded.threads,
            sharded.windows,
        );
        // A baseline from another thread count measures the host, not the code.
        let base_threads = baseline_field(&committed, "rack_sharded", "threads").unwrap_or(0.0);
        match baseline_field(&committed, "rack_sharded", "events_per_sec") {
            Some(_) if base_threads != sharded.threads as f64 => println!(
                "rack gate: baseline recorded at {base_threads} threads, this run {} (skipped)",
                sharded.threads
            ),
            Some(rack_baseline) => {
                let ratio = sharded.events_per_sec() / rack_baseline;
                println!(
                    "rack gate: {:.2}M events/s vs committed {:.2}M events/s — {:.0}% (floor {:.0}%)",
                    sharded.events_per_sec() / 1e6,
                    rack_baseline / 1e6,
                    ratio * 100.0,
                    RACK_CHECK_TOLERANCE * 100.0,
                );
                if ratio < RACK_CHECK_TOLERANCE {
                    eprintln!(
                        "PERF REGRESSION: sharded rack events/sec fell to {:.0}% of the committed baseline",
                        ratio * 100.0
                    );
                    std::process::exit(1);
                }
            }
            None => {
                println!("rack gate: no rack_sharded entry in committed BENCH_sim.json (skipped)");
            }
        }
        println!("perf gate passed");
        return;
    }

    let parallel =
        measure_sweep("sweep_parallel", &systems, &workload, process, loads, jobs, trials);
    println!(
        "sweep {:>2} jobs:  {:>3} points in {:.2}s — {:.2} points/s, {:.2}M events/s ({:.1} ns/event)",
        parallel.jobs,
        parallel.points(),
        parallel.elapsed_s(),
        parallel.points_per_sec(),
        parallel.events_per_sec() / 1e6,
        parallel.ns_per_event(),
    );

    let rack_serial = measure_rack("rack_serial", &rack_spec, &workload, loads, 1, trials);
    let rack_sharded = measure_rack(
        "rack_sharded",
        &rack_spec,
        &workload,
        loads,
        rack_threads,
        trials,
    );
    println!();
    for m in [&rack_serial, &rack_sharded] {
        println!(
            "{:<15} {:>3} points in {:.2}s — {:.2}M events/s ({:.1} ns/event, {} threads, {} windows, {} msgs)",
            m.label,
            m.points,
            m.elapsed_s,
            m.events_per_sec() / 1e6,
            m.ns_per_event(),
            m.threads,
            m.windows,
            m.messages,
        );
    }

    let (n, reps) = if quick { (200_000, 3) } else { (2_000_000, 5) };
    let s = measure_summarize(n, reps);
    println!();
    println!(
        "summarize_all:  {:.1} ns/completion single-pass vs {:.1} ns/completion multi-pass — {:.2}x",
        s.single_pass_ns,
        s.multi_pass_ns,
        s.speedup()
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"tq-bench-sim/v3\",\n",
            "  \"quick\": {},\n",
            "  \"sim_millis\": {},\n",
            "  \"seed\": {},\n",
            "  \"jobs\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"sweeps\": [\n    {},\n    {}\n  ],\n",
            "  \"racks\": [\n    {},\n    {}\n  ],\n",
            "  \"summarize\": {}\n",
            "}}\n"
        ),
        quick,
        tq_bench::sim_duration().as_nanos() / 1_000_000,
        tq_bench::seed(),
        jobs,
        cores,
        serial.json(),
        parallel.json(),
        rack_serial.json(),
        rack_sharded.json(),
        s.json(),
    );
    println!();
    if policy.is_some() || hostile.is_some() || adaptive {
        // A named-policy/workload/adaptive sweep is an ad-hoc
        // measurement; the committed baseline only ever records the
        // canonical two-system sweep.
        println!("(--policy/--workload/--adaptive run: BENCH_sim.json left untouched)");
    } else {
        std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
        println!("wrote BENCH_sim.json");
    }
}
