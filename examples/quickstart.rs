//! Quickstart: one pipeline from a workload spec to a per-class tail
//! summary, on both the *model* and the *real runtime*.
//!
//! The same `RunSpec` — Extreme Bimodal (Table 1: 99.5% × 1 µs, 0.5% ×
//! 100 µs), open-loop Poisson arrivals, fixed seed — is run twice
//! through the engine harness:
//!
//! - `SimEngine`: the discrete-event model of the TQ system in virtual
//!   time (deterministic, host-independent);
//! - `RtEngine`: the real `TinyQuanta` server — the submitting thread
//!   as dispatcher, worker threads, forced-multitasking spin jobs, TSC
//!   timestamps — with arrivals paced at wall-clock time.
//!
//! Both drain into the identical metrics path, so the printed rows are
//! directly comparable. On a quiet many-core host the rt rows approach
//! the model; on a loaded or small host they blow up — the model rows
//! are what the paper's numbers look like, the rt rows are what *your
//! machine* does (see EXPERIMENTS.md, "Live-runtime runs").
//!
//! Run with: `cargo run --release --example quickstart`

use tq_core::Nanos;
use tq_harness::{run_to_record, RtEngine, RunRecord, RunSpec, SimEngine};
use tq_runtime::ServerConfig;
use tq_workloads::{table1, ArrivalProcess};

fn print_record(r: &RunRecord) {
    println!(
        "[{}] {} — {} workers, offered {:.2} Mrps, achieved {:.2} Mrps, {} jobs",
        r.engine,
        r.system,
        r.workers,
        r.rate_rps / 1e6,
        r.achieved_rps / 1e6,
        r.completed,
    );
    for c in &r.classes {
        println!(
            "      class {}: n={:<6} p50={:<10} p999={:<10} slowdown_p999={:.1}",
            c.class.0,
            c.count,
            c.p50.to_string(),
            c.p999.to_string(),
            c.slowdown_p999,
        );
    }
    let steals: u64 = r.counters.workers.iter().map(|w| w.steals).sum();
    let quanta: u64 = r.counters.workers.iter().map(|w| w.quanta).sum();
    println!("      {} quanta serviced, {} steals\n", quanta, steals);
}

fn main() {
    let workers = 2;
    let quantum = Nanos::from_micros(5);
    let workload = table1::extreme_bimodal();
    let spec = RunSpec {
        // 20% of the 2-worker capacity: low enough that even an
        // oversubscribed laptop/CI host keeps up with the pacer.
        rate_rps: workload.rate_for_load(workers, 0.2),
        workload,
        process: ArrivalProcess::Poisson,
        horizon: Nanos::from_millis(50),
        seed: 42,
    };

    let mut sim = SimEngine::new(tq_queueing::presets::tq(workers, quantum));
    let model = run_to_record(&mut sim, &spec);
    print_record(&model);

    let mut rt = RtEngine::new(ServerConfig {
        workers,
        quantum,
        ..ServerConfig::default()
    });
    let live = run_to_record(&mut rt, &spec);
    print_record(&live);

    assert!(model.conserved() && live.conserved());
    println!(
        "same spec, same metrics path: model predicted, runtime measured \
         ({} vs {} completions).",
        model.completed, live.completed
    );
}
