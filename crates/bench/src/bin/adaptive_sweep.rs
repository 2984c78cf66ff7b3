//! Adaptive-vs-fixed quantum sweep over the hostile-traffic catalog.
//!
//! For every preset in `tq_workloads::hostile` this runs the TQ sim with
//! each quantum in a static grid (1–50 µs) and once with the adaptive
//! controller (`presets::tq_adaptive`), compares the class-blind p999
//! slowdown, and writes `results/adaptive_sweep.json` if acceptance
//! holds. A failing run prints its failures, exits 1 and leaves the
//! file as it was.
//!
//! Acceptance (asserted):
//!   * the controller lands within 10% of the best static quantum on
//!     every workload, and
//!   * strictly beats the worst static quantum on the non-stationary
//!     traffic (`bursty`, `diurnal`) a fixed quantum cannot be tuned for.
//!
//! Knobs: `TQ_SIM_MILLIS` (horizon, default 80), `TQ_SEED`. Keep the
//! horizon ≥ 40 ms: the summary discards a fixed 10% warm-up, and below
//! that the controller's convergence transient (a few ms from the
//! detuned start) leaks into the measured tail.

use tq_core::Nanos;
use tq_harness::engine::{run_to_record, RunRecord, RunSpec};
use tq_harness::sim::SimEngine;
use tq_queueing::presets;
use tq_workloads::hostile;

/// The static quantum grid, in microseconds. Spans the controller's
/// clamp range so "best static" is a fair oracle.
const GRID_US: [u64; 6] = [1, 2, 5, 10, 20, 50];

/// Controller start point: deliberately off the sweet spot for most
/// presets so the sweep demonstrates adaptation, not initialization.
const ADAPTIVE_START: Nanos = Nanos::from_micros(8);

const WORKERS: usize = 8;

struct PresetResult {
    name: &'static str,
    load: f64,
    static_p999: Vec<f64>,
    adaptive: RunRecord,
}

fn run_one(cfg: tq_queueing::SystemConfig, preset: &hostile::TrafficPreset, spec_seed: u64, horizon: Nanos) -> RunRecord {
    let mut engine = SimEngine::new(cfg).with_audit(true);
    let spec = RunSpec {
        workload: preset.workload.clone(),
        process: preset.process,
        rate_rps: preset.workload.rate_for_load(WORKERS, preset.load),
        horizon,
        seed: spec_seed,
    };
    let rec = run_to_record(&mut engine, &spec);
    assert!(rec.conserved(), "{}: lost jobs", preset.name);
    if let Some(audit) = &rec.audit {
        assert!(audit.is_clean(), "{}: audit failed: {audit}", preset.name);
    }
    rec
}

fn main() {
    let horizon = tq_bench::sim_duration();
    let seed = tq_bench::seed();
    tq_bench::banner(
        "adaptive_sweep",
        "adaptive controller vs static quantum grid, hostile catalog",
        "adaptive within 10% of best static everywhere; beats worst static on bursty/diurnal",
    );

    let mut results = Vec::new();
    for preset in hostile::all() {
        let mut static_p999 = Vec::new();
        print!("{:<13}", preset.name);
        for &q in &GRID_US {
            let rec = run_one(
                presets::tq(WORKERS, Nanos::from_micros(q)),
                &preset,
                seed,
                horizon,
            );
            print!(" {:>9.1}", rec.overall_slowdown_p999);
            static_p999.push(rec.overall_slowdown_p999);
        }
        let adaptive = run_one(
            presets::tq_adaptive(WORKERS, ADAPTIVE_START),
            &preset,
            seed,
            horizon,
        );
        let ctl = adaptive
            .controller
            .as_ref()
            .expect("tq_adaptive must carry a controller report");
        println!(
            " | adaptive {:>9.1} (final q {} us, {} grows {} shrinks)",
            adaptive.overall_slowdown_p999,
            ctl.final_quantum.as_nanos() / 1_000,
            ctl.stats.grows,
            ctl.stats.shrinks,
        );
        results.push(PresetResult {
            name: preset.name,
            load: preset.load,
            static_p999,
            adaptive,
        });
    }

    // --- acceptance -------------------------------------------------------
    let mut failures = Vec::new();
    for r in &results {
        let best = r.static_p999.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = r.static_p999.iter().cloned().fold(0.0, f64::max);
        let a = r.adaptive.overall_slowdown_p999;
        if a > best * 1.10 {
            failures.push(format!(
                "{}: adaptive p999 {a:.1} is worse than 1.10x best static {best:.1}",
                r.name
            ));
        }
        if matches!(r.name, "bursty" | "diurnal") && a >= worst {
            failures.push(format!(
                "{}: adaptive p999 {a:.1} does not beat worst static {worst:.1}",
                r.name
            ));
        }
    }

    if !failures.is_empty() {
        eprintln!("\nADAPTIVE SWEEP ACCEPTANCE FAILED (results/adaptive_sweep.json not written):");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nacceptance: adaptive within 10% of best static on all {} presets", results.len());

    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write("results/adaptive_sweep.json", document(&results, seed, horizon))
        .expect("write adaptive_sweep.json");
    println!("wrote results/adaptive_sweep.json");
}

/// Hand-rolled JSON (no serde in the tree): one row per preset with the
/// static grid, the adaptive result, and the controller's trajectory.
fn document(results: &[PresetResult], seed: u64, horizon: Nanos) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tq-adaptive-sweep/v1\",\n");
    out.push_str(&format!("  \"workers\": {WORKERS},\n"));
    out.push_str(&format!("  \"horizon_ms\": {},\n", horizon.as_nanos() / 1_000_000));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"adaptive_start_us\": {},\n",
        ADAPTIVE_START.as_nanos() / 1_000
    ));
    out.push_str(&format!(
        "  \"static_grid_us\": [{}],\n",
        GRID_US.map(|q| q.to_string()).join(", ")
    ));
    out.push_str("  \"presets\": [\n");
    for (i, r) in results.iter().enumerate() {
        let best = r.static_p999.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = r.static_p999.iter().cloned().fold(0.0, f64::max);
        let ctl = r.adaptive.controller.as_ref().unwrap();
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"load\": {},\n", r.load));
        out.push_str(&format!(
            "      \"static_p999\": [{}],\n",
            r.static_p999
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "      \"adaptive_p999\": {:.3},\n",
            r.adaptive.overall_slowdown_p999
        ));
        out.push_str(&format!(
            "      \"best_static_p999\": {best:.3},\n      \"worst_static_p999\": {worst:.3},\n"
        ));
        out.push_str(&format!(
            "      \"controller\": {{\"final_quantum_us\": {}, \"windows\": {}, \"grows\": {}, \"shrinks\": {}}}\n",
            ctl.final_quantum.as_nanos() / 1_000,
            ctl.stats.windows,
            ctl.stats.grows,
            ctl.stats.shrinks,
        ));
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}
