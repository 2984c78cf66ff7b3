//! The engine-abstraction contract, end to end.
//!
//! Three guarantees pin the harness to the rest of the repo:
//!
//! 1. **Sim counters** — a [`SimEngine`] run's per-worker counters
//!    reconcile with its completion stream.
//! 2. **Conservation on the live runtime** — across the dispatch-policy
//!    matrix × work-stealing × 2–4 workers, every submitted `JobId`
//!    completes exactly once, and the per-worker counters reconcile
//!    with the completion stream.
//! 3. **Shared schema** — both engines emit through one JSON path; the
//!    `engine` field is the only structural difference.

use tq_core::policy::{DispatchPolicy, TieBreak};
use tq_core::Nanos;
use tq_harness::{json, run_to_record, Engine, RtEngine, RunSpec, SimEngine};
use tq_queueing::presets;
use tq_runtime::ServerConfig;
use tq_workloads::{table1, ArrivalProcess};

fn spec(workers: usize, load: f64, horizon_ms: u64, seed: u64) -> RunSpec {
    let workload = table1::extreme_bimodal();
    let rate_rps = workload.rate_for_load(workers, load);
    RunSpec {
        workload,
        process: ArrivalProcess::Poisson,
        rate_rps,
        horizon: Nanos::from_millis(horizon_ms),
        seed,
    }
}

#[test]
fn sim_worker_counters_reconcile_with_completions() {
    let mut engine = SimEngine::new(presets::tq(4, Nanos::from_micros(2)));
    let s = spec(4, 0.5, 10, 7);
    let out = engine.run(&s, s.arrivals(), s.horizon);
    let per_worker: u64 = out.counters.workers.iter().map(|w| w.completed).sum();
    assert_eq!(per_worker, out.completions.len() as u64);
    let quanta: u64 = out.counters.workers.iter().map(|w| w.quanta).sum();
    assert!(
        quanta >= out.completions.len() as u64,
        "every job takes at least one quantum"
    );
}

/// Satellite: the live runtime loses no job and duplicates no `JobId`
/// across the dispatch-policy matrix × stealing × 2–4 workers. Latency
/// on a shared host is meaningless; conservation is not.
#[test]
fn rt_conservation_across_policy_matrix() {
    let policies = [
        DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
        DispatchPolicy::Jsq(TieBreak::Random),
        DispatchPolicy::Random,
        DispatchPolicy::PowerOfTwo,
    ];
    for (i, &dispatch) in policies.iter().enumerate() {
        for &work_stealing in &[false, true] {
            let workers = 2 + (i % 3); // 2, 3, 4 across the matrix
            let mut engine = RtEngine::new(ServerConfig {
                workers,
                quantum: Nanos::from_micros(5),
                dispatch,
                work_stealing,
                ..ServerConfig::default()
            });
            let s = spec(workers, 0.3, 8, 11 + i as u64);
            let out = engine.run(&s, s.arrivals(), s.horizon);
            let label = format!("{dispatch:?} stealing={work_stealing} workers={workers}");

            assert_eq!(
                out.completions.len() as u64,
                out.submitted,
                "{label}: lost or spurious completions"
            );
            let mut ids: Vec<u64> = out.completions.iter().map(|c| c.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len() as u64,
                out.submitted,
                "{label}: duplicated JobId"
            );
            let per_worker: u64 = out.counters.workers.iter().map(|w| w.completed).sum();
            assert_eq!(
                per_worker, out.submitted,
                "{label}: worker counters disagree with completions"
            );
            assert_eq!(
                out.counters.dispatcher_forwarded, out.submitted,
                "{label}: dispatcher forwarded count disagrees"
            );
            if !work_stealing {
                assert_eq!(
                    out.counters.workers.iter().map(|w| w.steals).sum::<u64>(),
                    0,
                    "{label}: steals without stealing mode"
                );
            }
        }
    }
}

/// The rt pipeline produces a real summary through the same metrics path
/// (per-class percentiles, non-degenerate sojourns at least the service
/// time).
#[test]
fn rt_record_summarizes_through_shared_pipeline() {
    let mut engine = RtEngine::new(ServerConfig {
        workers: 2,
        quantum: Nanos::from_micros(5),
        ..ServerConfig::default()
    });
    let s = spec(2, 0.2, 10, 42);
    let record = run_to_record(&mut engine, &s);
    assert!(record.conserved(), "rt run lost jobs");
    assert_eq!(record.engine, "rt");
    assert_eq!(record.model, "runtime");
    assert!(!record.classes.is_empty(), "empty e2e summary");
    assert!(!record.classes_sojourn.is_empty(), "empty sojourn summary");
    // Sojourn can never beat the service time (SpinJob burns real CPU),
    // so per-class p50 sojourn must be at least the class's minimum
    // service; the bare-sojourn p50 of the short class exceeds 400ns.
    let short = &record.classes_sojourn[0];
    assert!(
        short.p50 >= Nanos::from_nanos(400),
        "short-class sojourn impossibly small: {}",
        short.p50
    );
    // Per-worker counters surfaced, not dropped.
    assert_eq!(record.counters.workers.len(), 2);
    assert!(record.counters.workers.iter().map(|w| w.quanta).sum::<u64>() > 0);
}

/// Both engines serialize through one code path into the same schema.
#[test]
fn sim_and_rt_share_one_json_schema() {
    let s = spec(2, 0.2, 5, 42);
    let mut sim = SimEngine::new(presets::tq(2, Nanos::from_micros(5)));
    let mut rt = RtEngine::new(ServerConfig {
        workers: 2,
        quantum: Nanos::from_micros(5),
        ..ServerConfig::default()
    });
    let records = [run_to_record(&mut sim, &s), run_to_record(&mut rt, &s)];
    let doc = json::document(&records);
    assert!(doc.contains("\"schema\": \"tq-run/v1\""));
    assert!(doc.contains("\"engine\": \"sim\""));
    assert!(doc.contains("\"engine\": \"rt\""));
    // Same keys in both records: a quoted string directly followed by a
    // colon is a key; string *values* never are.
    let keys = |obj: &str| -> std::collections::BTreeSet<String> {
        let parts: Vec<&str> = obj.split('"').collect();
        (1..parts.len())
            .step_by(2)
            .filter(|&i| {
                parts
                    .get(i + 1)
                    .is_some_and(|rest| rest.trim_start().starts_with(':'))
            })
            .map(|i| parts[i].to_string())
            .collect()
    };
    let sim_json = json::record_json(&records[0]);
    let rt_json = json::record_json(&records[1]);
    assert_eq!(
        keys(&sim_json),
        keys(&rt_json),
        "sim and rt JSON expose different keys"
    );
}
