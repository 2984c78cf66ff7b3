//! The fault-injection matrix: every [`FaultScenario`] driven through
//! *both* engines with the invariant auditor on.
//!
//! The contract under test is accounting, not latency: however hostile
//! the configuration — 1 ns quanta, quanta that never expire, zero-length
//! jobs, a whole schedule arriving at once, capacity-1 dispatch rings, a
//! worker stalled mid-run — every submitted job must be conserved,
//! completed exactly once, and pass every auditor check
//! (`tq_audit::InvariantAuditor`). Scenarios are engine-agnostic labels
//! (see `tq_audit::fault`); this file maps each to concrete
//! `ServerConfig` / `SystemConfig` knobs. The two knobs the
//! discrete-event models cannot express (ring capacity, wall-clock
//! stalls) fall back to the base simulation config so the matrix stays
//! scenario × engine complete.
//!
//! Everything is derived from one fixed seed: the sim side is asserted
//! bit-deterministic (two runs, identical completion streams), the rt
//! side deterministic in its *plan* (arrival schedule and fault windows
//! derive from the seed; wall-clock timings of course vary).

use tq_audit::fault::{FaultPlan, FaultScenario};
use tq_core::Nanos;
use tq_harness::{Engine, RtEngine, RunOutput, RunSpec, SimEngine};
use tq_queueing::presets;
use tq_runtime::ServerConfig;
use tq_workloads::{ArrivalProcess, ClassDist, JobClass, Workload};

const SEED: u64 = 0xFA17;

/// A small deterministic bimodal mix; service times short enough that
/// the live-runtime matrix finishes in well under a second per scenario.
fn mix() -> Workload {
    Workload::new(
        "fault_mix",
        vec![
            JobClass::new("short", ClassDist::Deterministic(Nanos::from_nanos(500)), 0.9),
            JobClass::new("long", ClassDist::Deterministic(Nanos::from_micros(5)), 0.1),
        ],
    )
}

/// All jobs demand zero service: completion storms, slots recycling at
/// the maximum possible rate.
fn zero_service_mix() -> Workload {
    Workload::new(
        "zero_service",
        vec![JobClass::new(
            "null",
            ClassDist::Deterministic(Nanos::ZERO),
            1.0,
        )],
    )
}

/// The arrival spec for a scenario: `BurstArrivals` compresses the whole
/// schedule into a few microseconds by offering an absurd rate over a
/// tiny horizon; `ZeroService` swaps the workload; everything else paces
/// the small mix over `horizon`.
fn spec_for(scenario: FaultScenario, horizon: Nanos) -> RunSpec {
    match scenario {
        FaultScenario::BurstArrivals => RunSpec {
            workload: mix(),
            process: ArrivalProcess::Poisson,
            // ~1 job/ns over a 300 ns window: ~300 requests landing
            // essentially at once, maximum ring backpressure.
            rate_rps: 1e9,
            horizon: Nanos::from_nanos(300),
            seed: SEED,
        },
        FaultScenario::ZeroService => RunSpec {
            workload: zero_service_mix(),
            process: ArrivalProcess::Poisson,
            rate_rps: 200_000.0,
            horizon,
            seed: SEED,
        },
        _ => RunSpec {
            workload: mix(),
            process: ArrivalProcess::Poisson,
            rate_rps: 200_000.0,
            horizon,
            seed: SEED,
        },
    }
}

/// Asserts the run's auditor output exists, is clean, and agrees with
/// the stream itself (belt and suspenders on top of the auditor's own
/// conservation check).
fn assert_audited_clean(label: &str, out: &RunOutput) {
    let report = out
        .audit
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: auditor was enabled but produced no report"));
    assert!(report.is_clean(), "{label}: {report}");
    assert!(
        report.checks >= 5,
        "{label}: only {} checks ran — matrix expects the full battery",
        report.checks
    );
    assert_eq!(
        out.completions.len() as u64,
        out.submitted,
        "{label}: conservation violated outside the auditor"
    );
}

/// Maps a scenario onto the live runtime's knobs.
fn rt_config(scenario: FaultScenario) -> ServerConfig {
    let base = ServerConfig {
        workers: 2,
        audit: true,
        seed: SEED,
        ..ServerConfig::default()
    };
    match scenario {
        // Every probe observes expiry: pure preemption pressure.
        FaultScenario::QuantumTiny => ServerConfig {
            quantum: Nanos::from_nanos(1),
            ..base
        },
        // Never expires within any test run; kept finite (100 s) so the
        // nanos→cycles conversion cannot overflow.
        FaultScenario::QuantumInfinite => ServerConfig {
            quantum: Nanos::from_secs(100),
            ..base
        },
        FaultScenario::ZeroService | FaultScenario::BurstArrivals => base,
        FaultScenario::RingCapacityOne => ServerConfig {
            ring_capacity: 1,
            ..base
        },
        // One seed-chosen worker stalls for 200 µs somewhere in the first
        // millisecond; stealing must route around it and the shutdown
        // drain must still empty its ring.
        FaultScenario::WorkerStall => ServerConfig {
            work_stealing: true,
            fault: Some(FaultPlan::from_seed(
                SEED,
                2,
                Nanos::from_millis(1),
                Nanos::from_micros(200),
            )),
            ..base
        },
    }
}

/// Maps a scenario onto the discrete-event model's knobs. Ring capacity
/// and wall-clock stalls don't exist in virtual time, so those two run
/// the base TQ config — the matrix still exercises scenario × engine.
fn sim_engine(scenario: FaultScenario) -> SimEngine {
    let workers = 4;
    let quantum = match scenario {
        FaultScenario::QuantumTiny => Nanos::from_nanos(1),
        FaultScenario::QuantumInfinite => Nanos::from_secs(100),
        _ => Nanos::from_micros(2),
    };
    SimEngine::new(presets::tq(workers, quantum)).with_audit(true)
}

/// Every scenario through the discrete-event engine, audited, run twice:
/// both runs must be bit-identical (determinism) and clean.
#[test]
fn sim_matrix_is_audited_clean_and_deterministic() {
    let horizon = Nanos::from_millis(5);
    for scenario in FaultScenario::ALL {
        let spec = spec_for(scenario, horizon);
        // `engine.run` (not `run_to_record`): the zero-service scenario
        // would panic in `Completion::slowdown`'s division otherwise.
        let mut engine = sim_engine(scenario);
        let out = engine.run(&spec, spec.arrivals(), spec.horizon);
        assert!(out.submitted > 0, "{}: empty run proves nothing", scenario.name());
        assert_audited_clean(&format!("sim/{}", scenario.name()), &out);

        let mut engine2 = sim_engine(scenario);
        let out2 = engine2.run(&spec, spec.arrivals(), spec.horizon);
        assert_eq!(
            out.completions,
            out2.completions,
            "sim/{}: same seed must reproduce the identical completion stream",
            scenario.name()
        );
        assert_eq!(out.submitted, out2.submitted, "sim/{}", scenario.name());
    }
}

/// Every scenario through the live runtime, audited. Wall-clock values
/// vary run to run, but conservation, exactly-once completion, ring
/// FIFO, timestamp sanity and counter agreement must hold under all six
/// hostile configurations.
#[test]
fn rt_matrix_is_audited_clean() {
    // Short horizon: this starts (and tears down) six real servers.
    let horizon = Nanos::from_millis(2);
    for scenario in FaultScenario::ALL {
        let spec = spec_for(scenario, horizon);
        let config = rt_config(scenario);
        if let Some(plan) = &config.fault {
            // The plan is pure seed-derived data: rebuild and compare.
            let again = FaultPlan::from_seed(SEED, 2, Nanos::from_millis(1), Nanos::from_micros(200));
            assert_eq!(*plan, again, "fault plans must be reproducible from the seed");
        }
        let mut engine = RtEngine::new(config);
        let out = engine.run(&spec, spec.arrivals(), spec.horizon);
        assert!(out.submitted > 0, "{}: empty run proves nothing", scenario.name());
        assert_audited_clean(&format!("rt/{}", scenario.name()), &out);
    }
}
