//! Differential guard for the programmable policy layer.
//!
//! The rank/tie-break rewiring (`tq_core::policy::rank`) must be a pure
//! refactor for every pre-existing policy: identical decisions AND
//! identical RNG consumption, so the completion stream — ids, classes,
//! arrival/service/finish times, in order — is bit-identical to the seed
//! models kept in `tq_integration::oracle::queueing`. Unlike the randomized
//! grid in `engine_identity.rs`, these tests walk the full
//! dispatch × discipline × stealing grid deterministically over a fixed
//! seed set, and extend it to the three policies the rank layer adds
//! (strict priority, earliest deadline, weighted fair share) — which the
//! reference models execute through the same `RunQueue`, so the
//! differential covers them too.
//!
//! The second half closes the portability claim: each new policy is one
//! `<50`-line rank impl that runs unmodified through the serial sim, the
//! sharded rack, and the live runtime, with audited conservation and a
//! per-class latency block in the shared `tq-run/v1` JSON.

use tq_core::policy::{DispatchPolicy, TieBreak, WorkerPolicy};
use tq_core::Nanos;
use tq_harness::{json, run_to_record, RackEngine, RtEngine, RunSpec, SimEngine};
use tq_queueing::rack::{simulate_rack_into, RackPolicy, RackSpec};
use tq_integration::oracle::queueing::{self as oracle, assert_matches};
use tq_queueing::{presets, SystemConfig};
use tq_sim::SimRng;
use tq_workloads::{table1, ArrivalGen, ArrivalProcess};

const HORIZON: Nanos = Nanos::from_millis(1);
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 42];

/// Every dispatch policy the two-level dispatcher supports.
const DISPATCHES: [DispatchPolicy; 7] = [
    DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
    DispatchPolicy::Jsq(TieBreak::Random),
    DispatchPolicy::PowerOfTwo,
    DispatchPolicy::Random,
    DispatchPolicy::RoundRobin,
    DispatchPolicy::RssHash,
    DispatchPolicy::Pinned(1),
];

/// Every worker discipline, paired with the stealing flag it is allowed
/// to carry (stealing is only defined for FIFO run queues).
fn disciplines() -> Vec<(WorkerPolicy, bool)> {
    vec![
        (WorkerPolicy::ProcessorSharing, false),
        (WorkerPolicy::Fcfs, true),
        (WorkerPolicy::LeastAttainedService, false),
        (WorkerPolicy::StrictPriority, false),
        (
            WorkerPolicy::EarliestDeadline {
                slo_us: presets::EDF_SLO_US,
            },
            false,
        ),
        (
            WorkerPolicy::WeightedFair {
                weight: presets::WFQ_WEIGHTS,
            },
            false,
        ),
    ]
}

fn grid_cfg(dispatch: DispatchPolicy, worker: WorkerPolicy, stealing: bool) -> SystemConfig {
    let mut cfg = presets::tq(4, Nanos::from_micros(2));
    cfg.name = format!("grid({dispatch:?},{worker:?},steal={stealing})");
    cfg.arch = tq_queueing::Architecture::TwoLevel { dispatch };
    cfg.worker_policy = worker;
    if worker == WorkerPolicy::Fcfs {
        cfg.quantum = Nanos::MAX;
    }
    cfg.work_stealing = stealing;
    cfg.steal_cost = if stealing {
        tq_core::costs::WORK_STEAL
    } else {
        Nanos::ZERO
    };
    cfg
}

/// The tentpole guard: the full dispatch × discipline × seed grid (with
/// stealing where it is defined), two-level engine vs. seed model.
#[test]
fn two_level_grid_is_bit_exact_across_seeds() {
    let wl = table1::extreme_bimodal();
    let rate = wl.rate_for_load(4, 0.7);
    for dispatch in DISPATCHES {
        for (worker, stealing) in disciplines() {
            let cfg = grid_cfg(dispatch, worker, stealing);
            for seed in SEEDS {
                let gen = ArrivalGen::new(wl.clone(), rate, SimRng::new(seed));
                let fast = tq_queueing::simulate(&cfg, gen.clone(), HORIZON, seed);
                let slow = oracle::two_level(&cfg, gen, HORIZON, seed);
                assert_matches(&fast, &slow, &format!("{} at seed {seed}", cfg.name));
            }
        }
    }
}

/// Same guard for the centralized engine, which now orders its single
/// queue through the same generic min-rank machinery.
#[test]
fn centralized_disciplines_are_bit_exact_across_seeds() {
    let wl = table1::high_bimodal();
    let rate = wl.rate_for_load(4, 0.7);
    for (worker, _) in disciplines() {
        let mut cfg = presets::shinjuku(4, Nanos::from_micros(5));
        cfg.name = format!("central({worker:?})");
        cfg.worker_policy = worker;
        for seed in SEEDS {
            let gen = ArrivalGen::new(wl.clone(), rate, SimRng::new(seed));
            let fast = tq_queueing::simulate(&cfg, gen.clone(), HORIZON, seed);
            let slow = oracle::centralized(&cfg, gen, HORIZON);
            assert_matches(&fast, &slow, &format!("{} at seed {seed}", cfg.name));
        }
    }
}

/// The three new presets by name, as every consumer resolves them.
fn new_presets() -> Vec<SystemConfig> {
    ["tq_priority", "tq_edf", "tq_wfq"]
        .iter()
        .map(|name| {
            presets::by_name(name, 4, Nanos::from_micros(2))
                .unwrap_or_else(|| panic!("preset {name} must resolve"))
        })
        .collect()
}

/// The new policies ride the sharded rack unmodified, and the PDES
/// schedule stays a function of the spec alone: any thread count
/// reproduces the serial stream bit-for-bit.
#[test]
fn new_policies_run_in_rack_deterministically() {
    let wl = table1::extreme_bimodal();
    for server in new_presets() {
        let rate = wl.rate_for_load(server.n_workers, 0.6) * 3.0;
        let mut spec = RackSpec::new(server, 3);
        spec.policy = RackPolicy::PowerOfK(2);
        let gen = ArrivalGen::new(wl.clone(), rate, SimRng::new(7));
        let mut serial = Vec::new();
        let stats = simulate_rack_into(&spec, gen.clone(), HORIZON, 7, 1, &mut serial);
        assert_eq!(serial.len() as u64, stats.submitted, "{} lost jobs", spec.name);
        let mut sharded = Vec::new();
        simulate_rack_into(&spec, gen, HORIZON, 7, 4, &mut sharded);
        assert_eq!(serial, sharded, "{} diverged under threading", spec.name);
    }
}

/// End-to-end portability: one preset, three engines (serial sim, rack,
/// live runtime), all with the auditor on — conservation must hold and
/// the `tq-run/v1` record must carry the policy block and the per-class
/// latency summaries.
#[test]
fn new_policies_run_in_sim_rack_and_rt_with_audited_conservation() {
    let wl = table1::extreme_bimodal();
    for (name, discipline) in [
        ("tq_priority", "strict_priority"),
        ("tq_edf", "earliest_deadline"),
        ("tq_wfq", "weighted_fair"),
    ] {
        let preset = presets::by_name(name, 2, Nanos::from_micros(5)).expect("preset");
        let spec = RunSpec {
            workload: wl.clone(),
            process: ArrivalProcess::Poisson,
            rate_rps: wl.rate_for_load(2, 0.4),
            horizon: Nanos::from_millis(4),
            seed: 11,
        };

        let mut engines: Vec<Box<dyn tq_harness::Engine>> = vec![
            Box::new(SimEngine::new(preset.clone()).with_audit(true)),
            Box::new(RackEngine::new(RackSpec::new(preset.clone(), 2), 2).with_audit(true)),
        ];
        // The runtime takes the preset's dispatch/discipline directly;
        // real time, so keep the run tiny.
        let dispatch = match preset.arch {
            tq_queueing::Architecture::TwoLevel { dispatch } => dispatch,
            tq_queueing::Architecture::Centralized => unreachable!("tq presets are two-level"),
        };
        engines.push(Box::new(RtEngine::new(tq_runtime::ServerConfig {
            workers: 2,
            quantum: preset.quantum,
            dispatch,
            discipline: preset.worker_policy,
            seed: 11,
            audit: true,
            ..tq_runtime::ServerConfig::default()
        })));

        for mut engine in engines {
            let record = run_to_record(engine.as_mut(), &spec);
            assert_eq!(
                record.submitted, record.completed,
                "{name}/{} dropped jobs",
                record.model
            );
            let report = record.audit.as_ref().expect("audit was on");
            assert!(
                report.is_clean(),
                "{name}/{} audit violations: {report}",
                record.model
            );
            assert!(!record.classes.is_empty(), "{name} empty class summary");
            let doc = json::record_json(&record);
            assert!(
                doc.contains(&format!("\"discipline\": \"{discipline}\"")),
                "{name}/{} record lacks its policy block: {doc}",
                record.model
            );
            assert!(doc.contains("\"classes_e2e\""));
        }
    }
}
