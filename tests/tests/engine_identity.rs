//! The optimized serving-system engines (packed event queue,
//! struct-of-arrays worker state, bitmask idle/backlog sets, job slab)
//! must be a pure performance change: for every configuration the
//! completion stream — ids, classes, arrival/service/finish times, in
//! order — is bit-identical to the seed models preserved in
//! `tq_queueing::reference`. These properties draw the worker discipline,
//! dispatch policy, stealing flag, worker/dispatcher counts, load, and
//! seed at random and compare full outcomes.

use proptest::prelude::*;
use tq_core::policy::{DispatchPolicy, TieBreak, WorkerPolicy};
use tq_core::Nanos;
use tq_queueing::{presets, reference, SystemConfig};
use tq_sim::SimRng;
use tq_workloads::{table1, ArrivalGen};

const HORIZON: Nanos = Nanos::from_millis(2);

const DISPATCHES: [DispatchPolicy; 6] = [
    DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
    DispatchPolicy::Jsq(TieBreak::Random),
    DispatchPolicy::PowerOfTwo,
    DispatchPolicy::Random,
    DispatchPolicy::RoundRobin,
    DispatchPolicy::RssHash,
];

const WORKERS: [WorkerPolicy; 3] = [
    WorkerPolicy::ProcessorSharing,
    WorkerPolicy::Fcfs,
    WorkerPolicy::LeastAttainedService,
];

/// A two-level configuration over the full (discipline × policy ×
/// stealing) grid, built by mutating the TQ preset.
fn grid_cfg(
    dispatch: DispatchPolicy,
    worker: WorkerPolicy,
    stealing: bool,
    n_workers: usize,
    n_dispatchers: usize,
) -> SystemConfig {
    let mut cfg = presets::tq(n_workers, Nanos::from_micros(2));
    cfg.name = format!("grid({dispatch:?},{worker:?},steal={stealing})");
    cfg.arch = tq_queueing::Architecture::TwoLevel { dispatch };
    cfg.worker_policy = worker;
    cfg.n_dispatchers = n_dispatchers;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn two_level_engine_is_bit_identical_to_seed_model(
        dispatch_idx in 0usize..DISPATCHES.len(),
        worker_idx in 0usize..WORKERS.len(),
        stealing in any::<bool>(),
        n_workers in 1usize..12,
        n_dispatchers in 1usize..4,
        load_pct in 20u32..90,
        seed in 1u64..100_000,
    ) {
        let worker = WORKERS[worker_idx];
        // Work stealing is only defined for FIFO run queues.
        let stealing = stealing && worker != WorkerPolicy::LeastAttainedService;
        let cfg = grid_cfg(DISPATCHES[dispatch_idx], worker, stealing, n_workers, n_dispatchers);
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(n_workers, load_pct as f64 / 100.0);
        let gen = ArrivalGen::new(wl, rate, SimRng::new(seed));

        let fast = tq_queueing::simulate(&cfg, gen.clone(), HORIZON, seed);
        let slow = reference::two_level(&cfg, gen, HORIZON, seed);

        prop_assert_eq!(&fast.completions, &slow.completions, "{} diverged", cfg.name);
        prop_assert_eq!(fast.events, slow.events);
    }

    #[test]
    fn pinned_dispatch_is_bit_identical_to_seed_model(
        target in 0usize..6,
        seed in 1u64..100_000,
    ) {
        let cfg = grid_cfg(DispatchPolicy::Pinned(target), WorkerPolicy::ProcessorSharing, false, 6, 1);
        let wl = table1::exp1();
        let rate = wl.rate_for_load(6, 0.4);
        let gen = ArrivalGen::new(wl, rate, SimRng::new(seed));
        let fast = tq_queueing::simulate(&cfg, gen.clone(), HORIZON, seed);
        let slow = reference::two_level(&cfg, gen, HORIZON, seed);
        prop_assert_eq!(&fast.completions, &slow.completions);
        prop_assert_eq!(fast.events, slow.events);
    }

    #[test]
    fn centralized_engine_is_bit_identical_to_seed_model(
        ideal in any::<bool>(),
        n_workers in 1usize..12,
        load_pct in 20u32..90,
        seed in 1u64..100_000,
    ) {
        let cfg = if ideal {
            presets::ideal_centralized_ps(n_workers, Nanos::from_micros(1))
        } else {
            presets::shinjuku(n_workers, Nanos::from_micros(5))
        };
        let wl = table1::high_bimodal();
        let rate = wl.rate_for_load(n_workers, load_pct as f64 / 100.0);
        let gen = ArrivalGen::new(wl, rate, SimRng::new(seed));

        let fast = tq_queueing::simulate(&cfg, gen.clone(), HORIZON, seed);
        let slow = reference::centralized(&cfg, gen, HORIZON);

        prop_assert_eq!(&fast.completions, &slow.completions, "{} diverged", cfg.name);
        prop_assert_eq!(fast.quanta_scheduled, slow.quanta_scheduled);
        prop_assert_eq!(fast.busy_span, slow.busy_span);
        prop_assert_eq!(fast.events, slow.events);
    }
}
