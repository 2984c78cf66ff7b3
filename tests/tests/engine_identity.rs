//! The optimized serving-system engines (packed event queue,
//! struct-of-arrays worker state, bitmask idle/backlog sets, job slab)
//! must be a pure performance change: for every configuration the
//! completion stream — ids, classes, arrival/service/finish times, in
//! order — is bit-identical to the seed models kept in
//! `tq_integration::oracle::queueing`. These properties draw the worker
//! discipline, dispatch policy, stealing flag, worker/dispatcher counts,
//! load, and seed at random and compare full outcomes. The fixed cases
//! in `twolevel` and `centralized` pin named presets over a 10 ms
//! horizon, among them Caladan directpath, whose non-zero
//! `worker_rx_cost` the grid never sets, and TQ with three dispatchers.

use proptest::prelude::*;
use tq_core::policy::{DispatchPolicy, TieBreak, WorkerPolicy};
use tq_core::Nanos;
use tq_integration::oracle::queueing::{self as oracle, assert_matches};
use tq_queueing::{presets, SystemConfig};
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
        let slow = oracle::two_level(&cfg, gen, HORIZON, seed);
        assert_matches(&fast, &slow, &cfg.name);
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
        let slow = oracle::two_level(&cfg, gen, HORIZON, seed);
        assert_matches(&fast, &slow, &cfg.name);
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
        let slow = oracle::centralized(&cfg, gen, HORIZON);
        assert_matches(&fast, &slow, &cfg.name);
    }
}

mod twolevel {
    use super::*;

    /// Identical outcomes on mid-load presets the grid does not build:
    /// stealing TQ, Caladan directpath (per-request RX work on the
    /// worker), LAS, and three dispatchers.
    #[test]
    fn matches_reference_engine() {
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(8, 0.7);
        for cfg in [
            presets::tq(8, Nanos::from_micros(2)),
            presets::caladan_directpath(8),
            presets::tq_las(8, Nanos::from_micros(2)),
            presets::tq_multi_dispatcher(8, Nanos::from_micros(2), 3),
        ] {
            let gen = ArrivalGen::new(wl.clone(), rate, SimRng::new(21));
            let fast = tq_queueing::simulate(&cfg, gen.clone(), Nanos::from_millis(10), 21);
            let slow = oracle::two_level(&cfg, gen, Nanos::from_millis(10), 21);
            assert_matches(&fast, &slow, &cfg.name);
        }
    }
}

mod centralized {
    use super::*;

    /// Identical outcomes, quanta scheduled and busy span included, for
    /// Shinjuku and the idealized centralized PS at mid load.
    #[test]
    fn matches_reference_engine() {
        let wl = table1::high_bimodal();
        let rate = wl.rate_for_load(4, 0.6);
        for cfg in [
            presets::shinjuku(4, Nanos::from_micros(5)),
            presets::ideal_centralized_ps(4, Nanos::from_micros(1)),
        ] {
            let gen = ArrivalGen::new(wl.clone(), rate, SimRng::new(13));
            let fast = tq_queueing::simulate(&cfg, gen.clone(), Nanos::from_millis(10), 0);
            let slow = oracle::centralized(&cfg, gen, Nanos::from_millis(10));
            assert_matches(&fast, &slow, &cfg.name);
        }
    }
}
