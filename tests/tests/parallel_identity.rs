//! The parallel experiment harness must be a pure performance knob:
//! whatever `jobs` value drives `tq_harness::sweep`, the records are
//! byte-identical to the serial run. This property draws the system,
//! load grid, seed, and job count at random and compares the full
//! `Debug` rendering of the outputs.

use proptest::prelude::*;
use tq_core::Nanos;
use tq_harness::{sweep, RunSpec, SimEngine};
use tq_queueing::presets;
use tq_workloads::{table1, ArrivalProcess};

const TINY: Nanos = Nanos::from_millis(1);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial(
        seed in 1u64..1_000,
        jobs in 2usize..6,
        system in 0usize..2,
        n_rates in 1usize..5,
    ) {
        let cfg = if system == 0 {
            presets::tq(4, Nanos::from_micros(2))
        } else {
            presets::shinjuku(4, Nanos::from_micros(5))
        };
        let wl = table1::extreme_bimodal();
        let rates: Vec<f64> = (1..=n_rates)
            .map(|i| wl.rate_for_load(4, 0.15 * i as f64))
            .collect();
        let engine = SimEngine::new(cfg);
        let spec = RunSpec {
            workload: wl,
            process: ArrivalProcess::Poisson,
            rate_rps: 0.0,
            horizon: TINY,
            seed,
        };
        let serial = sweep(&engine, &spec, &rates, 1);
        let parallel = sweep(&engine, &spec, &rates, jobs);
        prop_assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
}
