//! Integration-test helper library: [`sim_point`], the one way a test
//! runs a simulated point, and [`oracle`], the seed implementations the
//! differential tests compare the release crates against.

pub mod oracle;

use tq_core::Nanos;
use tq_harness::{run_to_record, RunRecord, RunSpec, SimEngine};
use tq_queueing::SystemConfig;
use tq_workloads::{ArrivalProcess, Workload};

/// Runs `cfg` serving Poisson arrivals of `workload` at `rate_rps` for
/// `horizon` under `seed`, through the harness's [`SimEngine`].
pub fn sim_point(
    cfg: &SystemConfig,
    workload: &Workload,
    rate_rps: f64,
    horizon: Nanos,
    seed: u64,
) -> RunRecord {
    let spec = RunSpec {
        workload: workload.clone(),
        process: ArrivalProcess::Poisson,
        rate_rps,
        horizon,
        seed,
    };
    run_to_record(&mut SimEngine::new(cfg.clone()), &spec)
}
