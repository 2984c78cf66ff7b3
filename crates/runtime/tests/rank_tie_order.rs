//! The live worker breaks rank ties the way the simulators do: in
//! admission order, so jobs that tie rotate like PS under every worker
//! policy (`WorkerPolicy::job_rank`'s contract).
//!
//! Three class-0 jobs arrive in one burst, so they share a class and a
//! submission stamp and every ranked policy ties them. Each yields twice
//! before finishing, and logs its id on every quantum. One worker runs
//! them all; its log must be the PS rotation `0,1,2,0,1,2,0,1,2`.
//! Ordering ties by slot index instead runs each job to completion in
//! turn under strict priority and EDF, whose ranks never change while a
//! job runs: `0,0,0,1,1,1,2,2,2`.

use std::sync::{Arc, Mutex};
use tq_core::policy::WorkerPolicy;
use tq_core::Nanos;
use tq_runtime::{Job, JobStatus, QuantumCtx, ServerConfig, TinyQuanta};

/// Logs its id on every quantum; yields twice, then finishes.
struct Logged {
    id: u64,
    runs: u32,
    log: Arc<Mutex<Vec<u64>>>,
}

impl Job for Logged {
    fn run(&mut self, _: &mut QuantumCtx) -> JobStatus {
        self.log.lock().unwrap().push(self.id);
        self.runs += 1;
        if self.runs < 3 {
            JobStatus::Yielded
        } else {
            JobStatus::Done
        }
    }
}

fn run_order(discipline: WorkerPolicy) -> Vec<u64> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let job_log = Arc::clone(&log);
    let server = TinyQuanta::start(
        ServerConfig {
            workers: 1,
            discipline,
            ..ServerConfig::default()
        },
        move |req| {
            Box::new(Logged {
                id: req.id.0,
                runs: 0,
                log: Arc::clone(&job_log),
            })
        },
    );
    let first = server.submit_burst(&[(0, Nanos::ZERO); 3]);
    assert_eq!(first.0, 0);
    assert_eq!(server.shutdown().len(), 3);
    let order = log.lock().unwrap().clone();
    order
}

#[test]
fn tied_ranks_rotate_in_admission_order_under_every_preempting_policy() {
    for discipline in [
        WorkerPolicy::ProcessorSharing,
        WorkerPolicy::LeastAttainedService,
        WorkerPolicy::StrictPriority,
        WorkerPolicy::EarliestDeadline {
            slo_us: [50, 200, 1_000, 5_000],
        },
        WorkerPolicy::WeightedFair {
            weight: [4, 2, 1, 1],
        },
    ] {
        assert_eq!(
            run_order(discipline),
            [0, 1, 2, 0, 1, 2, 0, 1, 2],
            "{discipline:?} did not rotate its tied jobs"
        );
    }
}
