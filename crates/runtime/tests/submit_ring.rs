//! The edges of the submit path: a submitter that outruns every worker
//! ring blocks instead of growing a queue, and a policy no worker can
//! serve is refused before any thread starts.

use std::time::{Duration, Instant};
use tq_audit::fault::FaultPlan;
use tq_core::policy::DispatchPolicy;
use tq_core::Nanos;
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};

fn server(config: ServerConfig) -> TinyQuanta {
    let clock = TscClock::calibrated();
    let job_clock = clock.clone();
    TinyQuanta::start_with_clock(config, clock, move |req| {
        Box::new(SpinJob::with_clock(req, &job_clock))
    })
}

/// Far more requests than the one worker's ring holds, against a worker
/// that admits nothing for its first `stall`: the flood cannot be
/// accepted until the worker wakes, so `submit_burst` has to wait for it
/// — and shutting down right after, with the ring still full, must lose
/// nothing.
#[test]
fn flood_larger_than_every_worker_ring_blocks_and_loses_nothing() {
    let stall = Duration::from_millis(200);
    let started = Instant::now();
    let server = server(ServerConfig {
        workers: 1,
        ring_capacity: 64,
        audit: true,
        fault: Some(FaultPlan::stall_worker(
            0,
            Nanos::ZERO,
            Nanos::from_nanos(stall.as_nanos() as u64),
        )),
        ..ServerConfig::default()
    });
    let flood = 20_000u64;
    let burst = vec![(0u16, Nanos::ZERO); 500];
    for i in 0..flood / 500 {
        assert_eq!(
            server.submit_burst(&burst).0,
            i * 500,
            "ids stay sequential"
        );
    }
    assert!(
        started.elapsed() >= stall,
        "20000 requests were accepted in {:?} with the only worker stalled for {stall:?}: \
         the submit path is not bounded",
        started.elapsed()
    );
    let (completions, stats) = server.shutdown_with_stats();
    assert_eq!(completions.len() as u64, flood);
    assert_eq!(stats.dispatcher.forwarded, flood);
    // A lost batch path, seen as a count: forwarding one request per
    // chunk reads a mean chunk of 1.
    assert!(
        stats.dispatcher.bursts * 32 <= stats.dispatcher.forwarded,
        "mean chunk {:.1} over {} chunks: the submitter is not forwarding in batches",
        flood as f64 / stats.dispatcher.bursts as f64,
        stats.dispatcher.bursts
    );
    assert_eq!(stats.total_completed(), flood);
    assert_eq!(stats.total_dropped(), 0);
    let report = stats.audit.as_ref().expect("audit enabled");
    assert!(report.is_clean(), "{report}");
}

/// `Pinned` to a worker that does not exist is a configuration error,
/// caught by `start` rather than by the first `submit`.
#[test]
#[should_panic(expected = "pinned worker out of range")]
fn start_rejects_a_pinned_worker_out_of_range() {
    server(ServerConfig {
        workers: 2,
        dispatch: DispatchPolicy::Pinned(9),
        ..ServerConfig::default()
    });
}
