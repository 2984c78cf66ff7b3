//! The edges the bounded submit ring added: a submitter that outruns the
//! dispatcher blocks instead of growing a queue, and a dispatcher that is
//! gone is an answer, not an endless wait on a ring nobody pops.

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

/// More requests than the submit ring (8192), the one worker's ring and a
/// dispatch burst hold together, against a worker that admits nothing for
/// its first `stall`: the flood cannot be accepted until the worker wakes,
/// so `submit_burst` has to wait for it — and shutting down right after,
/// with the submit ring still full, must lose nothing.
#[test]
fn flood_larger_than_the_submit_ring_blocks_and_loses_nothing() {
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
    // A lost batch path, seen as a count: a dispatcher that takes one
    // request per poll of the submit ring reads a mean burst of 1.
    assert!(
        stats.dispatcher.bursts * 32 <= stats.dispatcher.forwarded,
        "mean burst {:.1} over {} bursts: the dispatcher is not draining the submit ring in batches",
        flood as f64 / stats.dispatcher.bursts as f64,
        stats.dispatcher.bursts
    );
    assert_eq!(stats.total_completed(), flood);
    assert_eq!(stats.total_dropped(), 0);
    let report = stats.audit.as_ref().expect("audit enabled");
    assert!(report.is_clean(), "{report}");
}

/// `Pinned` to a worker that does not exist panics the dispatcher on its
/// first pick. From then on `try_submit_burst` must say so.
#[test]
fn a_dead_dispatcher_surfaces_as_none() {
    let server = server(ServerConfig {
        workers: 2,
        dispatch: DispatchPolicy::Pinned(9),
        ..ServerConfig::default()
    });
    let burst = [(0u16, Nanos::ZERO); 64];
    let deadline = Instant::now() + Duration::from_secs(20);
    // The first bursts may still be accepted: the dispatcher dies when it
    // picks, not when we publish.
    while server.try_submit_burst(&burst).is_some() {
        assert!(
            Instant::now() < deadline,
            "submissions are still accepted long after the dispatcher panicked"
        );
        std::thread::yield_now();
    }
    assert_eq!(
        server.try_submit_burst(&burst),
        None,
        "and it stays that way"
    );
    drop(server); // workers exit on the flag the unwinding dispatcher raised
}
