//! Regression test for full-ring re-picks (DESIGN.md "Batched dispatch
//! pipeline").
//!
//! The documented backpressure contract is that when a worker's ring is
//! full "the dispatcher re-picks among the *other* workers". Pre-fix the
//! retry re-ran the policy with no exclusion, so a deterministic policy
//! (Pinned, RssHash) kept choosing the same full ring and the dispatcher
//! spun — requests that any other worker could have served immediately
//! waited behind the blocked head. The dispatcher is the submitting
//! thread, so such a spin would also hang `submit` itself.
//!
//! The scenario: two workers, worker 0 stalled by fault injection with a
//! capacity-2 ring, and a Pinned(0) policy steering every request at it.
//! Post-fix, the two requests that fit worker 0's ring wait out the
//! stall, and everything else overflows to worker 1 within microseconds.
//! Pre-fix, *nothing* completes until the stall window ends — the
//! deadline assertion below trips.

use std::time::{Duration, Instant};
use tq_audit::fault::FaultPlan;
use tq_core::policy::DispatchPolicy;
use tq_core::Nanos;
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};

#[test]
fn full_ring_repick_excludes_the_full_worker() {
    let stall = Nanos::from_millis(4_000);
    let clock = TscClock::calibrated();
    let cfg = ServerConfig {
        workers: 2,
        quantum: Nanos::from_micros(5),
        ring_capacity: 2,
        dispatch: DispatchPolicy::Pinned(0),
        // Worker 0 is dark from the moment it starts: it admits nothing,
        // so its ring fills at two requests and stays full.
        fault: Some(FaultPlan::stall_worker(0, Nanos::ZERO, stall)),
        audit: true,
        seed: 7,
        ..ServerConfig::default()
    };
    let job_clock = clock.clone();
    let server = TinyQuanta::start_with_clock(cfg, clock.clone(), move |req| {
        Box::new(SpinJob::with_clock(req, &job_clock))
    });

    // The deadline starts before the submits: `submit` runs the
    // dispatcher, so a spin on the full ring would hold it there.
    let deadline = Instant::now() + Duration::from_millis(2_000);
    let n = 16usize;
    for i in 0..n {
        server.submit((i % 2) as u16, Nanos::from_micros(1));
    }

    // Worker 0's ring swallows at most two requests; the remaining 14
    // must overflow to worker 1 and complete long before the stall ends.
    // Pre-fix the dispatcher spins on worker 0's full ring instead and
    // zero completions arrive inside the deadline.
    let overflow = n - 2;
    let mut completed = Vec::new();
    while completed.len() < overflow && Instant::now() < deadline {
        completed.extend(server.drain_completions());
        std::thread::yield_now();
    }
    assert!(
        completed.len() >= overflow,
        "only {}/{overflow} overflow requests completed before the \
         deadline: the dispatcher is not re-picking around the full ring",
        completed.len()
    );
    assert!(
        completed.iter().all(|c| c.worker == 1),
        "overflow requests must run on the non-stalled worker"
    );

    // Shutdown waits out the stall window; worker 0 then drains its two
    // ringed requests, and conservation must hold with a clean audit.
    let (rest, stats) = server.shutdown_with_stats();
    completed.extend(rest);
    assert_eq!(completed.len(), n, "every request completes eventually");
    assert!(
        stats.dispatcher.ring_full_retries > 0,
        "the scenario must actually have exercised backpressure"
    );
    let report = stats.audit.as_ref().expect("audit enabled");
    assert!(report.is_clean(), "{report}");
}
