//! Liveness of the idle path: a request submitted to a worker with
//! nothing to do must wake it, however many times in a row.

use std::time::{Duration, Instant};
use tq_core::Nanos;
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};

/// Single requests against a worker that idles between every two: each
/// round waits for its completion before submitting again, so every
/// submit lands in the ring of a worker that has just found nothing to
/// run. A lost wake-up is a missed deadline, not a hang.
#[test]
fn single_requests_against_an_idle_worker_all_complete() {
    const ROUNDS: u64 = 50_000;
    let clock = TscClock::calibrated();
    for server_round in 0..4 {
        let job_clock = clock.clone();
        let server = TinyQuanta::start_with_clock(
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            clock.clone(),
            move |req| Box::new(SpinJob::with_clock(req, &job_clock)),
        );
        let mut done = Vec::new();
        for round in 0..ROUNDS / 4 {
            let id = server.submit(0, Nanos::ZERO);
            let deadline = Instant::now() + Duration::from_secs(20);
            done.clear();
            while done.is_empty() {
                assert!(
                    Instant::now() < deadline,
                    "server {server_round}, round {round}: no completion — lost wake-up"
                );
                server.drain_completions_into(&mut done);
                std::thread::yield_now();
            }
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].id, id);
        }
        let (rest, stats) = server.shutdown_with_stats();
        assert!(rest.is_empty());
        assert_eq!(stats.dispatcher.forwarded, ROUNDS / 4);
    }
}
