//! Regression tests for the two-phase shutdown drain protocol.
//!
//! Pre-fix, shutdown had two holes (DESIGN.md "Shutdown and drain"):
//!
//! * In work-stealing mode a worker exited as soon as the drain flag was
//!   up and *its own* queue was empty — jobs still sitting in a sibling's
//!   queue (which that worker could have stolen) could be left behind if
//!   their owner was also past its exit check, breaking conservation.
//! * On the `Drop`-without-`shutdown` path the drain flag was raised
//!   *before* the last request was forwarded: workers could exit while
//!   requests were still being pushed into their dead rings (silent job
//!   loss), and once such a ring filled up the push was retried forever
//!   — a hang at join time.
//!
//! Now the submitter is the dispatcher, so phase 1 (the `closed` flag,
//! raised by `shutdown` or `Drop`) comes after its last push by
//! construction, and strictly precedes phase 2 (workers exit only when
//! every queue they can receive from is empty). These tests hammer both
//! paths; the stealing-conservation loop runs well over 100 shutdowns
//! under load, as tiny windows need many trials to open.

use tq_core::policy::{DispatchPolicy, WorkerPolicy};
use tq_core::Nanos;
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};

fn server(config: ServerConfig, clock: &TscClock) -> TinyQuanta {
    let job_clock = clock.clone();
    TinyQuanta::start_with_clock(config, clock.clone(), move |req| {
        Box::new(SpinJob::with_clock(req, &job_clock))
    })
}

/// ≥100 shutdowns of a loaded work-stealing server: every round must
/// conserve jobs exactly, with the auditor confirming ring-level
/// exactly-once admission (steals included). Fails on the pre-fix
/// local-queue-only exit check.
#[test]
fn stealing_shutdown_conserves_over_many_rounds() {
    let clock = TscClock::calibrated();
    let rounds = 120;
    let jobs_per_round = 64;
    for round in 0..rounds {
        let cfg = ServerConfig {
            workers: 4,
            quantum: Nanos::from_micros(2),
            // Tight rings force backpressure on the submits just before
            // the shutdown.
            ring_capacity: 8,
            dispatch: DispatchPolicy::RssHash,
            discipline: WorkerPolicy::Fcfs,
            work_stealing: true,
            seed: round,
            audit: true,
            ..ServerConfig::default()
        };
        let s = server(cfg, &clock);
        for i in 0..jobs_per_round {
            s.submit((i % 2) as u16, Nanos::from_micros(1));
        }
        // Shut down immediately: most jobs are still in queues, so the
        // drain (and stealing during it) does the real work.
        let (completions, stats) = s.shutdown_with_stats();
        assert_eq!(
            completions.len(),
            jobs_per_round,
            "round {round}: lost {} job(s) at shutdown",
            jobs_per_round - completions.len()
        );
        let report = stats.audit.as_ref().expect("audit enabled");
        assert!(report.is_clean(), "round {round}: {report}");
    }
}

/// The same loop through the SPSC (non-stealing) path, cheaper per
/// round, as a control: the two-phase protocol must not regress it.
#[test]
fn spsc_shutdown_conserves_over_many_rounds() {
    let clock = TscClock::calibrated();
    for round in 0..100 {
        let cfg = ServerConfig {
            workers: 2,
            quantum: Nanos::from_micros(2),
            ring_capacity: 8,
            seed: round,
            audit: true,
            ..ServerConfig::default()
        };
        let s = server(cfg, &clock);
        for _ in 0..32 {
            s.submit(0, Nanos::from_micros(1));
        }
        let (completions, stats) = s.shutdown_with_stats();
        assert_eq!(completions.len(), 32, "round {round}");
        let report = stats.audit.as_ref().expect("audit enabled");
        assert!(report.is_clean(), "round {round}: {report}");
    }
}

/// Drop-without-shutdown under heavy load and tiny rings: `submit`
/// blocks on the full rings while the workers run, and `Drop` then waits
/// for the requests still queued. Every thread must terminate, with no
/// hang in the join and no panic from a worker.
#[test]
fn drop_under_load_terminates() {
    let clock = TscClock::calibrated();
    for round in 0..20 {
        let cfg = ServerConfig {
            workers: 2,
            quantum: Nanos::from_micros(5),
            ring_capacity: 2,
            seed: round,
            ..ServerConfig::default()
        };
        let s = server(cfg, &clock);
        for _ in 0..400 {
            s.submit(0, Nanos::from_micros(50));
        }
        drop(s); // must terminate, not hang or lose track of threads
    }
}

/// The same drop path with stealing mode and tiny queues.
#[test]
fn drop_under_load_terminates_stealing() {
    let clock = TscClock::calibrated();
    for round in 0..20 {
        let cfg = ServerConfig {
            workers: 3,
            quantum: Nanos::from_micros(5),
            ring_capacity: 2,
            work_stealing: true,
            seed: round,
            ..ServerConfig::default()
        };
        let s = server(cfg, &clock);
        for _ in 0..300 {
            s.submit(0, Nanos::from_micros(50));
        }
        drop(s);
    }
}

/// A clean shutdown after a `submit` burst races phase 1 against phase 2
/// hundreds of times at varying burst sizes; conservation must hold at
/// every size (this sweeps the window where the last push lands just as
/// workers evaluate their exit condition).
#[test]
fn shutdown_while_submitting_burst_sizes() {
    let clock = TscClock::calibrated();
    for burst in [1usize, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
        for round in 0..10 {
            let cfg = ServerConfig {
                workers: 2,
                quantum: Nanos::from_micros(2),
                ring_capacity: 4,
                work_stealing: round % 2 == 1,
                seed: round,
                audit: true,
                ..ServerConfig::default()
            };
            let s = server(cfg, &clock);
            for _ in 0..burst {
                s.submit(0, Nanos::from_nanos(500));
            }
            let (completions, stats) = s.shutdown_with_stats();
            assert_eq!(completions.len(), burst, "burst {burst} round {round}");
            let report = stats.audit.as_ref().expect("audit enabled");
            assert!(report.is_clean(), "burst {burst} round {round}: {report}");
        }
    }
}
