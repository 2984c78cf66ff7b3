//! End-to-end tests of the real runtime: threads, rings, counters,
//! forced-multitasking jobs. Sized for a small (possibly single-core) CI
//! host — these verify behavior, not 16-core throughput.

use tq_core::Nanos;
use tq_runtime::{kv, Job, JobStatus, QuantumCtx, ServerConfig, SpinJob, TinyQuanta, TscClock};

fn spin_server(workers: usize, quantum_us: u64) -> TinyQuanta {
    let clock = TscClock::calibrated();
    TinyQuanta::start(
        ServerConfig {
            workers,
            quantum: Nanos::from_micros(quantum_us),
            ..ServerConfig::default()
        },
        move |req| Box::new(SpinJob::with_clock(req, &clock)),
    )
}

#[test]
fn bimodal_mix_completes_and_slices() {
    let server = spin_server(2, 5);
    for i in 0..300u64 {
        if i % 50 == 49 {
            server.submit(1, Nanos::from_micros(300));
        } else {
            server.submit(0, Nanos::from_micros(5));
        }
    }
    let completions = server.shutdown();
    assert_eq!(completions.len(), 300);
    let long_quanta: Vec<u64> = completions
        .iter()
        .filter(|c| c.class.0 == 1)
        .map(|c| c.quanta)
        .collect();
    assert!(!long_quanta.is_empty());
    assert!(
        long_quanta.iter().all(|&q| q >= 10),
        "300us jobs at 5us quanta must be sliced many times: {long_quanta:?}"
    );
    let short_quanta_max = completions
        .iter()
        .filter(|c| c.class.0 == 0)
        .map(|c| c.quanta)
        .max()
        .unwrap();
    // On an oversubscribed host the OS can deschedule a worker
    // mid-quantum, making wall-clock deadlines expire early — allow a
    // generous cap while still catching pathological slicing.
    assert!(
        short_quanta_max <= 10,
        "5us jobs should finish in a few quanta, saw {short_quanta_max}"
    );
}

/// A job using critical sections: the probe must not fire inside them,
/// and the job still completes.
struct CriticalJob {
    clock: TscClock,
    spins: u32,
}

impl Job for CriticalJob {
    fn run(&mut self, ctx: &mut QuantumCtx) -> JobStatus {
        while self.spins > 0 {
            ctx.enter_critical();
            // 10µs of "locked" work: probes observed but suppressed.
            let start = self.clock.now();
            let target = self.clock.to_cycles(Nanos::from_micros(10));
            while self.clock.now().wrapping_sub(start).0 < target.0 {
                assert!(!ctx.probe(), "probe fired inside a critical section");
            }
            ctx.exit_critical();
            self.spins -= 1;
            if self.spins > 0 && ctx.probe() {
                return JobStatus::Yielded;
            }
        }
        JobStatus::Done
    }
}

#[test]
fn critical_sections_suppress_preemption_but_jobs_finish() {
    let clock = TscClock::calibrated();
    let server = TinyQuanta::start(
        ServerConfig {
            workers: 1,
            quantum: Nanos::from_micros(2),
            ..ServerConfig::default()
        },
        move |_req| {
            Box::new(CriticalJob {
                clock: clock.clone(),
                spins: 3,
            })
        },
    );
    for _ in 0..10 {
        server.submit(0, Nanos::ZERO);
    }
    let completions = server.shutdown();
    assert_eq!(completions.len(), 10);
}

/// The KV store behind the runtime: concurrent workers share one store
/// and preemptible SCANs (`tq_runtime::kv`, the job every front end
/// serves) yield and complete.
#[test]
fn kv_scan_jobs_yield_and_complete() {
    let store = kv::kv_store(3, 50_000, 64);
    let server = TinyQuanta::start(
        ServerConfig {
            workers: 2,
            quantum: Nanos::from_micros(5),
            ..ServerConfig::default()
        },
        kv::kv_factory(store, 50_000, 5_000),
    );
    for _ in 0..20 {
        server.submit(1, Nanos::ZERO); // class 1: SCAN
    }
    let completions = server.shutdown();
    assert_eq!(completions.len(), 20);
    assert!(
        completions.iter().any(|c| c.quanta > 1),
        "scans should have been preempted at least once"
    );
}

#[test]
fn las_discipline_serves_all_jobs_and_favors_fresh_work() {
    use tq_core::policy::WorkerPolicy;
    let clock = TscClock::calibrated();
    let server = TinyQuanta::start(
        ServerConfig {
            workers: 1,
            quantum: Nanos::from_micros(5),
            discipline: WorkerPolicy::LeastAttainedService,
            ..ServerConfig::default()
        },
        move |req| Box::new(SpinJob::with_clock(req, &clock)),
    );
    // One long job first, then a burst of shorts: LAS must complete all,
    // and the shorts (least attained) jump the long job.
    server.submit(1, Nanos::from_micros(400));
    std::thread::sleep(std::time::Duration::from_millis(1));
    for _ in 0..20 {
        server.submit(0, Nanos::from_micros(5));
    }
    let completions = server.shutdown();
    assert_eq!(completions.len(), 21);
    let long = completions.iter().find(|c| c.class.0 == 1).unwrap();
    assert!(long.quanta >= 2, "long job should have been preempted");
}

#[test]
fn work_stealing_rescues_a_pinned_dispatcher() {
    use tq_core::policy::{DispatchPolicy, WorkerPolicy};
    // Everything is dispatched to worker 0; with stealing on, worker 1
    // must rescue some of the backlog — the Caladan mechanism, live.
    let clock = TscClock::calibrated();
    let server = TinyQuanta::start(
        ServerConfig {
            workers: 2,
            quantum: Nanos::from_micros(100),
            dispatch: DispatchPolicy::Pinned(0),
            discipline: WorkerPolicy::Fcfs,
            work_stealing: true,
            ..ServerConfig::default()
        },
        move |req| Box::new(SpinJob::with_clock(req, &clock)),
    );
    for _ in 0..200 {
        server.submit(0, Nanos::from_micros(30));
    }
    let (completions, stats) = server.shutdown_with_stats();
    assert_eq!(completions.len(), 200);
    assert_eq!(stats.dispatcher.forwarded, 200);
    let stolen = completions.iter().filter(|c| c.worker == 1).count();
    assert!(
        stolen > 0,
        "worker 1 should have stolen some of worker 0's backlog"
    );
    assert!(
        stats.workers[1].steals > 0,
        "worker 1's steal counter should agree: {:?}",
        stats.workers
    );
    assert_eq!(
        stats.total_completed(),
        200,
        "worker stats must reconcile with completions"
    );
}

#[test]
fn counters_reconcile_with_completions() {
    let server = spin_server(2, 10);
    for _ in 0..100 {
        server.submit(0, Nanos::from_micros(20));
    }
    let completions = server.shutdown();
    assert_eq!(completions.len(), 100);
    // Every completion's quanta ≥ 1, and ids unique.
    assert!(completions.iter().all(|c| c.quanta >= 1));
    let mut ids: Vec<u64> = completions.iter().map(|c| c.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 100);
}
