//! The [`TinyQuanta`] server facade.
//!
//! Wires together the worker threads, rings, shared counters and the
//! clock, exposing a submit/collect API. The real system's dispatcher is
//! a core polling the NIC's RX ring; here the caller of
//! [`TinyQuanta::submit_burst`] is that core: it stamps the burst and
//! forwards it straight into the worker rings (the network was never the
//! paper's bottleneck — see DESIGN.md). There is no dispatcher thread.
//!
//! Shutdown follows a two-phase drain protocol (DESIGN.md "Shutdown and
//! drain"): phase 1 ends when the owner stops submitting, which
//! `shutdown` and `Drop` mark by raising one `closed` flag after the last
//! push; phase 2, each worker exits only once that flag is up *and*
//! every queue it can receive work from is empty. Every accepted request
//! therefore completes, on every exit path — job conservation
//! `submitted = completed`, which the optional
//! [`tq_audit::InvariantAuditor`] verifies at shutdown.

use crate::clock::TscClock;
use crate::dispatcher::{self, DispatchState, DispatchTx};
use crate::job::Job;
use crate::ring;
use crate::worker::{self, WorkerHandle};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tq_audit::fault::FaultPlan;
use tq_audit::{AuditReport, InvariantAuditor, RingAuditLog};
use tq_core::counters::SharedCounters;
use tq_core::policy::{DispatchPolicy, TieBreak, WorkerPolicy};
use tq_core::{ClassId, JobId, Nanos};

/// A request submitted to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtRequest {
    /// Unique id assigned at submission.
    pub id: JobId,
    /// Reporting class (blind to the scheduler, as always).
    pub class: ClassId,
    /// Service-time hint consumed by synthetic job factories
    /// ([`crate::SpinJob`]); real factories may ignore it.
    pub service: Nanos,
    /// Server wall-clock time at submission.
    pub submitted: Nanos,
}

/// A finished job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The job.
    pub id: JobId,
    /// Its class.
    pub class: ClassId,
    /// Submission timestamp.
    pub submitted: Nanos,
    /// Completion timestamp (same clock): the wall half of the worker's
    /// [`TscClock::stamp`] taken as the job returned `Done`, whose cycle
    /// half arms that worker's next quantum.
    pub finished: Nanos,
    /// Quanta the job consumed.
    pub quanta: u64,
    /// Which worker ran it.
    pub worker: usize,
}

impl Completion {
    /// Sojourn time: submission to completion.
    pub fn sojourn(&self) -> Nanos {
        self.finished.saturating_sub(self.submitted)
    }
}

/// Per-worker completion-ring capacity. Workers never block on a full
/// completion ring: overflow stays in a worker-local buffer until the
/// next drain, so this only bounds the *shared* memory.
const COMPLETION_CAPACITY: usize = 4096;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (the paper uses 16 dedicated cores; on a small
    /// host these are oversubscribed OS threads).
    pub workers: usize,
    /// Scheduling quantum.
    pub quantum: Nanos,
    /// Dispatch-ring capacity per worker.
    pub ring_capacity: usize,
    /// Load-balancing policy.
    pub dispatch: DispatchPolicy,
    /// Worker quantum discipline: PS (default), FCFS (never preempt), or
    /// least-attained-service (the §3.1 dynamic-quanta extension).
    pub discipline: WorkerPolicy,
    /// Whether idle workers steal queued jobs from siblings (the Caladan
    /// configuration; pairs naturally with FCFS + RSS dispatch).
    pub work_stealing: bool,
    /// Seed for policy randomness.
    pub seed: u64,
    /// Record ring traffic and run the invariant auditor at shutdown
    /// (`ServerStats::audit`). Off by default: when false no audit state
    /// is allocated and the hot paths pay one predictable `None` branch.
    pub audit: bool,
    /// Deterministic fault plan (worker stall windows); `None` disables
    /// injection entirely.
    pub fault: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            quantum: Nanos::from_micros(5),
            ring_capacity: 1024,
            dispatch: DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
            discipline: WorkerPolicy::ProcessorSharing,
            work_stealing: false,
            seed: 42,
            audit: false,
            fault: None,
        }
    }
}

/// A job factory: builds the coroutine for each arriving request.
pub type JobFactory = dyn Fn(&RtRequest) -> Box<dyn Job> + Send + Sync;

/// Internal statistics collected at shutdown: the dispatcher's counters
/// plus each worker's, in worker-index order. Previously these were
/// dropped at shutdown; the harness now surfaces them in `RunOutput`.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Dispatch counters (forwarded requests, chunks, ring backpressure),
    /// measured in the submitting thread.
    pub dispatcher: dispatcher::DispatcherStats,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<worker::WorkerStats>,
    /// Invariant-audit report, present iff `ServerConfig::audit` was set.
    /// Covers what the server can see on its own: counter-level job
    /// conservation and the ring traffic log. Stream-level checks
    /// (exactly-once ids, timestamps) live with whoever holds the full
    /// completion stream — see `tq-harness`.
    pub audit: Option<AuditReport>,
}

impl ServerStats {
    /// Total jobs completed across all workers.
    pub fn total_completed(&self) -> u64 {
        self.workers.iter().map(|w| w.completed).sum()
    }

    /// Total quanta executed across all workers.
    pub fn total_quanta(&self) -> u64 {
        self.workers.iter().map(|w| w.quanta).sum()
    }

    /// Highest dispatch-ring occupancy observed on any worker.
    pub fn max_ring_occupancy(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.max_ring_occupancy)
            .max()
            .unwrap_or(0)
    }

    /// Requests accepted but never run. Always 0: `submit_burst` returns
    /// only once every request is in a worker's queue, and both
    /// `shutdown` and `Drop` run every queued request to completion.
    pub fn total_dropped(&self) -> u64 {
        0
    }
}

/// A running Tiny Quanta server.
///
/// The handle is `Send` but deliberately not `Sync`: its owner is the
/// *single* producer of every worker ring, which is what lets a burst be
/// one ring publish per worker instead of a lock per request.
///
/// ```
/// fn assert_send<T: Send>() {}
/// assert_send::<tq_runtime::TinyQuanta>();
/// ```
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<tq_runtime::TinyQuanta>();
/// ```
#[derive(Debug)]
pub struct TinyQuanta {
    /// The dispatcher, run by whoever submits.
    dispatch: RefCell<DispatchState>,
    /// One SPSC completion ring per worker (that worker is the sole
    /// producer), replacing the old unbounded MPSC channel: a completion
    /// publish is a ring write instead of a channel send, and a burst of
    /// completions is one Release publish. Drained by
    /// [`TinyQuanta::drain_completions`], by shutdown (concurrently with
    /// the worker joins — workers spin-flush their local overflow at
    /// exit), and by `Drop`.
    completion_rx: Vec<ring::Consumer<Completion>>,
    workers: Vec<WorkerHandle>,
    /// Phase 1 of the drain: raised once the owner has stopped
    /// submitting, after the last ring push.
    closed: Arc<AtomicBool>,
    audit_log: Option<Arc<RingAuditLog>>,
    work_stealing: bool,
    clock: TscClock,
    next_id: AtomicU64,
    /// Live scheduling quantum in nanoseconds, shared with every worker.
    /// Workers re-read it before arming each quantum, so
    /// [`TinyQuanta::set_quantum`] (the adaptive controller's publish
    /// path) takes effect within one quantum without restarting anything.
    quantum: Arc<AtomicU64>,
}

impl TinyQuanta {
    /// Starts the server: spawns one thread per worker, on a new
    /// [`TscClock`] (the process's calibration, with its own origin).
    /// Callers that stamp their own events should use
    /// [`TinyQuanta::start_with_clock`] so timestamps share one origin.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero workers, or a `Pinned`
    /// worker that does not exist).
    pub fn start<F>(config: ServerConfig, factory: F) -> TinyQuanta
    where
        F: Fn(&RtRequest) -> Box<dyn Job> + Send + Sync + 'static,
    {
        Self::start_with_clock(config, TscClock::calibrated(), factory)
    }

    /// Starts the server on an existing clock. All request/completion
    /// timestamps are measured on `clock`, so a caller that stamps its
    /// own events on the same clock gets directly comparable numbers.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero workers, or a `Pinned`
    /// worker that does not exist).
    pub fn start_with_clock<F>(config: ServerConfig, clock: TscClock, factory: F) -> TinyQuanta
    where
        F: Fn(&RtRequest) -> Box<dyn Job> + Send + Sync + 'static,
    {
        assert!(config.workers > 0, "need at least one worker");
        let factory: Arc<JobFactory> = Arc::new(factory);
        let counters: Arc<Vec<SharedCounters>> = Arc::new(
            (0..config.workers).map(|_| SharedCounters::new()).collect(),
        );
        let closed = Arc::new(AtomicBool::new(false));
        let quantum = Arc::new(AtomicU64::new(config.quantum.0));
        let audit_log = config
            .audit
            .then(|| Arc::new(RingAuditLog::new(config.workers)));
        let mut completion_rx = Vec::with_capacity(config.workers);
        let mut completion_tx = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (p, c) = ring::spsc::<Completion>(COMPLETION_CAPACITY);
            completion_tx.push(p);
            completion_rx.push(c);
        }
        let (tx, rxs): (DispatchTx, Vec<worker::WorkerRx>) = if config.work_stealing {
            let queues: Vec<Arc<crossbeam::queue::ArrayQueue<RtRequest>>> = (0..config.workers)
                .map(|_| Arc::new(crossbeam::queue::ArrayQueue::new(config.ring_capacity)))
                .collect();
            let rxs = (0..config.workers)
                .map(|index| worker::WorkerRx::Shared {
                    index,
                    queues: queues.clone(),
                })
                .collect();
            (DispatchTx::Shared(queues), rxs)
        } else {
            let (producers, rxs): (Vec<_>, Vec<_>) = (0..config.workers)
                .map(|_| {
                    let (p, c) = ring::spsc::<RtRequest>(config.ring_capacity);
                    (p, worker::WorkerRx::Spsc(c))
                })
                .unzip();
            (DispatchTx::Spsc(producers), rxs)
        };
        // Built before any thread exists, so a bad policy panics here.
        let dispatch = DispatchState::new(&config, tx, Arc::clone(&counters), audit_log.clone());
        let workers = rxs
            .into_iter()
            .zip(completion_tx)
            .enumerate()
            .map(|(w, (rx, completions))| {
                worker::spawn(
                    w,
                    &config,
                    Arc::clone(&quantum),
                    rx,
                    Arc::clone(&factory),
                    Arc::clone(&counters),
                    completions,
                    Arc::clone(&closed),
                    audit_log.clone(),
                    clock.clone(),
                )
            })
            .collect();

        TinyQuanta {
            dispatch: RefCell::new(dispatch),
            completion_rx,
            workers,
            closed,
            audit_log,
            work_stealing: config.work_stealing,
            clock,
            next_id: AtomicU64::new(0),
            quantum,
        }
    }

    /// The scheduling quantum currently in force.
    pub fn quantum(&self) -> Nanos {
        Nanos(self.quantum.load(Ordering::Relaxed))
    }

    /// Publishes a new scheduling quantum to every worker — the adaptive
    /// controller's wall-clock analogue of the simulators' window step.
    /// Workers pick it up before arming their next quantum; jobs mid-
    /// quantum finish their current slice under the old value. Has no
    /// effect on non-preempting disciplines (FCFS never arms a deadline).
    pub fn set_quantum(&self, quantum: Nanos) {
        self.quantum.store(quantum.0, Ordering::Relaxed);
    }

    /// Submits a synthetic request of the given class and service time.
    /// Returns its id. Blocks (yielding) while every worker ring is full.
    pub fn submit(&self, class: u16, service: Nanos) -> JobId {
        self.submit_burst(&[(class, service)])
    }

    /// Submits a whole burst of `(class, service)` requests, returning
    /// the id of the first; the rest follow sequentially. The calling
    /// thread is the dispatcher: it forwards the burst into the worker
    /// rings in chunks of up to 64, each paying one load snapshot and one
    /// ring publish per worker instead of one of each per request. The
    /// burst pays one clock read and one id-range reservation, and all
    /// its requests share one submission timestamp: the burst *arrived*
    /// together (a batched socket read delivers its frames at one
    /// instant). Returns once every request is in a worker's queue,
    /// blocking (yielding) while every worker ring is full.
    ///
    /// # Panics
    ///
    /// Panics on an empty burst.
    pub fn submit_burst(&self, reqs: &[(u16, Nanos)]) -> JobId {
        assert!(!reqs.is_empty(), "empty burst");
        let first = self.next_id.fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let now = self.clock.wall_nanos();
        self.dispatch
            .borrow_mut()
            .forward(reqs, first, now, &self.clock);
        JobId(first)
    }

    /// The server's wall clock (for aligning external measurements).
    pub fn clock(&self) -> &TscClock {
        &self.clock
    }

    /// Completions received so far, without shutting down.
    pub fn drain_completions(&self) -> Vec<Completion> {
        let mut out = Vec::new();
        drain_rings(&self.completion_rx, &mut out);
        out
    }

    /// Appends completions received so far into `out` without shutting
    /// down — the allocation-free variant of
    /// [`TinyQuanta::drain_completions`] for callers polling in a loop
    /// (the socket serving loop reuses one buffer across iterations).
    pub fn drain_completions_into(&self, out: &mut Vec<Completion>) {
        drain_rings(&self.completion_rx, out);
    }

    /// Stops accepting requests, drains all in-flight work, joins every
    /// thread, and returns all remaining completions.
    pub fn shutdown(self) -> Vec<Completion> {
        self.shutdown_with_stats().0
    }

    /// Like [`TinyQuanta::shutdown`], additionally returning the
    /// dispatcher's and each worker's internal statistics (forwarded
    /// counts, ring backpressure events, quanta, steals, ring occupancy)
    /// and — when `ServerConfig::audit` was set — the invariant-audit
    /// report in `ServerStats::audit`.
    pub fn shutdown_with_stats(mut self) -> (Vec<Completion>, ServerStats) {
        let mut completions = Vec::new();
        let workers = self.close_and_join(&mut completions);
        let submitted = self.next_id.load(Ordering::Relaxed);
        let mut stats = ServerStats {
            dispatcher: self.dispatch.borrow().stats(&self.clock),
            workers: workers
                .into_iter()
                .map(|w| w.expect("worker panicked"))
                .collect(),
            audit: None,
        };
        if self.audit_log.is_some() {
            stats.audit = Some(self.audit(submitted, &stats));
        }
        (completions, stats)
    }

    /// Ends phase 1 — no push will follow — and joins the workers, which
    /// run everything queued before they exit (phase 2). Each worker
    /// spin-flushes its locally buffered completions into its bounded
    /// completion ring on the way out, so this side keeps draining the
    /// rings into `completions` *while* the workers wind down, or a full
    /// ring would deadlock the join. Returns each worker's statistics,
    /// or its panic; empty once the workers have been joined.
    fn close_and_join(
        &mut self,
        completions: &mut Vec<Completion>,
    ) -> Vec<std::thread::Result<worker::WorkerStats>> {
        self.closed.store(true, Ordering::Release);
        let handles: Vec<WorkerHandle> = self.workers.drain(..).collect();
        loop {
            drain_rings(&self.completion_rx, completions);
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
            std::thread::yield_now();
        }
        let stats = handles.into_iter().map(|w| w.join()).collect();
        // Final sweep: everything flushed before the last worker exited.
        drain_rings(&self.completion_rx, completions);
        stats
    }

    /// Runs the counter- and ring-level invariant checks the server can
    /// perform without the full completion stream (some completions may
    /// already have been handed out via [`TinyQuanta::drain_completions`]).
    fn audit(&self, submitted: u64, stats: &ServerStats) -> AuditReport {
        let mut auditor = InvariantAuditor::new("server");
        auditor.check_conservation(submitted, stats.total_completed(), &[]);
        auditor.check(
            "dispatcher_accounts_every_submission",
            stats.dispatcher.forwarded == submitted,
            || {
                format!(
                    "forwarded {} != submitted {submitted}",
                    stats.dispatcher.forwarded
                )
            },
        );
        if let Some(log) = &self.audit_log {
            auditor.check_ring_log(log, self.work_stealing);
        }
        auditor.finish()
    }
}

impl Drop for TinyQuanta {
    /// A dropped server runs every request it accepted to completion,
    /// exactly as `shutdown` does, and discards the completions. A
    /// worker's panic is not raised again here: a panic in `drop` while
    /// another unwinds would abort the process.
    fn drop(&mut self) {
        self.close_and_join(&mut Vec::new());
    }
}

/// Empties every completion ring into `out` (batched pops; one Release
/// recycle per burst per ring).
fn drain_rings(rxs: &[ring::Consumer<Completion>], out: &mut Vec<Completion>) {
    for rx in rxs {
        while rx.pop_batch(out, 1024) > 0 {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SpinJob;

    fn spin_server(workers: usize, quantum_us: u64) -> TinyQuanta {
        let clock = TscClock::calibrated();
        TinyQuanta::start_with_clock(
            ServerConfig {
                workers,
                quantum: Nanos::from_micros(quantum_us),
                ..ServerConfig::default()
            },
            clock.clone(),
            move |req| Box::new(SpinJob::with_clock(req, &clock)),
        )
    }

    #[test]
    fn all_submitted_jobs_complete() {
        let server = spin_server(2, 10);
        let n = 200;
        for i in 0..n {
            server.submit((i % 3) as u16, Nanos::from_micros(5));
        }
        let completions = server.shutdown();
        assert_eq!(completions.len(), n);
        let mut ids: Vec<u64> = completions.iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "every job exactly once");
    }

    #[test]
    fn long_jobs_are_sliced_into_many_quanta() {
        let server = spin_server(1, 5);
        server.submit(0, Nanos::from_micros(200));
        let completions = server.shutdown();
        assert_eq!(completions.len(), 1);
        assert!(
            completions[0].quanta >= 10,
            "200µs at 5µs quanta got only {} quanta",
            completions[0].quanta
        );
    }

    #[test]
    fn sojourn_at_least_service() {
        let server = spin_server(2, 10);
        for _ in 0..20 {
            server.submit(0, Nanos::from_micros(50));
        }
        for c in server.shutdown() {
            assert!(c.sojourn() >= Nanos::from_micros(40), "sojourn {}", c.sojourn());
        }
    }

    #[test]
    fn set_quantum_republishes_to_workers_mid_run() {
        // Same server, two phases: a fat quantum runs a 100µs job in one
        // slice; after `set_quantum` shrinks it to 5µs, a 200µs job must
        // be sliced many times — workers re-read the shared cell without
        // any restart.
        let server = spin_server(1, 500);
        server.submit(0, Nanos::from_micros(100));
        let mut first = Vec::new();
        while first.is_empty() {
            server.drain_completions_into(&mut first);
            std::thread::yield_now();
        }
        assert!(
            first[0].quanta <= 2,
            "100µs under a 500µs quantum took {} quanta",
            first[0].quanta
        );
        server.set_quantum(Nanos::from_micros(5));
        assert_eq!(server.quantum(), Nanos::from_micros(5));
        server.submit(0, Nanos::from_micros(200));
        let completions = server.shutdown();
        assert_eq!(completions.len(), 1);
        assert!(
            completions[0].quanta >= 10,
            "200µs under the republished 5µs quantum took only {} quanta",
            completions[0].quanta
        );
    }

    #[test]
    fn drop_without_shutdown_terminates() {
        let server = spin_server(2, 10);
        server.submit(0, Nanos::from_micros(5));
        drop(server); // must not hang
    }

    /// A job that counts its own completion.
    struct Counted(Arc<AtomicU64>);

    impl Job for Counted {
        fn run(&mut self, _: &mut crate::job::QuantumCtx) -> crate::job::JobStatus {
            self.0.fetch_add(1, Ordering::Relaxed);
            crate::job::JobStatus::Done
        }
    }

    const STALLED_RING: usize = 64;

    /// One worker, dark for its first 100 ms, whose ring is full: the
    /// burst fits it exactly, so `submit_burst` returns at once.
    fn stalled_full_ring(done: &Arc<AtomicU64>) -> TinyQuanta {
        let done = Arc::clone(done);
        let server = TinyQuanta::start(
            ServerConfig {
                workers: 1,
                ring_capacity: STALLED_RING,
                audit: true,
                fault: Some(FaultPlan::stall_worker(
                    0,
                    Nanos::ZERO,
                    Nanos::from_millis(100),
                )),
                ..ServerConfig::default()
            },
            move |_| Box::new(Counted(Arc::clone(&done))),
        );
        server.submit_burst(&[(0, Nanos::ZERO); STALLED_RING]);
        server
    }

    #[test]
    fn dropping_a_server_whose_stalled_worker_has_full_rings_finishes_every_request() {
        let done = Arc::new(AtomicU64::new(0));
        drop(stalled_full_ring(&done));
        assert_eq!(done.load(Ordering::Relaxed), STALLED_RING as u64);
    }

    #[test]
    fn shutting_down_a_server_whose_stalled_worker_has_full_rings_finishes_every_request() {
        let done = Arc::new(AtomicU64::new(0));
        let (completions, stats) = stalled_full_ring(&done).shutdown_with_stats();
        assert_eq!(completions.len(), STALLED_RING);
        assert_eq!(done.load(Ordering::Relaxed), STALLED_RING as u64);
        assert_eq!(stats.max_ring_occupancy(), STALLED_RING as u64);
        assert!(
            stats.workers[0].stalled_iterations > 0,
            "the stall never applied"
        );
        let report = stats.audit.as_ref().expect("audit was enabled");
        assert!(report.is_clean(), "audit violations: {report}");
    }

    #[test]
    fn completions_spread_across_workers() {
        let server = spin_server(2, 5);
        for _ in 0..100 {
            server.submit(0, Nanos::from_micros(20));
        }
        let completions = server.shutdown();
        let on_zero = completions.iter().filter(|c| c.worker == 0).count();
        assert!(
            on_zero > 0 && on_zero < 100,
            "JSQ should spread load: {on_zero}/100 on worker 0"
        );
    }

    #[test]
    fn audited_shutdown_reports_clean() {
        let clock = TscClock::calibrated();
        let server = TinyQuanta::start_with_clock(
            ServerConfig {
                workers: 2,
                quantum: Nanos::from_micros(10),
                audit: true,
                ..ServerConfig::default()
            },
            clock.clone(),
            move |req| Box::new(SpinJob::with_clock(req, &clock)),
        );
        for i in 0..150 {
            server.submit((i % 3) as u16, Nanos::from_micros(5));
        }
        let (completions, stats) = server.shutdown_with_stats();
        assert_eq!(completions.len(), 150);
        let report = stats.audit.as_ref().expect("audit was enabled");
        assert!(report.is_clean(), "audit violations: {report}");
        assert!(report.checks >= 3, "expected several checks to run");
    }
}
