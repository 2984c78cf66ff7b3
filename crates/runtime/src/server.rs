//! The [`TinyQuanta`] server facade.
//!
//! Wires together the dispatcher thread, worker threads, rings, shared
//! counters and the clock, exposing a submit/collect API. The real system's
//! dispatcher polls a NIC RX ring; here `submit`/`try_submit_burst` are the
//! NIC: they write a burst into an SPSC RX ring with one Release publish
//! and the dispatcher polls it (the network was never the paper's
//! bottleneck — see DESIGN.md). Unlike a dedicated dispatcher core, ours
//! shares its host, so it parks at its first empty poll, and a submit
//! wakes it only when the `parked` flag is up — see [`ShutdownSignal`].
//!
//! Shutdown follows a two-phase drain protocol (DESIGN.md "Shutdown and
//! drain"): phase 1, the dispatcher forwards (or, on abort, counts as
//! dropped) everything it will ever see and sets `dispatcher_done`;
//! phase 2, each worker exits only once that flag is up *and* every
//! queue it can receive work from is empty. The two phases make job
//! conservation — `submitted = completed + dropped`, with every drop
//! named — hold on every exit path, which the optional
//! [`tq_audit::InvariantAuditor`] verifies at shutdown.

use crate::clock::TscClock;
use crate::dispatcher;
use crate::job::Job;
use crate::ring;
use crate::worker::{self, WorkerHandle};
use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tq_audit::fault::FaultPlan;
use tq_audit::{AuditReport, DropReason, InvariantAuditor, RingAuditLog};
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
    /// Completion timestamp (same clock).
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

/// Capacity of the submit (RX) ring between the facade and the
/// dispatcher: the largest `max_in_flight` a front end runs with
/// ([`crate::net::NetConfig`]'s default), so a serve loop inside its
/// in-flight bound never finds it full. A caller that outruns the
/// dispatcher by more than this yields in `submit` until there is room —
/// memory stays bounded where the channel this replaced grew without
/// limit.
const SUBMIT_RING_CAPACITY: usize = 8192;

/// Per-worker completion-ring capacity. Workers never block on a full
/// completion ring: overflow stays in a worker-local buffer until the
/// next drain, so this only bounds the *shared* memory.
const COMPLETION_CAPACITY: usize = 4096;

/// Coordination flags between the facade, the dispatcher and the workers:
/// the two-phase shutdown drain protocol and the dispatcher's sleep/wake
/// handshake.
///
/// `closed` ends submission: set (by `shutdown`/`Drop`) after the last
/// request was published to the submit ring, so a dispatcher that reads
/// it and *then* finds the ring empty has seen everything. `abort` is the
/// teardown-without-shutdown path: the dispatcher stops forwarding and
/// accounts the remainder as [`DropReason::ShutdownAbort`] drops rather
/// than pushing into rings whose workers may already be gone.
/// `dispatcher_done` is phase 1: set when the dispatcher thread ends —
/// after every request it will ever deliver is in a ring, or by unwinding
/// — so nothing can appear in any queue afterwards. Workers use it as the
/// gate for phase 2 (exit once it is up *and* every queue they can receive
/// from is empty), and the submit side reads it as "nobody will ever pop
/// the submit ring again".
///
/// `parked` makes a wake-up cost one futex call per dispatcher *sleep*
/// instead of one per request. The two sides run the store-buffering
/// handshake, each with a `SeqCst` fence between its store and its load:
///
/// ```text
/// submit:      publish to ring ; fence ; load parked  → if up: clear, unpark
/// dispatcher:  store parked=up ; fence ; re-check ring → if empty: park
/// ```
///
/// Whichever fence comes second sees the other side's store, so either
/// the submitter sees `parked` (and unparks; the token makes a later
/// `park` return at once) or the dispatcher's re-check sees the request.
/// `tests/wake_protocol.rs` checks every interleaving of the handshake.
#[derive(Debug, Default)]
pub(crate) struct ShutdownSignal {
    closed: AtomicBool,
    abort: AtomicBool,
    dispatcher_done: AtomicBool,
    parked: AtomicBool,
}

impl ShutdownSignal {
    /// Ends submission and wakes the dispatcher so it drains and exits.
    /// The unpark is unconditional: this runs once, and a dispatcher that
    /// has not parked yet keeps the token for when it does.
    pub(crate) fn close(&self, dispatcher: &std::thread::Thread) {
        self.closed.store(true, Ordering::Release);
        dispatcher.unpark();
    }

    pub(crate) fn closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    pub(crate) fn request_abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    pub(crate) fn abort_requested(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    pub(crate) fn set_dispatcher_done(&self) {
        self.dispatcher_done.store(true, Ordering::Release);
    }

    pub(crate) fn dispatcher_done(&self) -> bool {
        self.dispatcher_done.load(Ordering::Acquire)
    }

    /// Submit side of the handshake; call after publishing to the ring.
    fn wake_if_parked(&self, dispatcher: &std::thread::Thread) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            self.parked.store(false, Ordering::Relaxed);
            dispatcher.unpark();
        }
    }

    /// Dispatcher side of the handshake: sleeps until a submit or a close
    /// unparks this thread, unless `has_work` already holds after the
    /// flag went up. May return spuriously; the caller polls again.
    pub(crate) fn park_unless(&self, has_work: impl FnOnce() -> bool) {
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if !has_work() && !self.closed() {
            std::thread::park();
        }
        self.parked.store(false, Ordering::Relaxed);
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (the paper uses 16 dedicated cores; on a small
    /// host these are oversubscribed OS threads).
    pub workers: usize,
    /// Scheduling quantum.
    pub quantum: Nanos,
    /// Task-coroutine slots per worker (§5.1: eight).
    pub task_slots: usize,
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
    /// Idle backoff, phase 1: consecutive idle iterations spent in
    /// `yield_now` before sleeping. An idle worker never spins: the
    /// submitter that would hand it work may need its CPU.
    pub idle_yields: u32,
    /// Idle backoff, phase 2: sleep length once the yields are
    /// exhausted. Bounds how long an oversubscribed host busy-waits on
    /// idle workers; also the worst-case wakeup latency for a request
    /// arriving at a deeply idle worker.
    pub idle_sleep: Nanos,
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
            task_slots: tq_core::costs::TASK_COROUTINES_PER_WORKER,
            ring_capacity: 1024,
            dispatch: DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
            discipline: WorkerPolicy::ProcessorSharing,
            work_stealing: false,
            idle_yields: 64,
            idle_sleep: Nanos::from_micros(50),
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
    /// Dispatcher-thread counters (forwarded requests, ring backpressure,
    /// abort-path drops).
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

    /// Total jobs stolen across all workers (work-stealing mode).
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Highest dispatch-ring occupancy observed on any worker.
    pub fn max_ring_occupancy(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.max_ring_occupancy)
            .max()
            .unwrap_or(0)
    }

    /// Total requests dropped (never delivered to a worker), across all
    /// named drop reasons.
    pub fn total_dropped(&self) -> u64 {
        self.dispatcher.dropped_on_abort
    }

    /// Drops by named reason, for the conservation ledger. Empty when
    /// nothing was dropped.
    pub fn drops(&self) -> Vec<(DropReason, u64)> {
        let mut drops = Vec::new();
        if self.dispatcher.dropped_on_abort > 0 {
            drops.push((DropReason::ShutdownAbort, self.dispatcher.dropped_on_abort));
        }
        drops
    }
}

/// A running Tiny Quanta server.
///
/// The handle is `Send` but deliberately not `Sync`: it is the *single*
/// producer of the submit ring, which is what lets a burst be one ring
/// publish instead of a lock per request.
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
    /// Producer half of the submit (RX) ring the dispatcher polls.
    submit_tx: ring::Producer<RtRequest>,
    /// Staging for [`TinyQuanta::try_submit_burst`], so a burst reaches
    /// the ring as one slice.
    submit_buf: RefCell<Vec<RtRequest>>,
    /// One SPSC completion ring per worker (that worker is the sole
    /// producer), replacing the old unbounded MPSC channel: a completion
    /// publish is a ring write instead of a channel send, and a burst of
    /// completions is one Release publish. Drained by
    /// [`TinyQuanta::drain_completions`], by shutdown (concurrently with
    /// the worker joins — workers spin-flush their local overflow at
    /// exit), and by `Drop`.
    completion_rx: Vec<ring::Consumer<Completion>>,
    dispatcher: Option<std::thread::JoinHandle<dispatcher::DispatcherStats>>,
    workers: Vec<WorkerHandle>,
    signal: Arc<ShutdownSignal>,
    audit_log: Option<Arc<RingAuditLog>>,
    work_stealing: bool,
    clock: TscClock,
    next_id: std::sync::atomic::AtomicU64,
    /// Live scheduling quantum in nanoseconds, shared with every worker.
    /// Workers re-read it before arming each quantum, so
    /// [`TinyQuanta::set_quantum`] (the adaptive controller's publish
    /// path) takes effect within one quantum without restarting anything.
    quantum: Arc<AtomicU64>,
}

impl TinyQuanta {
    /// Starts the server: spawns the dispatcher and worker threads,
    /// calibrating a fresh [`TscClock`] (~10 ms). Callers that already
    /// hold a calibrated clock should use [`TinyQuanta::start_with_clock`]
    /// so timestamps share one origin and calibration happens once.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero workers or slots).
    pub fn start<F>(config: ServerConfig, factory: F) -> TinyQuanta
    where
        F: Fn(&RtRequest) -> Box<dyn Job> + Send + Sync + 'static,
    {
        Self::start_with_clock(config, TscClock::calibrated(), factory)
    }

    /// Starts the server on an existing clock. All request/completion
    /// timestamps are measured on `clock`, so a caller that stamps its
    /// own events on the same clock gets directly comparable numbers —
    /// and avoids paying a second calibration window.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero workers or slots).
    pub fn start_with_clock<F>(config: ServerConfig, clock: TscClock, factory: F) -> TinyQuanta
    where
        F: Fn(&RtRequest) -> Box<dyn Job> + Send + Sync + 'static,
    {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.task_slots > 0, "need at least one task slot");
        let factory: Arc<JobFactory> = Arc::new(factory);
        let counters: Arc<Vec<SharedCounters>> = Arc::new(
            (0..config.workers).map(|_| SharedCounters::new()).collect(),
        );
        let signal = Arc::new(ShutdownSignal::default());
        let quantum = Arc::new(AtomicU64::new(config.quantum.0));
        let audit_log = config
            .audit
            .then(|| Arc::new(RingAuditLog::new(config.workers)));
        let (submit_tx, submit_rx) = ring::spsc::<RtRequest>(SUBMIT_RING_CAPACITY);
        let mut completion_rx = Vec::with_capacity(config.workers);
        let mut completion_tx = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (p, c) = ring::spsc::<Completion>(COMPLETION_CAPACITY);
            completion_tx.push(p);
            completion_rx.push(c);
        }
        let mut completion_tx = completion_tx.into_iter();

        let mut workers = Vec::with_capacity(config.workers);
        let tx = if config.work_stealing {
            let queues: Vec<Arc<crossbeam::queue::ArrayQueue<RtRequest>>> = (0..config.workers)
                .map(|_| Arc::new(crossbeam::queue::ArrayQueue::new(config.ring_capacity)))
                .collect();
            for w in 0..config.workers {
                workers.push(worker::spawn(
                    w,
                    &config,
                    Arc::clone(&quantum),
                    worker::WorkerRx::Shared {
                        index: w,
                        queues: queues.clone(),
                    },
                    Arc::clone(&factory),
                    Arc::clone(&counters),
                    completion_tx.next().expect("one ring per worker"),
                    Arc::clone(&signal),
                    audit_log.clone(),
                    clock.clone(),
                ));
            }
            dispatcher::DispatchTx::Shared(queues)
        } else {
            let mut producers = Vec::with_capacity(config.workers);
            for w in 0..config.workers {
                let (p, c) = ring::spsc::<RtRequest>(config.ring_capacity);
                producers.push(p);
                workers.push(worker::spawn(
                    w,
                    &config,
                    Arc::clone(&quantum),
                    worker::WorkerRx::Spsc(c),
                    Arc::clone(&factory),
                    Arc::clone(&counters),
                    completion_tx.next().expect("one ring per worker"),
                    Arc::clone(&signal),
                    audit_log.clone(),
                    clock.clone(),
                ));
            }
            dispatcher::DispatchTx::Spsc(producers)
        };

        let work_stealing = config.work_stealing;
        let dispatcher = dispatcher::spawn(
            &config,
            submit_rx,
            tx,
            Arc::clone(&counters),
            Arc::clone(&signal),
            audit_log.clone(),
            clock.clone(),
        );

        TinyQuanta {
            submit_tx,
            submit_buf: RefCell::new(Vec::new()),
            completion_rx,
            dispatcher: Some(dispatcher),
            workers,
            signal,
            audit_log,
            work_stealing,
            clock,
            next_id: std::sync::atomic::AtomicU64::new(0),
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
    /// Returns its id. Blocks (yielding) while the submit ring is full.
    ///
    /// # Panics
    ///
    /// Panics if the dispatcher thread is gone (it panicked).
    pub fn submit(&self, class: u16, service: Nanos) -> JobId {
        self.submit_burst(&[(class, service)])
    }

    /// Submits a whole burst of `(class, service)` requests, returning
    /// the id of the first; the rest follow sequentially. The burst pays
    /// one clock read, one id-range reservation and one ring publish
    /// instead of one of each per request, and arrives at the dispatcher
    /// back-to-back so it is drained as (at most a few) dispatch bursts —
    /// one ledger snapshot each — rather than `reqs.len()` singletons.
    /// All requests in the burst share one submission timestamp: the
    /// burst *arrived* together (a batched socket read delivers its
    /// frames at one instant). Blocks (yielding) while the submit ring
    /// is full.
    ///
    /// # Panics
    ///
    /// Panics on an empty burst or if the dispatcher thread is gone (it
    /// panicked).
    pub fn submit_burst(&self, reqs: &[(u16, Nanos)]) -> JobId {
        self.try_submit_burst(reqs)
            .expect("dispatcher exited early")
    }

    /// Fallible [`TinyQuanta::submit_burst`] for callers that own a
    /// serving loop: a dispatcher that is gone (it panicked) surfaces as
    /// `None` so the loop can drain its transport and report an error
    /// instead of aborting its thread — or waiting forever on a full
    /// ring nobody will pop.
    ///
    /// # Panics
    ///
    /// Panics on an empty burst (that is a caller bug, not a runtime
    /// state).
    pub fn try_submit_burst(&self, reqs: &[(u16, Nanos)]) -> Option<JobId> {
        assert!(!reqs.is_empty(), "empty burst");
        let n = reqs.len() as u64;
        let first = self.next_id.fetch_add(n, Ordering::Relaxed);
        let now = self.clock.wall_nanos();
        let dispatcher = self.dispatcher.as_ref()?.thread();
        let mut buf = self.submit_buf.borrow_mut();
        buf.clear();
        buf.extend(
            reqs.iter()
                .zip(first..)
                .map(|(&(class, service), id)| RtRequest {
                    id: JobId(id),
                    class: ClassId(class),
                    service,
                    submitted: now,
                }),
        );
        let mut rest = &buf[..];
        loop {
            if self.signal.dispatcher_done() {
                return None;
            }
            let k = self.submit_tx.push_batch_copy(rest);
            if k > 0 {
                self.signal.wake_if_parked(dispatcher);
            }
            rest = &rest[k..];
            if rest.is_empty() {
                return Some(JobId(first));
            }
            // Full ring: the dispatcher is behind (its workers' rings are
            // full too). Give it the CPU.
            std::thread::yield_now();
        }
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
        let dispatcher = self.dispatcher.take().expect("shutdown runs once");
        // The dispatcher drains the submit ring to the last request, then
        // sees `closed` and exits.
        self.signal.close(dispatcher.thread());
        let dispatcher_stats = dispatcher.join().expect("dispatcher panicked");
        // Phase 1 is complete: the dispatcher set `dispatcher_done` after
        // its last ring push. Phase 2: each worker exits once it confirms
        // every queue it can receive from is empty — spin-flushing any
        // locally buffered completions into its (bounded) completion ring
        // first, so this side must keep draining the rings *while* the
        // workers wind down or a full ring would deadlock the join.
        let mut completions = Vec::new();
        let handles: Vec<WorkerHandle> = self.workers.drain(..).collect();
        loop {
            drain_rings(&self.completion_rx, &mut completions);
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
            std::thread::yield_now();
        }
        let worker_stats: Vec<_> = handles.into_iter().map(|w| w.join()).collect();
        // Final sweep: everything flushed before the last worker exited.
        drain_rings(&self.completion_rx, &mut completions);
        let submitted = self.next_id.load(Ordering::Relaxed);
        let mut stats = ServerStats {
            dispatcher: dispatcher_stats,
            workers: worker_stats,
            audit: None,
        };
        if self.audit_log.is_some() {
            stats.audit = Some(self.audit(submitted, &stats));
        }
        (completions, stats)
    }

    /// Runs the counter- and ring-level invariant checks the server can
    /// perform without the full completion stream (some completions may
    /// already have been handed out via [`TinyQuanta::drain_completions`]).
    fn audit(&self, submitted: u64, stats: &ServerStats) -> AuditReport {
        let mut auditor = InvariantAuditor::new("server");
        auditor.check_conservation(submitted, stats.total_completed(), &stats.drops());
        auditor.check(
            "dispatcher_accounts_every_submission",
            stats.dispatcher.forwarded + stats.dispatcher.dropped_on_abort == submitted,
            || {
                format!(
                    "forwarded {} + dropped {} != submitted {submitted}",
                    stats.dispatcher.forwarded, stats.dispatcher.dropped_on_abort
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
    fn drop(&mut self) {
        // A dropped (not shut down) server must still terminate cleanly:
        // request an abort so the dispatcher drains the submit ring
        // *accounting* undelivered requests as drops instead of pushing
        // them into rings, then runs phase 1/2 of the drain protocol as
        // usual. (Previously this path raised the workers' drain flag
        // before the dispatcher finished: requests could land in rings
        // whose workers had already exited — silently lost — or the
        // dispatcher could retry a full ring forever and hang the join.)
        // A panicked dispatcher raised `dispatcher_done` while unwinding,
        // so the worker joins below cannot wedge on it either.
        if let Some(d) = self.dispatcher.take() {
            self.signal.request_abort();
            self.signal.close(d.thread());
            let _ = d.join();
        }
        // Same drain-while-joining dance as `shutdown_with_stats`: the
        // workers' exit flush blocks on full completion rings until
        // someone pops. The drained completions are discarded — this is
        // the abandon-ship path.
        let handles: Vec<WorkerHandle> = self.workers.drain(..).collect();
        let mut discard = Vec::new();
        loop {
            drain_rings(&self.completion_rx, &mut discard);
            discard.clear();
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
            std::thread::yield_now();
        }
        for w in handles {
            w.join();
        }
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

    /// Spins until the dispatcher has raised `parked`: it is then asleep,
    /// or past the point where only an unpark token (or the re-check)
    /// can keep it from sleeping.
    fn await_parked(server: &TinyQuanta) {
        while !server.signal.parked.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn shutdown_wakes_a_parked_dispatcher() {
        let server = spin_server(1, 10);
        server.submit(0, Nanos::from_micros(5));
        await_parked(&server);
        let (completions, stats) = server.shutdown_with_stats();
        assert_eq!(completions.len(), 1);
        assert!(stats.dispatcher.parks >= 1);
    }

    #[test]
    fn drop_wakes_a_parked_dispatcher() {
        let server = spin_server(1, 10);
        await_parked(&server);
        drop(server); // must not hang on a dispatcher nobody unparks
    }

    #[test]
    fn submit_wakes_a_parked_dispatcher() {
        let server = spin_server(1, 10);
        let mut done = Vec::new();
        for _ in 0..100 {
            await_parked(&server);
            server.submit(0, Nanos::ZERO);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            done.clear();
            while done.is_empty() {
                assert!(std::time::Instant::now() < deadline, "lost wake-up");
                server.drain_completions_into(&mut done);
                std::thread::yield_now();
            }
        }
        let (_, stats) = server.shutdown_with_stats();
        assert!(stats.dispatcher.parks >= 100);
    }

    /// The abort path with requests still in the submit ring: the one
    /// worker is stalled behind a two-slot ring, so the dispatcher sits
    /// in its backpressure loop while the flood queues up behind it.
    /// Every request must end up completed or counted as dropped.
    #[test]
    fn abort_with_a_non_empty_submit_ring_counts_every_drop() {
        let clock = TscClock::calibrated();
        let server = TinyQuanta::start_with_clock(
            ServerConfig {
                workers: 1,
                ring_capacity: 2,
                audit: true,
                fault: Some(FaultPlan::stall_worker(
                    0,
                    Nanos::ZERO,
                    Nanos::from_millis(100),
                )),
                ..ServerConfig::default()
            },
            clock.clone(),
            move |req| Box::new(SpinJob::with_clock(req, &clock)),
        );
        let n = 1000;
        server.submit_burst(&vec![(0, Nanos::ZERO); n]);
        // What `Drop` does, but keeping the stats it throws away.
        server.signal.request_abort();
        let (completions, stats) = server.shutdown_with_stats();
        assert!(stats.dispatcher.dropped_on_abort > 0, "nothing was aborted");
        assert_eq!(
            completions.len() as u64 + stats.dispatcher.dropped_on_abort,
            n as u64
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
