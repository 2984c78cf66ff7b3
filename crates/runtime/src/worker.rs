//! The per-core scheduler loop (§4 "Workers").
//!
//! Each worker thread owns a set of task slots (the pre-allocated
//! coroutines), a run queue over the busy ones (`tq_core`'s [`RunQueue`],
//! the one the simulated workers use), and the consumer end of its
//! dispatch ring. Per iteration it (i) admits pending requests into idle
//! slots, (ii) resumes the run queue's next slot for one quantum, (iii) on
//! completion publishes to its own completion ring, which the submitting
//! thread drains (responses never pass back through the dispatch path),
//! and updates the shared counters the dispatcher's JSQ/MSQ reads.
//!
//! The worker never reads the clock to arm a quantum, as TQ reads the TSC
//! once per switch (§3.1). A completion is one clock reading
//! ([`TscClock::stamp`]): its `finished` stamp, and the start of the next
//! quantum. A slice that a probe ended hands over that probe's reading
//! the same way. The next job is thus charged the publish, admission pass
//! and pick in between: tens of ns, plus at most `TASK_SLOTS` factory
//! calls, under a probe's own overshoot (p99 ≈ 900 ns on a SCAN). After
//! a voluntary yield, an idle pass, a steal or a stall window there is no
//! such reading, and the next quantum starts at its slice's first probe.
//!
//! An idle worker yields at once, then sleeps; it never spins, because
//! the submitter that would give it work may need the same CPU.
//!
//! Exit is phase 2 of the drain protocol (DESIGN.md): a worker returns
//! only once the server is `closed` (phase 1 — the owner has stopped
//! submitting, so no queue will ever receive another push) *and* every
//! queue this worker can receive from is empty. In work-stealing mode "every queue"
//! means all siblings' queues too: an idle worker keeps stealing during
//! the drain rather than abandoning work a stalled sibling still holds.

use crate::clock::TscClock;
use crate::job::{Job, JobStatus, QuantumCtx};
use crate::ring::{Consumer, Producer};
use crate::server::{Completion, JobFactory, RtRequest, ServerConfig};
use crossbeam::queue::ArrayQueue;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tq_audit::fault::FaultPlan;
use tq_audit::RingAuditLog;
use tq_core::counters::SharedCounters;
use tq_core::policy::{steal_victim, RunQueue, WorkerPolicy};
use tq_core::Cycles;

/// Workers publish their shared load counters after accumulating this
/// many quanta locally (and always on idle, before a stall window and
/// at exit), which bounds how stale the dispatcher's JSQ/MSQ view of a
/// busy worker can be (DESIGN.md "Batched dispatch pipeline").
const COUNTER_FLUSH_QUANTA: u64 = 16;

/// Task-coroutine slots per worker (§5.1: eight).
const TASK_SLOTS: usize = tq_core::costs::TASK_COROUTINES_PER_WORKER;

/// Idle backoff: consecutive idle iterations spent in `yield_now` before
/// sleeping. An idle worker never spins: the submitter that would hand it
/// work may need its CPU.
const IDLE_YIELDS: u32 = 64;

/// Sleep length once the yields are exhausted: the worst-case wakeup
/// latency for a request arriving at a deeply idle worker.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// Handle to a spawned worker thread.
#[derive(Debug)]
pub struct WorkerHandle {
    thread: std::thread::JoinHandle<WorkerStats>,
}

impl WorkerHandle {
    /// Joins the worker, returning its statistics, or the panic that
    /// ended it.
    pub fn join(self) -> std::thread::Result<WorkerStats> {
        self.thread.join()
    }

    /// Whether the worker thread has returned. Used by the shutdown and
    /// drop paths to drain completion rings *while* joining — a worker's
    /// exit flush can block on a full ring until someone pops.
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }
}

/// Counters a worker reports at exit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs completed.
    pub completed: u64,
    /// Quanta executed.
    pub quanta: u64,
    /// Scheduler-loop iterations that found nothing to run.
    pub idle_iterations: u64,
    /// Jobs stolen from siblings (work-stealing mode).
    pub steals: u64,
    /// High-water mark of the worker's dispatch ring (requests waiting
    /// to be admitted into task slots), sampled at each admit pass
    /// (right before the worker pops) — the live system's analogue of
    /// the simulators' queue depth.
    pub max_ring_occupancy: u64,
    /// Scheduler-loop iterations skipped inside an injected stall window.
    pub stalled_iterations: u64,
}

struct Task {
    job: Box<dyn Job>,
    req: RtRequest,
    quanta: u64,
}

/// The task slots and the run queue over the busy ones.
struct Slots {
    tasks: Vec<Option<Task>>,
    free: Vec<usize>,
    runq: RunQueue<usize>,
    discipline: WorkerPolicy,
}

impl Slots {
    fn new(discipline: WorkerPolicy) -> Self {
        Slots {
            tasks: (0..TASK_SLOTS).map(|_| None).collect(),
            free: (0..TASK_SLOTS).rev().collect(),
            runq: RunQueue::new(discipline, TASK_SLOTS),
            discipline,
        }
    }

    /// Builds `req`'s job in a free slot and queues the slot at its
    /// admission rank: the one way in, from the ring or from a steal.
    /// Inlined into both: a call per admission shows on `rt_admit`.
    #[inline(always)]
    fn admit(&mut self, req: RtRequest, factory: &JobFactory) {
        let slot = self.free.pop().expect("admitted with a free slot");
        let rank = self.discipline.job_rank(req.class.0, req.submitted, 0);
        self.tasks[slot] = Some(Task {
            job: factory(&req),
            req,
            quanta: 0,
        });
        self.runq.push(slot, rank);
    }
}

/// A worker's inbound job source: its private SPSC ring (TQ's default),
/// or — in work-stealing mode (the Caladan configuration) — a shared
/// MPMC queue per worker from which idle siblings may steal.
pub(crate) enum WorkerRx {
    /// Private lock-free ring (the submitter is the sole producer).
    Spsc(Consumer<RtRequest>),
    /// Stealable per-worker queues; `index` is this worker's own.
    Shared {
        index: usize,
        queues: Vec<Arc<ArrayQueue<RtRequest>>>,
    },
}

impl std::fmt::Debug for WorkerRx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerRx::Spsc(_) => f.write_str("WorkerRx::Spsc"),
            WorkerRx::Shared { index, .. } => {
                write!(f, "WorkerRx::Shared {{ index: {index} }}")
            }
        }
    }
}

impl WorkerRx {
    /// Pops up to `max` requests from this worker's own queue into `out`
    /// (appending, in FIFO order). On the SPSC ring this is one Acquire
    /// refresh and one Release recycle for the whole burst.
    fn pop_local_batch(&self, out: &mut Vec<RtRequest>, max: usize) -> usize {
        match self {
            WorkerRx::Spsc(c) => c.pop_batch(out, max),
            WorkerRx::Shared { index, queues } => {
                let q = &queues[*index];
                let mut n = 0;
                while n < max {
                    match q.pop() {
                        Some(r) => {
                            out.push(r);
                            n += 1;
                        }
                        None => break,
                    }
                }
                n
            }
        }
    }

    /// Requests currently waiting in this worker's own queue.
    fn local_len(&self) -> usize {
        match self {
            WorkerRx::Spsc(c) => c.len(),
            WorkerRx::Shared { index, queues } => queues[*index].len(),
        }
    }

    /// Whether every queue this worker could still receive work from is
    /// empty — the phase-2 exit condition. In stealing mode that is *all*
    /// queues: a sibling's backlog is this worker's business too (it can
    /// and must steal it during the drain).
    fn all_drained(&self) -> bool {
        match self {
            WorkerRx::Spsc(c) => c.is_empty(),
            WorkerRx::Shared { queues, .. } => queues.iter().all(|q| q.is_empty()),
        }
    }

    /// Steals one pending request from a sibling, chosen by the
    /// simulators' [`steal_victim`] rule (longest queue, ties to the lowest
    /// index); returns the request and the victim's index (stealing mode
    /// only; `None` when every sibling really is empty).
    fn steal(&self) -> Option<(RtRequest, usize)> {
        let WorkerRx::Shared { index, queues } = self else {
            return None;
        };
        // The preferred victim can race to empty between the length
        // snapshot and the pop. Giving up then idles this core while other
        // siblings still hold work — so on a miss, sweep the remaining
        // siblings before reporting there is nothing to steal.
        let lens = queues
            .iter()
            .map(|q| q.len())
            .enumerate()
            .filter(|&(i, _)| i != *index);
        if let Some(victim) = steal_victim(lens) {
            if let Some(req) = queues[victim].pop() {
                return Some((req, victim));
            }
        }
        for (victim, queue) in queues.iter().enumerate() {
            if victim != *index {
                if let Some(req) = queue.pop() {
                    return Some((req, victim));
                }
            }
        }
        None
    }
}

/// Everything a worker thread needs beyond its job source — bundled so
/// the spawn path stays readable as coordination state grows.
struct WorkerCtx {
    index: usize,
    /// Quantum in nanoseconds, shared with the server facade so the
    /// adaptive controller can republish it mid-run ([`crate::server::
    /// TinyQuanta::set_quantum`]). Workers re-read it (one Relaxed load)
    /// before arming each quantum and only re-derive the cycle deadline
    /// when the value actually changed.
    quantum: Arc<AtomicU64>,
    discipline: WorkerPolicy,
    factory: Arc<JobFactory>,
    counters: Arc<Vec<SharedCounters>>,
    completions: Producer<Completion>,
    /// Phase 1 of the drain: no push will follow.
    closed: Arc<AtomicBool>,
    audit: Option<Arc<RingAuditLog>>,
    fault: Option<FaultPlan>,
    clock: TscClock,
}

/// Spawns one worker thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn(
    index: usize,
    config: &ServerConfig,
    quantum: Arc<AtomicU64>,
    rx: WorkerRx,
    factory: Arc<JobFactory>,
    counters: Arc<Vec<SharedCounters>>,
    completions: Producer<Completion>,
    closed: Arc<AtomicBool>,
    audit: Option<Arc<RingAuditLog>>,
    clock: TscClock,
) -> WorkerHandle {
    // Only plans that mention this worker are carried into its loop: a
    // worker with no windows keeps fault checks off its hot path.
    let fault = config
        .fault
        .as_ref()
        .filter(|p| p.stalls.iter().any(|s| s.worker == index))
        .cloned();
    let ctx = WorkerCtx {
        index,
        quantum,
        discipline: config.discipline,
        factory,
        counters,
        completions,
        closed,
        audit,
        fault,
        clock,
    };
    let thread = std::thread::Builder::new()
        .name(format!("tq-worker-{index}"))
        .spawn(move || run_worker(ctx, rx))
        .expect("spawn worker thread");
    WorkerHandle { thread }
}

/// Worker-local counter deltas, published to the [`SharedCounters`] in
/// batches (bounded staleness: at most [`COUNTER_FLUSH_QUANTA`] quanta, and
/// always flushed on idle, before a stall window, and at exit).
#[derive(Default)]
struct PendingCounters {
    quanta: u64,
    finished: u64,
    retired_quanta: u64,
}

impl PendingCounters {
    fn flush(&mut self, shared: &SharedCounters) {
        if self.quanta > 0 {
            shared.add_quanta(self.quanta);
            self.quanta = 0;
        }
        if self.finished > 0 {
            shared.add_finished(self.finished, self.retired_quanta);
            self.finished = 0;
            self.retired_quanta = 0;
        }
    }
}

fn run_worker(w: WorkerCtx, rx: WorkerRx) -> WorkerStats {
    let WorkerCtx {
        index,
        quantum,
        discipline,
        factory,
        counters,
        completions,
        closed,
        audit,
        fault,
        clock,
    } = w;
    // FCFS never preempts: arm an effectively-infinite deadline. For
    // preempting disciplines the shared cell is re-read before each arm
    // (the adaptive controller republishes it mid-run); the ns→cycles
    // conversion is cached and redone only on an actual change.
    let mut quantum_nanos = quantum.load(Ordering::Relaxed);
    let mut quantum_cycles: Cycles = if discipline.preempts() {
        clock.to_cycles(tq_core::Nanos(quantum_nanos))
    } else {
        Cycles(u64::MAX / 2)
    };
    let mut ctx = QuantumCtx::new(clock.clone());
    let mut slots = Slots::new(discipline);
    let mut stats = WorkerStats::default();
    let my_counters = &counters[index];
    let started = clock.wall_nanos();
    // Burst state: requests admitted per pass, completions awaiting
    // publication (never blocks the scheduler loop: overflow beyond the
    // completion ring stays here, mirroring the old unbounded channel),
    // and counter deltas awaiting a flush.
    let mut admit_buf: Vec<RtRequest> = Vec::with_capacity(TASK_SLOTS);
    let mut done_buf: Vec<Completion> = Vec::new();
    let mut pending = PendingCounters::default();
    // Consecutive idle iterations, for the yield → sleep backoff.
    let mut idle_streak: u32 = 0;
    // The reading that ended the last slice, if one did: it arms the next
    // quantum, else that slice's first probe does (module docs).
    let mut slice_end: Option<Cycles> = None;

    loop {
        // Injected stall: refuse to admit or run anything inside the
        // window (the live analogue of the OS descheduling this core).
        // Windows are finite, so the shutdown drain always terminates.
        if let Some(plan) = &fault {
            if plan.stalled(index, clock.wall_nanos().saturating_sub(started)) {
                // Publish buffered state before going dark: a stall
                // window models a descheduled core, not lost updates.
                pending.flush(my_counters);
                completions.push_batch(&mut done_buf);
                stats.stalled_iterations += 1;
                slice_end = None;
                std::thread::yield_now();
                continue;
            }
        }
        // Publish any buffered completions (one Release per burst); the
        // un-pushed overflow simply stays buffered for the next pass.
        if !done_buf.is_empty() {
            completions.push_batch(&mut done_buf);
        }
        // Admit pending requests into idle coroutine slots, pulled from
        // the ring in one burst sized to the free slots.
        if !slots.free.is_empty() {
            // Ring high-water mark. Only this worker pops its private
            // ring, so occupancy can only have grown since the last pop:
            // sampling right before each one keeps the mark exact.
            stats.max_ring_occupancy = stats.max_ring_occupancy.max(rx.local_len() as u64);
            rx.pop_local_batch(&mut admit_buf, slots.free.len());
            for req in admit_buf.drain(..) {
                if let Some(log) = &audit {
                    log.on_admit(index, req.id.0);
                }
                slots.admit(req, &*factory);
            }
        }

        // The next slot under the discipline: the rotation head (PS,
        // FCFS), or the minimum rank (LAS, priority, deadline, fair
        // share), ties in queue order. A rank is taken when its slot is
        // queued; every built-in rank changes only while its job runs.
        if let Some(slot) = slots.runq.take_next() {
            idle_streak = 0;
            let task = slots.tasks[slot]
                .as_mut()
                .expect("run queue holds busy slots");
            if discipline.preempts() {
                let q = quantum.load(Ordering::Relaxed);
                if q != quantum_nanos {
                    quantum_nanos = q;
                    quantum_cycles = clock.to_cycles(tq_core::Nanos(q));
                }
            }
            match slice_end.take() {
                Some(start) => ctx.arm_from(start, quantum_cycles),
                None => ctx.arm_lazily(quantum_cycles),
            }
            let status = task.job.run(&mut ctx);
            task.quanta += 1;
            stats.quanta += 1;
            pending.quanta += 1;
            if pending.quanta >= COUNTER_FLUSH_QUANTA {
                pending.flush(my_counters);
            }
            match status {
                JobStatus::Yielded => {
                    slice_end = ctx.take_expiry();
                    let rank =
                        discipline.job_rank(task.req.class.0, task.req.submitted, task.quanta);
                    slots.runq.push(slot, rank);
                }
                JobStatus::Done => {
                    let task = slots.tasks[slot].take().expect("just ran it");
                    pending.finished += 1;
                    pending.retired_quanta += task.quanta;
                    stats.completed += 1;
                    let (cycles, finished) = clock.stamp();
                    slice_end = Some(cycles);
                    done_buf.push(Completion {
                        id: task.req.id,
                        class: task.req.class,
                        submitted: task.req.submitted,
                        finished,
                        quanta: task.quanta,
                        worker: index,
                    });
                    slots.free.push(slot);
                }
            }
        } else {
            slice_end = None;
            // Idle: in stealing mode, raid the most-loaded sibling before
            // giving up the core (the Caladan behavior).
            if !slots.free.is_empty() {
                if let Some((req, victim)) = rx.steal() {
                    if let Some(log) = &audit {
                        log.on_steal(index, victim, req.id.0);
                    }
                    idle_streak = 0;
                    stats.steals += 1;
                    slots.admit(req, &*factory);
                    continue;
                }
            }
            stats.idle_iterations += 1;
            // Nothing to run: publish the truth — the dispatcher must not
            // see stale load for an idle worker, and the server may be
            // waiting on buffered completions.
            pending.flush(my_counters);
            if !done_buf.is_empty() {
                completions.push_batch(&mut done_buf);
            }
            // Phase-2 exit: the last request has been pushed (phase 1)
            // and every queue this worker could receive from — all
            // siblings' too, in stealing mode — is empty. Checking only
            // the local queue here let stealing-mode workers exit while a
            // sibling's queue still held jobs nobody would run.
            if closed.load(Ordering::Acquire) && rx.all_drained() {
                // Exit flush: every buffered completion must reach the
                // ring. The shutdown/drop paths drain concurrently with
                // this join, so a full ring always makes progress.
                while !done_buf.is_empty() {
                    if completions.push_batch(&mut done_buf) == 0 {
                        std::thread::yield_now();
                    }
                }
                return stats;
            }
            // Idle backoff: yield the core to siblings and the submitter,
            // then sleep so an oversubscribed host isn't saturated by
            // idle workers.
            idle_streak = idle_streak.saturating_add(1);
            if idle_streak <= IDLE_YIELDS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RtRequest;
    use std::sync::atomic::{AtomicBool, Ordering};
    use tq_core::{ClassId, JobId, Nanos};

    fn req(id: u64) -> RtRequest {
        RtRequest {
            id: JobId(id),
            class: ClassId(0),
            service: Nanos::from_micros(1),
            submitted: Nanos::ZERO,
        }
    }

    fn shared_rx(index: usize, queues: &[Arc<ArrayQueue<RtRequest>>]) -> WorkerRx {
        WorkerRx::Shared {
            index,
            queues: queues.to_vec(),
        }
    }

    /// The ring fills to `k` while the worker is stalled; its first admit
    /// pass after the stall samples the mark before popping, so the mark
    /// is `k` even though only `TASK_SLOTS` requests are popped at once.
    #[test]
    fn ring_high_water_mark_is_exact_after_a_stall() {
        let k = 20;
        let config = ServerConfig {
            workers: 1,
            ring_capacity: 64,
            fault: Some(FaultPlan::stall_worker(
                0,
                Nanos::ZERO,
                Nanos::from_millis(5),
            )),
            ..ServerConfig::default()
        };
        assert!(TASK_SLOTS < k as usize);
        let (tx, rx) = crate::ring::spsc::<RtRequest>(config.ring_capacity);
        for id in 0..k {
            tx.push(req(id)).unwrap();
        }
        let (done_tx, done_rx) = crate::ring::spsc::<Completion>(config.ring_capacity);
        // Phase 1 is already over: the worker drains the ring and exits.
        let closed = Arc::new(AtomicBool::new(true));
        let stats = spawn(
            0,
            &config,
            Arc::new(AtomicU64::new(config.quantum.0)),
            WorkerRx::Spsc(rx),
            Arc::new(|_: &RtRequest| -> Box<dyn Job> { Box::new(Once) }),
            Arc::new(vec![SharedCounters::new()]),
            done_tx,
            closed,
            None,
            TscClock::calibrated(),
        )
        .join()
        .expect("worker panicked");
        assert_eq!(stats.completed, k);
        assert!(
            stats.stalled_iterations > 0,
            "the stall window never applied"
        );
        assert_eq!(stats.max_ring_occupancy, k);
        assert_eq!(done_rx.len() as u64, k);
    }

    /// Completion stamps are the readings that arm the next quantum, and
    /// the submitter's and each worker's clock reads meet in them: over an
    /// audited two-worker run of 50 000 zero-service requests, every job
    /// finishes no earlier than it was submitted, and each worker's stamps
    /// never decrease in completion order.
    #[test]
    fn completion_stamps_follow_submission_and_never_decrease_per_worker() {
        const N: usize = 50_000;
        let server = crate::server::TinyQuanta::start(
            ServerConfig {
                workers: 2,
                audit: true,
                ..ServerConfig::default()
            },
            |_: &RtRequest| -> Box<dyn Job> { Box::new(Once) },
        );
        for _ in 0..N / 100 {
            server.submit_burst(&[(0, Nanos::ZERO); 100]);
        }
        let (completions, stats) = server.shutdown_with_stats();
        assert_eq!(completions.len(), N);
        let report = stats.audit.as_ref().expect("audit was enabled");
        assert!(report.is_clean(), "audit violations: {report}");
        let mut last = [Nanos::ZERO; 2];
        for c in &completions {
            assert!(
                c.finished >= c.submitted,
                "{c:?} finished before submission"
            );
            assert!(
                c.finished >= last[c.worker],
                "worker {}'s stamps went backwards: {} after {}",
                c.worker,
                c.finished,
                last[c.worker]
            );
            last[c.worker] = c.finished;
        }
        assert!(
            stats.workers.iter().all(|w| w.completed > 0),
            "both workers must stamp: {:?}",
            stats.workers
        );
    }

    /// Busy-waits `busy` without probing, then yields voluntarily; done
    /// after `slices` slices.
    struct Hog {
        clock: TscClock,
        busy: Cycles,
        slices: u32,
    }

    impl Job for Hog {
        fn run(&mut self, _: &mut QuantumCtx) -> JobStatus {
            let start = self.clock.now();
            while self.clock.now().wrapping_sub(start) < self.busy {
                std::hint::spin_loop();
            }
            self.slices -= 1;
            if self.slices == 0 {
                JobStatus::Done
            } else {
                JobStatus::Yielded
            }
        }
    }

    /// A slice that follows a voluntary yield gets a whole quantum. Under
    /// PS at 100 µs, a 1 ms `SpinJob` runs right after a job that holds
    /// the core ≈ 300 µs a slice without probing, 30 times. Its quantum
    /// starts at its own first probe, so it finishes in about 10 quanta.
    /// Arming it from the last reading the worker holds, the `SpinJob`'s
    /// previous expiry, would start it 300 µs in the past: a dead quantum
    /// every round, and 40 quanta in all.
    #[test]
    fn a_slice_after_a_voluntary_yield_gets_a_whole_quantum() {
        let clock = TscClock::calibrated();
        let factory_clock = clock.clone();
        let server = crate::server::TinyQuanta::start_with_clock(
            ServerConfig {
                workers: 1,
                quantum: Nanos::from_micros(100),
                discipline: WorkerPolicy::ProcessorSharing,
                ..ServerConfig::default()
            },
            clock,
            move |req: &RtRequest| -> Box<dyn Job> {
                match req.class.0 {
                    1 => Box::new(Hog {
                        clock: factory_clock.clone(),
                        busy: factory_clock.to_cycles(Nanos::from_micros(300)),
                        slices: 30,
                    }),
                    _ => Box::new(crate::job::SpinJob::with_clock(req, &factory_clock)),
                }
            },
        );
        server.submit_burst(&[(1, Nanos::ZERO), (0, Nanos::from_millis(1))]);
        let completions = server.shutdown();
        assert_eq!(completions.len(), 2);
        let spin = completions.iter().find(|c| c.class.0 == 0).unwrap();
        assert!(
            spin.quanta <= 11,
            "a 1 ms job took {} quanta of 100 µs",
            spin.quanta
        );
    }

    /// A job that finishes in its first quantum.
    struct Once;

    impl Job for Once {
        fn run(&mut self, _: &mut QuantumCtx) -> JobStatus {
            JobStatus::Done
        }
    }

    #[test]
    fn steal_prefers_longest_sibling_and_reports_victim() {
        let queues: Vec<_> = (0..3)
            .map(|_| Arc::new(ArrayQueue::<RtRequest>::new(8)))
            .collect();
        queues[1].push(req(10)).unwrap();
        queues[2].push(req(20)).unwrap();
        queues[2].push(req(21)).unwrap();
        let rx = shared_rx(0, &queues);
        let (r, victim) = rx.steal().expect("work available");
        assert_eq!(victim, 2, "longest sibling queue should be raided first");
        assert_eq!(r.id.0, 20);
        // Now queues 1 and 2 tie at one request each: the lowest index
        // wins, as in the simulators.
        let (r, victim) = rx.steal().expect("work available");
        assert_eq!(victim, 1, "ties go to the lowest-indexed sibling");
        assert_eq!(r.id.0, 10);
        // The thief's own queue never counts, however long it is.
        queues[0].push(req(1)).unwrap();
        queues[0].push(req(2)).unwrap();
        let (_, victim) = rx.steal().expect("work available");
        assert_eq!(victim, 2);
    }

    #[test]
    fn steal_returns_none_only_when_all_siblings_empty() {
        let queues: Vec<_> = (0..2)
            .map(|_| Arc::new(ArrayQueue::<RtRequest>::new(8)))
            .collect();
        let rx = shared_rx(0, &queues);
        assert!(rx.steal().is_none());
        queues[0].push(req(1)).unwrap(); // own queue is not a steal target
        assert!(rx.steal().is_none());
    }

    /// Regression test for the victim-races-to-empty bug: pre-fix,
    /// `steal` snapshotted queue lengths, picked the max, and gave up
    /// entirely if that one pop failed — returning `None` while another
    /// sibling still held work. A flapper thread oscillates queue 1
    /// between empty and length 1 (ties go to the lower index, so the
    /// thief keeps choosing it and keeps losing the race) while queue 2
    /// permanently holds one request; every steal attempt must succeed.
    #[test]
    fn steal_retries_other_victims_when_chosen_queue_races_to_empty() {
        let queues: Vec<_> = (0..3)
            .map(|_| Arc::new(ArrayQueue::<RtRequest>::new(4)))
            .collect();
        queues[2].push(req(1)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flap_q = Arc::clone(&queues[1]);
        let flap_stop = Arc::clone(&stop);
        let flapper = std::thread::spawn(move || {
            while !flap_stop.load(Ordering::Relaxed) {
                let _ = flap_q.push(req(99));
                let _ = flap_q.pop();
            }
        });
        let rx = shared_rx(0, &queues);
        for attempt in 0..50_000 {
            match rx.steal() {
                Some((r, victim)) => {
                    // Whatever was stolen, put queue 2's sentinel back so
                    // the invariant (some sibling non-empty) holds.
                    if victim == 2 {
                        queues[2].push(r).unwrap();
                    }
                }
                None => {
                    stop.store(true, Ordering::Relaxed);
                    flapper.join().unwrap();
                    panic!(
                        "steal gave up on attempt {attempt} while queue 2 \
                         still held a request"
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        flapper.join().unwrap();
    }
}
