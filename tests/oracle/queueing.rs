//! The seed's serving-system models, the oracle for the packed engine
//! behind `tq_queueing::simulate`.
//!
//! These run on the seed's `BinaryHeap` event queue
//! ([`super::events::EventQueue`]), the original `Vec<Worker>` /
//! `BTreeSet` state layout and a seed job type of their own, so a
//! differential test that compares completion streams covers the event
//! queue, the struct-of-arrays worker counters, the bitmask idle/backlog
//! tracking, the job slab and the engine's job type all at once.
//! Property tests pin the engines to these models event for event
//! across every worker discipline, every dispatch policy, and stealing
//! on and off.
//!
//! Nothing here is a hot path: clarity and fidelity to the seed beat
//! speed.

use super::events::EventQueue;
use std::collections::{BTreeSet, VecDeque};
use tq_core::job::Completion;
use tq_core::policy::{flow_hash, Dispatcher, RunQueue, WorkerLoad};
use tq_core::{ClassId, JobId, Nanos, Request};
use tq_queueing::{Architecture, SystemConfig, SystemOutcome};
use tq_workloads::ArrivalGen;

/// A job admitted into a seed model: its identity plus the execution
/// state the model tracks.
#[derive(Debug, Clone, Copy)]
struct SeedJob {
    id: JobId,
    class: ClassId,
    arrival: Nanos,
    /// True (uninflated) service demand, reported in the completion.
    service_true: Nanos,
    /// Remaining *inflated* work (probing overhead applied on admission).
    remaining: Nanos,
    /// Inflated work received so far (drives least-attained-service).
    attained: Nanos,
    /// Quanta this job has received so far.
    quanta: u64,
    /// The quantum this job runs with (honors per-class overrides).
    quantum: Nanos,
}

impl SeedJob {
    /// This job's rank in `cfg`'s worker discipline.
    fn rank(&self, cfg: &SystemConfig) -> u64 {
        cfg.worker_policy
            .job_rank(self.class.0, self.arrival, self.attained.as_nanos())
    }

    /// Length of the next slice: one quantum or whatever work remains.
    fn next_slice(&self) -> Nanos {
        self.quantum.min(self.remaining)
    }

    /// Applies a finished slice; returns `true` if the job completed.
    fn apply_slice(&mut self, slice: Nanos) -> bool {
        debug_assert!(slice <= self.remaining, "slice exceeds remaining work");
        self.remaining -= slice;
        self.attained += slice;
        self.quanta += 1;
        self.remaining.is_zero()
    }
}

/// Runs the seed two-level model (dispatchers, per-worker run queues,
/// optional work stealing) and returns its completion stream and event
/// count.
///
/// # Panics
///
/// Panics if the configuration is invalid or not two-level.
pub fn two_level(cfg: &SystemConfig, gen: ArrivalGen, horizon: Nanos, seed: u64) -> SystemOutcome {
    twolevel_impl::simulate(cfg, gen, horizon, seed)
}

/// Runs the seed centralized model (single dispatcher owning the job
/// queue and scheduling every quantum).
///
/// # Panics
///
/// Panics if the configuration is invalid or not centralized.
pub fn centralized(cfg: &SystemConfig, gen: ArrivalGen, horizon: Nanos) -> SystemOutcome {
    centralized_impl::simulate(cfg, gen, horizon)
}

/// Asserts the engine's outcome `fast` equals the seed model's `slow`:
/// the completion stream (ids, classes, arrival, service and finish
/// times, in order), the event count, the quanta executed and the busy
/// span. `what` names the configuration in the failure message.
///
/// # Panics
///
/// Panics at the first field that differs.
pub fn assert_matches(fast: &SystemOutcome, slow: &SystemOutcome, what: &str) {
    assert_eq!(
        fast.completions, slow.completions,
        "{what}: completions diverged"
    );
    assert_eq!(fast.events, slow.events, "{what}: event count");
    assert_eq!(
        fast.quanta_scheduled, slow.quanta_scheduled,
        "{what}: quanta scheduled"
    );
    assert_eq!(fast.busy_span, slow.busy_span, "{what}: busy span");
}

mod twolevel_impl {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        /// The pre-drawn next request arrives at the NIC.
        Arrival,
        /// Dispatcher core `d` finished forwarding its current request.
        DispatchDone { dispatcher: usize },
        /// Worker `w` finished its current slice (quantum or whole job).
        SliceDone { worker: usize },
    }

    #[derive(Debug)]
    struct Worker {
        queue: RunQueue<SeedJob>,
        /// The job mid-slice and its slice length (work, excluding overheads).
        running: Option<(SeedJob, Nanos)>,
    }

    impl Worker {
        fn new(policy: tq_core::policy::WorkerPolicy) -> Self {
            Worker {
                queue: RunQueue::new(policy, 0),
                running: None,
            }
        }
    }

    pub(super) fn simulate(
        cfg: &SystemConfig,
        mut gen: ArrivalGen,
        horizon: Nanos,
        seed: u64,
    ) -> SystemOutcome {
        cfg.validate();
        let Architecture::TwoLevel { dispatch } = cfg.arch else {
            panic!("{}: not a two-level system", cfg.name);
        };
        let n_disp = cfg.n_dispatchers.max(1);
        // Each dispatcher core runs the policy independently (own RNG stream)
        // but reads the same live worker counters — §6's multi-dispatcher
        // extension.
        let mut policies: Vec<Dispatcher> = (0..n_disp)
            .map(|d| Dispatcher::new(dispatch, cfg.n_workers, seed ^ (d as u64) << 32))
            .collect();
        let mut workers: Vec<Worker> = (0..cfg.n_workers)
            .map(|_| Worker::new(cfg.worker_policy))
            .collect();
        // At most one pending event per worker, per dispatcher, plus the
        // next arrival — the queue never grows past that.
        let mut events: EventQueue<Ev> = EventQueue::with_capacity(cfg.n_workers + n_disp + 1);
        let mut completions: Vec<Completion> = Vec::with_capacity(gen.expected_arrivals(horizon));
        // Live per-worker counters (resident jobs, serviced quanta — the MSQ
        // signal), updated at each admit/complete/steal instead of being
        // rebuilt for every dispatch decision.
        let mut loads: Vec<WorkerLoad> = vec![WorkerLoad::default(); cfg.n_workers];

        // Per-dispatcher state: FIFO RX queue plus the request in flight.
        let mut rx: Vec<VecDeque<Request>> = (0..n_disp).map(|_| VecDeque::new()).collect();
        let mut forwarding: Vec<Option<Request>> = (0..n_disp).map(|_| None).collect();
        let mut rr_dispatcher = 0usize;
        let mut quanta_scheduled = 0u64;

        // Pre-draw the first arrival.
        let mut next_req = Some(gen.next_request());
        if let Some(r) = &next_req {
            if r.arrival < horizon {
                events.push(r.arrival, Ev::Arrival);
            } else {
                next_req = None;
            }
        }

        while let Some((now, ev)) = events.pop() {
            match ev {
                Ev::Arrival => {
                    let req = next_req.take().expect("arrival without request");
                    // The NIC sprays packets across dispatcher cores (RSS).
                    let d = rr_dispatcher;
                    rr_dispatcher = (rr_dispatcher + 1) % n_disp;
                    rx[d].push_back(req);
                    if forwarding[d].is_none() {
                        start_forward(cfg, d, &mut rx[d], &mut forwarding[d], &mut events, now);
                    }
                    let r = gen.next_request();
                    if r.arrival < horizon {
                        next_req = Some(r);
                        events.push(r.arrival, Ev::Arrival);
                    }
                }
                Ev::DispatchDone { dispatcher: d } => {
                    let req = forwarding[d].take().expect("dispatch done without request");
                    let w = policies[d].pick(&loads, flow_hash(req.id.0));
                    admit(
                        cfg,
                        &mut workers[w],
                        &mut loads[w],
                        w,
                        req,
                        now,
                        &mut events,
                    );
                    if cfg.work_stealing {
                        // Idle workers poll for stealable work continuously;
                        // a job queued behind a busy worker while another
                        // core sits idle is taken immediately.
                        rebalance_to_idle(cfg, &mut workers, &mut loads, w, now, &mut events);
                    }
                    if !rx[d].is_empty() {
                        start_forward(cfg, d, &mut rx[d], &mut forwarding[d], &mut events, now);
                    }
                }
                Ev::SliceDone { worker: w } => {
                    let (mut job, slice) = workers[w].running.take().expect("no running slice");
                    let done = job.apply_slice(slice);
                    loads[w].serviced_quanta += 1;
                    quanta_scheduled += 1;
                    if done {
                        loads[w].queued_jobs -= 1;
                        loads[w].serviced_quanta -= job.quanta;
                        completions.push(Completion {
                            id: job.id,
                            class: job.class,
                            arrival: job.arrival,
                            service: job.service_true,
                            finish: now,
                        });
                    } else {
                        workers[w].queue.push(job, job.rank(cfg));
                    }
                    if !workers[w].queue.is_empty() {
                        start_slice(cfg, &mut workers[w], w, now, Nanos::ZERO, &mut events);
                    } else if cfg.work_stealing {
                        try_steal(cfg, &mut workers, &mut loads, w, now, &mut events);
                    }
                }
            }
        }
        debug_assert!(
            loads.iter().all(|l| *l == WorkerLoad::default()),
            "drained simulation left non-zero worker counters: {loads:?}"
        );
        SystemOutcome {
            completions,
            events: events.popped(),
            quanta_scheduled,
            busy_span: Nanos::ZERO,
        }
    }

    fn start_forward(
        cfg: &SystemConfig,
        dispatcher: usize,
        rx: &mut VecDeque<Request>,
        forwarding: &mut Option<Request>,
        events: &mut EventQueue<Ev>,
        now: Nanos,
    ) {
        let req = rx.pop_front().expect("empty RX queue");
        *forwarding = Some(req);
        events.push(now + cfg.dispatch_per_req, Ev::DispatchDone { dispatcher });
    }

    fn admit(
        cfg: &SystemConfig,
        worker: &mut Worker,
        load: &mut WorkerLoad,
        w: usize,
        req: Request,
        now: Nanos,
        events: &mut EventQueue<Ev>,
    ) {
        let inflation = cfg.inflation_for(req.class.0);
        let job = SeedJob {
            id: req.id,
            class: req.class,
            arrival: req.arrival,
            service_true: req.service,
            // Probe inflation plus any per-request packet processing the
            // worker performs itself (directpath).
            remaining: req.service.scale(1.0 + inflation) + cfg.worker_rx_cost,
            attained: Nanos::ZERO,
            quanta: 0,
            quantum: if cfg.worker_policy.preempts() {
                cfg.quantum_for(req.class.0)
            } else {
                Nanos::MAX
            },
        };
        load.queued_jobs += 1;
        worker.queue.push(job, job.rank(cfg));
        if worker.running.is_none() {
            start_slice(cfg, worker, w, now, Nanos::ZERO, events);
        }
    }

    fn start_slice(
        cfg: &SystemConfig,
        worker: &mut Worker,
        w: usize,
        now: Nanos,
        extra: Nanos,
        events: &mut EventQueue<Ev>,
    ) {
        let job = worker
            .queue
            .take_next()
            .expect("start_slice on empty queue");
        let slice = job.next_slice();
        let wall = slice + cfg.preempt_overhead + extra;
        worker.running = Some((job, slice));
        events.push(now + wall, Ev::SliceDone { worker: w });
    }

    fn try_steal(
        cfg: &SystemConfig,
        workers: &mut [Worker],
        loads: &mut [WorkerLoad],
        thief: usize,
        now: Nanos,
        events: &mut EventQueue<Ev>,
    ) {
        debug_assert!(workers[thief].queue.is_empty() && workers[thief].running.is_none());
        // Raid the longest queue; ties break to the lowest index for
        // determinism.
        let victim = (0..workers.len())
            .filter(|&v| v != thief)
            .max_by_key(|&v| (workers[v].queue.len(), core::cmp::Reverse(v)));
        let Some(v) = victim else { return };
        if workers[v].queue.is_empty() {
            return;
        }
        let job = workers[v]
            .queue
            .take_last()
            .expect("victim queue non-empty");
        loads[v].queued_jobs -= 1;
        loads[v].serviced_quanta -= job.quanta;
        loads[thief].queued_jobs += 1;
        loads[thief].serviced_quanta += job.quanta;
        workers[thief].queue.push(job, job.rank(cfg));
        start_slice(cfg, &mut workers[thief], thief, now, cfg.steal_cost, events);
    }

    /// Moves the newest queued job on `from` (busy, with queued work) to an
    /// idle worker, if one exists — the continuous-polling side of work
    /// stealing.
    fn rebalance_to_idle(
        cfg: &SystemConfig,
        workers: &mut [Worker],
        loads: &mut [WorkerLoad],
        from: usize,
        now: Nanos,
        events: &mut EventQueue<Ev>,
    ) {
        if workers[from].running.is_none() || workers[from].queue.is_empty() {
            return;
        }
        let Some(thief) = (0..workers.len())
            .find(|&v| v != from && workers[v].running.is_none() && workers[v].queue.is_empty())
        else {
            return;
        };
        let job = workers[from].queue.take_last().expect("checked non-empty");
        loads[from].queued_jobs -= 1;
        loads[from].serviced_quanta -= job.quanta;
        loads[thief].queued_jobs += 1;
        loads[thief].serviced_quanta += job.quanta;
        workers[thief].queue.push(job, job.rank(cfg));
        start_slice(cfg, &mut workers[thief], thief, now, cfg.steal_cost, events);
    }
}

mod centralized_impl {
    use super::*;
    use tq_core::Request;

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Arrival,
        OpDone,
        SliceDone { worker: usize },
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Ingress(Request),
        Assign,
    }

    #[derive(Debug)]
    struct State {
        /// Pending packet-processing work (FIFO). Scheduling work (Assign)
        /// takes priority: an overloaded dispatcher lets the RX queue back up
        /// (as a real NIC queue would) rather than idling every worker.
        ingress_q: VecDeque<Request>,
        /// Queued Assign operations (count; they carry no payload).
        assign_q: usize,
        in_flight: Option<Op>,
        central: RunQueue<SeedJob>,
        idle: BTreeSet<usize>,
        pending_assigns: usize,
        running: Vec<Option<(SeedJob, Nanos)>>,
        completions: Vec<Completion>,
        /// Totals for the dispatcher-scalability experiment (Figure 16).
        quanta_scheduled: u64,
        first_slice_start: Option<Nanos>,
        last_slice_end: Nanos,
    }

    pub(super) fn simulate(
        cfg: &SystemConfig,
        mut gen: ArrivalGen,
        horizon: Nanos,
    ) -> SystemOutcome {
        cfg.validate();
        assert!(
            matches!(cfg.arch, Architecture::Centralized),
            "{}: not a centralized system",
            cfg.name
        );
        let mut st = State {
            ingress_q: VecDeque::new(),
            assign_q: 0,
            in_flight: None,
            central: RunQueue::new(cfg.worker_policy, 0),
            idle: (0..cfg.n_workers).collect(),
            pending_assigns: 0,
            running: (0..cfg.n_workers).map(|_| None).collect(),
            completions: Vec::with_capacity(gen.expected_arrivals(horizon)),
            quanta_scheduled: 0,
            first_slice_start: None,
            last_slice_end: Nanos::ZERO,
        };
        // At most one pending event per worker, plus the dispatcher op in
        // flight and the next arrival.
        let mut events: EventQueue<Ev> = EventQueue::with_capacity(cfg.n_workers + 2);

        let mut next_req = Some(gen.next_request());
        if let Some(r) = &next_req {
            if r.arrival < horizon {
                events.push(r.arrival, Ev::Arrival);
            } else {
                next_req = None;
            }
        }

        while let Some((now, ev)) = events.pop() {
            match ev {
                Ev::Arrival => {
                    let req = next_req.take().expect("arrival without request");
                    st.ingress_q.push_back(req);
                    kick_dispatcher(cfg, &mut st, now, &mut events);
                    let r = gen.next_request();
                    if r.arrival < horizon {
                        next_req = Some(r);
                        events.push(r.arrival, Ev::Arrival);
                    }
                }
                Ev::OpDone => {
                    let op = st.in_flight.take().expect("op done without op");
                    match op {
                        Op::Ingress(req) => {
                            let inflation = cfg.inflation_for(req.class.0);
                            let job = SeedJob {
                                id: req.id,
                                class: req.class,
                                arrival: req.arrival,
                                service_true: req.service,
                                remaining: req.service.scale(1.0 + inflation),
                                attained: Nanos::ZERO,
                                quanta: 0,
                                quantum: if cfg.worker_policy.preempts() {
                                    cfg.quantum_for(req.class.0)
                                } else {
                                    Nanos::MAX
                                },
                            };
                            st.central.push(job, job.rank(cfg));
                        }
                        Op::Assign => {
                            st.pending_assigns -= 1;
                            if let Some(job) = st.central.take_next() {
                                if let Some(&w) = st.idle.iter().next() {
                                    st.idle.remove(&w);
                                    let slice = job.next_slice();
                                    st.running[w] = Some((job, slice));
                                    st.quanta_scheduled += 1;
                                    st.first_slice_start.get_or_insert(now);
                                    events.push(
                                        now + slice + cfg.preempt_overhead,
                                        Ev::SliceDone { worker: w },
                                    );
                                } else {
                                    // Wasted dispatcher cycle: every worker got
                                    // busy since this op was queued.
                                    st.central.push(job, job.rank(cfg));
                                }
                            }
                        }
                    }
                    schedule_assigns(&mut st);
                    kick_dispatcher(cfg, &mut st, now, &mut events);
                }
                Ev::SliceDone { worker: w } => {
                    let (mut job, slice) = st.running[w].take().expect("no running slice");
                    st.last_slice_end = now;
                    let done = job.apply_slice(slice);
                    if done {
                        st.completions.push(Completion {
                            id: job.id,
                            class: job.class,
                            arrival: job.arrival,
                            service: job.service_true,
                            finish: now,
                        });
                    } else {
                        st.central.push(job, job.rank(cfg));
                    }
                    st.idle.insert(w);
                    schedule_assigns(&mut st);
                    kick_dispatcher(cfg, &mut st, now, &mut events);
                }
            }
        }

        let busy_span = match st.first_slice_start {
            Some(start) => st.last_slice_end.saturating_sub(start),
            None => Nanos::ZERO,
        };
        SystemOutcome {
            completions: st.completions,
            quanta_scheduled: st.quanta_scheduled,
            busy_span,
            events: events.popped(),
        }
    }

    /// Tops up Assign operations so that one is pending for each (idle worker,
    /// queued job) pair not yet covered.
    fn schedule_assigns(st: &mut State) {
        while st.pending_assigns < st.idle.len() && st.pending_assigns < st.central.len() {
            st.assign_q += 1;
            st.pending_assigns += 1;
        }
    }

    /// Starts the next dispatcher operation if the core is free. Scheduling
    /// (Assign) work runs before packet processing.
    fn kick_dispatcher(
        cfg: &SystemConfig,
        st: &mut State,
        now: Nanos,
        events: &mut EventQueue<Ev>,
    ) {
        if st.in_flight.is_some() {
            return;
        }
        let op = if st.assign_q > 0 {
            st.assign_q -= 1;
            Op::Assign
        } else if let Some(req) = st.ingress_q.pop_front() {
            Op::Ingress(req)
        } else {
            return;
        };
        let cost = match op {
            Op::Ingress(_) => cfg.dispatch_per_req,
            Op::Assign => cfg.dispatch_per_quantum,
        };
        st.in_flight = Some(op);
        events.push(now + cost, Ev::OpDone);
    }
}
