//! The two-level scheduling model (TQ, Caladan, and all TQ-* ablations).
//!
//! Dynamics (§3, Figure 3):
//!
//! 1. Requests arrive at the dispatcher's RX queue; the dispatcher is a
//!    serial server spending [`SystemConfig::dispatch_per_req`] per request.
//! 2. On finishing a request it consults the load-balancing policy (with a
//!    fresh view of each worker's counters) and forwards the job to a
//!    worker.
//! 3. The worker interleaves quanta of its resident jobs (PS rotation) or
//!    runs them to completion (FCFS), paying
//!    [`SystemConfig::preempt_overhead`] at every slice boundary.
//! 4. Completed jobs leave directly from the worker (responses bypass the
//!    dispatcher) and the worker's counters are updated.
//!
//! Work stealing (Caladan): a worker going idle raids the longest queue,
//! paying [`SystemConfig::steal_cost`] before the stolen job's first slice.
//!
//! ## Hot-path layout
//!
//! This is the scheduler half of the optimized engine (the shell around
//! it is [`crate::engine`]); the seed implementation is kept in the
//! integration tests as `tq_integration::oracle::queueing`, and
//! differential tests there pin the two to bit-identical completion
//! streams. Worker state is struct-of-arrays:
//! `queued_jobs`/`serviced_quanta` live in flat `u64` arrays scanned
//! directly by [`Dispatcher::pick_split`], idle/backlog membership is a
//! bit per worker ([`crate::mask::WorkerMask`]), jobs live in a recycling
//! [`JobSlab`] with run queues ([`RunQueue`], the live worker's too)
//! holding 32-bit slot indices, and the future-event list is `tq_sim`'s
//! packed 4-ary queue. Steady-state simulation allocates nothing.

use crate::active::ActiveJob;
use crate::config::{Architecture, SystemConfig};
use crate::engine::{Counters, Model, Shell, TAG_INDEX, TAG_KIND, TAG_SLICE};
use crate::mask::WorkerMask;
use crate::slab::{JobIdx, JobSlab, NO_JOB};
use std::collections::VecDeque;
use tq_core::job::Completion;
use tq_core::policy::{flow_hash, steal_victim, Dispatcher, RunQueue};
use tq_core::{Nanos, Request};
use tq_sim::TagQueue;

/// Initial capacity of each dispatcher's RX ring. Arrival bursts deeper
/// than this grow the ring (amortized, retained for the rest of the run);
/// the common case never reallocates.
pub(crate) const RX_RING_CAPACITY: usize = 1024;

/// `TAG_DISPATCH | d` — dispatcher core `d` finished forwarding its
/// current request.
const TAG_DISPATCH: u16 = 0x4000;

/// Struct-of-arrays worker state: parallel per-worker arrays instead of a
/// `Vec<Worker>` of structs, so the JSQ+MSQ argmin reads contiguous `u64`
/// streams and idle/backlog queries are single bitmask lookups.
#[derive(Debug)]
struct Workers {
    /// Every in-flight job, indexed by the `JobIdx` the queues carry.
    slab: JobSlab,
    /// Per-worker run queue of slab indices.
    queues: Vec<RunQueue<JobIdx>>,
    /// Slab index of the job mid-slice (`NO_JOB` when none).
    running: Vec<JobIdx>,
    /// Slice length (work, excluding overheads) of the running job.
    slices: Vec<Nanos>,
    /// Resident jobs per worker — the JSQ signal.
    queued_jobs: Vec<u64>,
    /// Quanta serviced for current jobs per worker — the MSQ signal.
    serviced_quanta: Vec<u64>,
    /// Workers with no running job and an empty queue.
    idle: WorkerMask,
    /// Workers with a non-empty run queue (steal victims).
    backlog: WorkerMask,
    /// Cumulative quanta executed per worker (never decremented, unlike
    /// the live `serviced_quanta` MSQ signal) — mirrors the runtime's
    /// `WorkerStats::quanta`.
    quanta_total: Vec<u64>,
    /// Cumulative jobs completed per worker.
    completed_total: Vec<u64>,
    /// Cumulative jobs this worker gained through stealing/rebalancing.
    steals_total: Vec<u64>,
}

impl Workers {
    fn new(cfg: &SystemConfig) -> Self {
        let n = cfg.n_workers;
        Workers {
            slab: JobSlab::with_capacity(4 * n),
            queues: (0..n)
                .map(|_| RunQueue::new(cfg.worker_policy, 32))
                .collect(),
            running: vec![NO_JOB; n],
            slices: vec![Nanos::ZERO; n],
            queued_jobs: vec![0; n],
            serviced_quanta: vec![0; n],
            idle: WorkerMask::full(n),
            backlog: WorkerMask::empty(n),
            quanta_total: vec![0; n],
            completed_total: vec![0; n],
            steals_total: vec![0; n],
        }
    }
}

/// The two-level scheduler state: dispatcher cores in front of
/// per-worker run queues.
#[derive(Debug)]
pub(crate) struct TwoLevel {
    n_disp: usize,
    policies: Vec<Dispatcher>,
    ws: Workers,
    /// Per-dispatcher preallocated FIFO RX ring plus request in flight.
    rx: Vec<VecDeque<Request>>,
    forwarding: Vec<Option<Request>>,
    rr_dispatcher: usize,
}

impl Model for TwoLevel {
    fn new(cfg: &SystemConfig, seed: u64) -> Self {
        let Architecture::TwoLevel { dispatch } = cfg.arch else {
            panic!("{}: not a two-level system", cfg.name);
        };
        let n_disp = cfg.n_dispatchers;
        TwoLevel {
            n_disp,
            // Each dispatcher core runs the policy independently (own RNG
            // stream) but reads the same live worker counters — §6's
            // multi-dispatcher extension.
            policies: (0..n_disp)
                .map(|d| Dispatcher::new(dispatch, cfg.n_workers, seed ^ (d as u64) << 32))
                .collect(),
            ws: Workers::new(cfg),
            rx: (0..n_disp)
                .map(|_| VecDeque::with_capacity(RX_RING_CAPACITY))
                .collect(),
            forwarding: vec![None; n_disp],
            rr_dispatcher: 0,
        }
    }

    #[inline(always)]
    fn arrive(&mut self, sh: &mut Shell, now: Nanos, req: Request) {
        // The NIC sprays packets across dispatcher cores (RSS).
        let d = self.rr_dispatcher;
        if self.n_disp > 1 {
            self.rr_dispatcher = (self.rr_dispatcher + 1) % self.n_disp;
        }
        if self.forwarding[d].is_none() && self.rx[d].is_empty() {
            // Idle dispatcher, empty ring: forwarding starts now either
            // way, so skip the ring round-trip.
            self.forwarding[d] = Some(req);
            sh.events
                .push(now + sh.cfg.dispatch_per_req, TAG_DISPATCH | d as u16);
        } else {
            self.rx[d].push_back(req);
            if self.forwarding[d].is_none() {
                self.start_forward(sh, d, now);
            }
        }
    }

    #[inline(always)]
    fn handle(&mut self, sh: &mut Shell, now: Nanos, tag: u16, completions: &mut Vec<Completion>) {
        if tag & TAG_KIND == TAG_DISPATCH {
            self.handle_dispatch(sh, now, tag);
        } else {
            self.handle_slice(sh, now, tag, completions);
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            worker_quanta: self.ws.quanta_total.clone(),
            worker_completed: self.ws.completed_total.clone(),
            worker_steals: self.ws.steals_total.clone(),
            busy_span: Nanos::ZERO,
        }
    }

    fn debug_check_drained(&self) {
        debug_assert!(
            self.ws.queued_jobs.iter().all(|&q| q == 0)
                && self.ws.serviced_quanta.iter().all(|&s| s == 0),
            "drained simulation left non-zero worker counters"
        );
    }
}

impl TwoLevel {
    fn start_forward(&mut self, sh: &mut Shell, d: usize, now: Nanos) {
        let req = self.rx[d].pop_front().expect("empty RX queue");
        self.forwarding[d] = Some(req);
        sh.events
            .push(now + sh.cfg.dispatch_per_req, TAG_DISPATCH | d as u16);
    }

    #[inline(always)]
    fn handle_dispatch(&mut self, sh: &mut Shell, now: Nanos, tag: u16) {
        let d = (tag & TAG_INDEX) as usize;
        let req = self.forwarding[d].take().expect("dispatch done without request");
        let w = self.policies[d].pick_split(
            &self.ws.queued_jobs,
            &self.ws.serviced_quanta,
            flow_hash(req.id.0),
        );
        admit(&sh.cfg, &mut self.ws, w, req, now, &mut sh.events);
        if sh.cfg.work_stealing {
            // Idle workers poll for stealable work continuously; a job
            // queued behind a busy worker while another core sits idle
            // is taken immediately.
            rebalance_to_idle(&sh.cfg, &mut self.ws, w, now, &mut sh.events);
        }
        if !self.rx[d].is_empty() {
            self.start_forward(sh, d, now);
        }
    }

    #[inline(always)]
    fn handle_slice(
        &mut self,
        sh: &mut Shell,
        now: Nanos,
        tag: u16,
        completions: &mut Vec<Completion>,
    ) {
        let ws = &mut self.ws;
        let w = (tag & TAG_INDEX) as usize;
        let idx = ws.running[w];
        debug_assert_ne!(idx, NO_JOB, "no running slice");
        let slice = ws.slices[w];
        let job = ws.slab.get_mut(idx);
        let done = job.apply_slice(slice);
        job.refresh_quantum(&sh.cfg);
        let next = job.next_slice();
        let rank = job.rank(&sh.cfg);
        ws.serviced_quanta[w] += 1;
        ws.quanta_total[w] += 1;
        if !done && ws.queues[w].is_empty() {
            // Sole resident job: rerunning it is what the queue
            // round-trip (push, take_next of a one-element queue) would
            // produce under every discipline, so skip the queue, the
            // backlog-mask churn, and the second slab lookup.
            // `running`/`idle` are already correct.
            ws.slices[w] = next;
            sh.events
                .push(now + next + sh.cfg.preempt_overhead, TAG_SLICE | w as u16);
            return;
        }
        ws.running[w] = NO_JOB;
        if done {
            let job = ws.slab.remove(idx);
            ws.queued_jobs[w] -= 1;
            ws.serviced_quanta[w] -= job.quanta;
            ws.completed_total[w] += 1;
            sh.complete(&job, now, completions);
        } else {
            ws.queues[w].push(idx, rank);
            ws.backlog.set(w);
        }
        if !ws.queues[w].is_empty() {
            start_slice(&sh.cfg, ws, w, now, Nanos::ZERO, &mut sh.events);
        } else {
            ws.idle.set(w);
            if sh.cfg.work_stealing {
                try_steal(&sh.cfg, ws, w, now, &mut sh.events);
            }
        }
    }
}

fn admit(
    cfg: &SystemConfig,
    ws: &mut Workers,
    w: usize,
    req: Request,
    now: Nanos,
    events: &mut TagQueue,
) {
    let job = ActiveJob::admit(cfg, &req, cfg.worker_rx_cost);
    ws.queued_jobs[w] += 1;
    let rank = job.rank(cfg);
    let idx = ws.slab.insert(job);
    ws.queues[w].push(idx, rank);
    ws.backlog.set(w);
    ws.idle.clear(w);
    if ws.running[w] == NO_JOB {
        start_slice(cfg, ws, w, now, Nanos::ZERO, events);
    }
}

fn start_slice(
    cfg: &SystemConfig,
    ws: &mut Workers,
    w: usize,
    now: Nanos,
    extra: Nanos,
    events: &mut TagQueue,
) {
    let idx = ws.queues[w].take_next().expect("start_slice on empty queue");
    if ws.queues[w].is_empty() {
        ws.backlog.clear(w);
    }
    let job = ws.slab.get_mut(idx);
    job.refresh_quantum(cfg);
    let slice = job.next_slice();
    let wall = slice + cfg.preempt_overhead + extra;
    ws.running[w] = idx;
    ws.slices[w] = slice;
    ws.idle.clear(w);
    events.push(now + wall, TAG_SLICE | w as u16);
}

fn try_steal(
    cfg: &SystemConfig,
    ws: &mut Workers,
    thief: usize,
    now: Nanos,
    events: &mut TagQueue,
) {
    debug_assert!(ws.idle.contains(thief), "thief must be idle");
    if ws.backlog.is_empty() {
        return;
    }
    // The backlog set is the non-empty queues, ascending; the thief's own
    // queue is empty, so it is never in it.
    let lens = ws.backlog.iter().map(|v| (v, ws.queues[v].len()));
    if let Some(victim) = steal_victim(lens) {
        transfer_tail_job(cfg, ws, victim, thief, now, events);
    }
}

/// Moves the newest queued job on `from` (busy, with queued work) to an
/// idle worker, if one exists — the continuous-polling side of work
/// stealing.
fn rebalance_to_idle(
    cfg: &SystemConfig,
    ws: &mut Workers,
    from: usize,
    now: Nanos,
    events: &mut TagQueue,
) {
    if ws.running[from] == NO_JOB || ws.queues[from].is_empty() {
        return;
    }
    // `from` is mid-slice, hence never idle itself; the mask's lowest set
    // bit is the seed's "first worker with nothing running and nothing
    // queued".
    let Some(thief) = ws.idle.first() else { return };
    transfer_tail_job(cfg, ws, from, thief, now, events);
}

/// Takes the tail job of `victim`'s queue, re-homes it (and its counter
/// contributions) to `thief`, and starts it there after the steal cost.
fn transfer_tail_job(
    cfg: &SystemConfig,
    ws: &mut Workers,
    victim: usize,
    thief: usize,
    now: Nanos,
    events: &mut TagQueue,
) {
    let idx = ws.queues[victim].take_last().expect("victim queue non-empty");
    if ws.queues[victim].is_empty() {
        ws.backlog.clear(victim);
    }
    let job = ws.slab.get(idx);
    let quanta = job.quanta;
    let rank = job.rank(cfg);
    ws.queued_jobs[victim] -= 1;
    ws.serviced_quanta[victim] -= quanta;
    ws.queued_jobs[thief] += 1;
    ws.serviced_quanta[thief] += quanta;
    ws.steals_total[thief] += 1;
    ws.queues[thief].push(idx, rank);
    ws.backlog.set(thief);
    ws.idle.clear(thief);
    start_slice(cfg, ws, thief, now, cfg.steal_cost, events);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, simulate_into};
    use crate::presets;
    use tq_sim::SimRng;
    use tq_workloads::{table1, ArrivalGen};

    fn run(cfg: &SystemConfig, rate: f64, millis: u64, seed: u64) -> Vec<Completion> {
        let gen = ArrivalGen::new(table1::extreme_bimodal(), rate, SimRng::new(seed));
        simulate(cfg, gen, Nanos::from_millis(millis), seed).completions
    }

    #[test]
    fn conservation_all_arrivals_complete() {
        let cfg = presets::tq(4, Nanos::from_micros(2));
        let rate = table1::extreme_bimodal().rate_for_load(4, 0.5);
        let gen = ArrivalGen::new(table1::extreme_bimodal(), rate, SimRng::new(7));
        let expected = {
            let mut g = gen.clone();
            g.until(Nanos::from_millis(5)).len()
        };
        let outcome = simulate(&cfg, gen.clone(), Nanos::from_millis(5), 7);
        let completions = outcome.completions;
        assert_eq!(completions.len(), expected);
        assert!(outcome.events as usize >= expected, "every job takes events");
        // No duplicates.
        let mut ids: Vec<u64> = completions.iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), completions.len());
    }

    #[test]
    fn sojourn_at_least_service() {
        let cfg = presets::tq(4, Nanos::from_micros(2));
        for c in run(&cfg, 1.0e6, 5, 3) {
            assert!(
                c.sojourn() >= c.service,
                "job {} finished faster than its service time",
                c.id
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = presets::tq(4, Nanos::from_micros(2));
        let a = run(&cfg, 1.0e6, 5, 11);
        let b = run(&cfg, 1.0e6, 5, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn fcfs_never_preempts() {
        let cfg = presets::tq_fcfs(4);
        for c in run(&cfg, 0.5e6, 5, 5) {
            // Under FCFS a job's sojourn is waiting + one uninterrupted
            // run; with probe inflation 3% the run is ≤ 1.03×service, so
            // any job that started immediately finishes within that.
            assert!(c.sojourn() >= c.service);
        }
    }

    #[test]
    fn stealing_rebalances_random_dispatch() {
        // FCFS + RSS with stealing (Caladan) should complete everything
        // and far outperform FCFS + RSS without stealing at the tail.
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(8, 0.6);
        let steal_cfg = presets::caladan_directpath(8);
        let mut nosteal_cfg = steal_cfg.clone();
        nosteal_cfg.work_stealing = false;

        let p999 = |cfg: &SystemConfig| {
            let gen = ArrivalGen::new(wl.clone(), rate, SimRng::new(2));
            let comps = simulate(cfg, gen, Nanos::from_millis(30), 2).completions;
            let mut rec = tq_sim::ClassRecorder::new(0.1);
            for c in comps {
                rec.record(c);
            }
            rec.summarize(Nanos::ZERO)[0].p999
        };
        let with = p999(&steal_cfg);
        let without = p999(&nosteal_cfg);
        assert!(
            with < without,
            "stealing should cut short-job tail: {with} vs {without}"
        );
    }

    #[test]
    fn ps_beats_fcfs_for_short_jobs_under_bimodal() {
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(8, 0.6);
        let run_p999 = |cfg: &SystemConfig| {
            let gen = ArrivalGen::new(wl.clone(), rate, SimRng::new(4));
            let comps = simulate(cfg, gen, Nanos::from_millis(30), 4).completions;
            let mut rec = tq_sim::ClassRecorder::new(0.1);
            for c in comps {
                rec.record(c);
            }
            rec.summarize(Nanos::ZERO)[0].p999
        };
        let ps = run_p999(&presets::tq(8, Nanos::from_micros(2)));
        let fcfs = run_p999(&presets::caladan_directpath(8));
        assert!(
            ps * 5 < fcfs,
            "PS should avoid head-of-line blocking: PS {ps}, FCFS {fcfs}"
        );
    }

    #[test]
    fn adaptive_controller_reports_and_replays_identically() {
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(4, 0.7);
        let cfg = presets::tq_adaptive(4, Nanos::from_micros(10));
        let run = || {
            let gen = ArrivalGen::new(wl.clone(), rate, SimRng::new(17));
            let mut comps = Vec::new();
            let stats = simulate_into(&cfg, gen, Nanos::from_millis(20), 17, &mut comps);
            (comps, stats)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "adaptive run must replay bit-identically");
        let rep = sa.controller.expect("controller configured");
        assert_eq!(Some(rep), sb.controller);
        assert!(rep.stats.windows > 0, "20ms of traffic closes windows");
        let band = cfg.controller.unwrap();
        assert!(rep.final_quantum >= band.min_quantum);
        assert!(rep.final_quantum <= band.max_quantum);
    }

    #[test]
    fn fixed_quantum_run_reports_no_controller() {
        let cfg = presets::tq(4, Nanos::from_micros(2));
        let gen = ArrivalGen::new(table1::extreme_bimodal(), 1.0e6, SimRng::new(5));
        let mut comps = Vec::new();
        let stats = simulate_into(&cfg, gen, Nanos::from_millis(5), 5, &mut comps);
        assert!(stats.controller.is_none());
    }
}
