//! The centralized scheduling model (Shinjuku and the idealized CT-PS
//! analysis of §2 / Figure 4).
//!
//! A single dispatcher core owns the job queue and performs *all* quantum
//! scheduling: it is a serial server whose operations are
//!
//! * **ingress** — process an arriving packet into a pending job
//!   ([`SystemConfig::dispatch_per_req`]);
//! * **assign** — pop the queue head and send it to an idle worker for one
//!   quantum ([`SystemConfig::dispatch_per_quantum`]).
//!
//! Workers pay [`SystemConfig::preempt_overhead`] (the ~1 µs interrupt for
//! Shinjuku) at each slice boundary and return the job to the central
//! queue, so the dispatcher's load grows inversely with the quantum size —
//! the scalability wall of Figure 16.
//!
//! Like [`crate::twolevel`], this is the scheduler half of the optimized
//! engine (job slab + index queue + idle bitmask, allocation-free in
//! steady state) behind the [`crate::engine`] shell; the seed
//! implementation is kept in the integration tests as
//! `tq_integration::oracle::queueing` and pinned bit-identical by
//! differential tests there.

use crate::active::ActiveJob;
use crate::config::{Architecture, SystemConfig};
use crate::engine::{Counters, Model, Shell, TAG_INDEX, TAG_SLICE};
use crate::mask::WorkerMask;
use crate::slab::{JobIdx, JobSlab, NO_JOB};
use crate::twolevel::RX_RING_CAPACITY;
use std::collections::VecDeque;
use tq_core::job::Completion;
use tq_core::policy::RunQueue;
use tq_core::{Nanos, Request};
use tq_sim::TagQueue;

/// `TAG_OP` — the dispatcher finished its in-flight operation.
const TAG_OP: u16 = 0x4000;

#[derive(Debug, Clone, Copy)]
enum Op {
    Ingress(Request),
    Assign,
}

/// The centralized scheduler state: one dispatcher core, one queue.
#[derive(Debug)]
pub(crate) struct Centralized {
    /// Pending packet-processing work (FIFO). Scheduling work (Assign)
    /// takes priority: an overloaded dispatcher lets the RX queue back up
    /// (as a real NIC queue would) rather than idling every worker.
    ingress_q: VecDeque<Request>,
    /// Queued Assign operations (count; they carry no payload).
    assign_q: usize,
    in_flight: Option<Op>,
    /// Every in-flight job, indexed by the slots `central`/`running` hold.
    slab: JobSlab,
    /// The central run queue on slab indices: FIFO rotation for PS/FCFS
    /// (both admit and quantum re-entry enqueue at the tail), min-rank
    /// order for ranked disciplines.
    central: RunQueue<JobIdx>,
    idle: WorkerMask,
    /// Cached `idle.count()`, maintained at every set/clear.
    n_idle: usize,
    pending_assigns: usize,
    /// Slab index of the job mid-slice per worker (`NO_JOB` when none).
    running: Vec<JobIdx>,
    /// Slice length (work, excluding overheads) of the running job.
    slices: Vec<Nanos>,
    /// First slice start and last slice end, for the
    /// dispatcher-scalability experiment (Figure 16).
    first_slice_start: Option<Nanos>,
    last_slice_end: Nanos,
    /// Cumulative quanta assigned to each worker.
    worker_quanta: Vec<u64>,
    /// Jobs that finished on each worker.
    worker_completed: Vec<u64>,
}

impl Model for Centralized {
    fn new(cfg: &SystemConfig, _seed: u64) -> Self {
        assert!(
            matches!(cfg.arch, Architecture::Centralized),
            "{}: not a centralized system",
            cfg.name
        );
        let n = cfg.n_workers;
        Centralized {
            ingress_q: VecDeque::with_capacity(RX_RING_CAPACITY),
            assign_q: 0,
            in_flight: None,
            slab: JobSlab::with_capacity(4 * n),
            central: RunQueue::new(cfg.worker_policy, 4 * n),
            idle: WorkerMask::full(n),
            n_idle: n,
            pending_assigns: 0,
            running: vec![NO_JOB; n],
            slices: vec![Nanos::ZERO; n],
            first_slice_start: None,
            last_slice_end: Nanos::ZERO,
            worker_quanta: vec![0; n],
            worker_completed: vec![0; n],
        }
    }

    #[inline(always)]
    fn arrive(&mut self, sh: &mut Shell, now: Nanos, req: Request) {
        self.ingress_q.push_back(req);
        self.kick_dispatcher(&sh.cfg, now, &mut sh.events);
    }

    #[inline(always)]
    fn handle(&mut self, sh: &mut Shell, now: Nanos, tag: u16, completions: &mut Vec<Completion>) {
        if tag == TAG_OP {
            self.handle_op(&sh.cfg, now, &mut sh.events);
        } else {
            self.handle_slice(sh, now, tag, completions);
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            worker_quanta: self.worker_quanta.clone(),
            worker_completed: self.worker_completed.clone(),
            worker_steals: vec![0; self.running.len()],
            busy_span: match self.first_slice_start {
                Some(start) => self.last_slice_end.saturating_sub(start),
                None => Nanos::ZERO,
            },
        }
    }

    fn debug_check_drained(&self) {
        debug_assert!(
            self.central.is_empty()
                && self.slab.live() == 0
                && self.ingress_q.is_empty()
                && self.assign_q == 0
                && self.in_flight.is_none()
                && self.n_idle == self.running.len(),
            "drained simulation left centralized work behind: {self:?}"
        );
    }
}

impl Centralized {
    #[inline(always)]
    fn handle_op(&mut self, cfg: &SystemConfig, now: Nanos, events: &mut TagQueue) {
        let op = self.in_flight.take().expect("op done without op");
        match op {
            Op::Ingress(req) => {
                let job = ActiveJob::admit(cfg, &req, Nanos::ZERO);
                let rank = job.rank(cfg);
                let idx = self.slab.insert(job);
                self.central.push(idx, rank);
            }
            Op::Assign => {
                self.pending_assigns -= 1;
                if let Some(idx) = self.central.take_next() {
                    if let Some(w) = self.idle.first() {
                        self.idle.clear(w);
                        self.n_idle -= 1;
                        let job = self.slab.get_mut(idx);
                        job.refresh_quantum(cfg);
                        let slice = job.next_slice();
                        self.running[w] = idx;
                        self.slices[w] = slice;
                        self.worker_quanta[w] += 1;
                        self.first_slice_start.get_or_insert(now);
                        events.push(now + slice + cfg.preempt_overhead, TAG_SLICE | w as u16);
                    } else {
                        // Wasted dispatcher cycle: every worker got busy
                        // since this op was queued.
                        let rank = self.slab.get(idx).rank(cfg);
                        self.central.push(idx, rank);
                    }
                }
            }
        }
        self.schedule_assigns();
        self.kick_dispatcher(cfg, now, events);
    }

    #[inline(always)]
    fn handle_slice(
        &mut self,
        sh: &mut Shell,
        now: Nanos,
        tag: u16,
        completions: &mut Vec<Completion>,
    ) {
        let w = (tag & TAG_INDEX) as usize;
        let idx = self.running[w];
        debug_assert_ne!(idx, NO_JOB, "no running slice");
        self.running[w] = NO_JOB;
        self.last_slice_end = now;
        let job = self.slab.get_mut(idx);
        if job.apply_slice(self.slices[w]) {
            let job = self.slab.remove(idx);
            self.worker_completed[w] += 1;
            sh.complete(&job, now, completions);
        } else {
            let rank = job.rank(&sh.cfg);
            self.central.push(idx, rank);
        }
        self.idle.set(w);
        self.n_idle += 1;
        self.schedule_assigns();
        self.kick_dispatcher(&sh.cfg, now, &mut sh.events);
    }

    /// Tops up Assign operations so that one is pending for each (idle worker,
    /// queued job) pair not yet covered.
    fn schedule_assigns(&mut self) {
        debug_assert_eq!(self.n_idle, self.idle.count());
        while self.pending_assigns < self.n_idle && self.pending_assigns < self.central.len() {
            self.assign_q += 1;
            self.pending_assigns += 1;
        }
    }

    /// Starts the next dispatcher operation if the core is free. Scheduling
    /// (Assign) work runs before packet processing.
    fn kick_dispatcher(&mut self, cfg: &SystemConfig, now: Nanos, events: &mut TagQueue) {
        if self.in_flight.is_some() {
            return;
        }
        let op = if self.assign_q > 0 {
            self.assign_q -= 1;
            Op::Assign
        } else if let Some(req) = self.ingress_q.pop_front() {
            Op::Ingress(req)
        } else {
            return;
        };
        let cost = match op {
            Op::Ingress(_) => cfg.dispatch_per_req,
            Op::Assign => cfg.dispatch_per_quantum,
        };
        self.in_flight = Some(op);
        events.push(now + cost, TAG_OP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::presets;
    use tq_sim::SimRng;
    use tq_workloads::{table1, ArrivalGen};

    #[test]
    fn conservation_all_arrivals_complete() {
        let cfg = presets::shinjuku(4, Nanos::from_micros(5));
        let wl = table1::high_bimodal();
        let rate = wl.rate_for_load(4, 0.4);
        let gen = ArrivalGen::new(wl, rate, SimRng::new(1));
        let expected = gen.clone().until(Nanos::from_millis(10)).len();
        let out = simulate(&cfg, gen, Nanos::from_millis(10), 0);
        assert_eq!(out.completions.len(), expected);
        assert!(out.busy_span > Nanos::ZERO);
        assert!(out.events as usize >= expected, "every job takes events");
    }

    #[test]
    fn ideal_ct_ps_single_long_job_runs_continuously() {
        // One job, zero overheads: finishes after exactly its service time
        // (plus nothing), despite being chopped into quanta.
        let cfg = presets::ideal_centralized_ps(2, Nanos::from_micros(1));
        let wl = tq_workloads::Workload::new(
            "one",
            vec![tq_workloads::JobClass::new(
                "only",
                tq_workloads::ClassDist::Deterministic(Nanos::from_micros(100)),
                1.0,
            )],
        );
        // Rate low enough that concurrent 100µs jobs are vanishingly rare
        // (utilization 2e-4) but several arrive before the horizon.
        let gen = ArrivalGen::new(wl, 2_000.0, SimRng::new(3));
        let out = simulate(&cfg, gen, Nanos::from_millis(20), 0);
        assert!(!out.completions.is_empty());
        let c = &out.completions[0];
        assert_eq!(c.sojourn(), Nanos::from_micros(100));
        assert!((c.slowdown() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quanta_accounting_matches_service() {
        let cfg = presets::ideal_centralized_ps(2, Nanos::from_micros(1));
        let wl = table1::high_bimodal();
        let gen = ArrivalGen::new(wl, 50_000.0, SimRng::new(5));
        let out = simulate(&cfg, gen, Nanos::from_millis(4), 0);
        // Every 100µs job takes 100 quanta at 1µs, every 1µs job takes 1.
        let expected: u64 = out
            .completions
            .iter()
            .map(|c| c.service.as_nanos().div_ceil(1_000))
            .sum();
        assert_eq!(out.quanta_scheduled, expected);
    }

    #[test]
    fn interrupt_overhead_slows_completion() {
        let wl = table1::high_bimodal();
        let rate = wl.rate_for_load(4, 0.5);
        let run = |cfg: &SystemConfig| {
            let gen = ArrivalGen::new(wl.clone(), rate, SimRng::new(9));
            let out = simulate(cfg, gen, Nanos::from_millis(20), 0);
            let mut rec = tq_sim::ClassRecorder::new(0.1);
            for c in out.completions {
                rec.record(c);
            }
            rec.summarize(Nanos::ZERO)[0].p999
        };
        let ideal = run(&presets::ideal_centralized_ps(4, Nanos::from_micros(5)));
        let shinjuku = run(&presets::shinjuku(4, Nanos::from_micros(5)));
        assert!(
            shinjuku > ideal,
            "interrupts must cost something: {shinjuku} <= {ideal}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = presets::shinjuku(4, Nanos::from_micros(5));
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(4, 0.3);
        let a = simulate(
            &cfg,
            ArrivalGen::new(wl.clone(), rate, SimRng::new(2)),
            Nanos::from_millis(5),
            0,
        );
        let b = simulate(
            &cfg,
            ArrivalGen::new(wl, rate, SimRng::new(2)),
            Nanos::from_millis(5),
            0,
        );
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.quanta_scheduled, b.quanta_scheduled);
    }
}
