//! The server engine: one steppable shell around either scheduling model.
//!
//! Everything the two architectures share lives here once — the live
//! configuration (its quantum tracking the adaptive controller), the
//! packed future-event list, the arrival source, the horizon accounting
//! and "emit a completion". What differs — scheduler state, what an
//! arrival does, what a dispatcher/worker event does — is a `Model`:
//! `twolevel::TwoLevel` (§3, TQ/Caladan) or `centralized::Centralized`
//! (§2, Shinjuku). `Engine<M>` is generic over the model, so the
//! architecture is chosen once per run ([`simulate_into`], the rack
//! tier) and `step` inlines the model's handlers.
//!
//! The seed implementations are kept in the integration tests as
//! `tq_integration::oracle::queueing`; differential tests there pin this
//! engine to them bit for bit.

use crate::active::ActiveJob;
use crate::centralized::Centralized;
use crate::config::{Architecture, SystemConfig};
use crate::twolevel::TwoLevel;
use tq_core::adaptive::{ControllerReport, QuantumController};
use tq_core::job::Completion;
use tq_core::{Nanos, Request};
use tq_sim::{EventQueue, TagQueue};
use tq_workloads::ArrivalGen;

/// Event tags for the [`TagQueue`]: the kind lives in the top two bits,
/// the worker/dispatcher index in the low 14. `TAG_ARRIVAL` (the
/// pre-drawn next request reaches the NIC) belongs to the shell;
/// `TAG_SLICE | w` (worker `w` finished its slice) and the model's own
/// `0x4000` dispatcher kind go to [`Model::handle`].
pub(crate) const TAG_ARRIVAL: u16 = 0;
pub(crate) const TAG_SLICE: u16 = 0x8000;
pub(crate) const TAG_KIND: u16 = 0xC000;
pub(crate) const TAG_INDEX: u16 = 0x3FFF;

/// What differs between the architectures, statically dispatched.
pub(crate) trait Model: Send + Sized {
    /// Builds the scheduler state for `cfg` (already validated).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is of the other architecture.
    fn new(cfg: &SystemConfig, seed: u64) -> Self;
    /// A request reaches the NIC at `now`.
    fn arrive(&mut self, sh: &mut Shell, now: Nanos, req: Request);
    /// A dispatcher or worker event popped at `now`.
    fn handle(&mut self, sh: &mut Shell, now: Nanos, tag: u16, completions: &mut Vec<Completion>);
    /// Copies of the per-worker totals.
    fn counters(&self) -> Counters;
    /// Debug-asserts that nothing is queued, in flight or running — only
    /// valid once [`Engine::step`] has returned `false`.
    fn debug_check_drained(&self);
}

/// Per-worker totals a [`Model`] keeps.
#[derive(Debug)]
pub(crate) struct Counters {
    pub worker_quanta: Vec<u64>,
    pub worker_completed: Vec<u64>,
    pub worker_steals: Vec<u64>,
    pub busy_span: Nanos,
}

/// Where an engine gets its request stream.
// One instance per sim — boxing the generator would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum ArrivalSource {
    /// The sim owns the generator and pre-draws one request ahead — the
    /// serial single-server mode, bit-identical to the seed engines.
    Own {
        gen: ArrivalGen,
        /// The pre-drawn request backing the pending arrival event.
        next: Option<Request>,
    },
    /// Requests are injected by an outer layer (the rack tier): a
    /// delivery-time-ordered inbox merged against the internal event
    /// queue at step time. On a time tie the inbox wins — the packet is
    /// already on the wire before any same-instant internal work.
    Fed { inbox: EventQueue<Request> },
}

impl ArrivalSource {
    /// Draws the next request and, if it arrives before `horizon`,
    /// schedules it.
    #[inline(always)]
    fn pre_draw(&mut self, horizon: Nanos, events: &mut TagQueue) {
        if let ArrivalSource::Own { gen, next } = self {
            let r = gen.next_request();
            if r.arrival < horizon {
                events.push(r.arrival, TAG_ARRIVAL);
                *next = Some(r);
            }
        }
    }
}

/// The engine-independent half of a server simulation.
#[derive(Debug)]
pub(crate) struct Shell {
    /// The live configuration: under an adaptive controller `cfg.quantum`
    /// tracks its output, so `quantum_for` always answers with the
    /// quantum currently in force.
    pub cfg: SystemConfig,
    /// The model's future-event list (plus the shell's arrival event).
    pub events: TagQueue,
    horizon: Nanos,
    source: ArrivalSource,
    /// Arrivals handed to the model: own draws before the horizon, or
    /// requests consumed from the `Fed` inbox (those bypass `events`).
    arrivals: u64,
    completed: u64,
    in_horizon: u64,
    ctl: Option<QuantumController>,
}

impl Shell {
    /// Emits `job`'s completion at `now` and feeds the controller.
    #[inline(always)]
    pub fn complete(&mut self, job: &ActiveJob, now: Nanos, completions: &mut Vec<Completion>) {
        self.completed += 1;
        self.in_horizon += u64::from(now <= self.horizon);
        completions.push(Completion {
            id: job.id,
            class: job.class,
            arrival: job.arrival,
            service: job.service_true,
            finish: now,
        });
        if let Some(ctl) = &mut self.ctl {
            ctl.record(job.service_true, now - job.arrival);
            if ctl.advance(now) {
                self.cfg.quantum = ctl.quantum();
            }
        }
    }
}

/// One server as a steppable state machine over model `M`.
#[derive(Debug)]
pub(crate) struct Engine<M> {
    sh: Shell,
    model: M,
}

impl<M: Model> Engine<M> {
    /// The serial engine: owns `gen` and draws its own arrival stream up
    /// to `horizon`.
    // Out of line: construction inlined into `run_own` costs its step
    // loop 3% (EXPERIMENTS.md "One server engine").
    #[inline(never)]
    pub fn new(cfg: &SystemConfig, gen: ArrivalGen, horizon: Nanos, seed: u64) -> Self {
        let mut e = Self::new_fed(cfg, horizon, seed);
        e.sh.source = ArrivalSource::Own { gen, next: None };
        e.sh.source.pre_draw(horizon, &mut e.sh.events);
        e
    }

    /// A fed engine: requests arrive only through [`inject`](Self::inject);
    /// `horizon` is used solely for the in-horizon completion counter.
    pub fn new_fed(cfg: &SystemConfig, horizon: Nanos, seed: u64) -> Self {
        cfg.validate();
        assert!(
            cfg.n_workers.max(cfg.n_dispatchers) <= TAG_INDEX as usize,
            "{}: worker/dispatcher index exceeds the 14-bit event-tag space",
            cfg.name
        );
        let ctl = cfg
            .controller
            .clone()
            .map(|c| QuantumController::new(c, cfg.quantum));
        let mut owned = cfg.clone();
        if let Some(c) = &ctl {
            // The controller clamps the starting quantum into its band;
            // the live config must agree from the first slice.
            owned.quantum = c.quantum();
        }
        Engine {
            model: M::new(cfg, seed),
            sh: Shell {
                // At most one pending event per worker and per dispatcher
                // core, plus the next arrival; each push debug-asserts it.
                events: TagQueue::with_capacity(cfg.n_workers + cfg.n_dispatchers + 1),
                cfg: owned,
                horizon,
                source: ArrivalSource::Fed {
                    inbox: EventQueue::new(),
                },
                arrivals: 0,
                completed: 0,
                in_horizon: 0,
                ctl,
            },
        }
    }

    pub fn next_time(&self) -> Option<Nanos> {
        let internal = self.sh.events.peek_time();
        match &self.sh.source {
            ArrivalSource::Fed { inbox } => match (inbox.peek_time(), internal) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            ArrivalSource::Own { .. } => internal,
        }
    }

    pub fn inject(&mut self, at: Nanos, req: Request) {
        self.inject_batch([(at, req)]);
    }

    pub fn inject_batch<I: IntoIterator<Item = (Nanos, Request)>>(&mut self, batch: I) {
        let ArrivalSource::Fed { inbox } = &mut self.sh.source else {
            panic!("inject into a sim that owns its arrival stream");
        };
        // The inbox only knows its own clock; an arrival behind an
        // internal event already executed would run time backwards.
        let executed = self.sh.events.now();
        inbox.extend_sorted(batch.into_iter().inspect(|&(at, _)| {
            assert!(
                at >= executed,
                "request injected into the past: {at} < now {executed}"
            );
        }));
    }

    #[inline(always)]
    pub fn step(&mut self, completions: &mut Vec<Completion>) -> bool {
        let sh = &mut self.sh;
        if let ArrivalSource::Fed { inbox } = &mut sh.source {
            if let Some(t) = inbox.peek_time() {
                if sh.events.peek_time().is_none_or(|e| t <= e) {
                    let (now, req) = inbox.pop().expect("peeked non-empty inbox");
                    sh.arrivals += 1;
                    self.model.arrive(sh, now, req);
                    return true;
                }
            }
        }
        let Some((now, tag)) = sh.events.pop() else {
            return false;
        };
        if tag & TAG_KIND != TAG_ARRIVAL {
            self.model.handle(sh, now, tag, completions);
            return true;
        }
        let ArrivalSource::Own { next, .. } = &mut sh.source else {
            unreachable!("arrival event in fed mode");
        };
        let req = next.take().expect("arrival without request");
        sh.arrivals += 1;
        self.model.arrive(sh, now, req);
        sh.source.pre_draw(sh.horizon, &mut sh.events);
        true
    }

    pub fn load(&self) -> u64 {
        let inbox = match &self.sh.source {
            ArrivalSource::Fed { inbox } => inbox.len() as u64,
            ArrivalSource::Own { .. } => 0,
        };
        self.sh.arrivals - self.sh.completed + inbox
    }

    pub fn events(&self) -> u64 {
        let fed = match self.sh.source {
            ArrivalSource::Fed { .. } => self.sh.arrivals,
            ArrivalSource::Own { .. } => 0,
        };
        self.sh.events.popped() + fed
    }

    pub fn stats(&self) -> SystemStats {
        let c = self.model.counters();
        SystemStats {
            events: self.events(),
            arrivals: self.sh.arrivals,
            in_horizon: self.sh.in_horizon,
            worker_quanta: c.worker_quanta,
            worker_completed: c.worker_completed,
            worker_steals: c.worker_steals,
            busy_span: c.busy_span,
            controller: self.sh.ctl.as_ref().map(|c| c.report()),
        }
    }

    /// Debug-asserts conservation and an empty model — only valid once
    /// [`step`](Self::step) has returned `false`.
    pub fn debug_check_drained(&self) {
        debug_assert_eq!(self.load(), 0, "drained simulation left resident jobs");
        self.model.debug_check_drained();
    }
}

/// The serial run over model `M`: build, step to quiescence, report. One
/// function per model with the engine as its local — a step loop reached
/// through a `self` pointer instead is 4–6% slower.
#[inline(never)]
fn run_own<M: Model>(
    cfg: &SystemConfig,
    gen: ArrivalGen,
    horizon: Nanos,
    seed: u64,
    completions: &mut Vec<Completion>,
) -> SystemStats {
    let mut e = Engine::<M>::new(cfg, gen, horizon, seed);
    while e.step(completions) {}
    e.debug_check_drained();
    e.stats()
}

/// Counters a server simulation produces besides the completion stream.
#[derive(Debug, Clone)]
pub struct SystemStats {
    /// Events executed: internal queue pops plus fed arrivals — the
    /// simulation's work counter.
    pub events: u64,
    /// Arrivals the engine consumed: own draws before the horizon, or
    /// injected requests taken from the inbox. Once drained, every one
    /// has completed.
    pub arrivals: u64,
    /// Completions that finished within the arrival horizon (the rest
    /// drained afterwards), counted during the run so callers computing
    /// achieved throughput need no extra pass.
    pub in_horizon: u64,
    /// Cumulative quanta executed per worker — the virtual-time analogue
    /// of the runtime's `WorkerStats::quanta`.
    pub worker_quanta: Vec<u64>,
    /// Jobs completed per worker.
    pub worker_completed: Vec<u64>,
    /// Jobs each worker gained by stealing (thief-side count, including
    /// dispatcher-triggered rebalances to idle workers); all zero on a
    /// centralized system.
    pub worker_steals: Vec<u64>,
    /// Span from the first slice start to the last slice end (Figure 16's
    /// dispatcher accounting). Zero on a two-level system, whose hot path
    /// does not track it.
    pub busy_span: Nanos,
    /// Adaptive-quantum controller outcome, when one was configured.
    pub controller: Option<ControllerReport>,
}

/// What [`simulate`] returns (and the seed models the differential
/// tests compare it against).
#[derive(Debug)]
pub struct SystemOutcome {
    /// Every job completion, in finish order.
    pub completions: Vec<Completion>,
    /// Events delivered by the virtual-time queue.
    pub events: u64,
    /// Total quanta executed (on a centralized system: scheduled by the
    /// dispatcher).
    pub quanta_scheduled: u64,
    /// See [`SystemStats::busy_span`].
    pub busy_span: Nanos,
}

/// Simulates the configured system serving `gen`'s request stream until
/// `horizon`, then drains. `seed` feeds the two-level dispatch policies
/// (a centralized system draws nothing).
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn simulate(cfg: &SystemConfig, gen: ArrivalGen, horizon: Nanos, seed: u64) -> SystemOutcome {
    let mut completions = Vec::new();
    let stats = simulate_into(cfg, gen, horizon, seed, &mut completions);
    SystemOutcome {
        completions,
        events: stats.events,
        quanta_scheduled: stats.worker_quanta.iter().sum(),
        busy_span: stats.busy_span,
    }
}

/// [`simulate`] writing completions into a caller-provided buffer
/// (cleared first), so sweeps can reuse one allocation across points.
/// Returns the run's counters.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn simulate_into(
    cfg: &SystemConfig,
    gen: ArrivalGen,
    horizon: Nanos,
    seed: u64,
    completions: &mut Vec<Completion>,
) -> SystemStats {
    completions.clear();
    completions.reserve(gen.expected_arrivals(horizon));
    match cfg.arch {
        Architecture::TwoLevel { .. } => run_own::<TwoLevel>(cfg, gen, horizon, seed, completions),
        Architecture::Centralized => run_own::<Centralized>(cfg, gen, horizon, seed, completions),
    }
}

/// One server of either architecture as a steppable state machine, for
/// drivers that interleave it with something else. Every call matches
/// the architecture; [`simulate_into`] and the rack tier, which run
/// millions of steps, pick it once instead.
#[derive(Debug)]
pub struct SystemSim(Arch);

#[derive(Debug)]
enum Arch {
    TwoLevel(Box<Engine<TwoLevel>>),
    Centralized(Box<Engine<Centralized>>),
}

macro_rules! on_engine {
    ($sim:expr, $e:ident => $body:expr) => {
        match $sim {
            Arch::TwoLevel($e) => $body,
            Arch::Centralized($e) => $body,
        }
    };
}

impl SystemSim {
    /// Builds the serial engine: the sim owns `gen` and draws its own
    /// arrival stream up to `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &SystemConfig, gen: ArrivalGen, horizon: Nanos, seed: u64) -> Self {
        SystemSim(match cfg.arch {
            Architecture::TwoLevel { .. } => {
                Arch::TwoLevel(Box::new(Engine::new(cfg, gen, horizon, seed)))
            }
            Architecture::Centralized => {
                Arch::Centralized(Box::new(Engine::new(cfg, gen, horizon, seed)))
            }
        })
    }

    /// Builds a fed engine: requests arrive only through
    /// [`inject`](SystemSim::inject). `horizon` is used solely for the
    /// in-horizon completion counter.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new_fed(cfg: &SystemConfig, horizon: Nanos, seed: u64) -> Self {
        SystemSim(match cfg.arch {
            Architecture::TwoLevel { .. } => {
                Arch::TwoLevel(Box::new(Engine::new_fed(cfg, horizon, seed)))
            }
            Architecture::Centralized => {
                Arch::Centralized(Box::new(Engine::new_fed(cfg, horizon, seed)))
            }
        })
    }

    /// Timestamp of the earliest pending event (injected or internal),
    /// or `None` once the sim has quiesced.
    pub fn next_time(&self) -> Option<Nanos> {
        on_engine!(&self.0, e => e.next_time())
    }

    /// Schedules an externally-routed request to reach the NIC at `at`
    /// (fed mode only).
    ///
    /// # Panics
    ///
    /// Panics if the sim owns its arrival stream, or if `at` is in the
    /// past: earlier than an event (injected or internal) already
    /// executed.
    pub fn inject(&mut self, at: Nanos, req: Request) {
        on_engine!(&mut self.0, e => e.inject(at, req))
    }

    /// Bulk [`inject`](SystemSim::inject): a batch with ascending
    /// delivery times landing in a drained inbox is appended without any
    /// heap work.
    pub fn inject_batch<I: IntoIterator<Item = (Nanos, Request)>>(&mut self, batch: I) {
        on_engine!(&mut self.0, e => e.inject_batch(batch))
    }

    /// Executes the earliest pending event, appending any completion it
    /// produces. Returns `false` when no events remain.
    pub fn step(&mut self, completions: &mut Vec<Completion>) -> bool {
        on_engine!(&mut self.0, e => e.step(completions))
    }

    /// Jobs admitted and not yet completed, plus injected requests still
    /// in the inbox — what a rack load report carries.
    pub fn load(&self) -> u64 {
        on_engine!(&self.0, e => e.load())
    }

    /// Events executed so far (internal queue pops plus fed arrivals).
    pub fn events(&self) -> u64 {
        on_engine!(&self.0, e => e.events())
    }

    /// The run's counters so far.
    pub fn stats(&self) -> SystemStats {
        on_engine!(&self.0, e => e.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use tq_core::{ClassId, JobId};

    const T0: Nanos = Nanos::from_micros(10);

    fn req(id: u64, at: Nanos) -> Request {
        Request::new(JobId(id), ClassId(0), at, Nanos::from_micros(3))
    }

    fn tq() -> SystemConfig {
        presets::tq(2, Nanos::from_micros(2))
    }

    fn shinjuku() -> SystemConfig {
        presets::shinjuku(2, Nanos::from_micros(5))
    }

    /// A fed engine plus the verb the shell properties are written in:
    /// inject one request at `at`, then take `steps` steps.
    struct Fed<M> {
        e: Engine<M>,
        done: Vec<Completion>,
        injected: u64,
    }

    impl<M: Model> Fed<M> {
        fn new(cfg: &SystemConfig) -> Self {
            Fed {
                e: Engine::new_fed(cfg, Nanos::from_millis(1), 7),
                done: Vec::new(),
                injected: 0,
            }
        }

        fn go(&mut self, at: Nanos, steps: usize) {
            self.e.inject(at, req(self.injected, at));
            self.injected += 1;
            for _ in 0..steps {
                assert!(self.e.step(&mut self.done));
            }
        }

        /// Every property ends drained, with every injected job done.
        fn finish(mut self) {
            while self.e.step(&mut self.done) {}
            self.e.debug_check_drained();
            assert_eq!(self.done.len() as u64, self.injected);
            assert_eq!(self.e.stats().arrivals, self.injected);
        }
    }

    fn next_time_merges<M: Model>(cfg: &SystemConfig) {
        // After the first arrival the dispatcher is busy until `op`.
        let op = T0 + cfg.dispatch_per_req;
        assert!(op > T0, "{}: preset must charge for dispatch", cfg.name);
        let mut f = Fed::<M>::new(cfg);
        f.go(T0, 0);
        assert_eq!(f.e.next_time(), Some(T0), "inbox only");
        f.go(op + op, 1);
        assert_eq!(f.e.next_time(), Some(op), "internal event is earlier");
        f.go(T0, 0);
        assert_eq!(f.e.next_time(), Some(T0), "inbox entry is earlier");
        f.finish();
    }

    #[test]
    fn next_time_merges_inbox_and_internal_queue() {
        next_time_merges::<TwoLevel>(&tq());
        next_time_merges::<Centralized>(&shinjuku());
    }

    fn inbox_wins_tie<M: Model>(cfg: &SystemConfig) {
        let op = T0 + cfg.dispatch_per_req;
        let mut f = Fed::<M>::new(cfg);
        f.go(T0, 1);
        // A second request lands exactly when the dispatcher finishes.
        f.go(op, 1);
        assert_eq!(f.e.sh.arrivals, 2, "{}: the arrival ran first", cfg.name);
        assert_eq!(
            f.e.sh.events.popped(),
            0,
            "the internal event is still pending"
        );
        assert_eq!(f.e.next_time(), Some(op));
        f.finish();
    }

    #[test]
    fn inbox_wins_a_same_instant_tie() {
        inbox_wins_tie::<TwoLevel>(&tq());
        inbox_wins_tie::<Centralized>(&shinjuku());
    }

    fn load_counts<M: Model>(cfg: &SystemConfig) {
        let mut f = Fed::<M>::new(cfg);
        f.go(T0, 0);
        f.go(T0 + T0, 0);
        assert_eq!(f.e.load(), 2, "both in the inbox");
        f.go(T0 + T0, 1);
        assert_eq!(f.e.load(), 3, "one resident, two still in the inbox");
        f.finish();
    }

    #[test]
    fn load_is_resident_plus_inbox() {
        load_counts::<TwoLevel>(&tq());
        load_counts::<Centralized>(&shinjuku());
    }

    /// An injection the inbox alone would accept (`at` is not before its
    /// last pop) but that lies behind an internal event already executed.
    fn inject_behind_internal_clock<M: Model>(cfg: &SystemConfig) {
        let mut f = Fed::<M>::new(cfg);
        f.go(T0, 0);
        while f.e.step(&mut f.done) {}
        let finish = f.done[0].finish;
        assert!(finish > T0 + Nanos::from_nanos(1));
        f.go(finish - Nanos::from_nanos(1), 0);
    }

    #[test]
    #[should_panic(expected = "injected into the past")]
    fn twolevel_rejects_injection_behind_internal_clock() {
        inject_behind_internal_clock::<TwoLevel>(&tq());
    }

    #[test]
    #[should_panic(expected = "injected into the past")]
    fn centralized_rejects_injection_behind_internal_clock() {
        inject_behind_internal_clock::<Centralized>(&shinjuku());
    }

    #[test]
    #[should_panic(expected = "owns its arrival stream")]
    fn own_mode_rejects_injection() {
        let gen = ArrivalGen::new(tq_workloads::table1::exp1(), 1.0e5, tq_sim::SimRng::new(1));
        SystemSim::new(&tq(), gen, Nanos::from_millis(1), 1).inject(T0, req(0, T0));
    }
}
