//! [`Engine`] over the live [`TinyQuanta`] runtime.
//!
//! The adapter closes the gap between the two time bases. The arrival
//! stream is *virtual* (nanosecond offsets from a zero origin); the
//! runtime runs in *real* time measured by its `TscClock`. A pacing loop
//! replays the stream against the wall clock: it records the server
//! clock's value `t0` at the start, submits each request when the clock
//! reaches `t0 + arrival`, and stays open-loop — if the pacer falls
//! behind it submits immediately and never re-times later arrivals, so
//! overload backlogs build up exactly as the paper's client would cause.
//! Completion timestamps (stamped by the server on the same clock) are
//! normalized by subtracting `t0`, putting the output on the stream's
//! time base, directly comparable with a sim run of the same spec.
//!
//! One `TscClock` is made when the engine is built and shared with
//! every server it starts (via [`TinyQuanta::start_with_clock`]) and
//! with the spin jobs: pacer, dispatcher, workers and jobs all measure
//! on the same origin.
//!
//! Jobs are synthetic [`SpinJob`]s burning the request's service-time
//! hint on the CPU — the runtime analogue of the paper's spin-server
//! requests. See EXPERIMENTS.md for the caveats of interpreting these
//! numbers on a shared or oversubscribed host.

use crate::engine::{
    Engine, EngineCounters, EngineKind, PolicyMeta, RunOutput, RunSpec, WorkerCounters,
};
use tq_audit::{CompletionFact, InvariantAuditor};
use tq_core::adaptive::{ControllerConfig, QuantumController};
use tq_core::job::Completion;
use tq_core::Nanos;
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};
use tq_workloads::ArrivalGen;

/// Gaps longer than this are mostly slept through (OS timer); the rest
/// is spun away on the TSC for microsecond-accurate release times.
const SLEEP_THRESHOLD_NANOS: u64 = 200_000;
/// Margin left to spin after a sleep, absorbing OS wakeup latency.
const SLEEP_MARGIN_NANOS: u64 = 100_000;

/// An open-loop pacer replaying virtual-time arrival offsets against the
/// wall clock: hybrid sleep/spin (sleep through long gaps minus a margin
/// for OS wakeup latency, spin the rest away on the TSC), and never
/// re-timing — a pacer that falls behind releases immediately, so
/// overload backlogs build up exactly as the paper's client would cause.
///
/// Extracted from [`RtEngine::run`]'s inline loop so the socket load
/// generator (`tq-loadgen`) paces with the identical discipline; see
/// [`Pacer::wait_until_with`] for the receive-while-pacing variant it
/// needs.
#[derive(Debug, Clone)]
pub struct Pacer {
    clock: TscClock,
    t0: Nanos,
}

impl Pacer {
    /// Starts the pacing origin **now** on `clock`: offset zero of the
    /// arrival stream is this instant.
    pub fn start(clock: TscClock) -> Self {
        let t0 = clock.wall_nanos();
        Pacer { clock, t0 }
    }

    /// The wall-clock origin (`clock` value at [`Pacer::start`]) —
    /// subtract it from server timestamps to get stream-time values.
    pub fn origin(&self) -> Nanos {
        self.t0
    }

    /// Blocks until the wall clock reaches `origin + offset`; returns
    /// immediately when already past it (open loop).
    pub fn wait_until(&self, offset: Nanos) {
        self.wait_until_with(offset, &mut || {});
    }

    /// [`Pacer::wait_until`], invoking `poll` between waiting slices —
    /// at least once per sleep or spin — so a client can keep draining
    /// its socket while pacing. `poll` must be cheap relative to the
    /// margin (it runs inside the spin window).
    pub fn wait_until_with(&self, offset: Nanos, poll: &mut impl FnMut()) {
        let target = self.t0 + offset;
        loop {
            let now = self.clock.wall_nanos();
            if now >= target {
                return; // behind schedule: open loop, release now
            }
            poll();
            let now = self.clock.wall_nanos();
            if now >= target {
                return;
            }
            let gap = (target - now).as_nanos();
            if gap > SLEEP_THRESHOLD_NANOS {
                std::thread::sleep(std::time::Duration::from_nanos(gap - SLEEP_MARGIN_NANOS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// The live-runtime engine: paces an arrival stream into a freshly
/// started [`TinyQuanta`] server and collects its completions.
#[derive(Debug, Clone)]
pub struct RtEngine {
    config: ServerConfig,
    clock: TscClock,
    controller: Option<ControllerConfig>,
}

impl RtEngine {
    /// Wraps a server configuration and makes the engine's shared
    /// clock. The server itself is started (and torn
    /// down) inside each [`Engine::run`] call, so one engine value can
    /// serve many runs — all on this one clock.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero workers).
    pub fn new(config: ServerConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        RtEngine {
            config,
            clock: TscClock::calibrated(),
            controller: None,
        }
    }

    /// Attaches a wall-clock adaptive-quantum controller: every run then
    /// measures windows on the engine's shared `TscClock` (relative to
    /// the pacing origin), feeds the controller each drained completion,
    /// and republishes the quantum to the workers through
    /// [`TinyQuanta::set_quantum`] whenever a window steps it. This is
    /// the live-runtime twin of `SystemConfig::controller` in the sims.
    ///
    /// # Panics
    ///
    /// Panics if the controller config is invalid or the server's worker
    /// discipline never preempts (the quantum would be dead weight).
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        controller.validate();
        assert!(
            self.config.discipline.preempts(),
            "the adaptive-quantum controller needs a preempting policy, got {:?}",
            self.config.discipline
        );
        self.controller = Some(controller);
        self
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }
}

impl Engine for RtEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Rt
    }

    fn model(&self) -> &'static str {
        "runtime"
    }

    fn system(&self) -> String {
        format!(
            "TinyQuanta/{:?}{}",
            self.config.dispatch,
            if self.config.work_stealing { "+steal" } else { "" }
        )
    }

    fn workers(&self) -> usize {
        self.config.workers
    }

    fn policy_meta(&self) -> Option<PolicyMeta> {
        Some(PolicyMeta::new(
            format!("{:?}", self.config.dispatch),
            self.config.discipline,
        ))
    }

    fn run(&mut self, spec: &RunSpec, mut arrivals: ArrivalGen, horizon: Nanos) -> RunOutput {
        // The spec's seed drives policy randomness, as in the sims.
        let mut config = self.config.clone();
        config.seed = spec.seed;
        let audit_on = config.audit;
        let stealing = config.work_stealing;

        // Pre-draw the whole schedule so the pacing loop does no RNG or
        // allocation between submissions.
        let schedule = arrivals.until(horizon);
        let services: Vec<Nanos> = schedule.iter().map(|r| r.service).collect();

        // One clock for everything: server timestamps, job spin loops,
        // and the pacer below all share the engine's calibration.
        let clock = self.clock.clone();
        let job_clock = self.clock.clone();
        let server = TinyQuanta::start_with_clock(config, clock.clone(), move |req| {
            Box::new(SpinJob::with_clock(req, &job_clock))
        });

        // The wall-clock controller: windows are measured on the shared
        // clock relative to the pacing origin, so its virtual-time twin
        // in the sims sees the same time base. The initial quantum is
        // clamped into the controller's band before the first arrival.
        let mut ctl = self
            .controller
            .clone()
            .map(|c| QuantumController::new(c, self.config.quantum));
        if let Some(c) = &ctl {
            server.set_quantum(c.quantum());
        }

        let mut raw = Vec::with_capacity(schedule.len());
        let pacer = Pacer::start(clock.clone());
        let t0 = pacer.origin();
        for r in &schedule {
            pacer.wait_until(r.arrival);
            let id = server.submit(r.class.0, r.service);
            // The server numbers submissions sequentially from zero, in
            // lock-step with the stream's ids — the invariant that lets
            // completions be joined back to their service-time draws. A
            // mismatch would silently attribute every later completion to
            // the wrong service draw, so it is checked in release builds
            // too, not just debug.
            assert_eq!(id, r.id, "submission order must match stream ids");
            // Keep the completion channel short while pacing; a controller
            // sees every drained completion and republishes on a step.
            let fresh = raw.len();
            raw.extend(server.drain_completions());
            if let Some(c) = ctl.as_mut() {
                for done in &raw[fresh..] {
                    let sojourn = done.finished.saturating_sub(done.submitted);
                    c.record(services[done.id.0 as usize], sojourn);
                }
                if c.advance(clock.wall_nanos().saturating_sub(t0)) {
                    server.set_quantum(c.quantum());
                }
            }
        }
        let (rest, stats) = server.shutdown_with_stats();
        if let Some(c) = ctl.as_mut() {
            // Fold the drain tail into the report's stats; the server is
            // gone, so no further quantum is published.
            for done in &rest {
                let sojourn = done.finished.saturating_sub(done.submitted);
                c.record(services[done.id.0 as usize], sojourn);
            }
            c.advance(clock.wall_nanos().saturating_sub(t0));
        }
        raw.extend(rest);

        // Normalize onto the stream's time base and re-attach the true
        // service times (the scheduler itself stays blind to them).
        let mut in_horizon = 0u64;
        let completions: Vec<Completion> = raw
            .iter()
            .map(|c| {
                let finish = c.finished.saturating_sub(t0);
                in_horizon += u64::from(finish <= horizon);
                Completion {
                    id: c.id,
                    class: c.class,
                    arrival: c.submitted.saturating_sub(t0),
                    service: services[c.id.0 as usize],
                    finish,
                }
            })
            .collect();

        let submitted = schedule.len() as u64;
        let audit = audit_on.then(|| {
            // Stream-level checks over the raw (un-normalized, collection
            // order) completions; the server's own counter/ring-level
            // report is folded in below.
            let mut a = InvariantAuditor::new(if stealing { "rt+steal" } else { "rt" });
            a.check_conservation(submitted, raw.len() as u64, &[]);
            let ids: Vec<u64> = raw.iter().map(|c| c.id.0).collect();
            a.check_exactly_once(&ids, Some(submitted));
            let facts: Vec<CompletionFact> = raw
                .iter()
                .map(|c| CompletionFact {
                    id: c.id.0,
                    worker: c.worker,
                    submitted: c.submitted,
                    finished: c.finished,
                    quanta: c.quanta,
                })
                .collect();
            a.check_rt_timestamps(&facts, stats.workers.len());
            let worker_completed: Vec<u64> = stats.workers.iter().map(|w| w.completed).collect();
            let worker_quanta: Vec<u64> = stats.workers.iter().map(|w| w.quanta).collect();
            a.check_worker_agreement(&facts, &worker_completed, &worker_quanta);
            let finishes: Vec<Nanos> = completions.iter().map(|c| c.finish).collect();
            a.check_in_horizon(&finishes, horizon, in_horizon);
            let mut report = a.finish();
            if let Some(server_report) = stats.audit.clone() {
                report.absorb(server_report);
            }
            report
        });

        RunOutput {
            completions,
            submitted,
            in_horizon,
            counters: EngineCounters {
                sim_events: 0,
                dispatcher_forwarded: stats.dispatcher.forwarded,
                ring_full_retries: stats.dispatcher.ring_full_retries,
                dispatcher_bursts: stats.dispatcher.bursts,
                dispatch_busy_nanos: stats.dispatcher.busy_nanos,
                workers: stats
                    .workers
                    .iter()
                    .map(|w| WorkerCounters {
                        quanta: w.quanta,
                        completed: w.completed,
                        steals: w.steals,
                        max_ring_occupancy: w.max_ring_occupancy,
                    })
                    .collect(),
            },
            audit,
            controller: ctl.as_ref().map(QuantumController::report),
        }
    }
}
