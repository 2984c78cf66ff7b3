//! The [`Engine`] abstraction: one run contract over every way this
//! repository can execute a workload.
//!
//! An engine consumes an open-loop arrival stream and produces the jobs'
//! completions plus its internal counters. The discrete-event models
//! ([`crate::SimEngine`]) interpret arrival times as *virtual* time; the
//! live runtime ([`crate::RtEngine`]) paces the same stream against the
//! wall clock and normalizes its `TscClock` timestamps back onto the
//! stream's time base. Either way the output feeds the identical
//! `ClassRecorder::summarize_all` pipeline via [`run_to_record`], so a
//! policy change can be evaluated in both worlds with one command (see
//! DESIGN.md "The Engine abstraction").

use tq_audit::AuditReport;
use tq_core::adaptive::ControllerReport;
use tq_core::job::Completion;
use tq_core::{costs, Nanos};
use tq_sim::{ClassRecorder, SimRng};
use tq_sim::metrics::{ClassSummary, RunSummary};
use tq_workloads::{ArrivalGen, ArrivalProcess, Workload};

/// Which world an engine executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Discrete-event model: virtual time, deterministic, no threads.
    Sim,
    /// Live multithreaded runtime: real time, measured with `TscClock`.
    Rt,
}

impl EngineKind {
    /// The `engine` field value written into result JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Rt => "rt",
        }
    }
}

/// One experiment point: a workload served at a rate for a horizon of
/// arrivals, under a seed that fixes both the arrival stream and any
/// policy randomness.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload (class mix and service distributions).
    pub workload: Workload,
    /// The arrival process shaping request inter-arrival times
    /// ([`ArrivalProcess::Poisson`] for the classic open-loop stream).
    pub process: ArrivalProcess,
    /// Offered load in requests per second (the process's *stationary
    /// mean* — bursty and diurnal streams modulate around it).
    pub rate_rps: f64,
    /// Arrivals stop at this (stream-time) horizon; the system then
    /// drains every in-flight job.
    pub horizon: Nanos,
    /// Seed for the arrival stream and policy randomness.
    pub seed: u64,
}

impl RunSpec {
    /// The arrival stream this spec describes (deterministic per seed).
    pub fn arrivals(&self) -> ArrivalGen {
        ArrivalGen::with_process(
            self.workload.clone(),
            self.rate_rps,
            self.process,
            SimRng::new(self.seed),
        )
    }
}

/// Per-worker counters, identical in shape for both worlds. Fields a
/// world cannot observe are zero (the sims have no dispatch rings, the
/// runtime's centralized analogue has no steals) — see each engine's
/// docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Quanta (slices) this worker executed.
    pub quanta: u64,
    /// Jobs that finished on this worker.
    pub completed: u64,
    /// Jobs this worker gained by stealing from siblings.
    pub steals: u64,
    /// High-water mark of the worker's dispatch ring (live runtime only;
    /// 0 under the sims, which model the ring as unbounded).
    pub max_ring_occupancy: u64,
}

/// Counters an engine reports alongside its completion stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events delivered by the virtual-time queue (0 for the live
    /// runtime, which has no event queue).
    pub sim_events: u64,
    /// Requests the dispatcher forwarded to workers.
    pub dispatcher_forwarded: u64,
    /// Dispatcher push retries due to full rings (live runtime only).
    pub ring_full_retries: u64,
    /// Chunks the dispatcher forwarded (live runtime only;
    /// `dispatcher_forwarded / dispatcher_bursts` is the mean achieved
    /// chunk size).
    pub dispatcher_bursts: u64,
    /// Wall time the dispatcher spent forwarding chunks — snapshot,
    /// picks, ring pushes, backpressure retries (live runtime only).
    pub dispatch_busy_nanos: u64,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerCounters>,
}

impl EngineCounters {
    /// Mean dispatch cost per forwarded request in nanoseconds (0 when
    /// nothing was forwarded or the engine has no live dispatcher).
    pub fn dispatch_ns_per_request(&self) -> f64 {
        if self.dispatcher_forwarded == 0 {
            0.0
        } else {
            self.dispatch_busy_nanos as f64 / self.dispatcher_forwarded as f64
        }
    }
}

/// What [`Engine::run`] produces: the completion stream on the arrival
/// stream's time base, plus conservation and internal counters.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every completion, with `arrival`/`finish` on the arrival stream's
    /// time base (virtual time for sims; wall time minus the pacing
    /// origin for the live runtime).
    pub completions: Vec<Completion>,
    /// Requests submitted to the system (= arrivals before the horizon).
    pub submitted: u64,
    /// Completions that finished within the arrival horizon — the
    /// goodput numerator.
    pub in_horizon: u64,
    /// The engine's internal counters.
    pub counters: EngineCounters,
    /// Invariant-audit verdict, present iff the engine ran with auditing
    /// enabled (see `tq_audit::InvariantAuditor`).
    pub audit: Option<AuditReport>,
    /// Adaptive-quantum controller report, present iff the engine ran
    /// with a [`tq_core::adaptive::QuantumController`] active.
    pub controller: Option<ControllerReport>,
}

/// One server's share of a rack run (see [`RackMeta`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RackServerMeta {
    /// Requests the rack scheduler routed to this server.
    pub routed: u64,
    /// Jobs this server completed.
    pub completed: u64,
    /// Load reports this server sent.
    pub reports: u64,
}

/// Rack-tier metadata attached to a [`RunRecord`] when the engine is a
/// [`crate::RackEngine`]: how the multi-server run was scheduled and
/// synchronized. `None` on single-server engines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RackMeta {
    /// Number of server instances in the rack.
    pub n_servers: usize,
    /// The inter-server policy, rendered (e.g. `"PowerOfK(2)"`).
    pub policy: String,
    /// OS threads the conservative PDES pool used.
    pub threads: usize,
    /// Conservative-synchronization windows executed.
    pub windows: u64,
    /// Cross-shard messages delivered (jobs + load reports).
    pub messages: u64,
    /// Per-server routing/completion breakdown, indexed by server.
    pub per_server: Vec<RackServerMeta>,
}

/// Scheduling-policy metadata attached to every [`RunRecord`] — the
/// `policy` block of the `tq-run/v1` JSON. One shape for all engines:
/// the dispatch policy, the worker discipline, whether the discipline is
/// rank-ordered (LAS, strict priority, earliest-deadline, weighted
/// fair), and any per-class rank parameters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyMeta {
    /// The dispatch policy, rendered (e.g. `"Jsq(MaxServicedQuanta)"`),
    /// or `"Centralized"` for single-queue systems.
    pub dispatch: String,
    /// The worker quantum discipline's short name (e.g.
    /// `"processor_sharing"`, `"earliest_deadline"`).
    pub discipline: String,
    /// Whether the discipline orders jobs by `WorkerPolicy::job_rank`.
    pub ranked: bool,
    /// Per-class rank parameters, as `(name, values-by-class)` pairs —
    /// `("slo_us", …)` for deadline ranking, `("weight", …)` for
    /// weighted fair share. Empty for parameter-free disciplines.
    pub params: Vec<(String, Vec<u64>)>,
}

impl PolicyMeta {
    /// Builds the block from a dispatch label and a worker discipline.
    pub fn new(dispatch: String, worker: tq_core::policy::WorkerPolicy) -> Self {
        use tq_core::policy::WorkerPolicy as W;
        let discipline = match worker {
            W::ProcessorSharing => "processor_sharing",
            W::Fcfs => "fcfs",
            W::LeastAttainedService => "least_attained_service",
            W::StrictPriority => "strict_priority",
            W::EarliestDeadline { .. } => "earliest_deadline",
            W::WeightedFair { .. } => "weighted_fair",
        };
        let params = match worker {
            W::EarliestDeadline { slo_us } => vec![(
                "slo_us".to_string(),
                slo_us.iter().map(|&v| u64::from(v)).collect(),
            )],
            W::WeightedFair { weight } => vec![(
                "weight".to_string(),
                weight.iter().map(|&v| u64::from(v)).collect(),
            )],
            _ => Vec::new(),
        };
        PolicyMeta {
            dispatch,
            discipline: discipline.to_string(),
            ranked: worker.is_ranked(),
            params,
        }
    }

    /// The block for a discrete-event [`tq_queueing::SystemConfig`].
    pub fn from_config(cfg: &tq_queueing::SystemConfig) -> Self {
        let dispatch = match cfg.arch {
            tq_queueing::Architecture::TwoLevel { dispatch } => format!("{dispatch:?}"),
            tq_queueing::Architecture::Centralized => "Centralized".to_string(),
        };
        PolicyMeta::new(dispatch, cfg.worker_policy)
    }
}

/// Socket-tier metadata attached to a [`RunRecord`] when the run was
/// driven over the wire (tq-loadgen → UDP front end): the client-observed
/// round-trip tail and both sides' datagram ledgers. `None` when the run
/// was in-process. The latency percentiles here are *client* clock
/// measurements over loopback — they include the kernel network stack and
/// both syscall paths, which the in-process `classes_e2e` numbers model
/// with a fixed RTT constant instead.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetMeta {
    /// The transport label (e.g. `"udp:mmsg"`, `"udp:syscall"`).
    pub transport: String,
    /// Datagrams the client sent.
    pub sent: u64,
    /// Responses the client received (≤ `sent`; UDP may drop).
    pub responses: u64,
    /// Requests the client gave up on (`sent - responses`).
    pub lost: u64,
    /// Client-observed round-trip p50 in nanoseconds.
    pub rtt_p50_ns: u64,
    /// Client-observed round-trip p99 in nanoseconds.
    pub rtt_p99_ns: u64,
    /// Client-observed round-trip p99.9 in nanoseconds.
    pub rtt_p999_ns: u64,
    /// Datagrams the server front end received (well-formed or not).
    pub server_received: u64,
    /// Responses the server sent.
    pub server_responded: u64,
    /// Datagrams the server rejected as malformed.
    pub server_malformed: u64,
    /// Well-formed requests the server shed (backpressure/drain).
    pub server_shed: u64,
    /// Mean frames moved per receive syscall on the server.
    pub frames_per_recv: f64,
    /// Mean frames moved per send syscall on the server.
    pub frames_per_send: f64,
    /// Messages the server handed to the kernel to carry its responses.
    pub send_msgs: u64,
    /// Mean frames per such message — the train length (1.0 = none).
    pub frames_per_msg: f64,
    /// Messages the kernel handed the server its requests in.
    pub recv_msgs: u64,
    /// Mean frames per such message: the coalescing factor (1.0 = none).
    pub frames_per_recv_msg: f64,
    /// Achieved server receive-buffer size in bytes (kernel read-back
    /// after `SO_RCVBUF`; 0 when the server ran out of process).
    pub rcvbuf_bytes: u64,
    /// Achieved server send-buffer size in bytes (0 when unknown).
    pub sndbuf_bytes: u64,
    /// Per-client round-trip tails when the run fanned in from several
    /// concurrent paced clients; empty for a single-client run.
    pub clients: Vec<ClientRtt>,
    /// Cross-client fairness: max minus min per-client p99.9 round
    /// trip, in nanoseconds (0 unless `clients` has ≥ 2 entries).
    pub rtt_p999_spread_ns: u64,
}

/// One fan-in client's ledger and round-trip tail (see
/// [`NetMeta::clients`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientRtt {
    /// Datagrams this client sent.
    pub sent: u64,
    /// Responses this client received.
    pub responses: u64,
    /// This client's round-trip p50 in nanoseconds.
    pub rtt_p50_ns: u64,
    /// This client's round-trip p99 in nanoseconds.
    pub rtt_p99_ns: u64,
    /// This client's round-trip p99.9 in nanoseconds.
    pub rtt_p999_ns: u64,
}

/// An execution engine: anything that can serve a [`RunSpec`]'s arrival
/// stream and report completions plus counters in the common shape.
pub trait Engine {
    /// Which world this engine runs in (the `engine` JSON field).
    fn kind(&self) -> EngineKind;
    /// The scheduler model: `"two_level"`, `"centralized"`,
    /// `"runtime"`, or `"rack"`.
    fn model(&self) -> &'static str;
    /// Human-readable system label (e.g. `"TQ"`).
    fn system(&self) -> String;
    /// Number of worker cores/threads.
    fn workers(&self) -> usize;
    /// Serves `arrivals` until `horizon`, then drains; `spec` supplies
    /// the seed for policy randomness and the run's metadata.
    fn run(&mut self, spec: &RunSpec, arrivals: ArrivalGen, horizon: Nanos) -> RunOutput;
    /// Rack metadata for the most recent [`run`](Engine::run), if this
    /// engine is a rack (default: not a rack).
    fn take_rack_meta(&mut self) -> Option<RackMeta> {
        None
    }
    /// The scheduling-policy block for this engine's configuration
    /// (default: none, for engines predating the policy layer).
    fn policy_meta(&self) -> Option<PolicyMeta> {
        None
    }
}

/// One engine run summarized by [`summarize`]: warm-up discarding,
/// per-class percentiles, and the overall slowdown tail, all in one
/// recorder pass.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// `"sim"` or `"rt"`.
    pub engine: &'static str,
    /// `"two_level"`, `"centralized"`, `"runtime"`, or `"rack"`.
    pub model: &'static str,
    /// System label.
    pub system: String,
    /// Workload name.
    pub workload: String,
    /// Arrival-process name (`"poisson"`, `"mmpp"`, or `"diurnal"`).
    pub process: &'static str,
    /// Worker cores/threads.
    pub workers: usize,
    /// Offered rate (requests per second).
    pub rate_rps: f64,
    /// Arrival horizon.
    pub horizon: Nanos,
    /// Seed used.
    pub seed: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Completions recorded (conservation: must equal `submitted`).
    pub completed: u64,
    /// Completions inside the arrival horizon.
    pub in_horizon: u64,
    /// Goodput: in-horizon completions over the horizon.
    pub achieved_rps: f64,
    /// Per-class end-to-end summaries (sojourn + network RTT).
    pub classes: Vec<ClassSummary>,
    /// Per-class bare-sojourn summaries.
    pub classes_sojourn: Vec<ClassSummary>,
    /// The class-blind 99.9th-percentile slowdown.
    pub overall_slowdown_p999: f64,
    /// The engine's internal counters.
    pub counters: EngineCounters,
    /// Invariant-audit verdict (present iff auditing was enabled).
    pub audit: Option<AuditReport>,
    /// Rack-tier metadata (present iff the engine was a rack).
    pub rack: Option<RackMeta>,
    /// Socket-tier metadata (present iff the run went over the wire).
    pub net: Option<NetMeta>,
    /// Scheduling-policy metadata (present for policy-aware engines).
    pub policy: Option<PolicyMeta>,
    /// Adaptive-quantum controller report (present iff a controller ran).
    pub controller: Option<ControllerReport>,
}

impl RunRecord {
    /// Whether every submitted job completed exactly once (ids unique is
    /// checked by the conservation tests; here just the count).
    pub fn conserved(&self) -> bool {
        self.submitted == self.completed
    }

    /// The end-to-end summary for one class by its index.
    ///
    /// # Panics
    ///
    /// Panics if no job of that class completed after warm-up.
    pub fn class(&self, idx: usize) -> &ClassSummary {
        self.classes
            .iter()
            .find(|c| c.class.0 as usize == idx)
            .unwrap_or_else(|| panic!("no completions for class {idx}"))
    }
}

/// Runs `spec` on `engine` and summarizes the completions with
/// [`summarize`].
pub fn run_to_record(engine: &mut dyn Engine, spec: &RunSpec) -> RunRecord {
    let mut out = engine.run(spec, spec.arrivals(), spec.horizon);
    let completed = out.completions.len() as u64;
    let audit = out.audit.take();
    let controller = out.controller.take();
    let summary = summarize(&mut out.completions);
    RunRecord {
        engine: engine.kind().as_str(),
        model: engine.model(),
        system: engine.system(),
        workload: spec.workload.name().to_string(),
        process: spec.process.name(),
        workers: engine.workers(),
        rate_rps: spec.rate_rps,
        horizon: spec.horizon,
        seed: spec.seed,
        submitted: out.submitted,
        completed,
        in_horizon: out.in_horizon,
        achieved_rps: out.in_horizon as f64 / spec.horizon.as_secs_f64(),
        classes: summary.classes_e2e,
        classes_sojourn: summary.classes_sojourn,
        overall_slowdown_p999: summary.overall_slowdown_p999,
        counters: out.counters,
        audit,
        rack: engine.take_rack_meta(),
        net: None,
        policy: engine.policy_meta(),
        controller,
    }
}

/// Warm-up fraction discarded from every run (§5.1: "the first 10% samples
/// are discarded").
pub const WARMUP_FRAC: f64 = 0.1;

/// The shared metrics tail: takes a completion buffer (consumed via the
/// recorder's zero-copy hand-off) and produces the run summary with
/// [`WARMUP_FRAC`] discarded and the fixed network RTT added.
pub fn summarize(completions: &mut Vec<Completion>) -> RunSummary {
    let mut rec = ClassRecorder::with_capacity(WARMUP_FRAC, 0);
    rec.record_all(completions);
    let summary = rec.summarize_all(costs::NETWORK_RTT);
    debug_assert_eq!(
        rec.arrival_sorts(),
        0,
        "summarize must never need a full arrival sort"
    );
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimEngine;
    use tq_queueing::presets;
    use tq_workloads::table1;

    #[test]
    fn summarize_never_sorts_completions() {
        // The single-pass pipeline's contract, end to end: one run, zero
        // arrival sorts. The warm-up cutoff is a selection, enforced in
        // `summarize` by a debug assertion that this run goes through.
        let wl = table1::extreme_bimodal();
        let spec = RunSpec {
            rate_rps: wl.rate_for_load(4, 0.4),
            workload: wl,
            process: ArrivalProcess::Poisson,
            horizon: Nanos::from_millis(6),
            seed: 13,
        };
        let mut engine = SimEngine::new(presets::tq(4, Nanos::from_micros(2)));
        let r = run_to_record(&mut engine, &spec);
        assert!(r.counters.sim_events > 0);
        assert!(r.completed > 0);
    }
}
