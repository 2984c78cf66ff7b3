//! The rack tier: N TQ servers behind a RackSched-style inter-server
//! scheduler, simulated in parallel on the conservative PDES core.
//!
//! The paper evaluates TQ on one server; at rack scale a top-of-rack
//! scheduler (RackSched) balances requests across servers using **stale**
//! per-server load estimates — it learns a server's queue depth only
//! through periodic load reports that are themselves half an RTT old.
//! This module models exactly that information structure:
//!
//! * **Shard 0 — the rack scheduler.** Owns the arrival stream, an
//!   estimate of each server's resident jobs, the membership schedule
//!   (join/leave), and the rack policy RNG. Routing a request sends a
//!   `Job` message that reaches the chosen server one
//!   [`RackSpec::dispatch_delay`] later; the estimate is optimistically
//!   bumped at route time so a burst doesn't herd onto one server.
//! * **Shards 1..=N — the servers.** Each wraps the server engine
//!   ([`crate::engine`], either scheduling model) in fed mode plus a
//!   report loop: while busy, every [`RackSpec::report_interval`] it sends
//!   `Load` back to the scheduler ([`RackSpec::report_delay`] on the
//!   wire), overwriting the stale estimate; on draining it sends one
//!   final report so the scheduler sees it go idle.
//!
//! The **lookahead** of the PDES run is `min(dispatch_delay,
//! report_delay)`: no event can influence another shard sooner than the
//! rack network latency, which is what lets every shard advance a full
//! window in parallel without rollback (see `tq_sim::pdes`).

use crate::centralized::Centralized;
use crate::config::{Architecture, SystemConfig};
use crate::engine::{Engine, Model};
use crate::twolevel::TwoLevel;
use std::collections::VecDeque;
use tq_core::job::Completion;
use tq_core::policy::{flow_hash, JsqRank, PolicyView, RankPolicy, RoundRobinRank, TieRule};
use tq_core::{costs, Nanos, Request};
use tq_sim::pdes::{run_conservative, Outbox, Shard};
use tq_sim::{EventQueue, SimRng};
use tq_workloads::ArrivalGen;

/// How the rack scheduler picks a server for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RackPolicy {
    /// Uniformly random active server.
    Random,
    /// Cycle through active servers.
    RoundRobin,
    /// Power-of-k choices: sample `k` active servers (with replacement),
    /// route to the one with the smallest stale load estimate — the
    /// RackSched policy (k = 2 in the paper).
    PowerOfK(usize),
    /// Flow-affinity: a request's flow hash names a home server; it goes
    /// home unless home's estimate exceeds the rack minimum by more than
    /// `spill` jobs (then it spills to the least-loaded server).
    Affinity {
        /// Estimated-load slack a home server is allowed over the rack
        /// minimum before requests spill away from it.
        spill: u64,
    },
}

/// A server joining or leaving the rack at a point in virtual time.
///
/// Leaving stops *new* routing to the server; jobs already routed (or in
/// flight) still complete there. Joining makes it routable again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipChange {
    /// When the change takes effect at the scheduler.
    pub at: Nanos,
    /// Which server (0-based).
    pub server: usize,
    /// `true` to join, `false` to leave.
    pub join: bool,
}

/// A rack of identical TQ servers behind one scheduler.
#[derive(Debug, Clone)]
pub struct RackSpec {
    /// Display name for records and reports.
    pub name: String,
    /// The per-server system (two-level or centralized).
    pub server: SystemConfig,
    /// Number of server instances (all initially active).
    pub n_servers: usize,
    /// The inter-server scheduling policy.
    pub policy: RackPolicy,
    /// Scheduler→server one-way latency for routed jobs.
    pub dispatch_delay: Nanos,
    /// Server→scheduler one-way latency for load reports.
    pub report_delay: Nanos,
    /// How often a busy server reports its load.
    pub report_interval: Nanos,
    /// Join/leave schedule, sorted by [`MembershipChange::at`].
    pub membership: Vec<MembershipChange>,
}

impl RackSpec {
    /// A rack of `n_servers` copies of `server` with paper-grounded
    /// defaults: power-of-two choices, half [`costs::NETWORK_RTT`] each
    /// way, reports every RTT.
    pub fn new(server: SystemConfig, n_servers: usize) -> Self {
        let half_rtt = Nanos::from_nanos(costs::NETWORK_RTT.as_nanos() / 2);
        RackSpec {
            name: format!("rack({} x {})", n_servers, server.name),
            server,
            n_servers,
            policy: RackPolicy::PowerOfK(2),
            dispatch_delay: half_rtt,
            report_delay: half_rtt,
            report_interval: costs::NETWORK_RTT,
            membership: Vec::new(),
        }
    }

    /// The PDES lookahead this spec guarantees: the smallest delay any
    /// cross-shard message can have.
    pub fn lookahead(&self) -> Nanos {
        self.dispatch_delay.min(self.report_delay)
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics on: zero servers, an invalid server config, a `PowerOfK(0)`
    /// policy, zero lookahead or report interval, an unsorted or
    /// out-of-range membership schedule, a join/leave that doesn't change
    /// state, or a schedule that ever leaves the rack with no active
    /// server.
    pub fn validate(&self) {
        assert!(self.n_servers >= 1, "{}: rack needs at least one server", self.name);
        self.server.validate();
        if let RackPolicy::PowerOfK(k) = self.policy {
            assert!(k >= 1, "{}: power-of-k needs k >= 1", self.name);
        }
        assert!(
            self.dispatch_delay > Nanos::ZERO && self.report_delay > Nanos::ZERO,
            "{}: racks need non-zero network delays (the PDES lookahead)",
            self.name
        );
        assert!(
            self.report_interval > Nanos::ZERO,
            "{}: report interval must be non-zero",
            self.name
        );
        let mut active = vec![true; self.n_servers];
        let mut n_active = self.n_servers;
        let mut last = Nanos::ZERO;
        for change in &self.membership {
            assert!(
                change.at >= last,
                "{}: membership schedule must be sorted by time",
                self.name
            );
            last = change.at;
            assert!(
                change.server < self.n_servers,
                "{}: membership change for unknown server {}",
                self.name,
                change.server
            );
            assert_ne!(
                active[change.server], change.join,
                "{}: server {} membership change at {} is a no-op",
                self.name, change.server, change.at
            );
            active[change.server] = change.join;
            n_active = if change.join { n_active + 1 } else { n_active - 1 };
            assert!(
                n_active >= 1,
                "{}: membership schedule leaves the rack empty at {}",
                self.name,
                change.at
            );
        }
    }
}

/// What travels between rack shards.
#[derive(Debug, Clone)]
pub enum RackMsg {
    /// A routed request, delivered to its server's NIC.
    Job(Request),
    /// A server's load report: its resident-job count at send time.
    Load {
        /// The reporting server (0-based).
        server: usize,
        /// Jobs resident (queued + running + in local inbox) at the
        /// moment the report left.
        queued: u64,
    },
}

/// Per-server policy seed (server 0 keeps the rack seed unchanged).
fn server_seed(seed: u64, server: usize) -> u64 {
    seed ^ (server as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One server's totals from a rack run.
#[derive(Debug, Clone)]
pub struct RackServerStats {
    /// Requests the scheduler routed to this server.
    pub routed: u64,
    /// Jobs this server completed.
    pub completed: u64,
    /// Completions within the arrival horizon.
    pub in_horizon: u64,
    /// Events the server's engine executed (including fed arrivals and
    /// load-report sends).
    pub events: u64,
    /// Load reports the server sent.
    pub reports: u64,
    /// Cumulative quanta per worker.
    pub worker_quanta: Vec<u64>,
    /// Jobs completed per worker.
    pub worker_completed: Vec<u64>,
    /// Jobs gained by stealing per worker (zero for centralized servers).
    pub worker_steals: Vec<u64>,
    /// This server's adaptive-quantum controller report (present iff the
    /// server config carries a controller; each shard runs its own).
    pub controller: Option<tq_core::adaptive::ControllerReport>,
}

/// Everything a rack simulation produces besides the completion stream.
#[derive(Debug, Clone)]
pub struct RackStats {
    /// Events executed across all shards (scheduler routing decisions,
    /// membership changes, load-report handling, and every server event)
    /// — the aggregate work counter for events/s accounting.
    pub events: u64,
    /// Completions within the arrival horizon, rack-wide.
    pub in_horizon: u64,
    /// Requests the scheduler routed (= arrivals before the horizon).
    pub submitted: u64,
    /// Conservative-synchronization windows executed.
    pub windows: u64,
    /// Cross-shard messages delivered (jobs + load reports).
    pub messages: u64,
    /// OS threads the PDES pool actually used.
    pub threads: usize,
    /// Per-server breakdown, indexed by server.
    pub per_server: Vec<RackServerStats>,
}

/// Simulates `spec`'s rack serving `gen`'s stream until `horizon`, then
/// drains; completions are merged across servers in finish order.
///
/// # Panics
///
/// Panics if the spec is invalid (see [`RackSpec::validate`]).
pub fn simulate_rack(
    spec: &RackSpec,
    gen: ArrivalGen,
    horizon: Nanos,
    seed: u64,
    threads: usize,
) -> (Vec<Completion>, RackStats) {
    let mut completions = Vec::new();
    let stats = simulate_rack_into(spec, gen, horizon, seed, threads, &mut completions);
    (completions, stats)
}

/// [`simulate_rack`] writing completions into a caller-provided buffer
/// (cleared first). The output is deterministic for a fixed spec and
/// seed, independent of `threads`.
///
/// # Panics
///
/// Panics if the spec is invalid (see [`RackSpec::validate`]).
pub fn simulate_rack_into(
    spec: &RackSpec,
    gen: ArrivalGen,
    horizon: Nanos,
    seed: u64,
    threads: usize,
    completions: &mut Vec<Completion>,
) -> RackStats {
    spec.validate();
    match spec.server.arch {
        Architecture::TwoLevel { .. } => {
            run_rack::<TwoLevel>(spec, gen, horizon, seed, threads, completions)
        }
        Architecture::Centralized => {
            run_rack::<Centralized>(spec, gen, horizon, seed, threads, completions)
        }
    }
}

/// [`simulate_rack_into`] over servers of scheduling model `M`.
fn run_rack<M: Model>(
    spec: &RackSpec,
    gen: ArrivalGen,
    horizon: Nanos,
    seed: u64,
    threads: usize,
    completions: &mut Vec<Completion>,
) -> RackStats {
    let n = spec.n_servers;
    // Each server's completion buffer is sized at its share of the run.
    let share = gen.expected_arrivals(horizon).div_ceil(n);
    let mut shards: Vec<RackShard<M>> = Vec::with_capacity(n + 1);
    shards.push(RackShard::Sched(SchedShard::new(spec, gen, horizon, seed)));
    for server in 0..n {
        shards.push(RackShard::Server(ServerShard::new(
            spec,
            server,
            horizon,
            server_seed(seed, server),
            share,
        )));
    }
    let pdes = run_conservative(&mut shards, spec.lookahead(), threads);

    let RackShard::Sched(sched) = &shards[0] else {
        unreachable!("shard 0 is the scheduler");
    };
    let mut stats = RackStats {
        events: sched.events,
        in_horizon: 0,
        submitted: sched.routed.iter().sum(),
        windows: pdes.windows,
        messages: pdes.messages,
        threads: pdes.threads,
        per_server: Vec::with_capacity(n),
    };
    let mut streams = Vec::with_capacity(n);
    for (server, shard) in shards[1..].iter().enumerate() {
        let RackShard::Server(s) = shard else {
            unreachable!("shards 1.. are servers");
        };
        s.sim.debug_check_drained();
        let per = s.stats(sched.routed[server]);
        stats.events += per.events;
        stats.in_horizon += per.in_horizon;
        stats.per_server.push(per);
        streams.push(s.completions.as_slice());
    }
    completions.clear();
    completions.reserve(streams.iter().map(|s| s.len()).sum());
    merge_by_finish(&mut streams, completions);
    stats
}

/// Appends the completions of `streams`, each in finish order, to `out`
/// in `(finish, stream)` order with each stream's own order kept: what a
/// stable sort by finish of the streams laid end to end gives. Each
/// completion is the head of the lowest-numbered stream whose head
/// finishes first (`min_by_key` keeps the first of equal minima).
fn merge_by_finish(streams: &mut [&[Completion]], out: &mut Vec<Completion>) {
    while let Some(s) = streams
        .iter_mut()
        .filter(|s| !s.is_empty())
        .min_by_key(|s| s[0].finish)
    {
        out.push(s[0]);
        *s = &s[1..];
    }
}

/// Either rack shard kind, so the PDES pool runs one homogeneous slice.
// One scheduler per rack — the Vec is dominated by Server entries only
// when racks are large, and shards are never moved after construction.
#[allow(clippy::large_enum_variant)]
enum RackShard<M> {
    Sched(SchedShard),
    Server(ServerShard<M>),
}

impl<M> std::fmt::Debug for RackShard<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RackShard::Sched(_) => f.write_str("Sched"),
            RackShard::Server(s) => write!(f, "Server({})", s.index),
        }
    }
}

impl<M: Model> Shard for RackShard<M> {
    type Msg = RackMsg;

    fn next_time(&self) -> Option<Nanos> {
        match self {
            RackShard::Sched(s) => s.next_time(),
            RackShard::Server(s) => s.next_time(),
        }
    }

    fn execute_until(&mut self, bound: Nanos, out: &mut Outbox<RackMsg>) {
        match self {
            RackShard::Sched(s) => s.execute_until(bound, out),
            RackShard::Server(s) => s.execute_until(bound, out),
        }
    }

    fn deliver(&mut self, _from: usize, at: Nanos, msg: RackMsg) {
        match (self, msg) {
            (RackShard::Sched(s), RackMsg::Load { server, queued }) => {
                s.loads.push(at, (server, queued));
            }
            (RackShard::Server(s), RackMsg::Job(req)) => s.accept(at, req),
            (RackShard::Sched(_), RackMsg::Job(_)) => {
                unreachable!("scheduler received a job")
            }
            (RackShard::Server(_), RackMsg::Load { .. }) => {
                unreachable!("server received a load report")
            }
        }
    }

    fn deliver_batch(&mut self, from: usize, msgs: &mut Vec<(Nanos, RackMsg)>) {
        match self {
            // A batch of jobs lands in the server inbox through the
            // sorted bulk path (delivery times ascend within a sender's
            // window because the dispatch delay is constant).
            RackShard::Server(s) => {
                if let Some(&(at, _)) = msgs.first() {
                    s.restart_reports(at);
                }
                s.sim.inject_batch(msgs.drain(..).map(|(at, msg)| match msg {
                    RackMsg::Job(req) => (at, req),
                    RackMsg::Load { .. } => unreachable!("server received a load report"),
                }));
            }
            shard => {
                for (at, msg) in msgs.drain(..) {
                    shard.deliver(from, at, msg);
                }
            }
        }
    }
}

/// Shard 0: the rack scheduler (arrivals, estimates, membership, policy).
struct SchedShard {
    horizon: Nanos,
    dispatch_delay: Nanos,
    policy: RackPolicy,
    rng: SimRng,
    gen: ArrivalGen,
    /// Pre-drawn next arrival (always `< horizon` when `Some`).
    next_req: Option<Request>,
    /// Stale per-server load estimates: overwritten by reports,
    /// optimistically bumped at route time.
    estimates: Vec<u64>,
    active: Vec<bool>,
    n_active: usize,
    /// Round-robin cursor, shared with the node-level dispatcher's rank
    /// formulation (circular distance, [`RankPolicy::on_pick`] advance).
    rr: RoundRobinRank,
    /// Scratch for sampled candidates (PowerOfK), reused across routes.
    samples: Vec<usize>,
    membership: VecDeque<MembershipChange>,
    /// Incoming load reports keyed by delivery time.
    loads: EventQueue<(usize, u64)>,
    /// Requests routed per server.
    routed: Vec<u64>,
    /// Events handled (arrivals + reports + membership changes).
    events: u64,
}

impl SchedShard {
    fn new(spec: &RackSpec, mut gen: ArrivalGen, horizon: Nanos, seed: u64) -> Self {
        let next_req = Some(gen.next_request()).filter(|r| r.arrival < horizon);
        SchedShard {
            horizon,
            dispatch_delay: spec.dispatch_delay,
            policy: spec.policy,
            // Distinct stream from every per-server policy seed.
            rng: SimRng::new(seed ^ 0xBADC_AB1E),
            gen,
            next_req,
            estimates: vec![0; spec.n_servers],
            active: vec![true; spec.n_servers],
            n_active: spec.n_servers,
            rr: RoundRobinRank::default(),
            samples: Vec::new(),
            membership: spec.membership.iter().copied().collect(),
            loads: EventQueue::new(),
            routed: vec![0; spec.n_servers],
            events: 0,
        }
    }

    fn next_time(&self) -> Option<Nanos> {
        let mut t = self.loads.peek_time();
        for cand in [
            self.membership.front().map(|m| m.at),
            self.next_req.as_ref().map(|r| r.arrival),
        ] {
            t = match (t, cand) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        t
    }

    fn execute_until(&mut self, bound: Nanos, out: &mut Outbox<RackMsg>) {
        loop {
            // Tie order at one instant: reports refresh estimates first,
            // then membership changes apply, then arrivals route.
            let tl = self.loads.peek_time();
            let tm = self.membership.front().map(|m| m.at);
            let ta = self.next_req.as_ref().map(|r| r.arrival);
            let Some(t) = [tl, tm, ta].into_iter().flatten().min() else {
                return;
            };
            if t >= bound {
                return;
            }
            self.events += 1;
            if tl == Some(t) {
                let (_, (server, queued)) = self.loads.pop().expect("peeked non-empty loads");
                self.estimates[server] = queued;
            } else if tm == Some(t) {
                let change = self.membership.pop_front().expect("peeked non-empty schedule");
                debug_assert_ne!(self.active[change.server], change.join);
                self.active[change.server] = change.join;
                self.n_active = if change.join {
                    self.n_active + 1
                } else {
                    self.n_active - 1
                };
            } else {
                let req = self.next_req.take().expect("peeked pending arrival");
                let server = self.route(&req);
                self.routed[server] += 1;
                self.estimates[server] += 1;
                out.send(1 + server, t + self.dispatch_delay, RackMsg::Job(req));
                self.next_req = Some(self.gen.next_request()).filter(|r| r.arrival < self.horizon);
            }
        }
    }

    /// Picks the target server for `req` among active servers.
    ///
    /// Every arm is the same PIFO-shaped decision the node-level
    /// dispatcher makes: sample a candidate list (Random, PowerOfK draw
    /// with replacement; RoundRobin/Affinity scan all active servers),
    /// then take the first candidate with the minimum rank via
    /// [`min_rank_scan`] — stale load estimates stand in for the queue
    /// depths a [`PolicyView`] exposes. The `SimRng` draw sequences are
    /// identical to the historical hand-coded arms.
    fn route(&mut self, req: &Request) -> usize {
        debug_assert!(self.n_active >= 1, "validated schedule keeps the rack non-empty");
        let n = self.active.len();
        match self.policy {
            RackPolicy::Random => {
                let k = self.rng.index(self.n_active);
                self.nth_active(k)
            }
            RackPolicy::RoundRobin => {
                let picked = min_rank_scan(
                    &self.rr,
                    active_servers(&self.active),
                    &self.estimates,
                    n,
                )
                .expect("rack is non-empty");
                self.rr.on_pick(picked, n);
                picked
            }
            RackPolicy::PowerOfK(k) => {
                let mut samples = std::mem::take(&mut self.samples);
                samples.clear();
                for _ in 0..k {
                    let j = self.rng.index(self.n_active);
                    samples.push(self.nth_active(j));
                }
                let best = min_rank_scan(
                    &JsqRank {
                        tie: TieRule::LowestIndex,
                    },
                    samples.iter().copied(),
                    &self.estimates,
                    n,
                )
                .expect("k >= 1 sampled candidates");
                self.samples = samples;
                best
            }
            RackPolicy::Affinity { spill } => {
                let home = (flow_hash(req.id.0) % n as u64) as usize;
                let least = min_rank_scan(
                    &JsqRank {
                        tie: TieRule::LowestIndex,
                    },
                    active_servers(&self.active),
                    &self.estimates,
                    n,
                )
                .expect("rack is non-empty");
                if self.active[home] && self.estimates[home] <= self.estimates[least] + spill {
                    home
                } else {
                    least
                }
            }
        }
    }

    /// The `k`-th active server in index order (`k < n_active`).
    fn nth_active(&self, k: usize) -> usize {
        let mut seen = 0;
        for (server, &up) in self.active.iter().enumerate() {
            if up {
                if seen == k {
                    return server;
                }
                seen += 1;
            }
        }
        unreachable!("k out of range of active servers")
    }
}

/// Active server indices in ascending order.
fn active_servers(active: &[bool]) -> impl Iterator<Item = usize> + '_ {
    active
        .iter()
        .enumerate()
        .filter_map(|(s, &up)| up.then_some(s))
}

/// The rack-side min-rank datapath: scans `candidates` in order and
/// returns the first with the minimum rank under `policy`, viewing the
/// scheduler's stale `estimates` as the exposed per-server queue depths.
/// Strict-minimum tracking makes ties resolve to the earliest candidate
/// (lowest index for ascending scans, first draw for sampled lists).
fn min_rank_scan<P: RankPolicy>(
    policy: &P,
    candidates: impl Iterator<Item = usize>,
    estimates: &[u64],
    n_servers: usize,
) -> Option<usize> {
    let mut best = None;
    let mut best_rank = u64::MAX;
    for c in candidates {
        let rank = policy.rank(&PolicyView {
            worker: c,
            n_workers: n_servers,
            queued_jobs: estimates[c],
            serviced_quanta: 0,
            flow_hash: 0,
        });
        if best.is_none() || rank < best_rank {
            best_rank = rank;
            best = Some(c);
        }
    }
    best
}

/// Shards 1..=N: one server engine plus its load-report loop.
struct ServerShard<M> {
    index: usize,
    sim: Engine<M>,
    completions: Vec<Completion>,
    report_delay: Nanos,
    report_interval: Nanos,
    /// Next periodic report, armed while the server has work.
    next_report: Option<Nanos>,
    reports: u64,
}

impl<M: Model> ServerShard<M> {
    fn new(spec: &RackSpec, index: usize, horizon: Nanos, seed: u64, expected: usize) -> Self {
        ServerShard {
            index,
            sim: Engine::new_fed(&spec.server, horizon, seed),
            completions: Vec::with_capacity(expected),
            report_delay: spec.report_delay,
            report_interval: spec.report_interval,
            next_report: None,
            reports: 0,
        }
    }

    fn next_time(&self) -> Option<Nanos> {
        match (self.sim.next_time(), self.next_report) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn execute_until(&mut self, bound: Nanos, out: &mut Outbox<RackMsg>) {
        loop {
            let ts = self.sim.next_time();
            let tr = self.next_report;
            // Sim events run first on a tie so a same-instant report
            // carries the freshest queue depth.
            match (ts, tr) {
                (Some(t), _) if t < bound && tr.is_none_or(|r| t <= r) => {
                    self.sim.step(&mut self.completions);
                    if self.sim.next_time().is_none() && self.next_report.is_some() {
                        // Drained: one final report tells the scheduler
                        // this server went idle, then the loop disarms.
                        self.send_report(t, out);
                        self.next_report = None;
                    }
                }
                (_, Some(t)) if t < bound => {
                    self.send_report(t, out);
                    self.next_report = Some(t + self.report_interval);
                }
                _ => return,
            }
        }
    }

    fn send_report(&mut self, now: Nanos, out: &mut Outbox<RackMsg>) {
        out.send(
            0,
            now + self.report_delay,
            RackMsg::Load {
                server: self.index,
                queued: self.sim.load(),
            },
        );
        self.reports += 1;
    }

    /// Accepts a routed job and (re)arms the report loop.
    fn accept(&mut self, at: Nanos, req: Request) {
        self.restart_reports(at);
        self.sim.inject(at, req);
    }

    fn restart_reports(&mut self, at: Nanos) {
        if self.next_report.is_none() {
            self.next_report = Some(at + self.report_interval);
        }
    }

    fn stats(&self, routed: u64) -> RackServerStats {
        let st = self.sim.stats();
        RackServerStats {
            routed,
            completed: self.completions.len() as u64,
            in_horizon: st.in_horizon,
            events: st.events + self.reports,
            reports: self.reports,
            worker_quanta: st.worker_quanta,
            worker_completed: st.worker_completed,
            worker_steals: st.worker_steals,
            controller: st.controller,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use tq_workloads::table1;

    fn rack_gen(spec: &RackSpec, load: f64, seed: u64) -> ArrivalGen {
        let wl = table1::extreme_bimodal();
        let rate =
            wl.rate_for_load(spec.server.n_workers, load) * spec.n_servers as f64;
        ArrivalGen::new(wl, rate, SimRng::new(seed))
    }

    fn small_rack(n_servers: usize) -> RackSpec {
        RackSpec::new(presets::tq(4, Nanos::from_micros(2)), n_servers)
    }

    #[test]
    fn conservation_and_determinism_across_threads() {
        let spec = small_rack(4);
        let horizon = Nanos::from_millis(3);
        let gen = rack_gen(&spec, 0.6, 7);
        let expected = gen.clone().until(horizon).len();
        let (base, base_stats) = simulate_rack(&spec, gen.clone(), horizon, 7, 1);
        assert_eq!(base.len(), expected, "all routed arrivals complete");
        assert_eq!(base_stats.submitted, expected as u64);
        assert!(base_stats.windows > 0);
        assert!(base_stats.messages > 0);
        for threads in [2, 5] {
            let (completions, stats) = simulate_rack(&spec, gen.clone(), horizon, 7, threads);
            assert_eq!(completions, base, "diverged at {threads} threads");
            assert_eq!(stats.windows, base_stats.windows);
            assert_eq!(stats.messages, base_stats.messages);
            assert_eq!(stats.events, base_stats.events);
        }
    }

    #[test]
    fn policies_route_everywhere_and_conserve() {
        let horizon = Nanos::from_millis(3);
        for policy in [
            RackPolicy::Random,
            RackPolicy::RoundRobin,
            RackPolicy::PowerOfK(2),
            RackPolicy::Affinity { spill: 4 },
        ] {
            let mut spec = small_rack(3);
            spec.policy = policy;
            let gen = rack_gen(&spec, 0.5, 13);
            let expected = gen.clone().until(horizon).len();
            let (completions, stats) = simulate_rack(&spec, gen, horizon, 13, 1);
            assert_eq!(completions.len(), expected, "{policy:?} dropped jobs");
            assert!(
                stats.per_server.iter().all(|s| s.routed > 0),
                "{policy:?} starved a server: {:?}",
                stats.per_server.iter().map(|s| s.routed).collect::<Vec<_>>()
            );
            let routed: u64 = stats.per_server.iter().map(|s| s.routed).sum();
            let completed: u64 = stats.per_server.iter().map(|s| s.completed).sum();
            assert_eq!(routed, completed, "{policy:?} lost jobs between shards");
            // Merged stream is finish-ordered.
            assert!(completions.windows(2).all(|w| w[0].finish <= w[1].finish));
        }
    }

    #[test]
    fn centralized_servers_work_too() {
        let mut spec = RackSpec::new(presets::shinjuku(4, Nanos::from_micros(5)), 3);
        spec.policy = RackPolicy::PowerOfK(2);
        let wl = table1::high_bimodal();
        let rate = wl.rate_for_load(4, 0.5) * 3.0;
        let gen = ArrivalGen::new(wl, rate, SimRng::new(5));
        let horizon = Nanos::from_millis(3);
        let expected = gen.clone().until(horizon).len();
        let (a, _) = simulate_rack(&spec, gen.clone(), horizon, 5, 1);
        let (b, _) = simulate_rack(&spec, gen, horizon, 5, 3);
        assert_eq!(a.len(), expected);
        assert_eq!(a, b);
    }

    #[test]
    fn leave_stops_routing_and_join_resumes() {
        let horizon = Nanos::from_millis(4);
        let mut spec = small_rack(3);
        // Server 2 leaves almost immediately and rejoins mid-run.
        spec.membership = vec![
            MembershipChange {
                at: Nanos::from_nanos(1),
                server: 2,
                join: false,
            },
            MembershipChange {
                at: Nanos::from_millis(2),
                server: 2,
                join: true,
            },
        ];
        let gen = rack_gen(&spec, 0.5, 17);
        let expected = gen.clone().until(horizon).len();
        let (completions, stats) = simulate_rack(&spec, gen, horizon, 17, 1);
        assert_eq!(completions.len(), expected, "churn must not lose jobs");
        let absent = {
            let mut spec = small_rack(3);
            spec.membership = vec![MembershipChange {
                at: Nanos::from_nanos(1),
                server: 2,
                join: false,
            }];
            let gen = rack_gen(&spec, 0.5, 17);
            simulate_rack(&spec, gen, horizon, 17, 1).1.per_server[2].routed
        };
        assert_eq!(absent, 0, "a departed server must get no new work");
        assert!(
            stats.per_server[2].routed > 0,
            "rejoined server must get work again"
        );
        assert!(stats.per_server[2].routed < stats.per_server[0].routed);
    }

    #[test]
    fn power_of_two_beats_random_on_latency() {
        // Deterministic for fixed seed: steering by (stale) queue
        // estimates should cut mean sojourn versus blind random, even
        // though it *skews* routed counts away from clogged servers.
        let mean_sojourn = |policy: RackPolicy| {
            let mut spec = small_rack(4);
            spec.policy = policy;
            let gen = rack_gen(&spec, 0.8, 29);
            let (completions, _) = simulate_rack(&spec, gen, Nanos::from_millis(5), 29, 1);
            let total: u64 = completions
                .iter()
                .map(|c| c.finish.as_nanos() - c.arrival.as_nanos())
                .sum();
            total as f64 / completions.len() as f64
        };
        let p2c = mean_sojourn(RackPolicy::PowerOfK(2));
        let random = mean_sojourn(RackPolicy::Random);
        assert!(
            p2c < random,
            "p2c mean sojourn {p2c:.0}ns should beat random {random:.0}ns"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero network delays")]
    fn zero_delay_multi_server_rejected() {
        let mut spec = small_rack(2);
        spec.dispatch_delay = Nanos::ZERO;
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "non-zero network delays")]
    fn zero_delay_single_server_rejected() {
        let mut spec = small_rack(1);
        spec.dispatch_delay = Nanos::ZERO;
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "leaves the rack empty")]
    fn emptying_membership_rejected() {
        let mut spec = small_rack(1);
        spec.membership = vec![MembershipChange {
            at: Nanos::from_nanos(5),
            server: 0,
            join: false,
        }];
        spec.validate();
    }

    /// The merge against the stable sort it replaced, on streams whose
    /// finishes tie within a stream, across streams and at both ends,
    /// with empty streams among them.
    #[test]
    fn merging_streams_is_the_stable_sort_by_finish() {
        let mut rng = SimRng::new(23);
        for case in 0..300u64 {
            let n = 1 + (case % 6) as usize;
            let mut id = 0;
            let streams: Vec<Vec<Completion>> = (0..n)
                .map(|_| {
                    let empty = rng.u64().is_multiple_of(5);
                    let len = if empty { 0 } else { (rng.u64() % 12) as usize };
                    let mut finish = rng.u64() % 4;
                    (0..len)
                        .map(|_| {
                            finish += rng.u64() % 3; // 0: a tie within the stream
                            id += 1;
                            Completion {
                                id: tq_core::JobId(id),
                                class: tq_core::ClassId(0),
                                arrival: Nanos::ZERO,
                                service: Nanos::ZERO,
                                finish: Nanos(finish),
                            }
                        })
                        .collect()
                })
                .collect();
            let mut want = streams.concat();
            want.sort_by_key(|c| c.finish);
            let mut slices: Vec<&[Completion]> = streams.iter().map(Vec::as_slice).collect();
            let mut got = Vec::new();
            merge_by_finish(&mut slices, &mut got);
            assert_eq!(got, want, "case {case}");
            assert!(slices.iter().all(|s| s.is_empty()));
        }
    }
}
