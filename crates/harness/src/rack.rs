//! [`Engine`] over the rack tier: N TQ servers behind a rack scheduler,
//! executed on the conservative-lookahead PDES core.
//!
//! The adapter mirrors [`crate::SimEngine`] — same policy-seed
//! derivation, same counters shape (the worker vector
//! concatenates every server's workers in server order) — so rack
//! records flow through `run_to_record` and the `tq-run/v1` schema
//! unchanged, with the rack-specific breakdown carried in
//! [`RackMeta`]. With auditing on, conservation is checked **per
//! server** (routed = completed at each) and then rack-wide, each
//! server's verdict absorbed with `[server i]` attribution via
//! `AuditReport::absorb_scoped`.

use crate::engine::{
    Engine, EngineCounters, EngineKind, PolicyMeta, RackMeta, RackServerMeta, RunOutput, RunSpec,
    WorkerCounters,
};
use crate::SimEngine;
use tq_audit::InvariantAuditor;
use tq_core::Nanos;
use tq_queueing::rack::{simulate_rack_into, RackSpec};
use tq_workloads::ArrivalGen;

/// A discrete-event engine simulating a whole rack in parallel.
#[derive(Debug, Clone)]
pub struct RackEngine {
    spec: RackSpec,
    threads: usize,
    audit: bool,
    last: Option<RackMeta>,
}

impl RackEngine {
    /// Wraps a validated rack spec; `threads` is the PDES pool size
    /// (clamped to the shard count; 1 = serial reference execution).
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see `RackSpec::validate`).
    pub fn new(spec: RackSpec, threads: usize) -> Self {
        spec.validate();
        RackEngine {
            spec,
            threads,
            audit: false,
            last: None,
        }
    }

    /// Enables (or disables) the invariant auditor: each run then
    /// carries a rack-level `AuditReport` with per-server attribution.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// The wrapped rack spec.
    pub fn spec(&self) -> &RackSpec {
        &self.spec
    }
}

impl Engine for RackEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Sim
    }

    fn model(&self) -> &'static str {
        "rack"
    }

    fn system(&self) -> String {
        self.spec.name.clone()
    }

    fn workers(&self) -> usize {
        self.spec.server.n_workers * self.spec.n_servers
    }

    fn policy_meta(&self) -> Option<PolicyMeta> {
        // The per-server policy; the rack-level routing policy lives in
        // the `rack` block.
        Some(PolicyMeta::from_config(&self.spec.server))
    }

    fn run(&mut self, spec: &RunSpec, arrivals: ArrivalGen, horizon: Nanos) -> RunOutput {
        let mut completions = Vec::new();
        let stats = simulate_rack_into(
            &self.spec,
            arrivals,
            horizon,
            SimEngine::policy_seed(spec.seed),
            self.threads,
            &mut completions,
        );
        let workers: Vec<WorkerCounters> = stats
            .per_server
            .iter()
            .flat_map(|s| {
                (0..s.worker_quanta.len()).map(|w| WorkerCounters {
                    quanta: s.worker_quanta[w],
                    completed: s.worker_completed[w],
                    steals: s.worker_steals[w],
                    max_ring_occupancy: 0,
                })
            })
            .collect();
        let submitted = stats.submitted;
        let counters = EngineCounters {
            sim_events: stats.events,
            dispatcher_forwarded: submitted,
            ring_full_retries: 0,
            dispatcher_bursts: 0,
            dispatch_busy_nanos: 0,
            workers,
        };
        let audit = self.audit.then(|| {
            let mut rack = InvariantAuditor::new(format!(
                "sim rack x{} {:?}",
                self.spec.n_servers, self.spec.policy
            ))
            .finish();
            for (i, s) in stats.per_server.iter().enumerate() {
                let mut a = InvariantAuditor::new("server");
                // Routed jobs never drop in virtual time: everything the
                // scheduler sent must have completed at this server.
                a.check_conservation(s.routed, s.completed, &[]);
                a.check(
                    "server_counter_completion_agreement",
                    s.worker_completed.iter().sum::<u64>() == s.completed,
                    || {
                        format!(
                            "per-worker completed counters sum to {}, server stream has {}",
                            s.worker_completed.iter().sum::<u64>(),
                            s.completed
                        )
                    },
                );
                rack.absorb_scoped(&format!("server {i}"), a.finish());
            }
            let mut a = InvariantAuditor::new("rack");
            a.check_conservation(submitted, completions.len() as u64, &[]);
            let ids: Vec<u64> = completions.iter().map(|c| c.id.0).collect();
            a.check_exactly_once(&ids, Some(submitted));
            a.check(
                "rack_causal_timestamps",
                completions
                    .iter()
                    .all(|c| c.finish >= c.arrival + c.service + self.spec.dispatch_delay),
                || {
                    let c = completions
                        .iter()
                        .find(|c| c.finish < c.arrival + c.service + self.spec.dispatch_delay)
                        .expect("checked");
                    format!(
                        "job {} finished at {} before its {} dispatch delay plus {} of service from {}",
                        c.id.0, c.finish, self.spec.dispatch_delay, c.service, c.arrival
                    )
                },
            );
            let finishes: Vec<Nanos> = completions.iter().map(|c| c.finish).collect();
            a.check_in_horizon(&finishes, horizon, stats.in_horizon);
            rack.absorb(a.finish());
            rack
        });
        self.last = Some(RackMeta {
            n_servers: self.spec.n_servers,
            policy: format!("{:?}", self.spec.policy),
            threads: stats.threads,
            windows: stats.windows,
            messages: stats.messages,
            per_server: stats
                .per_server
                .iter()
                .map(|s| RackServerMeta {
                    routed: s.routed,
                    completed: s.completed,
                    reports: s.reports,
                })
                .collect(),
        });
        RunOutput {
            submitted,
            in_horizon: stats.in_horizon,
            counters,
            completions,
            audit,
            // Each shard runs its own independent controller; server 0's
            // report stands in for the rack (the per-server breakdown
            // stays in the engine stats).
            controller: stats.per_server.first().and_then(|s| s.controller),
        }
    }

    fn take_rack_meta(&mut self) -> Option<RackMeta> {
        self.last.take()
    }
}
