//! [`Engine`] over the discrete-event models in `tq-queueing`.
//!
//! A thin adapter: it calls the same `simulate_into` entry point (with
//! the same seed derivation) as `tq_queueing::run::run_once`, so a
//! [`SimEngine`] run produces completions bit-identical to the existing
//! sweep machinery — pinned by the `sim_engine_matches_run_once`
//! integration test.

use crate::engine::{
    Engine, EngineCounters, EngineKind, PolicyMeta, RunOutput, RunSpec, WorkerCounters,
};
use tq_audit::InvariantAuditor;
use tq_core::Nanos;
use tq_queueing::{simulate_into, Architecture, SystemConfig};
use tq_workloads::ArrivalGen;

/// A discrete-event engine wrapping one [`SystemConfig`] (two-level or
/// centralized).
#[derive(Debug, Clone)]
pub struct SimEngine {
    config: SystemConfig,
    audit: bool,
}

impl SimEngine {
    /// Wraps a validated system configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: SystemConfig) -> Self {
        config.validate();
        SimEngine {
            config,
            audit: false,
        }
    }

    /// Enables (or disables) the invariant auditor: each run then carries
    /// an `AuditReport` in its output. Costs one pass over the completion
    /// stream per run; nothing when off.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }
}

impl Engine for SimEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Sim
    }

    fn model(&self) -> &'static str {
        match self.config.arch {
            Architecture::TwoLevel { .. } => "two_level",
            Architecture::Centralized => "centralized",
        }
    }

    fn system(&self) -> String {
        self.config.name.clone()
    }

    fn workers(&self) -> usize {
        self.config.n_workers
    }

    fn policy_meta(&self) -> Option<PolicyMeta> {
        Some(PolicyMeta::from_config(&self.config))
    }

    fn run(&mut self, spec: &RunSpec, arrivals: ArrivalGen, horizon: Nanos) -> RunOutput {
        let mut completions = Vec::new();
        // Same policy-seed derivation as `run_once`, so the two paths
        // produce identical completion streams.
        let s = simulate_into(&self.config, arrivals, horizon, spec.seed ^ 0xD15, &mut completions);
        let workers = (0..self.config.n_workers)
            .map(|w| WorkerCounters {
                quanta: s.worker_quanta[w],
                completed: s.worker_completed[w],
                steals: s.worker_steals[w],
                max_ring_occupancy: 0,
            })
            .collect();
        // What the engine took in, counted at the NIC — independent of
        // the completion stream it is audited against. Each job crosses
        // the dispatcher exactly once.
        let submitted = s.arrivals;
        let counters = EngineCounters {
            sim_events: s.events,
            dispatcher_forwarded: submitted,
            ring_full_retries: 0,
            dispatcher_bursts: 0,
            dispatch_busy_nanos: 0,
            workers,
        };
        let audit = self.audit.then(|| {
            let mut a = InvariantAuditor::new(format!("sim {}", self.model()));
            // Virtual time drops nothing: conservation has no drop buckets.
            a.check_conservation(submitted, completions.len() as u64, &[]);
            let ids: Vec<u64> = completions.iter().map(|c| c.id.0).collect();
            a.check_exactly_once(&ids, Some(submitted));
            a.check(
                "sim_causal_timestamps",
                completions
                    .iter()
                    .all(|c| c.finish >= c.arrival + c.service),
                || {
                    let c = completions
                        .iter()
                        .find(|c| c.finish < c.arrival + c.service)
                        .expect("checked");
                    format!(
                        "job {} finished at {} before receiving its {} of service from {}",
                        c.id.0, c.finish, c.service, c.arrival
                    )
                },
            );
            let worker_done: u64 = counters.workers.iter().map(|w| w.completed).sum();
            a.check(
                "counter_completion_agreement",
                worker_done == completions.len() as u64,
                || {
                    format!(
                        "per-worker completed counters sum to {worker_done}, stream has {}",
                        completions.len()
                    )
                },
            );
            let finishes: Vec<Nanos> = completions.iter().map(|c| c.finish).collect();
            a.check_in_horizon(&finishes, horizon, s.in_horizon);
            a.finish()
        });
        RunOutput {
            submitted,
            in_horizon: s.in_horizon,
            counters,
            completions,
            audit,
            controller: s.controller,
        }
    }
}
