//! Serving-system configuration.
//!
//! A [`SystemConfig`] fully describes one modeled system: its scheduler
//! architecture, policies, quantum, and every calibrated overhead. The
//! [`crate::presets`] module builds the configurations the paper evaluates.

use serde::{Deserialize, Serialize};
use tq_core::adaptive::ControllerConfig;
use tq_core::policy::{DispatchPolicy, WorkerPolicy};
use tq_core::Nanos;

/// Which scheduler architecture the system uses (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Architecture {
    /// Two-level scheduling: the dispatcher only load-balances whole jobs;
    /// each worker schedules its own quanta (TQ, Caladan).
    TwoLevel {
        /// The dispatcher's load-balancing policy.
        dispatch: DispatchPolicy,
    },
    /// Centralized scheduling: the dispatcher core maintains the single
    /// job queue and schedules every quantum of every worker (Shinjuku).
    Centralized,
}

/// Complete description of one modeled serving system.
///
/// Construct via [`crate::presets`] or modify a preset for ablations; the
/// fields are public because this is configuration data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Human-readable system label for reports (e.g. `"TQ"`).
    pub name: String,
    /// Scheduler architecture.
    pub arch: Architecture,
    /// Worker-core quantum discipline (PS or FCFS run-to-completion).
    pub worker_policy: WorkerPolicy,
    /// Number of worker cores (the paper always uses 16).
    pub n_workers: usize,
    /// Dispatcher cores (two-level only; §6 sketches scaling past one —
    /// incoming packets are sprayed round-robin across them and each runs
    /// the load-balancing policy independently). Centralized systems
    /// always use one.
    pub n_dispatchers: usize,
    /// Target quantum. Ignored when `worker_policy` is FCFS.
    pub quantum: Nanos,
    /// Per-preemption cost paid by the worker at each slice boundary
    /// (coroutine yield for TQ, interrupt latency for Shinjuku, 0 for the
    /// idealized analysis of Figures 1/2/4).
    pub preempt_overhead: Nanos,
    /// Dispatcher service time per arriving request (packet poll, load
    /// balancing decision, ring push). Zero models directpath/no-dispatcher.
    pub dispatch_per_req: Nanos,
    /// Centralized only: dispatcher service time per *quantum* it
    /// schedules. This is what makes centralized scheduling unscalable as
    /// quanta shrink (Figure 16).
    pub dispatch_per_quantum: Nanos,
    /// Extra work a worker performs per request for its own packet RX/TX
    /// (Caladan directpath mode). Added to the job's first quantum.
    pub worker_rx_cost: Nanos,
    /// Fractional service-time inflation from yield-probe instrumentation
    /// (TQ's compiler pass ≈ 3%, instruction-counter baselines much more).
    pub inflation: f64,
    /// Per-class inflation overrides `(class_index, inflation)` — used by
    /// the TQ-IC ablation where GET suffers 60% but SCAN less.
    pub inflation_overrides: Vec<(u16, f64)>,
    /// Per-class quantum overrides `(class_index, quantum)` — used by the
    /// TQ-TIMING ablation emulating inaccurate preemption timing.
    pub quantum_overrides: Vec<(u16, Nanos)>,
    /// Whether idle workers steal queued jobs from the most-loaded worker
    /// (Caladan). Never combined with `Centralized`.
    pub work_stealing: bool,
    /// Cost of one successful steal, charged to the thief.
    pub steal_cost: Nanos,
    /// Adaptive-quantum feedback loop. `None` (every fixed-quantum
    /// preset) leaves the engines bit-identical to their pre-controller
    /// behavior; `Some` runs a [`tq_core::adaptive::QuantumController`]
    /// over virtual-time windows, starting from `quantum` and retuning it
    /// at window boundaries. Per-class `quantum_overrides` still win for
    /// their classes.
    pub controller: Option<ControllerConfig>,
}

impl SystemConfig {
    /// Effective quantum for a job of class `class` (honoring overrides).
    pub fn quantum_for(&self, class: u16) -> Nanos {
        self.quantum_overrides
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, q)| q)
            .unwrap_or(self.quantum)
    }

    /// Effective service inflation for a job of class `class`.
    pub fn inflation_for(&self, class: u16) -> f64 {
        self.inflation_overrides
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, i)| i)
            .unwrap_or(self.inflation)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical combinations (zero workers, zero quantum with
    /// a preempting policy, stealing under centralized scheduling).
    pub fn validate(&self) {
        assert!(self.n_workers > 0, "{}: zero workers", self.name);
        assert!(self.n_dispatchers > 0, "{}: zero dispatchers", self.name);
        assert!(
            !(self.n_dispatchers > 1 && matches!(self.arch, Architecture::Centralized)),
            "{}: a centralized scheduler cannot shard its dispatcher",
            self.name
        );
        assert!(
            !(self.work_stealing && self.worker_policy.is_ranked()),
            "{}: work stealing is only defined for FIFO run queues",
            self.name
        );
        if self.worker_policy.preempts() {
            assert!(
                !self.quantum.is_zero(),
                "{}: preemptive policy needs a quantum",
                self.name
            );
        }
        assert!(
            !(self.work_stealing && matches!(self.arch, Architecture::Centralized)),
            "{}: work stealing requires per-worker queues",
            self.name
        );
        assert!(
            self.inflation >= 0.0 && self.inflation.is_finite(),
            "{}: invalid inflation {}",
            self.name,
            self.inflation
        );
        if let Some(ctl) = &self.controller {
            assert!(
                self.worker_policy.preempts(),
                "{}: the adaptive-quantum controller needs a preempting policy",
                self.name
            );
            ctl.validate();
        }
    }

    /// Returns a renamed copy (for ablation variants).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Returns a copy with the adaptive-quantum controller enabled
    /// (`quantum` becomes the controller's starting point).
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Returns a copy with a different dispatch policy.
    ///
    /// # Panics
    ///
    /// Panics if the architecture is centralized (no dispatch policy there).
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        match &mut self.arch {
            Architecture::TwoLevel { dispatch: d } => *d = dispatch,
            Architecture::Centralized => {
                panic!("{}: centralized system has no dispatch policy", self.name)
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn overrides_fall_back_to_defaults() {
        let mut cfg = presets::tq(16, Nanos::from_micros(2));
        cfg.quantum_overrides = vec![(1, Nanos::from_micros(3))];
        cfg.inflation_overrides = vec![(0, 0.6)];
        assert_eq!(cfg.quantum_for(1), Nanos::from_micros(3));
        assert_eq!(cfg.quantum_for(0), Nanos::from_micros(2));
        assert!((cfg.inflation_for(0) - 0.6).abs() < 1e-12);
        assert!((cfg.inflation_for(1) - cfg.inflation).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "work stealing requires per-worker queues")]
    fn validate_rejects_centralized_stealing() {
        let mut cfg = presets::shinjuku(16, Nanos::from_micros(5));
        cfg.work_stealing = true;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "no dispatch policy")]
    fn with_dispatch_rejects_centralized() {
        let cfg = presets::shinjuku(16, Nanos::from_micros(5));
        let _ = cfg.with_dispatch(DispatchPolicy::Random);
    }
}
