//! [`Engine`] over the discrete-event models in `tq-queueing`, and the
//! [`sweep`] that runs it over a list of offered rates.
//!
//! A thin adapter over `simulate_into`: every figure, sweep and test
//! runs a simulated point through [`SimEngine`] and [`run_to_record`].

use crate::engine::{
    run_to_record, Engine, EngineCounters, EngineKind, PolicyMeta, RunOutput, RunRecord, RunSpec,
    WorkerCounters,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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

    /// The seed of a run's policy randomness (random tie-breaks, RSS
    /// hashing), derived from the spec's seed so it differs from the
    /// arrival stream's. [`crate::RackEngine`] derives its own the same
    /// way.
    pub(crate) fn policy_seed(spec_seed: u64) -> u64 {
        spec_seed ^ 0xD15
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
        let seed = SimEngine::policy_seed(spec.seed);
        let s = simulate_into(&self.config, arrivals, horizon, seed, &mut completions);
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

/// Runs `engine` at each of `rates_rps`, the rest of each point taken
/// from `spec`, on up to `jobs` scoped threads, and returns one record
/// per rate in input order. Every point is deterministic given its
/// inputs, so any `jobs` gives identical records (`1` runs serially).
/// Points are handed out through a shared counter, since those near
/// saturation take far longer than low-load ones. A panic in any point
/// propagates to the caller.
pub fn sweep(engine: &SimEngine, spec: &RunSpec, rates_rps: &[f64], jobs: usize) -> Vec<RunRecord> {
    let point = |i: usize| {
        let spec = RunSpec {
            rate_rps: rates_rps[i],
            ..spec.clone()
        };
        run_to_record(&mut engine.clone(), &spec)
    };
    let n = rates_rps.len();
    let jobs = jobs.max(1).min(n);
    if jobs <= 1 {
        return (0..n).map(point).collect();
    }
    let next = AtomicUsize::new(0);
    let slots = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = point(i);
                slots.lock().expect("sweep point panicked").push((i, r));
            });
        }
    });
    let mut slots = slots.into_inner().expect("sweep point panicked");
    debug_assert_eq!(slots.len(), n);
    slots.sort_unstable_by_key(|&(i, _)| i);
    slots.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_core::costs;
    use tq_core::policy::TieBreak;
    use tq_queueing::presets;
    use tq_workloads::{table1, ArrivalProcess, Workload};

    fn spec(workload: Workload, rate_rps: f64, millis: u64, seed: u64) -> RunSpec {
        RunSpec {
            workload,
            process: ArrivalProcess::Poisson,
            rate_rps,
            horizon: Nanos::from_millis(millis),
            seed,
        }
    }

    fn run(cfg: SystemConfig, spec: &RunSpec) -> RunRecord {
        run_to_record(&mut SimEngine::new(cfg), spec)
    }

    #[test]
    fn low_load_has_low_slowdown() {
        let cfg = presets::ideal_centralized_ps(8, Nanos::from_micros(1));
        let wl = table1::extreme_bimodal();
        let r = run(cfg, &spec(wl.clone(), wl.rate_for_load(8, 0.1), 20, 42));
        assert!(
            r.overall_slowdown_p999 < 3.0,
            "slowdown {} at 10% load",
            r.overall_slowdown_p999
        );
    }

    #[test]
    fn slowdown_grows_with_load() {
        let cfg = presets::tq(8, Nanos::from_micros(2));
        let wl = table1::extreme_bimodal();
        let lo = run(
            cfg.clone(),
            &spec(wl.clone(), wl.rate_for_load(8, 0.2), 20, 1),
        );
        let hi = run(cfg, &spec(wl.clone(), wl.rate_for_load(8, 0.8), 20, 1));
        assert!(hi.overall_slowdown_p999 > lo.overall_slowdown_p999);
    }

    #[test]
    fn e2e_includes_rtt() {
        let cfg = presets::tq(4, Nanos::from_micros(2));
        let wl = table1::exp1();
        let r = run(cfg, &spec(wl.clone(), wl.rate_for_load(4, 0.3), 10, 3));
        let e2e = r.classes[0].p999;
        let soj = r.classes_sojourn[0].p999;
        assert_eq!(e2e, soj + costs::NETWORK_RTT);
    }

    #[test]
    fn msq_improves_long_job_tail_over_random_tiebreak() {
        // The Figure 4 phenomenon: with ideal overheads, JSQ-PS with MSQ
        // tie-breaking beats random tie-breaking on long-job p999 slowdown.
        let wl = table1::extreme_bimodal();
        let point = spec(wl.clone(), wl.rate_for_load(16, 0.55), 60, 7);
        let q = Nanos::from_micros(1);
        let msq = run(
            presets::ideal_two_level(16, q, TieBreak::MaxServicedQuanta),
            &point,
        );
        let rnd = run(presets::ideal_two_level(16, q, TieBreak::Random), &point);
        let msq_slow = msq.classes_sojourn[1].slowdown_p999;
        let rnd_slow = rnd.classes_sojourn[1].slowdown_p999;
        assert!(
            msq_slow < rnd_slow,
            "MSQ {msq_slow} should beat random {rnd_slow} for long jobs"
        );
    }

    #[test]
    fn parallel_sweep_identical_to_serial() {
        let engine = SimEngine::new(presets::tq(4, Nanos::from_micros(2)));
        let wl = table1::extreme_bimodal();
        let rates: Vec<f64> = (1..=5)
            .map(|i| wl.rate_for_load(4, 0.15 * i as f64))
            .collect();
        let point = spec(wl, 0.0, 6, 9);
        let serial = sweep(&engine, &point, &rates, 1);
        let parallel = sweep(&engine, &point, &rates, 4);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
}
