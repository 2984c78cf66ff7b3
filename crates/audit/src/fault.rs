//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *when the runtime should be hurt*: per-worker
//! stall windows during which a worker's scheduler loop refuses to admit
//! or run anything (the live analogue of an OS descheduling a dedicated
//! core, or a straggler NUMA node). Plans are pure data derived from a
//! seed, so a fault run is exactly reproducible.
//!
//! [`FaultScenario`] is the catalog of hostile configurations the
//! integration matrix drives both engines through: degenerate quanta,
//! zero-length jobs, burst arrivals, capacity-1 rings, stalled workers.
//! The scenarios themselves are engine-agnostic labels; the test harness
//! maps each to concrete `ServerConfig`/`SystemConfig` knobs. Under every
//! one of them the accounting invariants of [`crate::InvariantAuditor`]
//! must still hold — that is the contract being tested, not latency.

use tq_core::policy::flow_hash;
use tq_core::Nanos;

/// One injected stall: `worker` processes nothing between `after` and
/// `after + duration` (measured from the worker loop's start on its own
/// clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// Worker index to stall.
    pub worker: usize,
    /// Window start, relative to worker start.
    pub after: Nanos,
    /// Window length (finite, so drains always terminate).
    pub duration: Nanos,
}

impl StallWindow {
    /// Whether `elapsed` falls inside the window.
    #[inline]
    pub fn contains(&self, elapsed: Nanos) -> bool {
        elapsed >= self.after && elapsed < self.after + self.duration
    }
}

/// A deterministic fault plan for one run.
///
/// # Example
///
/// ```
/// use tq_audit::fault::FaultPlan;
/// use tq_core::Nanos;
///
/// let plan = FaultPlan::stall_worker(0, Nanos::from_millis(1), Nanos::from_millis(5));
/// assert!(plan.stalled(0, Nanos::from_millis(3)));
/// assert!(!plan.stalled(0, Nanos::from_millis(7)));
/// assert!(!plan.stalled(1, Nanos::from_millis(3)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Every stall window, in no particular order.
    pub stalls: Vec<StallWindow>,
}

impl FaultPlan {
    /// A plan with a single stall window.
    pub fn stall_worker(worker: usize, after: Nanos, duration: Nanos) -> Self {
        FaultPlan {
            stalls: vec![StallWindow {
                worker,
                after,
                duration,
            }],
        }
    }

    /// Derives a plan from a seed: stalls one pseudo-randomly chosen
    /// worker for `duration`, starting at a pseudo-random offset within
    /// `spread`. Same seed, same plan — the whole point.
    pub fn from_seed(seed: u64, n_workers: usize, spread: Nanos, duration: Nanos) -> Self {
        assert!(n_workers > 0, "need at least one worker to stall");
        let a = flow_hash(seed);
        let b = flow_hash(a);
        let worker = (a % n_workers as u64) as usize;
        let after = Nanos::from_nanos(b % spread.as_nanos().max(1));
        FaultPlan::stall_worker(worker, after, duration)
    }

    /// Whether `worker` is stalled at `elapsed` time into its run.
    #[inline]
    pub fn stalled(&self, worker: usize, elapsed: Nanos) -> bool {
        self.stalls
            .iter()
            .any(|s| s.worker == worker && s.contains(elapsed))
    }
}

/// The hostile-configuration catalog the fault-injection matrix runs —
/// each scenario is exercised on *both* engines with auditing enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// Quantum of 1 ns: every probe observes expiry; pure preemption
    /// pressure.
    QuantumTiny,
    /// Effectively infinite quantum: no job is ever preempted (FCFS in
    /// PS clothing).
    QuantumInfinite,
    /// Jobs demanding (near-)zero service: completion storms, slots
    /// recycle at maximum rate.
    ZeroService,
    /// The whole arrival schedule lands at once: ring backpressure and
    /// dispatcher retry paths under maximum stress.
    BurstArrivals,
    /// Dispatch rings of capacity 1: every second request is a
    /// backpressure event.
    RingCapacityOne,
    /// One worker stalls mid-run (from the seed-derived [`FaultPlan`]):
    /// load balancing and stealing must route around it, and shutdown
    /// must still drain it.
    WorkerStall,
}

impl FaultScenario {
    /// Every scenario, in matrix order.
    pub const ALL: [FaultScenario; 6] = [
        FaultScenario::QuantumTiny,
        FaultScenario::QuantumInfinite,
        FaultScenario::ZeroService,
        FaultScenario::BurstArrivals,
        FaultScenario::RingCapacityOne,
        FaultScenario::WorkerStall,
    ];

    /// Stable snake_case name (report labels).
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::QuantumTiny => "quantum_tiny",
            FaultScenario::QuantumInfinite => "quantum_infinite",
            FaultScenario::ZeroService => "zero_service",
            FaultScenario::BurstArrivals => "burst_arrivals",
            FaultScenario::RingCapacityOne => "ring_capacity_one",
            FaultScenario::WorkerStall => "worker_stall",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let w = StallWindow {
            worker: 0,
            after: Nanos::from_nanos(10),
            duration: Nanos::from_nanos(5),
        };
        assert!(!w.contains(Nanos::from_nanos(9)));
        assert!(w.contains(Nanos::from_nanos(10)));
        assert!(w.contains(Nanos::from_nanos(14)));
        assert!(!w.contains(Nanos::from_nanos(15)));
    }

    #[test]
    fn seed_derivation_is_deterministic_and_in_range() {
        for seed in 0..64 {
            let a = FaultPlan::from_seed(seed, 4, Nanos::from_millis(10), Nanos::from_millis(2));
            let b = FaultPlan::from_seed(seed, 4, Nanos::from_millis(10), Nanos::from_millis(2));
            assert_eq!(a, b, "same seed must derive the same plan");
            let s = a.stalls[0];
            assert!(s.worker < 4);
            assert!(s.after < Nanos::from_millis(10));
        }
        let x = FaultPlan::from_seed(1, 4, Nanos::from_millis(10), Nanos::from_millis(2));
        let y = FaultPlan::from_seed(2, 4, Nanos::from_millis(10), Nanos::from_millis(2));
        assert_ne!(x, y, "different seeds should usually differ");
    }

    #[test]
    fn scenario_names_unique() {
        let mut names: Vec<_> = FaultScenario::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultScenario::ALL.len());
    }
}
