//! In-flight job state shared by both architecture models.

use crate::config::SystemConfig;
use tq_core::{ClassId, JobId, Nanos, Request};

/// A job admitted into the serving system: its identity plus the mutable
/// execution state the model tracks (remaining work, quanta received).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ActiveJob {
    pub id: JobId,
    pub class: ClassId,
    pub arrival: Nanos,
    /// True (uninflated) service demand, kept for slowdown computation.
    pub service_true: Nanos,
    /// Remaining *inflated* work (probing overhead applied on admission).
    pub remaining: Nanos,
    /// Inflated work received so far (drives least-attained-service).
    pub attained: Nanos,
    /// Quanta this job has received so far.
    pub quanta: u64,
    /// The quantum this job runs with (honors per-class overrides).
    pub quantum: Nanos,
}

impl ActiveJob {
    /// Admits `req` under `cfg`: probe inflation applied, plus `rx_cost`
    /// of per-request packet processing the worker performs itself
    /// (directpath; zero where the dispatcher does it).
    #[inline]
    pub fn admit(cfg: &SystemConfig, req: &Request, rx_cost: Nanos) -> Self {
        ActiveJob {
            id: req.id,
            class: req.class,
            arrival: req.arrival,
            service_true: req.service,
            remaining: req.service.scale(1.0 + cfg.inflation_for(req.class.0)) + rx_cost,
            attained: Nanos::ZERO,
            quanta: 0,
            quantum: if cfg.worker_policy.preempts() {
                cfg.quantum_for(req.class.0)
            } else {
                Nanos::MAX
            },
        }
    }

    /// Under an adaptive controller the quantum a job was admitted (or
    /// last ran) with may be stale: a slice always runs at the quantum
    /// currently in force, so a controller step takes effect on the very
    /// next slice. A fixed-quantum config never changes it.
    #[inline(always)]
    pub fn refresh_quantum(&mut self, cfg: &SystemConfig) {
        if cfg.controller.is_some() {
            self.quantum = cfg.quantum_for(self.class.0);
        }
    }

    /// This job's rank in `cfg`'s worker discipline.
    #[inline(always)]
    pub fn rank(&self, cfg: &SystemConfig) -> u64 {
        cfg.worker_policy
            .job_rank(self.class.0, self.arrival, self.attained.as_nanos())
    }

    /// Length of the next slice: one quantum or whatever work remains.
    pub fn next_slice(&self) -> Nanos {
        self.quantum.min(self.remaining)
    }

    /// Applies a finished slice; returns `true` if the job completed.
    pub fn apply_slice(&mut self, slice: Nanos) -> bool {
        debug_assert!(slice <= self.remaining, "slice exceeds remaining work");
        self.remaining -= slice;
        self.attained += slice;
        self.quanta += 1;
        self.remaining.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(remaining_ns: u64, quantum_ns: u64) -> ActiveJob {
        ActiveJob {
            id: JobId(0),
            class: ClassId(0),
            arrival: Nanos::ZERO,
            service_true: Nanos::from_nanos(remaining_ns),
            remaining: Nanos::from_nanos(remaining_ns),
            attained: Nanos::ZERO,
            quanta: 0,
            quantum: Nanos::from_nanos(quantum_ns),
        }
    }

    #[test]
    fn slices_until_done() {
        let mut j = job(2_500, 1_000);
        assert_eq!(j.next_slice(), Nanos::from_nanos(1_000));
        assert!(!j.apply_slice(j.next_slice()));
        assert!(!j.apply_slice(j.next_slice()));
        assert_eq!(j.next_slice(), Nanos::from_nanos(500));
        assert!(j.apply_slice(j.next_slice()));
        assert_eq!(j.quanta, 3);
        assert_eq!(j.attained, Nanos::from_nanos(2_500));
    }

    #[test]
    fn short_job_finishes_in_one_slice() {
        let mut j = job(400, 1_000);
        assert_eq!(j.next_slice(), Nanos::from_nanos(400));
        assert!(j.apply_slice(j.next_slice()));
        assert_eq!(j.quanta, 1);
    }
}
