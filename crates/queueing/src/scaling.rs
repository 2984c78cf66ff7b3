//! The dispatcher-scalability experiment (Figure 16).
//!
//! The paper saturates every worker core with 1 ms jobs and asks: for a
//! target quantum, how many cores can the dispatcher keep preempting on
//! time? A dispatcher "keeps up" when the average quantum it actually
//! schedules is at most 10% larger than the target (§5.6).
//!
//! In a centralized system every preemption is dispatcher work: the
//! dispatcher serially spends [`SystemConfig::dispatch_per_quantum`] per
//! core per quantum, and a worker whose quantum has expired *keeps running
//! the current job* until its preemption is processed — so quanta stretch
//! once `cores × dispatch_per_quantum` exceeds the target quantum.
//! [`preemption_pipeline`] simulates exactly that pipeline.
//!
//! Under two-level scheduling workers self-preempt via forced multitasking;
//! the dispatcher's load is per-*job* (1 ms apart here), so the target is
//! met at any core count.

use crate::config::{Architecture, SystemConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tq_core::Nanos;

/// Simulates `rounds` preemption rounds of `cores` always-busy workers
/// whose quanta (target `quantum`) must each be ended by a serial
/// dispatcher spending `per_quantum` per preemption. Returns the average
/// *achieved* quantum (time between consecutive preemptions of a core).
///
/// # Panics
///
/// Panics if `cores` or `rounds` is zero.
pub fn preemption_pipeline(
    cores: usize,
    quantum: Nanos,
    per_quantum: Nanos,
    rounds: u64,
) -> Nanos {
    assert!(cores > 0, "need at least one core");
    assert!(rounds > 0, "need at least one round");
    // Min-heap of (quantum expiry, core). The dispatcher processes
    // expiries in order; a core's new quantum starts when its preemption
    // completes.
    let mut heap: BinaryHeap<Reverse<(Nanos, usize)>> = (0..cores)
        .map(|c| Reverse((quantum, c)))
        .collect();
    let mut dispatcher_free = Nanos::ZERO;
    let mut last_boundary = vec![Nanos::ZERO; cores];
    let mut total_quanta = Nanos::ZERO;
    let mut n_quanta: u64 = 0;
    let warmup = rounds / 5;

    for round in 0..rounds {
        for _ in 0..cores {
            let Reverse((expiry, c)) = heap.pop().expect("heap holds every core");
            // The dispatcher knows the expiry in advance and can begin
            // processing early so an on-time preemption lands exactly at
            // the expiry; a backlogged dispatcher delivers late and the
            // core's quantum stretches.
            let start = expiry.saturating_sub(per_quantum).max(dispatcher_free);
            let done = start + per_quantum;
            dispatcher_free = done;
            let boundary = done.max(expiry);
            if round >= warmup {
                total_quanta += boundary - last_boundary[c];
                n_quanta += 1;
            }
            last_boundary[c] = boundary;
            heap.push(Reverse((boundary + quantum, c)));
        }
    }
    total_quanta / n_quanta
}

/// Measures the average quantum the system actually schedules when its
/// configured cores are saturated with long jobs at target `quantum`.
pub fn achieved_quantum(cfg: &SystemConfig, quantum: Nanos) -> Nanos {
    match cfg.arch {
        Architecture::Centralized => {
            preemption_pipeline(cfg.n_workers, quantum, cfg.dispatch_per_quantum, 2_000)
        }
        // Forced multitasking: the worker preempts itself; each quantum
        // costs exactly the coroutine yield on top of the target,
        // independent of core count.
        Architecture::TwoLevel { .. } => quantum + cfg.preempt_overhead,
    }
}

/// Whether the system sustains `quantum` at its configured core count:
/// achieved quantum within 10% of the target.
pub fn keeps_up(cfg: &SystemConfig, quantum: Nanos) -> bool {
    achieved_quantum(cfg, quantum) <= quantum.scale(1.1)
}

/// The maximum number of cores (up to `cap`) whose quanta the dispatcher
/// can schedule on time — one point of Figure 16.
pub fn max_cores(base: &SystemConfig, quantum: Nanos, cap: usize) -> usize {
    // Achieved quantum is monotone in core count; scan downward.
    for cores in (1..=cap).rev() {
        let mut cfg = base.clone();
        cfg.n_workers = cores;
        if keeps_up(&cfg, quantum) {
            return cores;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn pipeline_unloaded_dispatcher_hits_target() {
        // 2 cores, 5µs quantum, 0.2µs per preemption: 0.4 ≪ 5, so every
        // preemption is delivered on time and the achieved quantum equals
        // the target exactly.
        let q = Nanos::from_micros(5);
        let achieved = preemption_pipeline(2, q, Nanos::from_nanos(200), 1_000);
        assert_eq!(achieved, q);
    }

    #[test]
    fn pipeline_saturated_dispatcher_stretches_quanta() {
        // 16 cores × 210ns = 3.36µs of dispatcher work per round: a 1µs
        // target must stretch to ~3.36µs.
        let achieved =
            preemption_pipeline(16, Nanos::from_micros(1), Nanos::from_nanos(210), 2_000);
        let expected = Nanos::from_nanos(16 * 210);
        let diff = achieved.as_nanos().abs_diff(expected.as_nanos());
        assert!(diff < 100, "achieved {achieved}, expected ~{expected}");
    }

    #[test]
    fn tq_sustains_16_cores_at_half_micro() {
        let cfg = presets::tq(16, Nanos::from_micros(2));
        assert_eq!(max_cores(&cfg, Nanos::from_nanos(500), 16), 16);
    }

    #[test]
    fn shinjuku_sustains_16_cores_at_5us() {
        let cfg = presets::shinjuku(16, Nanos::from_micros(5));
        assert!(keeps_up(&cfg, Nanos::from_micros(5)));
    }

    #[test]
    fn shinjuku_fails_16_cores_at_3us() {
        let cfg = presets::shinjuku(16, Nanos::from_micros(3));
        assert!(!keeps_up(&cfg, Nanos::from_micros(3)));
    }

    #[test]
    fn shinjuku_degrades_to_few_cores_at_half_micro() {
        let cfg = presets::shinjuku(16, Nanos::from_nanos(500));
        let cores = max_cores(&cfg, Nanos::from_nanos(500), 16);
        assert!(
            (2..=4).contains(&cores),
            "expected 2-3 cores at 0.5us, got {cores}"
        );
    }

    #[test]
    fn max_cores_is_monotone_in_quantum() {
        let cfg = presets::shinjuku(16, Nanos::from_micros(5));
        let a = max_cores(&cfg, Nanos::from_micros(1), 16);
        let b = max_cores(&cfg, Nanos::from_micros(3), 16);
        assert!(a <= b, "larger quanta must sustain at least as many cores");
    }
}
