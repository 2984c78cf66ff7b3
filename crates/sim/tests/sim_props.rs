//! Property-based tests of the simulation engine's invariants.

use proptest::prelude::*;
use tq_core::job::Completion;
use tq_core::{ClassId, JobId, Nanos};
use tq_sim::{ClassRecorder, EventQueue, SimRng, TailStats};

proptest! {
    /// However queries interleave, the completion vector is sorted at
    /// most once per batch of recordings.
    #[test]
    fn at_most_one_sort_per_recording_batch(
        batches in prop::collection::vec(prop::collection::vec(0u64..10_000, 1..20), 1..8),
    ) {
        let mut rec = ClassRecorder::new(0.1);
        let mut id = 0u64;
        for (bi, batch) in batches.iter().enumerate() {
            for &arrival in batch {
                rec.record(Completion {
                    id: JobId(id),
                    class: ClassId(0),
                    arrival: Nanos::from_nanos(arrival),
                    service: Nanos::from_nanos(100),
                    finish: Nanos::from_nanos(arrival + 500),
                });
                id += 1;
            }
            let _ = rec.summarize_all(Nanos::ZERO);
            let _ = rec.overall_slowdown(99.9);
            prop_assert_eq!(rec.arrival_sorts(), bi as u64 + 1);
        }
    }
    /// Popping returns events sorted by time, FIFO among equal times.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1000, 0..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Nanos::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        // Stable sort of (time, insertion index) is exactly the expected
        // order.
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort();
        prop_assert_eq!(popped, expected);
    }

    /// Interleaved pushes (never into the past) and pops still come out
    /// in a globally consistent order.
    #[test]
    fn event_queue_interleaved_operation(
        deltas in prop::collection::vec(0u64..50, 1..100),
    ) {
        let mut q = EventQueue::new();
        q.push(Nanos::ZERO, 0usize);
        let mut last = Nanos::ZERO;
        let mut next_id = 1usize;
        for &d in &deltas {
            if let Some((t, _)) = q.pop() {
                prop_assert!(t >= last, "time went backwards");
                last = t;
                // Schedule a follow-up event relative to now.
                q.push(t + Nanos::from_nanos(d), next_id);
                next_id += 1;
            }
        }
    }

    /// The percentile estimator matches the naive sorted definition.
    #[test]
    fn percentile_matches_naive(
        samples in prop::collection::vec(0u64..100_000, 1..500),
        p in 1u32..=1000,
    ) {
        let p = p as f64 / 10.0; // 0.1% .. 100%
        let mut stats: TailStats = samples.iter().copied().collect();
        let got = stats.percentile(p);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
        prop_assert_eq!(got, sorted[rank.min(sorted.len()) - 1]);
    }

    /// Percentiles are monotone in p.
    #[test]
    fn percentiles_monotone(samples in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut stats: TailStats = samples.iter().copied().collect();
        let mut prev = 0;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let v = stats.percentile(p);
            prop_assert!(v >= prev);
            prev = v;
        }
    }

    /// Exponential samples are non-negative and the generator never
    /// produces the same stream for different seeds (sanity, not crypto).
    #[test]
    fn exp_samples_nonnegative(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let _ = rng.exp_nanos(1_000.0); // must not panic
        }
    }

    /// weighted_index never exceeds the table length.
    #[test]
    fn weighted_index_in_bounds(
        weights in prop::collection::vec(0.01f64..10.0, 1..6),
        seed in any::<u64>(),
    ) {
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cum.push(acc);
        }
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.weighted_index(&cum) < cum.len());
        }
    }
}
