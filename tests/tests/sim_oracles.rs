//! `tq_sim`'s event queues and single-pass metrics against the seed
//! implementations kept in `tq_integration::oracle`: the packed 4-ary
//! `EventQueue` and the sorted-array `TagQueue` must deliver the seed
//! `BinaryHeap` queue's exact `(time, event)` stream, and
//! `ClassRecorder::summarize_all` must reproduce the seed's multi-pass
//! percentiles exactly.

use proptest::prelude::*;
use tq_core::job::Completion;
use tq_core::{ClassId, JobId, Nanos};
use tq_sim::ClassRecorder;

mod events {
    use super::*;
    use tq_integration::oracle::events::assert_matches;
    use tq_sim::{EventQueue, TagQueue};

    /// `steps` steps of a deterministic mix drawn by xorshift64 from
    /// `seed`: a pop one time in three, else a push up to 1 µs ahead.
    fn xorshift_script(seed: u64, steps: usize) -> impl Iterator<Item = (bool, u64)> {
        let mut state = seed;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..steps).map(move |_| (rng() % 3 == 0, rng() % 1_000))
    }

    #[test]
    fn matches_reference_on_mixed_workload() {
        assert_matches(
            &mut EventQueue::with_capacity(8),
            xorshift_script(0x12345678, 10_000),
        );
    }

    #[test]
    fn tag_queue_matches_reference_on_mixed_workload() {
        // The tag-in-key packing must not change the delivery order in
        // any way. Two pushes in three: sized for the script's length.
        assert_matches(
            &mut TagQueue::with_capacity(10_000),
            xorshift_script(0xFEED5EED, 10_000),
        );
    }

    proptest! {
        /// Streams, lengths, and peeks agree under an arbitrary
        /// interleaving of pushes and pops.
        #[test]
        fn event_queue_matches_reference(
            ops in prop::collection::vec((any::<bool>(), 0u64..200), 1..400),
        ) {
            assert_matches(&mut EventQueue::new(), ops);
        }

        /// The same for `TagQueue`: tags below 2^14 (the engines' index
        /// space), times at most 7 ns apart so most pushes tie with
        /// some queued event, and peeks after every step.
        #[test]
        fn tag_queue_matches_reference(
            ops in prop::collection::vec((any::<bool>(), 0u64..8), 1..2_000),
        ) {
            let mut q = TagQueue::with_capacity(ops.len());
            assert_matches(&mut q, ops);
        }
    }
}

mod metrics {
    use super::*;
    use tq_integration::oracle::metrics::{assert_matches, summarize_all};

    fn comp(id: u64, class: u16, arrival_ns: u64, service_ns: u64, finish_ns: u64) -> Completion {
        Completion {
            id: JobId(id),
            class: ClassId(class),
            arrival: Nanos::from_nanos(arrival_ns),
            service: Nanos::from_nanos(service_ns),
            finish: Nanos::from_nanos(finish_ns),
        }
    }

    #[test]
    fn summarize_all_matches_reference() {
        let mut rec = ClassRecorder::new(0.1);
        // A mix of classes, out-of-order arrivals, and duplicate arrival
        // times (id breaks the tie).
        let raw = [
            comp(3, 1, 40, 200, 900),
            comp(0, 0, 0, 100, 350),
            comp(1, 0, 20, 100, 150),
            comp(5, 2, 20, 400, 2_000),
            comp(2, 1, 10, 300, 700),
            comp(4, 0, 80, 100, 1_000),
            comp(6, 0, 80, 50, 210),
        ];
        for c in raw {
            rec.record(c);
        }
        let extra = Nanos::from_micros(5);
        let fast = rec.summarize_all(extra);
        let slow = summarize_all(rec.completions(), 0.1, extra);
        assert_matches(&fast, &slow);
    }

    proptest! {
        /// The same on arbitrary completion sets and warm-up fractions.
        #[test]
        fn summarize_all_matches_multipass_reference(
            jobs in prop::collection::vec(
                // (arrival, service − 1, extra wait, class)
                (0u64..1_000_000, 0u64..100_000, 0u64..1_000_000, 0u16..3),
                0..300,
            ),
            warmup_choice in 0usize..3,
            extra_us in 0u64..10,
        ) {
            let warmup = [0.0, 0.1, 0.5][warmup_choice];
            let extra = Nanos::from_micros(extra_us);
            let mut rec = ClassRecorder::new(warmup);
            for (i, &(arrival, service, wait, class)) in jobs.iter().enumerate() {
                let service = service + 1;
                rec.record(comp(i as u64, class, arrival, service, arrival + service + wait));
            }
            let fast = rec.summarize_all(extra);
            let slow = summarize_all(rec.completions(), warmup, extra);
            assert_matches(&fast, &slow);
        }
    }
}
