//! Property-based tests of the scheduling-policy invariants.

use proptest::prelude::*;
use std::collections::VecDeque;
use tq_core::counters::WorkerCounters;
use tq_core::policy::{DispatchPolicy, Dispatcher, RunQueue, TieBreak, WorkerLoad, WorkerPolicy};
use tq_core::Nanos;

/// Every worker policy, the ranked ones with uneven per-class parameters.
const WORKER_POLICIES: [WorkerPolicy; 6] = [
    WorkerPolicy::ProcessorSharing,
    WorkerPolicy::Fcfs,
    WorkerPolicy::LeastAttainedService,
    WorkerPolicy::StrictPriority,
    WorkerPolicy::EarliestDeadline {
        slo_us: [50, 200, 1_000, 5_000],
    },
    WorkerPolicy::WeightedFair {
        weight: [4, 2, 1, 1],
    },
];

/// One step of a random run-queue workload: push a job with the given
/// rank, or take from either end.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    TakeNext,
    TakeLast,
}

fn arb_op(allow_take_last: bool) -> BoxedStrategy<Op> {
    // Pushes outnumber takes so queues actually grow (the vendored
    // prop_oneof! has no weight syntax; repetition stands in).
    if allow_take_last {
        prop_oneof![
            (0u64..500).prop_map(Op::Push),
            (0u64..500).prop_map(Op::Push),
            (0u64..500).prop_map(Op::Push),
            Just(Op::TakeNext),
            Just(Op::TakeNext),
            Just(Op::TakeLast),
        ]
        .boxed()
    } else {
        prop_oneof![
            (0u64..500).prop_map(Op::Push),
            (0u64..500).prop_map(Op::Push),
            (0u64..500).prop_map(Op::Push),
            Just(Op::TakeNext),
            Just(Op::TakeNext),
        ]
        .boxed()
    }
}

fn arb_loads(max_workers: usize) -> impl Strategy<Value = Vec<WorkerLoad>> {
    prop::collection::vec(
        (0u64..100, 0u64..1000).prop_map(|(q, s)| WorkerLoad {
            queued_jobs: q,
            serviced_quanta: s,
        }),
        1..=max_workers,
    )
}

proptest! {
    /// JSQ always picks a worker whose queue is the global minimum.
    #[test]
    fn jsq_picks_a_true_argmin(loads in arb_loads(32), seed in any::<u64>()) {
        let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::Random), loads.len(), seed);
        let w = d.pick(&loads, 0);
        let min = loads.iter().map(|l| l.queued_jobs).min().unwrap();
        prop_assert_eq!(loads[w].queued_jobs, min);
    }

    /// MSQ tie-breaking picks, among minimum-queue workers, one with the
    /// maximum serviced-quanta count.
    #[test]
    fn msq_maximizes_quanta_among_ties(loads in arb_loads(32), seed in any::<u64>()) {
        let mut d = Dispatcher::new(
            DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
            loads.len(),
            seed,
        );
        let w = d.pick(&loads, 0);
        let min = loads.iter().map(|l| l.queued_jobs).min().unwrap();
        prop_assert_eq!(loads[w].queued_jobs, min);
        let max_quanta = loads
            .iter()
            .filter(|l| l.queued_jobs == min)
            .map(|l| l.serviced_quanta)
            .max()
            .unwrap();
        prop_assert_eq!(loads[w].serviced_quanta, max_quanta);
    }

    /// Every policy returns an in-range worker for any load snapshot.
    #[test]
    fn all_policies_in_range(loads in arb_loads(16), seed in any::<u64>(), hash in any::<u64>()) {
        for policy in [
            DispatchPolicy::Jsq(TieBreak::Random),
            DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
            DispatchPolicy::Random,
            DispatchPolicy::PowerOfTwo,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::RssHash,
        ] {
            let mut d = Dispatcher::new(policy, loads.len(), seed);
            for _ in 0..8 {
                prop_assert!(d.pick(&loads, hash) < loads.len());
            }
        }
    }

    /// PS rotation fairness, under every worker policy: jobs whose ranks
    /// tie (one class, one arrival instant) and that always yield run
    /// round-robin in admission order, so after k full rotations every
    /// job has run exactly k quanta.
    #[test]
    fn ps_rotation_is_fair(
        n in 1usize..20,
        rounds in 1usize..10,
        class in 0u16..6,
        arrival in 0u64..1_000_000_000,
    ) {
        let arrival = Nanos::from_nanos(arrival);
        for policy in WORKER_POLICIES {
            let mut q = RunQueue::new(policy, n);
            for j in 0..n {
                q.push(j, policy.job_rank(class, arrival, 0));
            }
            let mut runs = vec![0u64; n];
            for turn in 0..rounds * n {
                let j = q.take_next().unwrap();
                prop_assert_eq!(j, turn % n, "{:?} broke the rotation", policy);
                runs[j] += 1;
                q.push(j, policy.job_rank(class, arrival, runs[j]));
            }
            prop_assert!(runs.iter().all(|&r| r == rounds as u64));
        }
    }

    /// FIFO run queues conserve jobs and ignore ranks: `take_next` yields
    /// the oldest queued job, `take_last` the newest, and every pushed job
    /// comes out exactly once.
    #[test]
    fn fifo_run_queue_conserves_jobs(ops in prop::collection::vec(arb_op(true), 1..120)) {
        let mut q = RunQueue::new(WorkerPolicy::ProcessorSharing, 4);
        let mut model = VecDeque::new();
        let mut pushed = 0u64;
        let mut taken = vec![];
        for op in ops {
            match op {
                Op::Push(rank) => {
                    q.push(pushed, rank);
                    model.push_back(pushed);
                    pushed += 1;
                }
                Op::TakeNext => {
                    let got = q.take_next();
                    prop_assert_eq!(got, model.pop_front());
                    taken.extend(got);
                }
                Op::TakeLast => {
                    let got = q.take_last();
                    prop_assert_eq!(got, model.pop_back());
                    taken.extend(got);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        taken.extend(std::iter::from_fn(|| q.take_next()));
        prop_assert!(q.is_empty());
        // Conservation: out = in, no loss, no duplication.
        taken.sort_unstable();
        prop_assert_eq!(taken, (0..pushed).collect::<Vec<_>>());
    }

    /// A LAS run queue always pops a job of minimum attained service (the
    /// earliest pushed among equals) and conserves jobs.
    #[test]
    fn las_run_queue_pops_minimum_and_conserves(
        ops in prop::collection::vec(arb_op(false), 1..120),
    ) {
        let policy = WorkerPolicy::LeastAttainedService;
        let mut q = RunQueue::new(policy, 4);
        let mut resident: Vec<(u64, u64)> = vec![]; // (attained, id)
        let mut pushed = 0u64;
        for op in ops {
            match op {
                Op::Push(attained) => {
                    q.push(pushed, policy.job_rank(0, Nanos::ZERO, attained));
                    resident.push((attained, pushed));
                    pushed += 1;
                }
                Op::TakeNext | Op::TakeLast => {
                    let expected = resident.iter().copied().min();
                    prop_assert_eq!(q.take_next(), expected.map(|(_, id)| id));
                    resident.retain(|&r| Some(r) != expected);
                }
            }
            prop_assert_eq!(q.len(), resident.len());
        }
        resident.sort_unstable();
        let rest: Vec<u64> = std::iter::from_fn(|| q.take_next()).collect();
        prop_assert_eq!(rest, resident.iter().map(|&(_, id)| id).collect::<Vec<_>>());
    }

    /// RoundRobin fairness: over any full lap of `n` picks, every worker
    /// is chosen exactly once, regardless of the load snapshot (the
    /// policy is load-blind by design).
    #[test]
    fn round_robin_visits_every_worker_once_per_lap(
        loads in arb_loads(24),
        seed in any::<u64>(),
        laps in 1usize..4,
    ) {
        let n = loads.len();
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin, n, seed);
        for _ in 0..laps {
            let mut picked = vec![false; n];
            for _ in 0..n {
                let w = d.pick(&loads, 0);
                prop_assert!(!picked[w], "worker {} picked twice in one lap", w);
                picked[w] = true;
            }
            prop_assert!(picked.iter().all(|&p| p));
        }
    }

    /// RssHash stability: the same flow hash always lands on the same
    /// worker, no matter how the load snapshot changes between packets.
    #[test]
    fn rss_hash_is_stable_per_flow(
        loads_a in arb_loads(16),
        loads_b in arb_loads(16),
        seed in any::<u64>(),
        hash in any::<u64>(),
    ) {
        let n = loads_a.len().min(loads_b.len());
        let mut d = Dispatcher::new(DispatchPolicy::RssHash, n, seed);
        let first = d.pick(&loads_a[..n], hash);
        for _ in 0..4 {
            prop_assert_eq!(d.pick(&loads_b[..n], hash), first);
        }
    }

    /// P2C never picks the strictly-more-loaded of its two samples: the
    /// winner's queue is a lower bound for at most one other worker, so
    /// it can never exceed every other worker's queue when n > 1.
    #[test]
    fn p2c_never_picks_a_strict_queue_maximum(loads in arb_loads(16), seed in any::<u64>()) {
        if loads.len() < 2 {
            return Ok(()); // n == 1 has no second sample to compare
        }
        let mut d = Dispatcher::new(DispatchPolicy::PowerOfTwo, loads.len(), seed);
        for _ in 0..16 {
            let w = d.pick(&loads, 0);
            // Both samples are distinct and the smaller queue wins, so the
            // pick beats (or ties) at least one other worker.
            let beaten = loads
                .iter()
                .enumerate()
                .filter(|&(i, l)| i != w && loads[w].queued_jobs <= l.queued_jobs)
                .count();
            prop_assert!(beaten >= 1, "pick {} with queue {} lost to every other worker",
                w, loads[w].queued_jobs);
        }
    }

    /// LAS rank is monotone in attained service and blind to class and
    /// arrival: ranks order exactly as attained times do.
    #[test]
    fn las_rank_is_monotone_in_attained(
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        class in 0u16..4,
        arrival in 0u64..1_000_000,
    ) {
        let p = WorkerPolicy::LeastAttainedService;
        let ra = p.job_rank(class, Nanos::from_nanos(arrival), a);
        let rb = p.job_rank(0, Nanos::ZERO, b);
        prop_assert_eq!(ra.cmp(&rb), a.cmp(&b));
    }

    /// The wrap-safe counters agree with an infinite-precision model for
    /// any operation sequence.
    #[test]
    fn counters_match_infinite_precision_model(
        ops in prop::collection::vec((0u8..3, 0u64..5), 0..200),
    ) {
        let mut c = WorkerCounters::new();
        let (mut assigned, mut finished, mut serviced, mut retired) = (0i128, 0i128, 0i128, 0i128);
        for (op, arg) in ops {
            match op {
                0 => {
                    c.on_assigned();
                    assigned += 1;
                }
                1 => {
                    c.on_quantum();
                    serviced += 1;
                }
                _ => {
                    // Only finish a job that exists and has the quanta.
                    if assigned > finished && serviced - retired >= arg as i128 {
                        c.on_finished(arg);
                        finished += 1;
                        retired += arg as i128;
                    }
                }
            }
        }
        let load = c.load();
        prop_assert_eq!(load.queued_jobs as i128, assigned - finished);
        prop_assert_eq!(load.serviced_quanta as i128, serviced - retired);
    }
}

/// Random dispatch is roughly uniform (not a proptest: one statistical
/// check with a fixed seed).
#[test]
fn random_dispatch_is_roughly_uniform() {
    let n = 8;
    let loads = vec![WorkerLoad::default(); n];
    let mut d = Dispatcher::new(DispatchPolicy::Random, n, 12345);
    let mut counts = vec![0usize; n];
    let draws = 80_000;
    for _ in 0..draws {
        counts[d.pick(&loads, 0)] += 1;
    }
    let expect = draws / n;
    for (w, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64 - expect as f64).abs() < expect as f64 * 0.06,
            "worker {w}: {c} picks vs expected {expect}"
        );
    }
}
