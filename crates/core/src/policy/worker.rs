//! Worker-local quantum scheduling.
//!
//! Each TQ worker core runs a *scheduler coroutine* that interleaves quanta
//! of its resident jobs. The paper's workers emulate processor sharing (PS)
//! with a FIFO rotation: yielded coroutines re-enter at the tail and the
//! head is resumed next (§4). [`RunQueue`] is that rotation, or the
//! min-rank queue of a ranked [`WorkerPolicy`]; [`steal_victim`] is the
//! work-stealing thief's choice of queue. The simulators and the live
//! runtime's workers both decide through these two.

use super::RankQueue;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The quantum scheduling discipline a worker core applies to its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkerPolicy {
    /// Processor sharing emulated by round-robin quanta — TQ's default,
    /// provably tail-optimal for heavy-tailed service distributions.
    ProcessorSharing,
    /// First-come-first-served run-to-completion (Caladan's discipline and
    /// the TQ-FCFS ablation): a job, once started, is never preempted.
    Fcfs,
    /// Least-attained-service: each quantum goes to the resident job that
    /// has received the least service so far. §3.1 notes TQ's run-time
    /// yield decision "supports dynamic quantum sizes, which are needed
    /// for scheduling policies like least-attained-service" — this is
    /// that policy, as an extension beyond the paper's evaluation.
    LeastAttainedService,
    /// Strict priority by class: class 0 always runs before class 1, and
    /// so on; within a class, equal ranks round-robin like PS. A scenario
    /// the paper never ran, expressed through the rank layer.
    StrictPriority,
    /// Earliest-deadline-first over per-class SLOs: a job's rank is its
    /// arrival time plus its class's SLO in microseconds, so the job
    /// closest to violating its deadline runs next. Classes beyond the
    /// fourth use the last entry.
    EarliestDeadline {
        /// Per-class SLO budget (µs); index is `ClassId`, clamped to 3.
        slo_us: [u32; 4],
    },
    /// Weighted fair sharing across classes/tenants: rank is attained
    /// service scaled inversely by the class's weight (start-time fair
    /// queueing virtual time), so a weight-4 class receives 4× the
    /// service rate of a weight-1 class under contention.
    WeightedFair {
        /// Per-class weight (0 treated as 1); index is `ClassId`,
        /// clamped to 3.
        weight: [u32; 4],
    },
}

impl WorkerPolicy {
    /// Whether this policy preempts jobs at quantum boundaries.
    pub fn preempts(self) -> bool {
        !matches!(self, WorkerPolicy::Fcfs)
    }

    /// Whether the run queue orders jobs by a [rank](WorkerPolicy::job_rank)
    /// rather than plain FIFO rotation. Ranked policies get the
    /// [`RunQueue::Ranked`] arm; work stealing (which takes a queue's
    /// *tail*) is undefined for them.
    pub fn is_ranked(self) -> bool {
        matches!(
            self,
            WorkerPolicy::LeastAttainedService
                | WorkerPolicy::StrictPriority
                | WorkerPolicy::EarliestDeadline { .. }
                | WorkerPolicy::WeightedFair { .. }
        )
    }

    /// The worker-side rank function — the quantum-ordering counterpart of
    /// the dispatch layer's `RankPolicy`: the resident job with the
    /// *minimum* rank runs the next quantum, ties breaking FIFO by
    /// admission order (the PS rotation among equals).
    ///
    /// `attained` is the job's attained service in the caller's native
    /// unit — nanoseconds in the virtual-time engines, whole quanta in
    /// the live runtime. Every built-in ranked policy is monotone in
    /// `attained` or ignores it, so the choice of unit changes only
    /// granularity, never the ordering contract. FIFO policies
    /// (PS/FCFS) rank everything 0, which their [`RunQueue`] arm ignores.
    ///
    /// # Saturation contract
    ///
    /// Ranks are `u64`s and the arithmetic **saturates instead of
    /// wrapping**, which deliberately collapses the far boundary onto a
    /// single rank:
    ///
    /// * `EarliestDeadline` computes `arrival + slo` with saturating
    ///   add/mul. Deadlines past `u64::MAX` ns (about 584 years) all
    ///   rank `u64::MAX`: distinct very-late deadlines become ties, and
    ///   ties break FIFO by admission order. A wrapping add would
    ///   instead rank an astronomically late deadline *first* — the
    ///   saturating collapse is the safe failure mode.
    /// * `WeightedFair` clamps `attained × 1024 / weight` at
    ///   `u64::MAX`. Ratios beyond the clamp flatten onto one rank and
    ///   likewise degrade to FIFO among themselves, rather than
    ///   wrapping back to the front of the queue.
    ///
    /// In both cases the ordering *below* the saturation point is exact,
    /// and saturated jobs never overtake unsaturated ones.
    #[inline]
    pub fn job_rank(self, class: u16, arrival: crate::time::Nanos, attained: u64) -> u64 {
        // A bit test: the match below is a jump table, and every live
        // quantum of a FIFO policy asks for its rank (≈ 2% of `rt_slice`).
        if !self.is_ranked() {
            return 0;
        }
        match self {
            WorkerPolicy::ProcessorSharing | WorkerPolicy::Fcfs => 0,
            WorkerPolicy::LeastAttainedService => attained,
            WorkerPolicy::StrictPriority => class as u64,
            WorkerPolicy::EarliestDeadline { slo_us } => {
                let slo = slo_us[(class as usize).min(3)] as u64;
                arrival.as_nanos().saturating_add(slo.saturating_mul(1_000))
            }
            WorkerPolicy::WeightedFair { weight } => {
                let w = weight[(class as usize).min(3)].max(1) as u128;
                ((attained as u128 * 1_024 / w).min(u64::MAX as u128)) as u64
            }
        }
    }
}

/// One worker's run queue of job handles `H` (a slab index, a slot
/// index, or the job itself), under its [`WorkerPolicy`].
///
/// New and yielded jobs both [`push`](RunQueue::push); the job
/// [`take_next`](RunQueue::take_next) returns runs the next quantum. PS and
/// FCFS get the FIFO arm: every push joins the tail, which is the paper's
/// round-robin emulation of processor sharing. Ranked policies get the
/// min-rank arm keyed by [`WorkerPolicy::job_rank`], whose equal ranks pop
/// in push order — so jobs that tie rotate exactly like PS.
///
/// # Example
///
/// ```
/// use tq_core::policy::{RunQueue, WorkerPolicy};
///
/// let mut q = RunQueue::new(WorkerPolicy::ProcessorSharing, 4);
/// q.push("a", 0);
/// q.push("b", 0);
/// let job = q.take_next().unwrap();   // "a" runs a quantum…
/// q.push(job, 0);                     // …yields, re-enters at the tail
/// assert_eq!(q.take_next(), Some("b"));
/// ```
#[derive(Debug, Clone)]
pub enum RunQueue<H> {
    /// FIFO rotation: PS and FCFS.
    Fifo(VecDeque<H>),
    /// Minimum rank first, ties in push order.
    Ranked(RankQueue<H>),
}

impl<H> RunQueue<H> {
    /// An empty queue for `policy`, with space for `cap` jobs.
    pub fn new(policy: WorkerPolicy, cap: usize) -> Self {
        if policy.is_ranked() {
            RunQueue::Ranked(RankQueue::with_capacity(cap))
        } else {
            RunQueue::Fifo(VecDeque::with_capacity(cap))
        }
    }

    /// Queues a new or yielded job; `rank` is its
    /// [`WorkerPolicy::job_rank`] (ignored by FIFO).
    #[inline]
    pub fn push(&mut self, h: H, rank: u64) {
        match self {
            RunQueue::Fifo(q) => q.push_back(h),
            RunQueue::Ranked(q) => q.push(rank, h),
        }
    }

    /// Takes the job to run next, or `None` if the worker is idle.
    #[inline]
    pub fn take_next(&mut self) -> Option<H> {
        match self {
            RunQueue::Fifo(q) => q.pop_front(),
            RunQueue::Ranked(q) => q.pop().map(|(_, h)| h),
        }
    }

    /// Removes the job that would run last: what a work-stealing thief
    /// takes from its victim.
    ///
    /// # Panics
    ///
    /// Panics for ranked queues: stealing is only configured with FIFO
    /// disciplines.
    #[inline]
    pub fn take_last(&mut self) -> Option<H> {
        match self {
            RunQueue::Fifo(q) => q.pop_back(),
            RunQueue::Ranked(_) => {
                panic!("work stealing is not defined for LAS or other ranked queues")
            }
        }
    }

    /// Number of queued jobs.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            RunQueue::Fifo(q) => q.len(),
            RunQueue::Ranked(q) => q.len(),
        }
    }

    /// Whether no job is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The queue a work-stealing thief raids, given `(index, length)` of each
/// candidate queue in ascending index order (the thief leaves out its
/// own): the longest non-empty one, ties to the lowest index. `None` when
/// every candidate is empty.
///
/// ```
/// use tq_core::policy::steal_victim;
///
/// assert_eq!(steal_victim([(0, 0), (1, 2), (2, 1), (3, 2)]), Some(1));
/// assert_eq!(steal_victim([(1, 0), (2, 0)]), None);
/// ```
pub fn steal_victim(lens: impl IntoIterator<Item = (usize, usize)>) -> Option<usize> {
    let mut victim = None;
    let mut best = 0;
    for (i, len) in lens {
        if len > best {
            best = len;
            victim = Some(i);
        }
    }
    victim
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A PS run queue holding `0..n`, admitted in order.
    fn ps(n: u32) -> RunQueue<u32> {
        let mut q = RunQueue::new(WorkerPolicy::ProcessorSharing, 0);
        for j in 0..n {
            q.push(j, 0);
        }
        q
    }

    #[test]
    fn rotation_is_round_robin() {
        let mut q = ps(3);
        let mut order = Vec::new();
        // Two full rotations with every job yielding.
        for _ in 0..6 {
            let j = q.take_next().unwrap();
            order.push(j);
            q.push(j, 0);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn finished_jobs_leave_the_rotation() {
        let mut q = ps(3);
        let j = q.take_next().unwrap();
        assert_eq!(j, 0);
        // job 0 finishes: do not push it again.
        assert_eq!(q.len(), 2);
        assert_eq!(q.take_next(), Some(1));
        assert_eq!(q.take_next(), Some(2));
        assert!(q.is_empty());
        assert_eq!(q.take_next(), None);
    }

    #[test]
    fn new_arrivals_join_at_tail() {
        let mut q = ps(0);
        q.push(1, 0);
        let j = q.take_next().unwrap();
        q.push(2, 0);
        q.push(j, 0);
        assert_eq!(q.take_next(), Some(2));
        assert_eq!(q.take_next(), Some(1));
    }

    #[test]
    fn fifo_keeps_order() {
        // The FIFO arm ignores ranks: a LAS-style key does not reorder it.
        let mut q = ps(0);
        q.push(1, 50);
        q.push(2, 0);
        assert_eq!(q.take_next(), Some(1));
        assert_eq!(q.take_next(), Some(2));
    }

    #[test]
    fn ranked_arm_prefers_least_attained() {
        let mut q = RunQueue::new(WorkerPolicy::LeastAttainedService, 0);
        q.push(1, 50);
        q.push(2, 0);
        q.push(3, 10);
        assert_eq!(q.take_next(), Some(2));
        assert_eq!(q.take_next(), Some(3));
        assert_eq!(q.take_next(), Some(1));
    }

    #[test]
    fn strict_priority_prefers_lowest_class() {
        use crate::time::Nanos;
        let p = WorkerPolicy::StrictPriority;
        let mut q = RunQueue::new(p, 0);
        q.push("class 2", p.job_rank(2, Nanos::ZERO, 0));
        q.push("class 0", p.job_rank(0, Nanos::ZERO, 0));
        assert_eq!(q.take_next(), Some("class 0"), "class 0 outranks class 2");
        assert_eq!(q.take_next(), Some("class 2"));
    }

    #[test]
    #[should_panic(expected = "not defined for LAS")]
    fn las_rejects_stealing() {
        let mut q = RunQueue::new(WorkerPolicy::LeastAttainedService, 0);
        q.push(1, 0);
        let _ = q.take_last();
    }

    #[test]
    fn policy_preemption_flags() {
        assert!(WorkerPolicy::ProcessorSharing.preempts());
        assert!(!WorkerPolicy::Fcfs.preempts());
        assert!(WorkerPolicy::LeastAttainedService.preempts());
        assert!(WorkerPolicy::StrictPriority.preempts());
        assert!(WorkerPolicy::EarliestDeadline { slo_us: [100; 4] }.preempts());
        assert!(WorkerPolicy::WeightedFair { weight: [1; 4] }.preempts());
    }

    #[test]
    fn ranked_policy_flags() {
        assert!(!WorkerPolicy::ProcessorSharing.is_ranked());
        assert!(!WorkerPolicy::Fcfs.is_ranked());
        assert!(WorkerPolicy::LeastAttainedService.is_ranked());
        assert!(WorkerPolicy::StrictPriority.is_ranked());
        assert!(WorkerPolicy::EarliestDeadline { slo_us: [100; 4] }.is_ranked());
        assert!(WorkerPolicy::WeightedFair { weight: [1; 4] }.is_ranked());
    }

    #[test]
    fn strict_priority_ranks_by_class_only() {
        use crate::time::Nanos;
        let p = WorkerPolicy::StrictPriority;
        assert!(p.job_rank(0, Nanos::from_micros(99), 1_000_000) < p.job_rank(1, Nanos::ZERO, 0));
        assert_eq!(
            p.job_rank(2, Nanos::ZERO, 5),
            p.job_rank(2, Nanos::from_micros(1), 7)
        );
    }

    #[test]
    fn earliest_deadline_ranks_by_arrival_plus_slo() {
        use crate::time::Nanos;
        let p = WorkerPolicy::EarliestDeadline {
            slo_us: [50, 1_000, 1_000, 1_000],
        };
        // A tight-SLO job arriving later still beats a loose-SLO earlier one.
        let tight = p.job_rank(0, Nanos::from_micros(100), 0);
        let loose = p.job_rank(1, Nanos::from_micros(10), 0);
        assert_eq!(tight, Nanos::from_micros(150).as_nanos());
        assert_eq!(loose, Nanos::from_micros(1_010).as_nanos());
        assert!(tight < loose);
        // Classes beyond the table reuse the last SLO entry.
        assert_eq!(p.job_rank(9, Nanos::ZERO, 0), p.job_rank(3, Nanos::ZERO, 0));
    }

    #[test]
    fn weighted_fair_scales_attained_by_weight() {
        use crate::time::Nanos;
        let p = WorkerPolicy::WeightedFair {
            weight: [4, 1, 1, 1],
        };
        // With 4x the weight, class 0 is still ahead after 3x the service.
        assert!(p.job_rank(0, Nanos::ZERO, 3_000) < p.job_rank(1, Nanos::ZERO, 1_000));
        assert!(p.job_rank(0, Nanos::ZERO, 5_000) > p.job_rank(1, Nanos::ZERO, 1_000));
        // Zero weight is treated as 1, not a division by zero.
        let z = WorkerPolicy::WeightedFair { weight: [0; 4] };
        assert_eq!(z.job_rank(0, Nanos::ZERO, 7), 7 * 1_024);
    }

    #[test]
    fn edf_saturation_collapses_late_deadlines_to_fifo_ties() {
        use crate::time::Nanos;
        let p = WorkerPolicy::EarliestDeadline {
            slo_us: [50, 1_000, 1_000, 1_000],
        };
        // Two distinct arrivals whose deadlines both overflow u64 ns:
        // the saturating add collapses them onto one rank (a tie), it
        // does not wrap one of them to the front of the queue.
        let late_a = p.job_rank(0, Nanos::from_nanos(u64::MAX - 10), 0);
        let late_b = p.job_rank(0, Nanos::from_nanos(u64::MAX - 5), 0);
        assert_eq!(late_a, u64::MAX);
        assert_eq!(late_a, late_b);
        // An unsaturated deadline still beats every saturated one.
        assert!(p.job_rank(0, Nanos::ZERO, 0) < late_a);
        // Exactly at the boundary: the last representable deadline is
        // distinct from the saturated pile-up.
        let slo_ns = 50_u64 * 1_000;
        let at_edge = p.job_rank(0, Nanos::from_nanos(u64::MAX - slo_ns), 0);
        let past_edge = p.job_rank(0, Nanos::from_nanos(u64::MAX - slo_ns + 1), 0);
        assert_eq!(at_edge, u64::MAX);
        assert_eq!(past_edge, u64::MAX);
        let below_edge = p.job_rank(0, Nanos::from_nanos(u64::MAX - slo_ns - 1), 0);
        assert_eq!(below_edge, u64::MAX - 1);
    }

    #[test]
    fn wfq_clamp_flattens_extreme_ratios_to_fifo_ties() {
        use crate::time::Nanos;
        let p = WorkerPolicy::WeightedFair { weight: [1; 4] };
        // attained × 1024 overflows u64 for both: distinct extreme
        // attained values clamp onto one rank instead of wrapping.
        let huge_a = p.job_rank(0, Nanos::ZERO, u64::MAX);
        let huge_b = p.job_rank(0, Nanos::ZERO, u64::MAX / 2);
        assert_eq!(huge_a, u64::MAX);
        assert_eq!(huge_a, huge_b);
        // The clamp boundary: u64::MAX/1024 is the last attained value
        // with an exact rank under weight 1.
        let edge = u64::MAX / 1_024;
        assert_eq!(p.job_rank(0, Nanos::ZERO, edge), edge * 1_024);
        assert_eq!(p.job_rank(0, Nanos::ZERO, edge + 1), u64::MAX);
        // Unsaturated ranks stay exact and below the saturated pile-up.
        assert!(p.job_rank(0, Nanos::ZERO, 1) < huge_a);
    }

    #[test]
    fn saturated_ranks_tie_break_fifo_in_the_rank_queue() {
        use crate::policy::RankQueue;
        use crate::time::Nanos;
        // The documented failure mode end to end: jobs whose ranks all
        // saturate degrade to FIFO by admission order in the min-rank
        // queue, never to a reordering.
        let p = WorkerPolicy::EarliestDeadline { slo_us: [50; 4] };
        let mut q = RankQueue::new();
        for (i, arrival) in [u64::MAX - 3, u64::MAX - 1, u64::MAX - 2]
            .iter()
            .enumerate()
        {
            q.push(p.job_rank(0, Nanos::from_nanos(*arrival), 0), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, j)| j)).collect();
        assert_eq!(order, vec![0, 1, 2], "saturated ties must pop FIFO");
    }

    #[test]
    fn las_rank_is_attained_service() {
        use crate::time::Nanos;
        let p = WorkerPolicy::LeastAttainedService;
        assert_eq!(p.job_rank(0, Nanos::from_micros(5), 42), 42);
        assert!(p.job_rank(1, Nanos::ZERO, 1) < p.job_rank(0, Nanos::ZERO, 2));
    }

    #[test]
    fn las_ties_round_robin_by_admission() {
        let mut q = RunQueue::new(WorkerPolicy::LeastAttainedService, 0);
        q.push(1, 0);
        q.push(2, 0);
        q.push(3, 0);
        // Equal attainment: FIFO among ties, exactly like a PS rotation.
        assert_eq!(q.take_next(), Some(1));
        q.push(1, 1);
        assert_eq!(q.take_next(), Some(2));
        assert_eq!(q.take_next(), Some(3));
        assert_eq!(q.take_next(), Some(1));
    }
}
