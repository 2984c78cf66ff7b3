//! The programmable policy layer (PIFO-style rank + tie-break).
//!
//! Programmable packet scheduling showed that most useful scheduling
//! policies decompose into a tiny *rank function* over exposed scheduler
//! state plus a fixed datapath that picks the minimum rank. This module is
//! that abstraction for TQ's dispatcher: a policy is a [`RankPolicy`] —
//! `rank(&PolicyView) -> u64`, a [`TieRule`], and optional sampling /
//! cursor hooks — and [`RankedDispatcher`] is the one generic min-rank
//! scan every policy runs through. The enum-matched [`Dispatcher`] is a
//! thin wrapper over monomorphized `RankedDispatcher` instances, so the
//! decision streams (including RNG consumption) of the pre-refactor
//! hand-coded arms are preserved bit-exactly; differential tests in
//! `tq-queueing` and `crates/core/tests` pin that equivalence.
//!
//! Worker-side quantum ordering uses the same idea: a policy maps a
//! resident job to a `u64` rank (see `WorkerPolicy::job_rank`) and every
//! worker, simulated or live, pops the minimum from one generic packed
//! min-rank queue, [`RankQueue`] (the ranked arm of [`RunQueue`]) — the
//! [`KeyHeap`] the simulators' `EventQueue` uses too, keyed by
//! `(rank, admission seq)` instead of virtual time.
//!
//! [`Dispatcher`]: super::Dispatcher
//! [`RunQueue`]: super::RunQueue

use super::dispatch::{TieBreak, WorkerLoad};
use super::PolicyRng;
use crate::heap::{pack, KeyHeap};

/// One candidate worker's view of the scheduler state a rank function may
/// consult. Blindness is enforced by construction: nothing here describes
/// the *job* beyond its flow hash — only the candidate worker's load.
///
/// In the engines the load fields are read from per-burst snapshots (live
/// runtime) or the live counters (simulators), so a rank function sees
/// state that may be one dispatch batch stale — same staleness the
/// hand-coded policies always had.
#[derive(Debug, Clone, Copy)]
pub struct PolicyView {
    /// The candidate worker index.
    pub worker: usize,
    /// Total workers decisions are made over.
    pub n_workers: usize,
    /// Unfinished jobs resident on the candidate (JSQ's signal).
    pub queued_jobs: u64,
    /// Quanta serviced for the candidate's current jobs (MSQ's signal).
    pub serviced_quanta: u64,
    /// The request's flow hash (what the NIC's RSS would compute).
    pub flow_hash: u64,
}

/// How a [`RankedDispatcher`] resolves equal minimum ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieRule {
    /// Deterministic: the lowest-indexed worker with the minimum rank.
    LowestIndex,
    /// Uniform among tied workers; consumes one RNG draw *only* when the
    /// minimum is shared (a unique minimum costs no randomness).
    Random,
    /// Uniform among tied workers, always consuming one RNG draw — the
    /// contract of a constant-rank policy like uniform-random dispatch,
    /// whose draw count must not depend on the (ignored) load vector.
    RandomAlways,
    /// Among tied workers, the one whose current jobs have received the
    /// most quanta (TQ's MSQ rule); further ties go to the lowest index.
    MaxServicedQuanta,
}

impl From<TieBreak> for TieRule {
    fn from(tie: TieBreak) -> Self {
        match tie {
            TieBreak::Random => TieRule::Random,
            TieBreak::MaxServicedQuanta => TieRule::MaxServicedQuanta,
        }
    }
}

/// The candidate subset a policy's sampling hook selects before ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    /// Rank every candidate (the default; JSQ, RSS, round-robin, …).
    All,
    /// Rank exactly these two (power-of-two-choices). The first sample
    /// wins rank ties — d-choices breaks ties toward its first probe.
    Pair(usize, usize),
    /// The decision is forced (single candidate, pinned fast path).
    One(usize),
}

/// A dispatch policy as a rank function: the datapath computes `rank` for
/// each candidate and picks the minimum under [`tie_break`].
///
/// The default hooks make a policy a pure rank function; override
/// [`sample_full`]/[`sample_list`] to restrict the candidate set first
/// (power-of-d probing) and [`on_pick`] to advance cursors. [`admit`] is
/// the admission/shed hook: returning `false` tells the caller to shed
/// the request instead of queueing it (no built-in policy sheds; the hook
/// exists so overload policies can, without another trait).
///
/// [`tie_break`]: RankPolicy::tie_break
/// [`sample_full`]: RankPolicy::sample_full
/// [`sample_list`]: RankPolicy::sample_list
/// [`on_pick`]: RankPolicy::on_pick
/// [`admit`]: RankPolicy::admit
pub trait RankPolicy {
    /// The candidate's rank; the dispatcher picks the minimum. Must be
    /// cheap — it runs once per candidate per decision.
    fn rank(&self, view: &PolicyView) -> u64;

    /// How equal minimum ranks resolve.
    fn tie_break(&self) -> TieRule {
        TieRule::LowestIndex
    }

    /// Restricts the candidate set when every worker `0..n_workers` is
    /// eligible (the common path — no exclusion mask).
    fn sample_full(&mut self, _n_workers: usize, _rng: &mut PolicyRng) -> Sample {
        Sample::All
    }

    /// Restricts the candidate set when only `allowed` (ascending worker
    /// indices, never empty) are eligible — the full-ring retry path.
    fn sample_list(&mut self, _allowed: &[usize], _rng: &mut PolicyRng) -> Sample {
        Sample::All
    }

    /// Observes the decision (cursor advancement for round-robin).
    fn on_pick(&mut self, _picked: usize, _n_workers: usize) {}

    /// Admission hook: `false` means shed this request instead of
    /// dispatching it. Defaults to admitting everything.
    fn admit(&self, _view: &PolicyView) -> bool {
        true
    }
}

/// Read access to per-worker load counters, abstracting over the
/// `&[WorkerLoad]` snapshot and the engines' struct-of-arrays layout so
/// the min-rank scan monomorphizes per layout with no per-element branch.
pub trait Loads {
    /// Number of workers covered.
    fn len(&self) -> usize;
    /// Whether the snapshot covers zero workers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Unfinished jobs resident on worker `w`.
    fn queued_jobs(&self, w: usize) -> u64;
    /// Quanta serviced for worker `w`'s current jobs.
    fn serviced_quanta(&self, w: usize) -> u64;
}

impl Loads for [WorkerLoad] {
    #[inline(always)]
    fn len(&self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn queued_jobs(&self, w: usize) -> u64 {
        self[w].queued_jobs
    }

    #[inline(always)]
    fn serviced_quanta(&self, w: usize) -> u64 {
        self[w].serviced_quanta
    }
}

/// The struct-of-arrays load layout the simulators keep hot: two flat
/// `u64` slices indexed by worker.
#[derive(Debug, Clone, Copy)]
pub struct SplitLoads<'a> {
    /// `queued_jobs[w]` for each worker.
    pub queued_jobs: &'a [u64],
    /// `serviced_quanta[w]` for each worker.
    pub serviced_quanta: &'a [u64],
}

impl Loads for SplitLoads<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.queued_jobs.len()
    }

    #[inline(always)]
    fn queued_jobs(&self, w: usize) -> u64 {
        self.queued_jobs[w]
    }

    #[inline(always)]
    fn serviced_quanta(&self, w: usize) -> u64 {
        self.serviced_quanta[w]
    }
}

/// The fixed datapath: one generic min-rank scan any [`RankPolicy`] runs
/// through. [`Dispatcher`](super::Dispatcher) wraps monomorphized
/// instances of this for the built-in policies; new policies use it
/// directly.
#[derive(Debug, Clone)]
pub struct RankedDispatcher<P> {
    policy: P,
    n_workers: usize,
    rng: PolicyRng,
    scratch: Vec<usize>,
}

impl<P: RankPolicy> RankedDispatcher<P> {
    /// Creates a dispatcher for `n_workers` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers` is zero.
    pub fn new(policy: P, n_workers: usize, seed: u64) -> Self {
        assert!(n_workers > 0, "dispatcher needs at least one worker");
        RankedDispatcher {
            policy,
            n_workers,
            rng: PolicyRng::new(seed),
            scratch: Vec::with_capacity(n_workers),
        }
    }

    /// The policy driving this dispatcher.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The number of workers decisions are made over.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Picks the minimum-rank worker among all `n_workers`.
    #[inline]
    pub fn pick<L: Loads + ?Sized>(&mut self, loads: &L, flow_hash: u64) -> usize {
        self.pick_masked(loads, flow_hash, 0)
    }

    /// [`pick`](RankedDispatcher::pick) restricted to workers not in
    /// `banned` (bit `w` set = worker `w` excluded; indices ≥ 64 are
    /// never banned).
    ///
    /// # Panics
    ///
    /// Panics if every worker is banned.
    pub fn pick_masked<L: Loads + ?Sized>(
        &mut self,
        loads: &L,
        flow_hash: u64,
        banned: u64,
    ) -> usize {
        debug_assert_eq!(loads.len(), self.n_workers, "load snapshot size mismatch");
        let n = self.n_workers;
        let sample = if banned == 0 {
            self.policy.sample_full(n, &mut self.rng)
        } else {
            let allowed = |w: usize| w >= 64 || banned & (1u64 << w) == 0;
            self.scratch.clear();
            self.scratch.extend((0..n).filter(|&w| allowed(w)));
            assert!(
                !self.scratch.is_empty(),
                "every worker is banned; caller must reset the exclusion mask"
            );
            self.policy.sample_list(&self.scratch, &mut self.rng)
        };
        let picked = match sample {
            Sample::One(w) => w,
            Sample::Pair(a, b) => {
                let ra = self.policy.rank(&make_view(loads, a, n, flow_hash));
                let rb = self.policy.rank(&make_view(loads, b, n, flow_hash));
                if rb < ra { b } else { a }
            }
            Sample::All => {
                if banned == 0 {
                    scan_min_rank(&self.policy, &mut self.rng, loads, flow_hash, n, 0..n)
                } else {
                    // `scratch` was filled above; move it out so the scan
                    // can borrow the policy and RNG mutably alongside it.
                    let scratch = std::mem::take(&mut self.scratch);
                    let w = scan_min_rank(
                        &self.policy,
                        &mut self.rng,
                        loads,
                        flow_hash,
                        n,
                        scratch.iter().copied(),
                    );
                    self.scratch = scratch;
                    w
                }
            }
        };
        self.policy.on_pick(picked, n);
        picked
    }
}

#[inline(always)]
fn make_view<L: Loads + ?Sized>(loads: &L, w: usize, n: usize, flow_hash: u64) -> PolicyView {
    PolicyView {
        worker: w,
        n_workers: n,
        queued_jobs: loads.queued_jobs(w),
        serviced_quanta: loads.serviced_quanta(w),
        flow_hash,
    }
}

/// One forward pass tracking the minimum rank, its lowest-indexed holder,
/// the tie count, and the MSQ winner among ties — every [`TieRule`]
/// resolves from this single scan (plus one nth-tie re-scan for random
/// rules, which are off the load-sensitive hot path).
fn scan_min_rank<P, L, C>(
    policy: &P,
    rng: &mut PolicyRng,
    loads: &L,
    flow_hash: u64,
    n: usize,
    candidates: C,
) -> usize
where
    P: RankPolicy,
    L: Loads + ?Sized,
    C: Iterator<Item = usize> + Clone,
{
    let mut it = candidates.clone();
    let first = it.next().expect("non-empty candidate set");
    let mut best_rank = policy.rank(&make_view(loads, first, n, flow_hash));
    let mut best_w = first;
    let mut ties = 1usize;
    let mut msq_w = first;
    let mut msq_q = loads.serviced_quanta(first);
    for w in it {
        let r = policy.rank(&make_view(loads, w, n, flow_hash));
        if r < best_rank {
            best_rank = r;
            best_w = w;
            ties = 1;
            msq_w = w;
            msq_q = loads.serviced_quanta(w);
        } else if r == best_rank {
            ties += 1;
            let q = loads.serviced_quanta(w);
            // Strictly greater keeps the lowest index among quanta ties.
            if q > msq_q {
                msq_q = q;
                msq_w = w;
            }
        }
    }
    match policy.tie_break() {
        TieRule::LowestIndex => best_w,
        TieRule::MaxServicedQuanta => msq_w,
        TieRule::Random => {
            if ties == 1 {
                // A unique minimum consumes no randomness.
                best_w
            } else {
                let i = rng.index(ties);
                nth_tied(policy, loads, flow_hash, n, candidates, best_rank, i)
            }
        }
        TieRule::RandomAlways => {
            let i = rng.index(ties);
            nth_tied(policy, loads, flow_hash, n, candidates, best_rank, i)
        }
    }
}

/// Second pass of the random tie-breaks: the `i`-th candidate (in scan
/// order) whose rank equals the minimum.
fn nth_tied<P, L, C>(
    policy: &P,
    loads: &L,
    flow_hash: u64,
    n: usize,
    candidates: C,
    best_rank: u64,
    i: usize,
) -> usize
where
    P: RankPolicy,
    L: Loads + ?Sized,
    C: Iterator<Item = usize>,
{
    candidates
        .filter(|&w| policy.rank(&make_view(loads, w, n, flow_hash)) == best_rank)
        .nth(i)
        .expect("tie index in range")
}

// ---------------------------------------------------------------------------
// The built-in dispatch policies as rank functions.
// ---------------------------------------------------------------------------

/// Join-the-shortest-queue: rank is the queue depth; the tie rule carries
/// the MSQ-vs-random choice.
#[derive(Debug, Clone, Copy)]
pub struct JsqRank {
    /// How equal shortest queues resolve.
    pub tie: TieRule,
}

impl RankPolicy for JsqRank {
    #[inline(always)]
    fn rank(&self, view: &PolicyView) -> u64 {
        view.queued_jobs
    }

    fn tie_break(&self) -> TieRule {
        self.tie
    }
}

/// Uniformly random dispatch: every worker ranks equal and the
/// always-draw tie rule picks uniformly — one RNG draw per decision
/// regardless of load, exactly the hand-coded `Random` arm's contract.
#[derive(Debug, Clone, Copy)]
pub struct ConstRank;

impl RankPolicy for ConstRank {
    #[inline(always)]
    fn rank(&self, _view: &PolicyView) -> u64 {
        0
    }

    fn tie_break(&self) -> TieRule {
        TieRule::RandomAlways
    }
}

/// Power-of-two-choices: sample two distinct workers, rank by queue
/// depth. The sampling hooks reproduce the hand-coded draw sequence —
/// `a = index(n)`, then `b = index(n-1)` shifted past `a` — in both the
/// full-set and restricted paths.
#[derive(Debug, Clone, Copy)]
pub struct P2cRank;

impl RankPolicy for P2cRank {
    #[inline(always)]
    fn rank(&self, view: &PolicyView) -> u64 {
        view.queued_jobs
    }

    fn sample_full(&mut self, n_workers: usize, rng: &mut PolicyRng) -> Sample {
        if n_workers == 1 {
            return Sample::One(0);
        }
        let a = rng.index(n_workers);
        // Sample b distinct from a by shifting into the remaining n-1 slots.
        let mut b = rng.index(n_workers - 1);
        if b >= a {
            b += 1;
        }
        Sample::Pair(a, b)
    }

    fn sample_list(&mut self, allowed: &[usize], rng: &mut PolicyRng) -> Sample {
        if allowed.len() == 1 {
            return Sample::One(allowed[0]);
        }
        let a = allowed[rng.index(allowed.len())];
        let mut bi = rng.index(allowed.len() - 1);
        let ai = allowed.iter().position(|&w| w == a).expect("a allowed");
        if bi >= ai {
            bi += 1;
        }
        Sample::Pair(a, allowed[bi])
    }
}

/// Round-robin as a rank function: rank is the circular distance from the
/// cursor, so the minimum is the first eligible worker at or after it —
/// which makes the exclusion-mask walk fall out of the same scan — and
/// [`on_pick`](RankPolicy::on_pick) advances the cursor past the pick.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinRank {
    cursor: usize,
}

impl RankPolicy for RoundRobinRank {
    #[inline(always)]
    fn rank(&self, view: &PolicyView) -> u64 {
        ((view.worker + view.n_workers - self.cursor) % view.n_workers) as u64
    }

    fn on_pick(&mut self, picked: usize, n_workers: usize) {
        self.cursor = (picked + 1) % n_workers;
    }
}

/// RSS steering as a rank function: circular distance from the hashed
/// target worker, so a banned target falls through to the next allowed
/// index exactly like the NIC re-steering walk.
#[derive(Debug, Clone, Copy)]
pub struct RssHashRank;

impl RankPolicy for RssHashRank {
    #[inline(always)]
    fn rank(&self, view: &PolicyView) -> u64 {
        let target = (view.flow_hash % view.n_workers as u64) as usize;
        ((view.worker + view.n_workers - target) % view.n_workers) as u64
    }
}

/// Pinned dispatch: circular distance from the pinned target (distance 0
/// wins; under exclusion the next allowed index upward takes over).
#[derive(Debug, Clone, Copy)]
pub struct PinnedRank {
    /// The worker every request is sent to; below the worker count
    /// (`Dispatcher::new` checks it).
    pub target: usize,
}

impl RankPolicy for PinnedRank {
    #[inline(always)]
    fn rank(&self, view: &PolicyView) -> u64 {
        ((view.worker + view.n_workers - self.target) % view.n_workers) as u64
    }
}

// ---------------------------------------------------------------------------
// The generic packed min-rank queue (worker-side datapath).
// ---------------------------------------------------------------------------

/// A generic packed min-rank queue: the worker-side PIFO datapath.
///
/// The [`KeyHeap`] keyed by `(rank, admission seq)`, with no
/// monotonicity requirement (a job's rank may be anything; ranks are
/// policy output, not time). Ties pop FIFO by admission order, so
/// equal-rank jobs round-robin exactly like a PS rotation.
///
/// # Example
///
/// ```
/// use tq_core::policy::RankQueue;
///
/// let mut q = RankQueue::new();
/// q.push(30, "old");  // already got 30us
/// q.push(0, "new");
/// assert_eq!(q.pop(), Some((0, "new")));
/// assert_eq!(q.pop(), Some((30, "old")));
/// ```
#[derive(Debug, Clone)]
pub struct RankQueue<T>(KeyHeap<T>);

impl<T> RankQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        RankQueue::with_capacity(0)
    }

    /// Creates an empty queue with capacity for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        RankQueue(KeyHeap::with_capacity(cap))
    }

    /// Admits `item` with the given rank. Equal ranks pop in push order.
    #[inline]
    pub fn push(&mut self, rank: u64, item: T) {
        self.0.push(pack(rank, self.0.pushed()), item);
    }

    /// Removes and returns the minimum-rank item with its rank.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.0.pop().map(|(key, item)| ((key >> 64) as u64, item))
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T> Default for RankQueue<T> {
    fn default() -> Self {
        RankQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(qs: &[u64]) -> Vec<WorkerLoad> {
        qs.iter()
            .map(|&q| WorkerLoad {
                queued_jobs: q,
                serviced_quanta: 0,
            })
            .collect()
    }

    #[test]
    fn jsq_rank_is_queue_depth() {
        let mut d = RankedDispatcher::new(
            JsqRank {
                tie: TieRule::LowestIndex,
            },
            4,
            0,
        );
        assert_eq!(d.pick(loads(&[5, 2, 9, 3]).as_slice(), 0), 1);
    }

    #[test]
    fn round_robin_rank_cycles() {
        let mut d = RankedDispatcher::new(RoundRobinRank::default(), 3, 0);
        let ls = loads(&[0; 3]);
        assert_eq!(d.pick(ls.as_slice(), 0), 0);
        assert_eq!(d.pick(ls.as_slice(), 0), 1);
        assert_eq!(d.pick(ls.as_slice(), 0), 2);
        assert_eq!(d.pick(ls.as_slice(), 0), 0);
    }

    #[test]
    fn masked_scan_skips_banned() {
        let mut d = RankedDispatcher::new(
            JsqRank {
                tie: TieRule::LowestIndex,
            },
            4,
            0,
        );
        let ls = loads(&[0, 2, 7, 3]);
        assert_eq!(d.pick_masked(ls.as_slice(), 0, 0b0001), 1);
    }

    #[test]
    fn split_and_packed_views_agree() {
        let queued = [3u64, 1, 4, 1];
        let quanta = [0u64, 9, 0, 2];
        let packed: Vec<WorkerLoad> = queued
            .iter()
            .zip(&quanta)
            .map(|(&q, &s)| WorkerLoad {
                queued_jobs: q,
                serviced_quanta: s,
            })
            .collect();
        let split = SplitLoads {
            queued_jobs: &queued,
            serviced_quanta: &quanta,
        };
        let mut a = RankedDispatcher::new(
            JsqRank {
                tie: TieRule::MaxServicedQuanta,
            },
            4,
            7,
        );
        let mut b = a.clone();
        assert_eq!(a.pick(packed.as_slice(), 0), b.pick(&split, 0));
    }

    #[test]
    fn rank_queue_pops_minimum_then_fifo() {
        let mut q = RankQueue::new();
        q.push(5, "b1");
        q.push(5, "b2");
        q.push(1, "a");
        q.push(9, "c");
        assert_eq!(q.pop(), Some((1, "a")));
        assert_eq!(q.pop(), Some((5, "b1")));
        assert_eq!(q.pop(), Some((5, "b2")));
        assert_eq!(q.pop(), Some((9, "c")));
        assert_eq!(q.pop(), None);
    }
}
