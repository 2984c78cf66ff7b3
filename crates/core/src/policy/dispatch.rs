//! Dispatcher-level load-balancing policies.
//!
//! In two-level scheduling the dispatcher performs *only* load balancing: it
//! never parses requests for job information (blindness) and never schedules
//! quanta. Its entire job is [`Dispatcher::pick`]: map an arriving request
//! to a worker core given each core's load.

use super::rank::{
    ConstRank, JsqRank, Loads, P2cRank, PinnedRank, RankedDispatcher, RoundRobinRank, RssHashRank,
    SplitLoads,
};
use serde::{Deserialize, Serialize};

/// Tie-breaking rule used when several workers share the shortest queue
/// under [`DispatchPolicy::Jsq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TieBreak {
    /// Pick uniformly among the tied workers (the naive baseline in §3.2).
    Random,
    /// Maximum-Serviced-Quanta (MSQ): pick the tied worker whose *current*
    /// jobs have received the most quanta of service, expecting it to have
    /// the smallest remaining work (§3.2). This is TQ's default and what
    /// Figure 4 shows recovers centralized-PS-like long-job latency.
    MaxServicedQuanta,
}

/// A load-balancing policy for the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Join-the-shortest-queue with the given tie-break. TQ's default
    /// (with [`TieBreak::MaxServicedQuanta`]); the M/G/K/JSQ/PS combination
    /// is provably near-optimal for mean sojourn time.
    Jsq(TieBreak),
    /// Uniformly random worker (the TQ-RAND ablation of §5.4).
    Random,
    /// Power-of-two-choices: sample two distinct workers, send to the less
    /// loaded (the TQ-POWER-TWO ablation of §5.4).
    PowerOfTwo,
    /// Round-robin across workers.
    RoundRobin,
    /// Steer by a hash of the request's flow (how Caladan's RSS spreads
    /// packets: static, load-oblivious).
    RssHash,
    /// Send everything to one worker. Degenerate on purpose: useful for
    /// pinning experiments and for testing rebalancing mechanisms (work
    /// stealing must rescue the other workers' idleness).
    Pinned(usize),
}

/// A snapshot of one worker's load, as visible to the dispatcher.
///
/// In the real runtime this is derived from the shared cache-line counters
/// of [`crate::counters`]; in the simulator it is read directly from the
/// modeled worker state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkerLoad {
    /// Unfinished jobs resident on the worker (assigned − finished).
    pub queued_jobs: u64,
    /// Quanta serviced for the worker's *current* jobs (MSQ's signal).
    pub serviced_quanta: u64,
}

/// The built-in policies, each monomorphized through the one generic
/// min-rank datapath ([`RankedDispatcher`]). One enum match per decision
/// — exactly the branch the hand-coded arms used to take — then a
/// branch-free scan specialized per policy and load layout.
#[derive(Debug, Clone)]
enum Kernel {
    Jsq(RankedDispatcher<JsqRank>),
    Random(RankedDispatcher<ConstRank>),
    PowerOfTwo(RankedDispatcher<P2cRank>),
    RoundRobin(RankedDispatcher<RoundRobinRank>),
    RssHash(RankedDispatcher<RssHashRank>),
    Pinned(RankedDispatcher<PinnedRank>),
}

/// The dispatcher's load-balancing decision procedure.
///
/// Holds the policy plus the small mutable state some policies need
/// (round-robin cursor, RNG for random choices). Decisions are fully
/// deterministic given the seed.
///
/// Since the policy-layer refactor this is a thin front over
/// [`RankedDispatcher`]: every built-in policy is a rank function run
/// through the same generic min-rank scan, with decision streams —
/// including RNG consumption — bit-identical to the former hand-coded
/// arms (pinned by this module's tests and the engines' differential
/// suites).
///
/// # Example
///
/// ```
/// use tq_core::policy::{Dispatcher, DispatchPolicy, WorkerLoad};
///
/// let mut d = Dispatcher::new(DispatchPolicy::RoundRobin, 3, 0);
/// let loads = [WorkerLoad::default(); 3];
/// assert_eq!(d.pick(&loads, 0), 0);
/// assert_eq!(d.pick(&loads, 0), 1);
/// assert_eq!(d.pick(&loads, 0), 2);
/// assert_eq!(d.pick(&loads, 0), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    kernel: Kernel,
}

impl Dispatcher {
    /// Creates a dispatcher for `n_workers` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers` is zero, or on [`DispatchPolicy::Pinned`] to
    /// a worker `>= n_workers`.
    pub fn new(policy: DispatchPolicy, n_workers: usize, seed: u64) -> Self {
        assert!(n_workers > 0, "dispatcher needs at least one worker");
        if let DispatchPolicy::Pinned(w) = policy {
            assert!(w < n_workers, "pinned worker out of range");
        }
        let kernel = match policy {
            DispatchPolicy::Jsq(tie) => {
                Kernel::Jsq(RankedDispatcher::new(JsqRank { tie: tie.into() }, n_workers, seed))
            }
            DispatchPolicy::Random => {
                Kernel::Random(RankedDispatcher::new(ConstRank, n_workers, seed))
            }
            DispatchPolicy::PowerOfTwo => {
                Kernel::PowerOfTwo(RankedDispatcher::new(P2cRank, n_workers, seed))
            }
            DispatchPolicy::RoundRobin => Kernel::RoundRobin(RankedDispatcher::new(
                RoundRobinRank::default(),
                n_workers,
                seed,
            )),
            DispatchPolicy::RssHash => {
                Kernel::RssHash(RankedDispatcher::new(RssHashRank, n_workers, seed))
            }
            DispatchPolicy::Pinned(w) => {
                Kernel::Pinned(RankedDispatcher::new(PinnedRank { target: w }, n_workers, seed))
            }
        };
        Dispatcher { policy, kernel }
    }

    /// The policy this dispatcher applies.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The number of workers decisions are made over.
    pub fn n_workers(&self) -> usize {
        match &self.kernel {
            Kernel::Jsq(k) => k.n_workers(),
            Kernel::Random(k) => k.n_workers(),
            Kernel::PowerOfTwo(k) => k.n_workers(),
            Kernel::RoundRobin(k) => k.n_workers(),
            Kernel::RssHash(k) => k.n_workers(),
            Kernel::Pinned(k) => k.n_workers(),
        }
    }

    /// Routes a decision to the policy's monomorphized min-rank scan.
    #[inline(always)]
    fn pick_loads<L: Loads + ?Sized>(&mut self, loads: &L, flow_hash: u64, banned: u64) -> usize {
        match &mut self.kernel {
            Kernel::Jsq(k) => k.pick_masked(loads, flow_hash, banned),
            Kernel::Random(k) => k.pick_masked(loads, flow_hash, banned),
            Kernel::PowerOfTwo(k) => k.pick_masked(loads, flow_hash, banned),
            Kernel::RoundRobin(k) => k.pick_masked(loads, flow_hash, banned),
            Kernel::RssHash(k) => k.pick_masked(loads, flow_hash, banned),
            Kernel::Pinned(k) => k.pick_masked(loads, flow_hash, banned),
        }
    }

    /// Picks the worker for the next arriving request.
    ///
    /// `loads` must have exactly `n_workers` entries. `flow_hash` is only
    /// consulted by [`DispatchPolicy::RssHash`] (it is what the NIC's RSS
    /// hash would be for the request's flow).
    ///
    /// # Panics
    ///
    /// Panics if `loads.len() != n_workers`.
    pub fn pick(&mut self, loads: &[WorkerLoad], flow_hash: u64) -> usize {
        assert_eq!(loads.len(), self.n_workers(), "load snapshot size mismatch");
        self.pick_loads(loads, flow_hash, 0)
    }

    /// [`Dispatcher::pick`] over struct-of-arrays load counters — the
    /// simulators' hot path. `queued_jobs[w]` and `serviced_quanta[w]`
    /// are the two [`WorkerLoad`] fields kept in flat cache-line-friendly
    /// arrays so the JSQ scan reads one contiguous `u64` stream.
    ///
    /// Decisions and RNG consumption are exactly those of
    /// [`Dispatcher::pick`] on the equivalent `&[WorkerLoad]` snapshot:
    /// interleaving the two entry points on the same dispatcher keeps the
    /// random streams bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length is not `n_workers`.
    pub fn pick_split(
        &mut self,
        queued_jobs: &[u64],
        serviced_quanta: &[u64],
        flow_hash: u64,
    ) -> usize {
        assert_eq!(
            queued_jobs.len(),
            self.n_workers(),
            "load snapshot size mismatch"
        );
        assert_eq!(
            serviced_quanta.len(),
            self.n_workers(),
            "load snapshot size mismatch"
        );
        let loads = SplitLoads {
            queued_jobs,
            serviced_quanta,
        };
        self.pick_loads(&loads, flow_hash, 0)
    }

    /// [`Dispatcher::pick`] restricted to workers not in `banned`, a
    /// bitmask of worker indices (bit `w` set = worker `w` excluded;
    /// workers with index ≥ 64 are never banned). This is the full-ring
    /// retry path: the dispatcher bans the worker whose ring rejected
    /// the push and re-picks *among the others*, instead of spinning on
    /// the same full ring under JSQ/MSQ ties or deterministic policies.
    ///
    /// With `banned == 0` this is exactly [`Dispatcher::pick`] —
    /// including RNG/cursor consumption — so interleaving the two entry
    /// points keeps decision streams identical to a pick-only run until
    /// the first actual exclusion. Per-policy restriction semantics:
    ///
    /// * `Jsq`: shortest allowed queue, same tie rules over the allowed
    ///   tie set.
    /// * `Random`: uniform among allowed.
    /// * `PowerOfTwo`: two distinct samples among allowed (degenerates
    ///   to the single allowed worker).
    /// * `RoundRobin`: next allowed worker from the cursor; the cursor
    ///   advances past it.
    /// * `RssHash` / `Pinned`: first allowed worker scanning circularly
    ///   upward from the hashed/pinned target.
    ///
    /// # Panics
    ///
    /// Panics if `loads.len() != n_workers` or every worker is banned
    /// (callers must clear the mask when all rings rejected a push).
    pub fn pick_excluding(&mut self, loads: &[WorkerLoad], flow_hash: u64, banned: u64) -> usize {
        assert_eq!(loads.len(), self.n_workers(), "load snapshot size mismatch");
        self.pick_loads(loads, flow_hash, banned)
    }
}

/// Deterministic 64-bit mix standing in for the NIC's RSS hash of a
/// request's flow (the open-loop client sends each request on a fresh
/// ephemeral flow, so hashing the request id matches the testbed).
#[inline]
pub fn flow_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    fn jsq_picks_unique_minimum() {
        let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::Random), 4, 1);
        assert_eq!(d.pick(&loads(&[5, 2, 9, 3]), 0), 1);
    }

    #[test]
    fn jsq_msq_breaks_ties_by_max_quanta() {
        let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), 3, 1);
        let ls = [
            WorkerLoad {
                queued_jobs: 1,
                serviced_quanta: 4,
            },
            WorkerLoad {
                queued_jobs: 1,
                serviced_quanta: 9,
            },
            WorkerLoad {
                queued_jobs: 2,
                serviced_quanta: 100,
            },
        ];
        assert_eq!(d.pick(&ls, 0), 1);
    }

    #[test]
    fn jsq_msq_third_level_tie_is_lowest_index() {
        let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), 3, 1);
        let ls = [
            WorkerLoad {
                queued_jobs: 1,
                serviced_quanta: 9,
            },
            WorkerLoad {
                queued_jobs: 1,
                serviced_quanta: 9,
            },
            WorkerLoad {
                queued_jobs: 0,
                serviced_quanta: 0,
            },
        ];
        // Worker 2 has the shortest queue outright.
        assert_eq!(d.pick(&ls, 0), 2);
        let ls2 = [
            WorkerLoad {
                queued_jobs: 1,
                serviced_quanta: 9,
            },
            WorkerLoad {
                queued_jobs: 1,
                serviced_quanta: 9,
            },
            WorkerLoad {
                queued_jobs: 1,
                serviced_quanta: 3,
            },
        ];
        assert_eq!(d.pick(&ls2, 0), 0);
    }

    #[test]
    fn jsq_random_tie_stays_within_ties() {
        let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::Random), 4, 99);
        let ls = loads(&[1, 7, 1, 7]);
        for _ in 0..200 {
            let w = d.pick(&ls, 0);
            assert!(w == 0 || w == 2);
        }
    }

    #[test]
    fn rss_hash_is_stable_per_flow() {
        let mut d = Dispatcher::new(DispatchPolicy::RssHash, 5, 0);
        let ls = loads(&[0; 5]);
        let w1 = d.pick(&ls, 12345);
        let w2 = d.pick(&ls, 12345);
        assert_eq!(w1, w2);
        assert_eq!(d.pick(&ls, 7), 2);
    }

    #[test]
    fn power_of_two_prefers_less_loaded_of_pair() {
        let mut d = Dispatcher::new(DispatchPolicy::PowerOfTwo, 2, 3);
        // With two workers the sampled pair is always {0, 1}.
        let ls = loads(&[10, 0]);
        for _ in 0..50 {
            assert_eq!(d.pick(&ls, 0), 1);
        }
    }

    #[test]
    fn power_of_two_single_worker() {
        let mut d = Dispatcher::new(DispatchPolicy::PowerOfTwo, 1, 3);
        assert_eq!(d.pick(&loads(&[4]), 0), 0);
    }

    #[test]
    fn random_covers_all_workers() {
        let mut d = Dispatcher::new(DispatchPolicy::Random, 4, 5);
        let ls = loads(&[0; 4]);
        let mut seen = [false; 4];
        for _ in 0..500 {
            seen[d.pick(&ls, 0)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pinned_always_picks_target() {
        let mut d = Dispatcher::new(DispatchPolicy::Pinned(2), 4, 0);
        let ls = loads(&[9, 0, 5, 0]);
        for _ in 0..10 {
            assert_eq!(d.pick(&ls, 12345), 2);
        }
    }

    #[test]
    #[should_panic(expected = "pinned worker out of range")]
    fn pinned_rejects_out_of_range() {
        let _ = Dispatcher::new(DispatchPolicy::Pinned(4), 4, 0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn pick_rejects_wrong_snapshot_len() {
        let mut d = Dispatcher::new(DispatchPolicy::Random, 4, 5);
        let _ = d.pick(&loads(&[0; 3]), 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn new_rejects_zero_workers() {
        let _ = Dispatcher::new(DispatchPolicy::Random, 0, 0);
    }

    /// Drives `pick` and `pick_split` on twin dispatchers over a
    /// deterministic pseudo-random load sequence and asserts identical
    /// decisions — i.e. identical RNG/cursor state evolution too.
    fn assert_split_matches(policy: DispatchPolicy, n: usize) {
        let mut a = Dispatcher::new(policy, n, 42);
        let mut b = Dispatcher::new(policy, n, 42);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..500u64 {
            let queued: Vec<u64> = (0..n).map(|_| rng() % 4).collect();
            let quanta: Vec<u64> = (0..n).map(|_| rng() % 6).collect();
            let loads: Vec<WorkerLoad> = queued
                .iter()
                .zip(&quanta)
                .map(|(&q, &s)| WorkerLoad {
                    queued_jobs: q,
                    serviced_quanta: s,
                })
                .collect();
            let flow = rng();
            assert_eq!(
                a.pick(&loads, flow),
                b.pick_split(&queued, &quanta, flow),
                "{policy:?} diverged at round {round} on {loads:?}"
            );
        }
    }

    #[test]
    fn pick_split_matches_pick_for_every_policy() {
        for n in [1, 2, 3, 16, 64] {
            assert_split_matches(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), n);
            assert_split_matches(DispatchPolicy::Jsq(TieBreak::Random), n);
            assert_split_matches(DispatchPolicy::Random, n);
            assert_split_matches(DispatchPolicy::PowerOfTwo, n);
            assert_split_matches(DispatchPolicy::RoundRobin, n);
            assert_split_matches(DispatchPolicy::RssHash, n);
            assert_split_matches(DispatchPolicy::Pinned(0), n);
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn pick_split_rejects_wrong_snapshot_len() {
        let mut d = Dispatcher::new(DispatchPolicy::Random, 4, 5);
        let _ = d.pick_split(&[0; 3], &[0; 3], 0);
    }

    #[test]
    fn pick_excluding_with_empty_mask_matches_pick() {
        for policy in [
            DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
            DispatchPolicy::Jsq(TieBreak::Random),
            DispatchPolicy::Random,
            DispatchPolicy::PowerOfTwo,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::RssHash,
            DispatchPolicy::Pinned(1),
        ] {
            let mut a = Dispatcher::new(policy, 4, 7);
            let mut b = Dispatcher::new(policy, 4, 7);
            let ls = loads(&[3, 1, 4, 1]);
            for flow in 0..100u64 {
                assert_eq!(
                    a.pick(&ls, flow),
                    b.pick_excluding(&ls, flow, 0),
                    "{policy:?} diverged with an empty mask"
                );
            }
        }
    }

    #[test]
    fn pick_excluding_never_picks_banned() {
        for policy in [
            DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
            DispatchPolicy::Jsq(TieBreak::Random),
            DispatchPolicy::Random,
            DispatchPolicy::PowerOfTwo,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::RssHash,
            DispatchPolicy::Pinned(0),
        ] {
            let mut d = Dispatcher::new(policy, 4, 11);
            // Worker 0 has the shortest queue AND is the RR start, the
            // pinned target, and flow-hash target for flow 0 — every
            // policy wants it; the mask must override them all.
            let ls = loads(&[0, 5, 5, 5]);
            for flow in 0..64u64 {
                let w = d.pick_excluding(&ls, flow * 4, 0b0001);
                assert_ne!(w, 0, "{policy:?} picked a banned worker");
            }
        }
    }

    #[test]
    fn pick_excluding_jsq_restricts_to_allowed_minimum() {
        let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), 4, 1);
        let ls = loads(&[0, 2, 7, 3]);
        // 0 banned → among {1, 2, 3} the shortest queue is worker 1.
        assert_eq!(d.pick_excluding(&ls, 0, 0b0001), 1);
        // 0 and 1 banned → worker 3.
        assert_eq!(d.pick_excluding(&ls, 0, 0b0011), 3);
    }

    #[test]
    fn pick_excluding_rss_hash_walks_to_next_allowed() {
        let mut d = Dispatcher::new(DispatchPolicy::RssHash, 4, 0);
        let ls = loads(&[0; 4]);
        // flow 2 hashes to worker 2; with 2 and 3 banned it wraps to 0.
        assert_eq!(d.pick_excluding(&ls, 2, 0b1100), 0);
    }

    #[test]
    #[should_panic(expected = "every worker is banned")]
    fn pick_excluding_rejects_full_mask() {
        let mut d = Dispatcher::new(DispatchPolicy::Random, 2, 0);
        let _ = d.pick_excluding(&loads(&[0, 0]), 0, 0b11);
    }
}
