//! Blind scheduling policies.
//!
//! Two-level scheduling (§3.2 of the paper) splits a job's scheduling policy
//! across two places:
//!
//! * the **dispatcher** picks a worker core for each arriving job
//!   ([`Dispatcher`], [`DispatchPolicy`], keyed by [`flow_hash`]) — TQ uses
//!   join-the-shortest-queue with maximum-serviced-quanta (MSQ)
//!   tie-breaking;
//! * each **worker** interleaves quanta of its resident jobs
//!   ([`RunQueue`], [`WorkerPolicy`]) and, when stealing, picks its victim
//!   with [`steal_victim`] — TQ uses processor sharing (PS).
//!
//! Both the discrete-event models in `tq-queueing` and the real runtime in
//! `tq-runtime` call into this exact code, on both sides, so the policies
//! evaluated in the figures are the policies the runtime ships.

mod dispatch;
pub mod rank;
mod rng;
mod worker;

pub use dispatch::{flow_hash, DispatchPolicy, Dispatcher, TieBreak, WorkerLoad};
pub use rank::{
    ConstRank, JsqRank, Loads, P2cRank, PinnedRank, PolicyView, RankPolicy, RankQueue,
    RankedDispatcher, RoundRobinRank, RssHashRank, Sample, SplitLoads, TieRule,
};
pub use rng::PolicyRng;
pub use worker::{steal_victim, RunQueue, WorkerPolicy};
