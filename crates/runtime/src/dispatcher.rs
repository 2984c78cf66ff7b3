//! The dispatcher (§4 "Dispatcher"), run by the submitting thread.
//!
//! Performs *only* job load balancing: it never parses requests for
//! scheduling hints and never schedules quanta. TQ's dispatcher is the
//! core that polls the NIC and forwards each request to a worker; here
//! that core is whoever calls [`crate::TinyQuanta::submit_burst`]. The
//! handle is `!Sync`, so there is exactly one such caller, and it is the
//! single producer of every worker ring — no thread and no ring stand
//! between it and the workers.
//!
//! A burst is forwarded in chunks of at most [`DISPATCH_BURST`]. Each
//! chunk takes *one* load snapshot (maintained incrementally as picks
//! assign) and pushes each worker's share as one ring sub-batch (one
//! Release publish per worker per chunk). A full ring is backpressure:
//! the chunk *bans* that worker for the retry round and re-picks the
//! leftovers among the other workers ([`Dispatcher::pick_excluding`]);
//! only when every ring is full does it yield, re-snapshot, and start
//! over with a clean mask. `RingAuditLog::on_forward` stays per-item, so
//! the FIFO audit contract is per-request.

use crate::clock::TscClock;
use crate::ring::Producer;
use crate::server::{RtRequest, ServerConfig};
use crossbeam::queue::ArrayQueue;
use std::sync::Arc;
use tq_audit::RingAuditLog;
use tq_core::counters::{DispatcherLedger, SharedCounters};
use tq_core::policy::{flow_hash, Dispatcher, WorkerLoad};
use tq_core::{ClassId, JobId, Nanos};

/// Most requests forwarded per chunk: a longer burst pays one load
/// snapshot and one ring publish per worker per chunk instead of per
/// request (DESIGN.md "Batched dispatch pipeline"). Equal to the
/// transports' `MAX_BATCH`, so one syscall's worth of datagrams is one
/// chunk.
const DISPATCH_BURST: usize = 64;

/// Dispatch counters, reported at shutdown.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatcherStats {
    /// Requests forwarded to workers.
    pub forwarded: u64,
    /// Push retries due to full rings (backpressure events): one per
    /// request per retry round it was left over in.
    pub ring_full_retries: u64,
    /// Chunks forwarded (`forwarded / bursts` is the mean chunk size
    /// actually achieved).
    pub bursts: u64,
    /// Time spent forwarding chunks — snapshot, picks, ring pushes, and
    /// any backpressure retries — measured on the server's [`TscClock`].
    /// `busy_nanos / forwarded` is the dispatch cost per request.
    pub busy_nanos: u64,
}

impl DispatcherStats {
    /// Mean dispatch cost per forwarded request, in nanoseconds.
    pub fn ns_per_request(&self) -> f64 {
        if self.forwarded == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / self.forwarded as f64
        }
    }
}

/// The dispatcher's outbound path: private SPSC rings, or the shared
/// stealable queues of work-stealing mode.
pub(crate) enum DispatchTx {
    /// One private ring per worker.
    Spsc(Vec<Producer<RtRequest>>),
    /// One stealable MPMC queue per worker.
    Shared(Vec<Arc<ArrayQueue<RtRequest>>>),
}

impl DispatchTx {
    /// Pushes a prefix of `items` to `worker`'s queue, returning how many
    /// were accepted. On the SPSC ring the burst costs one Acquire
    /// refresh (at most) and one Release publish; the shared MPMC queue
    /// has no batched protocol, so it degrades to per-item pushes.
    fn push_batch(&self, worker: usize, items: &[RtRequest]) -> usize {
        match self {
            DispatchTx::Spsc(rings) => rings[worker].push_batch_copy(items),
            DispatchTx::Shared(queues) => {
                for (i, &req) in items.iter().enumerate() {
                    if queues[worker].push(req).is_err() {
                        return i;
                    }
                }
                items.len()
            }
        }
    }
}

impl std::fmt::Debug for DispatchTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchTx::Spsc(r) => write!(f, "DispatchTx::Spsc({})", r.len()),
            DispatchTx::Shared(q) => write!(f, "DispatchTx::Shared({})", q.len()),
        }
    }
}

/// Everything the dispatcher keeps between bursts, owned by the
/// submitter.
#[derive(Debug)]
pub(crate) struct DispatchState {
    dispatcher: Dispatcher,
    ledger: DispatcherLedger,
    loads: Vec<WorkerLoad>,
    /// Each worker's share of the chunk being forwarded.
    per_worker: Vec<Vec<RtRequest>>,
    /// Leftovers gathered for a re-pick.
    repick: Vec<RtRequest>,
    tx: DispatchTx,
    counters: Arc<Vec<SharedCounters>>,
    audit: Option<Arc<RingAuditLog>>,
    /// Every bannable worker's bit: only the first 64 workers can be
    /// banned on retry (a `u64` mask); `pick_excluding` treats higher
    /// indices as always allowed, so rings beyond that merely lose the
    /// no-spin guarantee, not correctness.
    bannable: u64,
    /// Cycles spent forwarding; converted once, in [`DispatchState::stats`].
    busy: u64,
    stats: DispatcherStats,
}

impl DispatchState {
    /// Dispatch state for `config`'s workers and policy, pushing into `tx`.
    ///
    /// # Panics
    ///
    /// Panics on a `Pinned` policy naming a worker that does not exist.
    pub(crate) fn new(
        config: &ServerConfig,
        tx: DispatchTx,
        counters: Arc<Vec<SharedCounters>>,
        audit: Option<Arc<RingAuditLog>>,
    ) -> Self {
        let n = config.workers;
        DispatchState {
            dispatcher: Dispatcher::new(config.dispatch, n, config.seed),
            ledger: DispatcherLedger::new(n),
            loads: Vec::with_capacity(n),
            per_worker: (0..n).map(|_| Vec::new()).collect(),
            repick: Vec::with_capacity(DISPATCH_BURST),
            tx,
            counters,
            audit,
            bannable: if n >= 64 { u64::MAX } else { (1u64 << n) - 1 },
            busy: 0,
            stats: DispatcherStats::default(),
        }
    }

    /// Forwards a burst of `(class, service)` requests, with ids from
    /// `first` on and all stamped `submitted`, chunk by chunk. Returns
    /// once every request is in a worker's queue, yielding while every
    /// ring is full.
    pub(crate) fn forward(
        &mut self,
        reqs: &[(u16, Nanos)],
        first: u64,
        submitted: Nanos,
        clock: &TscClock,
    ) {
        for (chunk, base) in reqs
            .chunks(DISPATCH_BURST)
            .zip((first..).step_by(DISPATCH_BURST))
        {
            let started = clock.now().0;
            self.stats.bursts += 1;
            // One snapshot per chunk; each pick bumps its target's queued
            // count so later picks in the chunk see the earlier
            // assignments.
            self.ledger.snapshot(&self.counters, &mut self.loads);
            for (&(class, service), id) in chunk.iter().zip(base..) {
                let req = RtRequest {
                    id: JobId(id),
                    class: ClassId(class),
                    service,
                    submitted,
                };
                self.assign(req, 0);
            }
            self.push_assigned();
            self.busy += clock.now().0.wrapping_sub(started);
        }
    }

    /// Pushes every worker's sub-batch until all are empty.
    fn push_assigned(&mut self) {
        // Push each worker's sub-batch. Rings that reject part of their
        // batch are banned for the retry round and their leftovers
        // re-picked among the other workers; re-picking with no
        // exclusion could spin on the same full ring forever under
        // deterministic policies.
        loop {
            let mut banned: u64 = 0;
            let mut leftover = 0u64;
            for (w, sub) in self.per_worker.iter_mut().enumerate() {
                if sub.is_empty() {
                    continue;
                }
                let k = self.tx.push_batch(w, sub);
                if let Some(log) = &self.audit {
                    // Per-item forward log: the FIFO audit contract is
                    // per-request, batching notwithstanding.
                    for req in &sub[..k] {
                        log.on_forward(w, req.id.0);
                    }
                }
                self.ledger.on_assigned_n(w, k as u64);
                self.stats.forwarded += k as u64;
                sub.drain(..k);
                if !sub.is_empty() {
                    leftover += sub.len() as u64;
                    if w < 64 {
                        banned |= 1u64 << w;
                    }
                }
            }
            if leftover == 0 {
                return;
            }
            self.stats.ring_full_retries += leftover;
            if banned == self.bannable {
                // Every (bannable) ring is full: nothing to re-pick
                // toward. Yield so workers can drain, then retry the
                // same assignment against fresh ring space.
                std::thread::yield_now();
                self.ledger.snapshot(&self.counters, &mut self.loads);
                continue;
            }
            // Re-pick the leftovers among the non-banned workers, on a
            // fresh snapshot (the original is stale by one push round).
            self.ledger.snapshot(&self.counters, &mut self.loads);
            let mut repick = std::mem::take(&mut self.repick);
            for sub in &mut self.per_worker {
                repick.append(sub);
            }
            for req in repick.drain(..) {
                self.assign(req, banned);
            }
            self.repick = repick;
        }
    }

    /// Picks a worker for `req` outside `banned` and queues it in that
    /// worker's sub-batch.
    fn assign(&mut self, req: RtRequest, banned: u64) {
        let w = self
            .dispatcher
            .pick_excluding(&self.loads, flow_hash(req.id.0), banned);
        // Wrapping, like the snapshot itself: in stealing mode a worker
        // that stole more than it was assigned reads as a huge wrapped
        // queue length, which JSQ naturally avoids.
        self.loads[w].queued_jobs = self.loads[w].queued_jobs.wrapping_add(1);
        self.per_worker[w].push(req);
    }

    /// The counters so far, with busy time in nanoseconds.
    pub(crate) fn stats(&self, clock: &TscClock) -> DispatcherStats {
        DispatcherStats {
            busy_nanos: clock.to_nanos(tq_core::Cycles(self.busy)).0,
            ..self.stats
        }
    }
}
