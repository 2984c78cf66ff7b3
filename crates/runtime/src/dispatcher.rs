//! The dispatcher thread (§4 "Dispatcher").
//!
//! Performs *only* job load balancing: it never parses requests for
//! scheduling hints and never schedules quanta. It polls the submit (RX)
//! ring — the stand-in for the NIC's — taking up to [`DISPATCH_BURST`]
//! requests with one `pop_batch`,
//! takes *one* load snapshot per burst (maintained incrementally as picks
//! assign), and pushes each worker's share of the burst as one ring
//! sub-batch (one Release publish per worker per burst). A full ring is
//! backpressure: the dispatcher *bans* that worker for the retry round
//! and re-picks the leftovers among the other workers
//! ([`Dispatcher::pick_excluding`]); only when every ring is full does it
//! yield, re-snapshot, and start over with a clean mask. What would be
//! per-request costs — a receive, an n-worker atomic snapshot, and an
//! Acquire/Release pair — are all amortized over the burst.
//! `RingAuditLog::on_forward` stays per-item, so the FIFO audit contract
//! is per-request.
//!
//! TQ's dispatcher owns a core and never stops polling. Ours shares its
//! host with the workers and the submitter, so it parks at its first
//! empty poll — a spinner on a CPU its producer needs cannot see it make
//! progress until the OS takes the CPU away; the submit side unparks it
//! only when it is actually asleep (the `parked` handshake on
//! `ShutdownSignal`).
//!
//! The dispatcher is also phase 1 of the shutdown drain protocol (see
//! DESIGN.md): it exits only after submission is `closed` and every
//! request it will ever forward is in a ring, then sets `dispatcher_done`
//! — the signal workers need before they may even consider exiting — from
//! a drop guard, so a panicking dispatcher raises it too and neither the
//! workers nor a blocked `submit` wait on a thread that is gone. On an
//! aborted teardown
//! ([`crate::TinyQuanta`] dropped without `shutdown`) it stops
//! forwarding and *counts* the remainder as dropped instead of pushing
//! into rings whose workers may never drain them — conservation then
//! balances as `submitted = completed + dropped(shutdown_abort)`.

use crate::clock::TscClock;
use crate::ring::{Consumer, Producer};
use crate::server::{RtRequest, ServerConfig, ShutdownSignal};
use crossbeam::queue::ArrayQueue;
use std::sync::Arc;
use tq_audit::RingAuditLog;
use tq_core::counters::{DispatcherLedger, SharedCounters};
use tq_core::policy::{Dispatcher, WorkerLoad};

/// Most requests the dispatcher forwards per burst: it takes up to this
/// many from the submit ring without blocking, paying one load snapshot
/// and one ring publish per worker per burst instead of per request
/// (DESIGN.md "Batched dispatch pipeline"). Equal to the transports'
/// `MAX_BATCH`, so one syscall's worth of datagrams is one burst.
const DISPATCH_BURST: usize = 64;

/// Counters the dispatcher reports at exit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatcherStats {
    /// Requests forwarded to workers.
    pub forwarded: u64,
    /// Push retries due to full rings (backpressure events): one per
    /// request per retry round it was left over in.
    pub ring_full_retries: u64,
    /// Requests deliberately not forwarded because the server was torn
    /// down (dropped) before a clean shutdown — the named drop bucket
    /// that keeps conservation balanced on the abort path.
    pub dropped_on_abort: u64,
    /// Bursts drained from the submit ring (`forwarded / bursts` is the
    /// mean burst size actually achieved).
    pub bursts: u64,
    /// Time spent inside burst processing — snapshot, picks, ring pushes,
    /// and any backpressure retries — excluding polls and waits for
    /// arrivals, measured on the server's [`TscClock`].
    /// `busy_nanos / forwarded` is the dispatch cost per request.
    pub busy_nanos: u64,
    /// Times the dispatcher gave up spinning on an empty submit ring and
    /// went to sleep (or found a request on its last look before doing
    /// so); each costs the submit side at most one wake-up.
    pub parks: u64,
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

/// Spawns the dispatcher thread. It exits once submission is closed and
/// every request in the submit ring is either in a worker's ring or
/// counted as dropped (abort path); only then does it set
/// `dispatcher_done`, opening phase 2 of the drain protocol for the
/// workers.
pub(crate) fn spawn(
    config: &ServerConfig,
    rx: Consumer<RtRequest>,
    rings: DispatchTx,
    counters: Arc<Vec<SharedCounters>>,
    signal: Arc<ShutdownSignal>,
    audit: Option<Arc<RingAuditLog>>,
    clock: TscClock,
) -> std::thread::JoinHandle<DispatcherStats> {
    let config = config.clone();
    std::thread::Builder::new()
        .name("tq-dispatcher".into())
        .spawn(move || {
            // Phase 1 ends when this thread does, however it does: after
            // the last ring push below, or unwinding from a panic.
            struct Done<'a>(&'a ShutdownSignal);
            impl Drop for Done<'_> {
                fn drop(&mut self) {
                    self.0.set_dispatcher_done();
                }
            }
            let _done = Done(&signal);
            run_dispatcher(&config, rx, rings, &counters, &signal, audit, &clock)
        })
        .expect("spawn dispatcher thread")
}

fn run_dispatcher(
    config: &ServerConfig,
    rx: Consumer<RtRequest>,
    rings: DispatchTx,
    counters: &[SharedCounters],
    signal: &ShutdownSignal,
    audit: Option<Arc<RingAuditLog>>,
    clock: &TscClock,
) -> DispatcherStats {
    let n_workers = config.workers;
    let mut dispatcher = Dispatcher::new(config.dispatch, n_workers, config.seed);
    let mut ledger = DispatcherLedger::new(n_workers);
    let mut loads: Vec<WorkerLoad> = Vec::with_capacity(n_workers);
    let mut stats = DispatcherStats::default();
    let mut batch: Vec<RtRequest> = Vec::with_capacity(DISPATCH_BURST);
    let mut per_worker: Vec<Vec<RtRequest>> = (0..n_workers).map(|_| Vec::new()).collect();
    // Only the first 64 workers can be banned on retry (a `u64` mask);
    // pick_excluding treats higher indices as always allowed, so rings
    // beyond that merely lose the no-spin guarantee, not correctness.
    let bannable: u64 = if n_workers >= 64 {
        u64::MAX
    } else {
        (1u64 << n_workers) - 1
    };
    let mut busy = 0u64; // cycles; converted once at exit
    'poll: loop {
        // Read `closed` before polling: every submit precedes the close,
        // so an empty ring *after* seeing it is empty for good.
        let closed = signal.closed();
        batch.clear();
        if rx.pop_batch(&mut batch, DISPATCH_BURST) == 0 {
            if closed {
                break;
            }
            stats.parks += 1;
            signal.park_unless(|| !rx.is_empty());
            continue;
        }
        if signal.abort_requested() {
            // Aborted teardown: drain the ring, accounting every
            // undelivered request by name.
            stats.dropped_on_abort += batch.len() as u64;
            continue;
        }
        let burst_started = clock.now().0;
        stats.bursts += 1;
        // One snapshot per burst; each pick bumps its target's queued
        // count so later picks in the burst see the earlier assignments.
        ledger.snapshot(counters, &mut loads);
        for req in batch.drain(..) {
            let w = dispatcher.pick(&loads, flow_hash(req.id.0));
            // Wrapping, like the snapshot itself: in stealing mode a
            // worker that stole more than it was assigned reads as a huge
            // wrapped queue length, which JSQ naturally avoids.
            loads[w].queued_jobs = loads[w].queued_jobs.wrapping_add(1);
            per_worker[w].push(req);
        }
        // Push each worker's sub-batch. Rings that reject part of their
        // batch are banned for the retry round and their leftovers
        // re-picked among the other workers — the doc contract ("the
        // dispatcher re-picks among the other workers"); pre-fix this
        // re-picked with no exclusion and could spin on the same full
        // ring forever under deterministic policies.
        loop {
            let mut banned: u64 = 0;
            let mut leftover = 0u64;
            for (w, sub) in per_worker.iter_mut().enumerate() {
                if sub.is_empty() {
                    continue;
                }
                let k = rings.push_batch(w, sub);
                if let Some(log) = &audit {
                    // Per-item forward log: the FIFO audit contract is
                    // per-request, batching notwithstanding.
                    for req in &sub[..k] {
                        log.on_forward(w, req.id.0);
                    }
                }
                ledger.on_assigned_n(w, k as u64);
                stats.forwarded += k as u64;
                sub.drain(..k);
                if !sub.is_empty() {
                    leftover += sub.len() as u64;
                    if w < 64 {
                        banned |= 1u64 << w;
                    }
                }
            }
            if leftover == 0 {
                break;
            }
            if signal.abort_requested() {
                // Workers may stop draining at any point now; retrying
                // could spin forever against permanently-full rings.
                // Account and move on.
                stats.dropped_on_abort += leftover;
                for sub in per_worker.iter_mut() {
                    sub.clear();
                }
                busy += clock.now().0.wrapping_sub(burst_started);
                continue 'poll;
            }
            stats.ring_full_retries += leftover;
            if banned == bannable {
                // Every (bannable) ring is full: nothing to re-pick
                // toward. Yield so workers can drain, then retry the
                // same assignment against fresh ring space.
                std::thread::yield_now();
                ledger.snapshot(counters, &mut loads);
                continue;
            }
            // Re-pick the leftovers among the non-banned workers, on a
            // fresh snapshot (the original is stale by one push round).
            ledger.snapshot(counters, &mut loads);
            batch.clear();
            for sub in per_worker.iter_mut() {
                batch.append(sub);
            }
            for req in batch.drain(..) {
                let w = dispatcher.pick_excluding(&loads, flow_hash(req.id.0), banned);
                loads[w].queued_jobs = loads[w].queued_jobs.wrapping_add(1);
                per_worker[w].push(req);
            }
        }
        busy += clock.now().0.wrapping_sub(burst_started);
    }
    // Phase 1 complete: nothing will ever be pushed into a ring again.
    // The caller's drop guard tells the workers, who may then exit once
    // their queues are empty.
    stats.busy_nanos = clock.to_nanos(tq_core::Cycles(busy)).0;
    stats
}

/// Stand-in for the NIC's RSS hash of the request's flow.
fn flow_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
