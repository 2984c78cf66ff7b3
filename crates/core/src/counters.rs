//! Worker→dispatcher load counters (§4 of the paper).
//!
//! TQ's dispatcher learns each worker's load without any locks: every worker
//! maintains monotonically increasing (wrapping) counters in a cache line
//! the dispatcher periodically reads. The dispatcher tracks what it has
//! *assigned* to each worker itself, so:
//!
//! * unfinished jobs  = assigned − finished           (JSQ's signal)
//! * quanta of current jobs = serviced − retired      (MSQ's signal)
//!
//! where `retired` accumulates the quanta counts of jobs that have finished,
//! making `serviced − retired` the attained service of the jobs still
//! resident. All subtractions are wrapping, so — as §4 notes — counter
//! width imposes no limit on how many jobs or quanta a worker handles.
//!
//! [`WorkerCounters`] is the plain (single-threaded, simulator) form;
//! [`SharedCounters`] is the runtime form, one padded cache line per worker.
//!
//! A [`SharedCounters`] has exactly one writer, its own worker, and any
//! number of readers. So an update is a load of the worker's own last
//! value and a store of the new one, not a locked read-modify-write: no
//! other thread's write can fall between the two. `finished` is stored
//! last, with Release, so a reader that Acquire-loads a finish count also
//! sees the retired quanta that came with it.

use crate::policy::WorkerLoad;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Plain (non-atomic) per-worker counters for simulator use.
///
/// # Example
///
/// ```
/// use tq_core::counters::WorkerCounters;
///
/// let mut c = WorkerCounters::new();
/// c.on_assigned();
/// c.on_assigned();
/// c.on_quantum();              // first job runs one quantum…
/// c.on_finished(1);            // …and finishes (it received 1 quantum)
/// let load = c.load();
/// assert_eq!(load.queued_jobs, 1);
/// assert_eq!(load.serviced_quanta, 0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCounters {
    assigned: u64,
    finished: u64,
    serviced_quanta: u64,
    retired_quanta: u64,
}

impl WorkerCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a job assignment (dispatcher side).
    pub fn on_assigned(&mut self) {
        self.assigned = self.assigned.wrapping_add(1);
    }

    /// Records one serviced quantum (worker side).
    pub fn on_quantum(&mut self) {
        self.serviced_quanta = self.serviced_quanta.wrapping_add(1);
    }

    /// Records a job completion; `quanta_received` is how many quanta that
    /// job consumed, which retires its contribution to the MSQ signal.
    pub fn on_finished(&mut self, quanta_received: u64) {
        self.finished = self.finished.wrapping_add(1);
        self.retired_quanta = self.retired_quanta.wrapping_add(quanta_received);
    }

    /// The dispatcher's view of this worker.
    pub fn load(&self) -> WorkerLoad {
        WorkerLoad {
            queued_jobs: self.assigned.wrapping_sub(self.finished),
            serviced_quanta: self.serviced_quanta.wrapping_sub(self.retired_quanta),
        }
    }
}

/// One worker's shared counters for the real runtime: written by the worker
/// thread, read by the dispatcher, each field relaxed-atomic and the
/// group padded to its own cache line (the paper's "counters reside in a
/// cache line that is periodically read by the dispatcher").
///
/// Single writer: only the owning worker may call the worker-side methods
/// (`on_quantum`, `on_finished`, `add_quanta`, `add_finished`), from one
/// thread. Two writers would lose updates; the runtime's writer is the
/// worker's batched flush.
#[derive(Debug, Default)]
pub struct SharedCounters {
    inner: CachePadded<SharedInner>,
}

#[derive(Debug, Default)]
struct SharedInner {
    finished: AtomicU64,
    serviced_quanta: AtomicU64,
    retired_quanta: AtomicU64,
}

impl SharedCounters {
    /// Creates zeroed shared counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker side: record one serviced quantum.
    #[inline]
    pub fn on_quantum(&self) {
        self.add_quanta(1);
    }

    /// Worker side: record a completion that had received `quanta_received`
    /// quanta.
    #[inline]
    pub fn on_finished(&self, quanta_received: u64) {
        self.add_finished(1, quanta_received);
    }

    /// Worker side: record `quanta` serviced quanta in one store — the
    /// batched-flush form used by workers that accumulate counter deltas
    /// locally and publish every few quanta (bounded staleness; see
    /// DESIGN.md "Batched dispatch pipeline").
    #[inline]
    pub fn add_quanta(&self, quanta: u64) {
        bump(&self.inner.serviced_quanta, quanta, Ordering::Relaxed);
    }

    /// Worker side: record `jobs` completions that together had received
    /// `retired_quanta` quanta, in two stores (batched-flush form of
    /// [`SharedCounters::on_finished`]).
    #[inline]
    pub fn add_finished(&self, jobs: u64, retired_quanta: u64) {
        bump(
            &self.inner.retired_quanta,
            retired_quanta,
            Ordering::Relaxed,
        );
        // `finished` is stored last with Release so a dispatcher that
        // observes the new finished count also observes the retired quanta.
        bump(&self.inner.finished, jobs, Ordering::Release);
    }

    /// Dispatcher side: read the worker's cumulative finished-job count.
    #[inline]
    pub fn finished(&self) -> u64 {
        self.inner.finished.load(Ordering::Acquire)
    }

    /// Dispatcher side: read cumulative serviced and retired quanta.
    #[inline]
    pub fn quanta(&self) -> (u64, u64) {
        (
            self.inner.serviced_quanta.load(Ordering::Relaxed),
            self.inner.retired_quanta.load(Ordering::Relaxed),
        )
    }
}

/// Adds `delta` to a counter only the calling thread writes: its own last
/// store is what it loads, so a plain store (no `lock` prefix) is the add.
/// Wraps, as the readers' subtractions expect.
#[inline]
fn bump(counter: &AtomicU64, delta: u64, order: Ordering) {
    counter.store(counter.load(Ordering::Relaxed).wrapping_add(delta), order);
}

/// The dispatcher's private assignment ledger, combining its own assigned
/// counts with reads of each worker's [`SharedCounters`] to produce
/// [`WorkerLoad`] snapshots.
#[derive(Debug)]
pub struct DispatcherLedger {
    assigned: Vec<u64>,
}

impl DispatcherLedger {
    /// Creates a ledger for `n_workers` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers` is zero.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers > 0, "ledger needs at least one worker");
        DispatcherLedger {
            assigned: vec![0; n_workers],
        }
    }

    /// Records that a job was forwarded to `worker`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn on_assigned(&mut self, worker: usize) {
        self.assigned[worker] = self.assigned[worker].wrapping_add(1);
    }

    /// Records that `n` jobs were forwarded to `worker` (the batched
    /// dispatch path: one ledger update per per-worker sub-batch).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn on_assigned_n(&mut self, worker: usize, n: u64) {
        self.assigned[worker] = self.assigned[worker].wrapping_add(n);
    }

    /// Produces the load snapshot for all workers by reading their shared
    /// counters, writing into `out` (reused to keep the dispatch path
    /// allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `shared.len()` differs from the ledger's worker count.
    pub fn snapshot(&self, shared: &[SharedCounters], out: &mut Vec<WorkerLoad>) {
        assert_eq!(shared.len(), self.assigned.len(), "worker count mismatch");
        out.clear();
        for (w, counters) in shared.iter().enumerate() {
            let finished = counters.finished();
            let (serviced, retired) = counters.quanta();
            out.push(WorkerLoad {
                queued_jobs: self.assigned[w].wrapping_sub(finished),
                serviced_quanta: serviced.wrapping_sub(retired),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_counters_track_load() {
        let mut c = WorkerCounters::new();
        for _ in 0..3 {
            c.on_assigned();
        }
        c.on_quantum();
        c.on_quantum();
        assert_eq!(
            c.load(),
            WorkerLoad {
                queued_jobs: 3,
                serviced_quanta: 2
            }
        );
        c.on_finished(2);
        assert_eq!(
            c.load(),
            WorkerLoad {
                queued_jobs: 2,
                serviced_quanta: 0
            }
        );
    }

    #[test]
    fn wrapping_counters_survive_overflow() {
        let mut c = WorkerCounters {
            assigned: u64::MAX,
            finished: u64::MAX - 1,
            serviced_quanta: u64::MAX,
            retired_quanta: u64::MAX - 4,
        };
        // assigned wraps to 0 after one more assignment; deltas stay right.
        c.on_assigned();
        assert_eq!(
            c.load(),
            WorkerLoad {
                queued_jobs: 2,
                serviced_quanta: 4
            }
        );
    }

    #[test]
    fn shared_counters_round_trip() {
        let shared = vec![SharedCounters::new(), SharedCounters::new()];
        let mut ledger = DispatcherLedger::new(2);
        ledger.on_assigned(0);
        ledger.on_assigned(0);
        ledger.on_assigned(1);
        shared[0].on_quantum();
        shared[0].on_quantum();
        shared[0].on_quantum();
        shared[0].on_finished(3);
        let mut out = Vec::new();
        ledger.snapshot(&shared, &mut out);
        assert_eq!(
            out,
            vec![
                WorkerLoad {
                    queued_jobs: 1,
                    serviced_quanta: 0
                },
                WorkerLoad {
                    queued_jobs: 1,
                    serviced_quanta: 0
                },
            ]
        );
    }

    #[test]
    fn shared_counters_cross_thread() {
        use std::sync::Arc;
        let shared: Arc<Vec<SharedCounters>> = Arc::new(vec![SharedCounters::new()]);
        let s2 = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            for _ in 0..10_000 {
                s2[0].on_quantum();
            }
            for _ in 0..100 {
                s2[0].on_finished(100);
            }
        });
        t.join().unwrap();
        assert_eq!(shared[0].finished(), 100);
        assert_eq!(shared[0].quanta(), (10_000, 10_000));
    }

    #[test]
    fn batched_flush_equals_per_item_updates() {
        let a = SharedCounters::new();
        let b = SharedCounters::new();
        for _ in 0..7 {
            a.on_quantum();
        }
        a.on_finished(3);
        a.on_finished(4);
        b.add_quanta(7);
        b.add_finished(2, 7);
        assert_eq!(a.finished(), b.finished());
        assert_eq!(a.quanta(), b.quanta());
    }

    /// A flush that carries the counters past `u64::MAX` wraps, and the
    /// ledger's wrapping subtractions still read the true load.
    #[test]
    fn a_flush_past_u64_max_wraps_as_the_ledger_expects() {
        let shared = vec![SharedCounters {
            inner: CachePadded::new(SharedInner {
                finished: AtomicU64::new(u64::MAX - 2),
                serviced_quanta: AtomicU64::new(u64::MAX - 1),
                retired_quanta: AtomicU64::new(u64::MAX - 6),
            }),
        }];
        let mut ledger = DispatcherLedger::new(1);
        ledger.assigned[0] = u64::MAX - 1;
        ledger.on_assigned_n(0, 10);
        shared[0].add_quanta(9);
        shared[0].add_finished(5, 7);
        assert_eq!(shared[0].finished(), 2);
        assert_eq!(shared[0].quanta(), (7, 0));
        let mut out = Vec::new();
        ledger.snapshot(&shared, &mut out);
        // Jobs: 1 queued before, 10 assigned and 5 finished since.
        // Quanta: 5 resident before, 9 serviced and 7 retired since.
        assert_eq!(
            out,
            vec![WorkerLoad {
                queued_jobs: 6,
                serviced_quanta: 7
            }]
        );
    }

    /// A reader that Acquire-loads a finish count sees every quantum
    /// retired with it: the writer stores `retired_quanta` first and
    /// `finished` last, with Release.
    #[test]
    fn a_reader_that_sees_a_finish_sees_its_retired_quanta() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const FLUSHES: u64 = 10_000_000;
        let shared = Arc::new(SharedCounters::new());
        let started = Arc::new(AtomicBool::new(false));
        let writer = {
            let (shared, started) = (Arc::clone(&shared), Arc::clone(&started));
            std::thread::spawn(move || {
                while !started.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for _ in 0..FLUSHES {
                    shared.add_finished(1, 1);
                }
            })
        };
        started.store(true, Ordering::Release);
        let mut torn = 0u64;
        loop {
            let finished = shared.finished();
            let (_, retired) = shared.quanta();
            torn += u64::from(retired < finished);
            if finished == FLUSHES {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(torn, 0, "{torn} reads saw a finish without its quanta");
    }

    #[test]
    #[should_panic(expected = "worker count mismatch")]
    fn snapshot_rejects_mismatched_sizes() {
        let ledger = DispatcherLedger::new(2);
        let shared = vec![SharedCounters::new()];
        let mut out = Vec::new();
        ledger.snapshot(&shared, &mut out);
    }
}
