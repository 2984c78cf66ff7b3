//! The tq-kv GET/SCAN job for the live runtime — the paper's headline
//! application (§5.1): a shared in-memory ordered store serving
//! microsecond GETs mixed with rare, very long SCANs.
//!
//! [`KvJob`] is a real job written against the forced-multitasking API:
//! a SCAN processes entries in small batches and polls
//! [`QuantumCtx::probe`] between batches, saving its cursor when told to
//! yield, so GETs queued behind it never wait more than ~a quantum. (The
//! paper's LLVM pass places these probes automatically in C code; a Rust
//! job expresses them explicitly — see DESIGN.md.)
//!
//! A resumed slice redoes nothing: the SCAN descends the skip list once,
//! on its first slice (inside the quantum: service time, not admit
//! time), then holds a [`tq_kv::Cursor`] — the arena index of the last
//! entry read — so a slice costs one pointer hop per entry and a yield
//! saves four bytes. The arena only grows, so the index needs no check.
//!
//! The probe gate is every `BATCH` = 32 entries. On the packed skip list
//! (8192 keys, measured through [`KvJob::run`] with a quantum that never
//! expires) that is ≈ 115 ns between probes — 2.3% of the default 5 µs
//! quantum, the most a SCAN overshoots it by — of which the probe's clock
//! read is ≈ 16 ns (14%; the paper budgets 3%), and the same hops as one
//! ungated cursor walk take ≈ 73 ns. 64 and 128 entries (≈ 210 and
//! ≈ 410 ns, 4% and 8% of the quantum) were each faster end to end in
//! ≥ 9 of 10 pairs, but by less than the run-to-run spread, so 32 stays
//! (EXPERIMENTS.md, "Packed skip list").
//!
//! This used to live inside `examples/kv_server.rs`; it moved here so
//! the socket front end (`tq-loadgen`, the net smoke job) and the
//! example serve the *same* workload rather than divergent copies.

use crate::job::{Job, JobStatus, QuantumCtx};
use crate::server::{JobFactory, RtRequest};
use std::sync::Arc;
use tq_kv::{Cursor, KvStore};

/// Where a SCAN stands: a start key until its first slice has sought, then a cursor.
#[derive(Debug, Clone, Copy)]
pub enum ScanPos {
    /// Not started: the first key to read (inclusive).
    Start([u8; 8]),
    /// Started: just after the last entry read.
    At(Cursor),
}

/// A GET or SCAN against the shared store, resumable at quantum
/// boundaries.
#[derive(Debug)]
pub enum KvJob {
    /// A point lookup; far shorter than any quantum, runs to completion.
    Get {
        /// The shared store.
        store: Arc<KvStore>,
        /// The key to fetch.
        key: [u8; 8],
    },
    /// A long range scan, preemptible between batches.
    Scan {
        /// The shared store.
        store: Arc<KvStore>,
        /// Start key, then continuation cursor.
        pos: ScanPos,
        /// Entries left to read.
        remaining: usize,
        /// Bytes checksum, so the scan work is not optimized away.
        checksum: u64,
    },
}

impl Job for KvJob {
    fn run(&mut self, ctx: &mut QuantumCtx) -> JobStatus {
        match self {
            KvJob::Get { store, key } => {
                // A GET is far shorter than any quantum: run to completion
                // (the compiler pass would place its probes so sparsely
                // that none fires).
                let v = store.get(key);
                std::hint::black_box(v.map(<[u8]>::len));
                JobStatus::Done
            }
            KvJob::Scan {
                store,
                pos,
                remaining,
                checksum,
            } => {
                // Probe between 32-entry batches: the explicit equivalent
                // of TQ's instrumented loop gate.
                const BATCH: usize = 32;
                let mut cur = match *pos {
                    ScanPos::Start(key) => store.cursor_before(&key),
                    ScanPos::At(cur) => cur,
                };
                while *remaining > 0 {
                    for _ in 0..BATCH.min(*remaining) {
                        let Some((k, v)) = store.cursor_next(&mut cur) else {
                            return JobStatus::Done;
                        };
                        *checksum = checksum
                            .wrapping_mul(31)
                            .wrapping_add(v.len() as u64 + k.len() as u64);
                        *remaining -= 1;
                    }
                    if *remaining > 0 && ctx.probe() {
                        *pos = ScanPos::At(cur);
                        return JobStatus::Yielded;
                    }
                }
                std::hint::black_box(*checksum);
                JobStatus::Done
            }
        }
    }
}

/// A populated store for the RocksDB-style experiments: `n_keys` entries
/// of `value_size` bytes, deterministic under `seed`.
pub fn kv_store(seed: u64, n_keys: u64, value_size: usize) -> Arc<KvStore> {
    let mut store = KvStore::new(seed);
    store.populate(n_keys, value_size);
    Arc::new(store)
}

/// The standard job factory over a shared store: class 0 becomes a GET
/// of a key derived from the request id, any other class a SCAN of
/// `scan_len` entries starting at an id-derived cursor. Used by the
/// kv_server example, `tq-loadgen`, and the net tests, so everything
/// downstream of the wire serves the same workload.
pub fn kv_factory(store: Arc<KvStore>, n_keys: u64, scan_len: usize) -> Box<JobFactory> {
    Box::new(move |req: &RtRequest| -> Box<dyn Job> {
        if req.class.0 == 0 {
            Box::new(KvJob::Get {
                store: Arc::clone(&store),
                key: KvStore::nth_key_bytes((req.id.0 * 7919) % n_keys.max(1)),
            })
        } else {
            Box::new(KvJob::Scan {
                store: Arc::clone(&store),
                pos: ScanPos::Start(KvStore::nth_key_bytes(
                    (req.id.0 * 104_729) % (n_keys / 2).max(1),
                )),
                remaining: scan_len,
                checksum: 0,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServerConfig, TinyQuanta};
    use tq_core::Nanos;

    #[test]
    fn gets_and_scans_complete_over_the_runtime() {
        let store = kv_store(42, 10_000, 64);
        let factory = kv_factory(Arc::clone(&store), 10_000, 5_000);
        let server = TinyQuanta::start(
            ServerConfig {
                workers: 1,
                quantum: Nanos::from_micros(5),
                ..ServerConfig::default()
            },
            factory,
        );
        for i in 0..100u64 {
            let class = u16::from(i % 50 == 49);
            server.submit(class, Nanos::ZERO);
        }
        let completions = server.shutdown();
        assert_eq!(completions.len(), 100);
        // SCANs must have been preempted at least once: 5k entries at
        // 32-entry probe granularity cannot fit one 5us quantum.
        let scan_quanta = completions
            .iter()
            .filter(|c| c.class.0 == 1)
            .map(|c| c.quanta)
            .max()
            .expect("scans present");
        assert!(scan_quanta > 1, "scan finished in one quantum");
    }

    fn scan_job(store: &Arc<KvStore>, start: u64, remaining: usize) -> KvJob {
        KvJob::Scan {
            store: Arc::clone(store),
            pos: ScanPos::Start(KvStore::nth_key_bytes(start)),
            remaining,
            checksum: 0,
        }
    }

    /// Runs `job` to completion with a quantum of `quantum` cycles per
    /// slice; returns its checksum and how often it yielded.
    fn run_scan(mut job: KvJob, quantum: u64) -> (u64, u32) {
        let mut ctx = QuantumCtx::new(crate::TscClock::calibrated());
        let mut yields = 0u32;
        loop {
            ctx.arm(tq_core::Cycles(quantum));
            match job.run(&mut ctx) {
                JobStatus::Yielded => yields += 1,
                JobStatus::Done => break,
            }
            // Once sought, a SCAN never goes back to its start key.
            assert!(matches!(
                job,
                KvJob::Scan {
                    pos: ScanPos::At(_),
                    ..
                }
            ));
            assert!(yields < 10_000, "scan not making progress");
        }
        match job {
            KvJob::Scan { checksum, .. } => (checksum, yields),
            KvJob::Get { .. } => unreachable!(),
        }
    }

    /// A quantum that never expires / one that has expired before the
    /// first probe (a yield at every 32-entry batch).
    const NEVER: u64 = u64::MAX / 2;
    const ALWAYS: u64 = 0;

    #[test]
    fn scan_resumes_from_cursor_with_consistent_checksum() {
        let store = kv_store(7, 1_000, 32);
        // Run the same scan once un-preempted and once yielding at every
        // probe; the checksums must agree (cursor save/restore is
        // lossless).
        let (want, yields) = run_scan(scan_job(&store, 0, 500), NEVER);
        assert_eq!(yields, 0);
        assert_ne!(want, 0);
        let (got, yields) = run_scan(scan_job(&store, 0, 500), ALWAYS);
        assert_eq!(yields, 500 / 32, "one yield per full batch");
        assert_eq!(got, want, "preempted scan diverged from reference");
    }

    #[test]
    fn scan_past_the_end_of_the_store_finishes_with_the_same_checksum() {
        let store = kv_store(7, 1_000, 32);
        // 100 entries left, 500 asked for: both forms stop at the end.
        let (want, _) = run_scan(scan_job(&store, 900, 500), NEVER);
        let (got, yields) = run_scan(scan_job(&store, 900, 500), ALWAYS);
        assert_eq!(got, want);
        assert_eq!(yields, 100 / 32);
        assert_eq!(want, run_scan(scan_job(&store, 900, 100), NEVER).0);
        // Nothing at or after the start key: Done at once, nothing read.
        assert_eq!(run_scan(scan_job(&store, 1_000, 500), ALWAYS), (0, 0));
    }

    #[test]
    fn scan_preempted_on_its_first_probe_resumes_at_the_cursor_it_saved() {
        let store = kv_store(7, 1_000, 32);
        let mut job = scan_job(&store, 123, 64);
        let mut ctx = QuantumCtx::new(crate::TscClock::calibrated());
        ctx.arm(tq_core::Cycles(ALWAYS));
        assert!(matches!(job.run(&mut ctx), JobStatus::Yielded));
        // The seek is spent: the saved position is the 32nd entry read,
        // and the next slice hops on from it instead of descending again.
        let KvJob::Scan {
            pos: ScanPos::At(saved),
            remaining: 32,
            ..
        } = job
        else {
            panic!("first probe did not save a cursor: {job:?}");
        };
        let mut walk = store.cursor_before(&KvStore::nth_key_bytes(123));
        for _ in 0..32 {
            store.cursor_next(&mut walk).expect("1000 keys");
        }
        assert_eq!(saved, walk);
    }
}
