//! # Tiny Quanta runtime validation
//!
//! The paper's two-level scheduler is only meaningful if the systems that
//! reproduce it are *work-conserving and exactly-once*: every submitted
//! request runs once, nothing is silently lost at shutdown, and every
//! timestamp sits on one coherent clock. µs-scale tail-latency numbers are
//! exactly the statistics that a dropped request or a mis-joined service
//! time corrupts without any test failing.
//!
//! This crate is the instrument that keeps that class of bug out:
//!
//! * [`InvariantAuditor`] — collects per-run facts (submission counts,
//!   completions, per-worker counters, ring traffic) and checks the
//!   accounting invariants: job conservation with *named* drop reasons,
//!   exactly-once completion ids, per-ring FIFO order, monotonic
//!   per-clock timestamps, and counter/completion agreement.
//! * [`RingAuditLog`] — an optional (zero-cost-when-off) trace of every
//!   dispatcher forward, worker admission, and steal, letting the auditor
//!   prove each request crossed exactly one ring exactly once, in order.
//! * [`fault`] — a deterministic fault-injection plan ([`fault::FaultPlan`])
//!   and the scenario catalog ([`fault::FaultScenario`]) the integration
//!   matrix drives both engines through.
//!
//! The live runtime (`tq-runtime`), both discrete-event engines, `bench_rt`
//! and `repro_all` all feed this auditor when auditing is enabled; its
//! report lands in the `tq-run/v1` JSON. See DESIGN.md ("The shutdown/drain
//! protocol and audit invariants") for the contract being checked.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;

use std::fmt;
use std::sync::Mutex;
use tq_core::Nanos;

/// Why a submitted request did not complete. Conservation is only allowed
/// to "lose" jobs into one of these named buckets; an unexplained gap is a
/// violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// A fault-injection plan deliberately discarded the request.
    FaultInjected,
    /// The datagram failed wire-format validation at the socket front end
    /// (wrong length); it was never parsed into a request.
    Malformed,
    /// The socket front end shed a well-formed request instead of
    /// admitting it: either the in-flight bound was reached
    /// (backpressure) or a stop had already been requested (no new work
    /// during drain). See DESIGN.md, "The socket front end".
    NetShed,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::FaultInjected => f.write_str("fault_injected"),
            DropReason::Malformed => f.write_str("malformed"),
            DropReason::NetShed => f.write_str("net_shed"),
        }
    }
}

/// One violated invariant: which check failed and the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the invariant (stable, snake_case — lands in JSON).
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// The auditor's verdict for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// What was audited (e.g. `"rt TinyQuanta/Jsq(MaxServicedQuanta)"`).
    pub context: String,
    /// Individual checks executed (a clean report with zero checks means
    /// auditing was effectively off — callers should not confuse the two).
    pub checks: u64,
    /// Every invariant violation found, in check order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether every executed check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report's tallies into this one. Used to combine the
    /// server's counter/ring-level report with the harness's stream-level
    /// report into a single per-run verdict; the absorbed context label is
    /// dropped (violation names carry enough to locate the layer).
    pub fn absorb(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }

    /// [`absorb`](Self::absorb) for hierarchical audits: prefixes every
    /// absorbed violation's detail with `[scope]` so a rack-level report
    /// built from per-server reports attributes each violation to the
    /// server it came from while still rendering as one verdict.
    pub fn absorb_scoped(&mut self, scope: &str, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations.into_iter().map(|mut v| {
            v.detail = format!("[{scope}] {}", v.detail);
            v
        }));
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "audit[{}]: {} checks, clean", self.context, self.checks)
        } else {
            writeln!(
                f,
                "audit[{}]: {} checks, {} violation(s):",
                self.context,
                self.checks,
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// One completed request, as the runtime observed it — the auditor's
/// engine-neutral view of a live completion (the sim side audits
/// `tq_core::job::Completion` directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionFact {
    /// The request's id (unique within the run).
    pub id: u64,
    /// Worker index that finished it.
    pub worker: usize,
    /// Submission timestamp (server clock).
    pub submitted: Nanos,
    /// Completion timestamp (same clock).
    pub finished: Nanos,
    /// Quanta the job consumed (≥ 1 for any job that ran).
    pub quanta: u64,
}

/// Collects facts about one run and checks the accounting invariants.
///
/// # Example
///
/// ```
/// use tq_audit::InvariantAuditor;
///
/// let mut a = InvariantAuditor::new("example");
/// a.check_conservation(3, 3, &[]);
/// a.check_exactly_once(&[0, 1, 2], Some(3));
/// let report = a.finish();
/// assert!(report.is_clean());
/// assert_eq!(report.checks, 3); // conservation + unique ids + id range
/// ```
#[derive(Debug)]
pub struct InvariantAuditor {
    report: AuditReport,
}

impl InvariantAuditor {
    /// Starts an audit for the given context label.
    pub fn new(context: impl Into<String>) -> Self {
        InvariantAuditor {
            report: AuditReport {
                context: context.into(),
                checks: 0,
                violations: Vec::new(),
            },
        }
    }

    /// Records one primitive check; `detail` is only rendered on failure.
    pub fn check(&mut self, invariant: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.report.checks += 1;
        if !ok {
            self.report.violations.push(Violation {
                invariant,
                detail: detail(),
            });
        }
    }

    /// Job conservation: `submitted = completed + Σ dropped`, every drop
    /// in a named bucket.
    pub fn check_conservation(
        &mut self,
        submitted: u64,
        completed: u64,
        dropped: &[(DropReason, u64)],
    ) {
        let dropped_total: u64 = dropped.iter().map(|(_, n)| n).sum();
        self.check(
            "job_conservation",
            submitted == completed + dropped_total,
            || {
                let named: Vec<String> =
                    dropped.iter().map(|(r, n)| format!("{r}={n}")).collect();
                format!(
                    "submitted {submitted} != completed {completed} + dropped {dropped_total} [{}]",
                    named.join(", ")
                )
            },
        );
    }

    /// Exactly-once completion: ids are unique, and — when the id space is
    /// sequential from zero (`expected = Some(n)`) — every id is `< n`.
    pub fn check_exactly_once(&mut self, ids: &[u64], expected: Option<u64>) {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        let unique = sorted.windows(2).all(|w| w[0] != w[1]);
        self.check("exactly_once_ids", unique, || {
            let dup = sorted
                .windows(2)
                .find(|w| w[0] == w[1])
                .map(|w| w[0])
                .unwrap_or(0);
            format!("{} completions, duplicated id {dup}", ids.len())
        });
        if let Some(n) = expected {
            let in_range = sorted.last().is_none_or(|&max| max < n);
            self.check("ids_in_submitted_range", in_range, || {
                format!(
                    "max completion id {} outside submitted range 0..{n}",
                    sorted.last().copied().unwrap_or(0)
                )
            });
        }
    }

    /// Per-clock timestamp sanity on the live runtime: every completion
    /// finishes at or after its submission, and — because each worker
    /// stamps and sends its completions sequentially on one monotonic
    /// clock, and the channel preserves per-sender order — each worker's
    /// completions appear with non-decreasing finish stamps.
    pub fn check_rt_timestamps(&mut self, completions: &[CompletionFact], n_workers: usize) {
        let causal = completions.iter().all(|c| c.finished >= c.submitted);
        self.check("finish_after_submit", causal, || {
            let c = completions
                .iter()
                .find(|c| c.finished < c.submitted)
                .expect("checked");
            format!(
                "job {} finished {} before its submission {}",
                c.id, c.finished, c.submitted
            )
        });
        let mut last_finish = vec![Nanos::ZERO; n_workers];
        let mut bad = None;
        for c in completions {
            if c.worker >= n_workers {
                bad = Some(format!("job {} on unknown worker {}", c.id, c.worker));
                break;
            }
            if c.finished < last_finish[c.worker] {
                bad = Some(format!(
                    "worker {} finish stamps went backwards at job {}: {} after {}",
                    c.worker, c.id, c.finished, last_finish[c.worker]
                ));
                break;
            }
            last_finish[c.worker] = c.finished;
        }
        let detail = bad.clone().unwrap_or_default();
        self.check("per_worker_monotonic_finish", bad.is_none(), move || detail);
        let ran = completions.iter().all(|c| c.quanta >= 1);
        self.check("completed_jobs_ran", ran, || {
            "a completion reported zero quanta".to_string()
        });
    }

    /// Counter/completion agreement: the per-worker `completed` counters
    /// must equal the completion stream grouped by worker, and the quanta
    /// counters must equal the quanta attributed to completions (every
    /// admitted job runs to completion by the drain protocol, so the two
    /// ledgers describe the same set of quanta).
    pub fn check_worker_agreement(
        &mut self,
        completions: &[CompletionFact],
        worker_completed: &[u64],
        worker_quanta: &[u64],
    ) {
        let n = worker_completed.len();
        let mut by_worker = vec![0u64; n];
        let mut quanta_by_worker = vec![0u64; n];
        for c in completions {
            if c.worker < n {
                by_worker[c.worker] += 1;
                quanta_by_worker[c.worker] += c.quanta;
            }
        }
        self.check(
            "counter_completion_agreement",
            by_worker == worker_completed,
            || format!("completions by worker {by_worker:?} != counters {worker_completed:?}"),
        );
        self.check(
            "quanta_ledger_agreement",
            quanta_by_worker == worker_quanta,
            || format!("quanta by worker {quanta_by_worker:?} != counters {worker_quanta:?}"),
        );
    }

    /// Per-ring FIFO order and exactly-once admission, from a
    /// [`RingAuditLog`]. In SPSC mode each worker's admissions must equal
    /// the dispatcher's forwards to it; in stealing mode each worker's
    /// local admissions must be an in-order subsequence of the forwards to
    /// its queue, every steal must name a request actually forwarded to
    /// the victim's queue, and admissions + steals together must consume
    /// every forward exactly once.
    pub fn check_ring_log(&mut self, log: &RingAuditLog, stealing: bool) {
        let n = log.workers();
        let mut consumed_total = 0u64;
        let mut forwarded_total = 0u64;
        for w in 0..n {
            let forwards = log.forwards[w].lock().expect("audit lock").clone();
            let admits = log.admits[w].lock().expect("audit lock").clone();
            forwarded_total += forwards.len() as u64;
            consumed_total += admits.len() as u64;
            if stealing {
                self.check("ring_fifo_order", is_subsequence(&admits, &forwards), || {
                    format!("worker {w}: local admissions are not an in-order subsequence of its queue's forwards")
                });
            } else {
                self.check("ring_fifo_order", admits == forwards, || {
                    format!(
                        "worker {w}: admitted {} requests in a different order (or set) than the {} forwarded",
                        admits.len(),
                        forwards.len()
                    )
                });
            }
        }
        let steals = log.steals.lock().expect("audit lock").clone();
        consumed_total += steals.len() as u64;
        if stealing {
            let mut bad = None;
            for &(id, thief, victim) in &steals {
                if victim >= n
                    || !log.forwards[victim]
                        .lock()
                        .expect("audit lock")
                        .contains(&id)
                {
                    bad = Some(format!(
                        "worker {thief} stole job {id} never forwarded to victim {victim}"
                    ));
                    break;
                }
            }
            let detail = bad.clone().unwrap_or_default();
            self.check("steals_from_forwarded", bad.is_none(), move || detail);
        } else {
            self.check("no_steals_in_spsc", steals.is_empty(), || {
                format!("{} steals recorded without stealing mode", steals.len())
            });
        }
        self.check(
            "ring_exactly_once_admission",
            consumed_total == forwarded_total,
            || {
                format!(
                    "workers consumed {consumed_total} requests but the dispatcher forwarded {forwarded_total}"
                )
            },
        );
    }

    /// In-horizon agreement: the reported goodput numerator must equal a
    /// recount over the completion stream.
    pub fn check_in_horizon(&mut self, finishes: &[Nanos], horizon: Nanos, reported: u64) {
        let recount = finishes.iter().filter(|&&f| f <= horizon).count() as u64;
        self.check("in_horizon_recount", recount == reported, || {
            format!("reported in_horizon {reported} != recounted {recount}")
        });
    }

    /// Consumes the auditor, producing the report.
    pub fn finish(self) -> AuditReport {
        self.report
    }
}

/// `needle` is an in-order (not necessarily contiguous) subsequence of
/// `haystack`.
fn is_subsequence(needle: &[u64], haystack: &[u64]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// A trace of every request's path through the dispatch rings, recorded
/// only when auditing is enabled (the runtime holds an `Option` of this;
/// `None` costs one predictable branch per event).
///
/// Locking discipline: each `forwards[w]` is written only by the
/// dispatcher (the submitting thread), each `admits[w]` only by worker `w`, and `steals` by
/// any worker — the mutexes serialize writer-vs-auditor access, never
/// worker-vs-worker contention on the hot path.
#[derive(Debug)]
pub struct RingAuditLog {
    forwards: Vec<Mutex<Vec<u64>>>,
    admits: Vec<Mutex<Vec<u64>>>,
    steals: Mutex<Vec<(u64, usize, usize)>>,
}

impl RingAuditLog {
    /// Creates an empty log for `n_workers` rings.
    pub fn new(n_workers: usize) -> Self {
        RingAuditLog {
            forwards: (0..n_workers).map(|_| Mutex::new(Vec::new())).collect(),
            admits: (0..n_workers).map(|_| Mutex::new(Vec::new())).collect(),
            steals: Mutex::new(Vec::new()),
        }
    }

    /// Number of rings being traced.
    pub fn workers(&self) -> usize {
        self.forwards.len()
    }

    /// Dispatcher side: request `id` was pushed into worker `w`'s ring.
    pub fn on_forward(&self, w: usize, id: u64) {
        self.forwards[w].lock().expect("audit lock").push(id);
    }

    /// Worker side: worker `w` popped request `id` from its own ring.
    pub fn on_admit(&self, w: usize, id: u64) {
        self.admits[w].lock().expect("audit lock").push(id);
    }

    /// Worker side: `thief` stole request `id` from `victim`'s ring.
    pub fn on_steal(&self, thief: usize, victim: usize, id: u64) {
        self.steals
            .lock()
            .expect("audit lock")
            .push((id, thief, victim));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_scoped_attributes_violations_to_their_server() {
        let mut rack = InvariantAuditor::new("rack").finish();
        for server in 0..2 {
            let mut a = InvariantAuditor::new("server");
            a.check_conservation(2, if server == 1 { 1 } else { 2 }, &[]);
            rack.absorb_scoped(&format!("server {server}"), a.finish());
        }
        assert_eq!(rack.checks, 2);
        assert_eq!(rack.violations.len(), 1);
        assert!(
            rack.violations[0].detail.starts_with("[server 1] "),
            "violation must name its server: {}",
            rack.violations[0].detail
        );
    }

    #[test]
    fn clean_run_passes_every_check() {
        let mut a = InvariantAuditor::new("test");
        a.check_conservation(2, 2, &[]);
        a.check_exactly_once(&[0, 1], Some(2));
        let completions = [
            CompletionFact {
                id: 0,
                worker: 0,
                submitted: Nanos::from_nanos(10),
                finished: Nanos::from_nanos(50),
                quanta: 1,
            },
            CompletionFact {
                id: 1,
                worker: 1,
                submitted: Nanos::from_nanos(20),
                finished: Nanos::from_nanos(40),
                quanta: 3,
            },
        ];
        a.check_rt_timestamps(&completions, 2);
        a.check_worker_agreement(&completions, &[1, 1], &[1, 3]);
        a.check_in_horizon(
            &[Nanos::from_nanos(50), Nanos::from_nanos(40)],
            Nanos::from_nanos(45),
            1,
        );
        let report = a.finish();
        assert!(report.is_clean(), "{report}");
        assert!(report.checks >= 8);
    }

    #[test]
    fn lost_job_is_a_conservation_violation() {
        let mut a = InvariantAuditor::new("test");
        a.check_conservation(10, 9, &[]);
        let report = a.finish();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "job_conservation");
    }

    #[test]
    fn named_drops_balance_conservation() {
        let mut a = InvariantAuditor::new("test");
        a.check_conservation(10, 7, &[(DropReason::NetShed, 3)]);
        assert!(a.finish().is_clean());
    }

    #[test]
    fn duplicate_and_out_of_range_ids_flagged() {
        let mut a = InvariantAuditor::new("test");
        a.check_exactly_once(&[0, 1, 1, 7], Some(3));
        let report = a.finish();
        let names: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(names, ["exactly_once_ids", "ids_in_submitted_range"]);
    }

    #[test]
    fn backwards_per_worker_timestamps_flagged() {
        let mut a = InvariantAuditor::new("test");
        let completions = [
            CompletionFact {
                id: 0,
                worker: 0,
                submitted: Nanos::ZERO,
                finished: Nanos::from_nanos(100),
                quanta: 1,
            },
            CompletionFact {
                id: 1,
                worker: 0,
                submitted: Nanos::ZERO,
                finished: Nanos::from_nanos(90),
                quanta: 1,
            },
        ];
        a.check_rt_timestamps(&completions, 1);
        let report = a.finish();
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "per_worker_monotonic_finish"));
    }

    #[test]
    fn counter_disagreement_flagged() {
        let mut a = InvariantAuditor::new("test");
        let completions = [CompletionFact {
            id: 0,
            worker: 0,
            submitted: Nanos::ZERO,
            finished: Nanos::from_nanos(1),
            quanta: 2,
        }];
        a.check_worker_agreement(&completions, &[2], &[2]);
        let report = a.finish();
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "counter_completion_agreement"));
    }

    #[test]
    fn ring_log_spsc_requires_exact_fifo() {
        let log = RingAuditLog::new(1);
        log.on_forward(0, 5);
        log.on_forward(0, 6);
        log.on_admit(0, 6);
        log.on_admit(0, 5);
        let mut a = InvariantAuditor::new("test");
        a.check_ring_log(&log, false);
        let report = a.finish();
        assert!(report.violations.iter().any(|v| v.invariant == "ring_fifo_order"));
    }

    #[test]
    fn ring_log_stealing_allows_subsequence() {
        let log = RingAuditLog::new(2);
        log.on_forward(0, 1);
        log.on_forward(0, 2);
        log.on_forward(0, 3);
        log.on_forward(1, 4);
        log.on_admit(0, 1);
        log.on_admit(0, 3); // 2 was stolen
        log.on_admit(1, 4);
        log.on_steal(1, 0, 2);
        let mut a = InvariantAuditor::new("test");
        a.check_ring_log(&log, true);
        let report = a.finish();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn ring_log_catches_double_delivery() {
        let log = RingAuditLog::new(1);
        log.on_forward(0, 1);
        log.on_admit(0, 1);
        log.on_steal(0, 0, 1); // same request consumed twice
        let mut a = InvariantAuditor::new("test");
        a.check_ring_log(&log, true);
        let report = a.finish();
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "ring_exactly_once_admission"));
    }

    #[test]
    fn report_display_summarizes() {
        let mut a = InvariantAuditor::new("ctx");
        a.check("demo", false, || "boom".to_string());
        let text = a.finish().to_string();
        assert!(text.contains("ctx"));
        assert!(text.contains("demo: boom"));
    }
}
