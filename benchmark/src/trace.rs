//! The stage ledger, taken from outside the program: wrappers around the
//! transport, the job factory and the job record a stamp at each boundary
//! a request crosses, all on the server's one clock, and the join turns
//! the stamps of one request into stages that sum to its round trip.
//!
//! Stamps are kept per thread in memory while a trial runs. Worker
//! threads belong to the server, so their logs are handed over when the
//! thread ends (a thread-local's destructor), which `shutdown` waits for.

use crate::json::Json;
use crate::spec::STAGES;
use crate::stats::Hist;
use std::cell::{Cell, RefCell};
use std::io;
use std::sync::{Arc, Mutex};
use tq_runtime::transport::{Frame, Transport, TransportStats};
use tq_runtime::{Job, JobStatus, QuantumCtx, RtRequest, TscClock};

/// What the wrappers saw of one job. Times are nanoseconds on the
/// server's clock.
#[derive(Clone, Debug, Default)]
pub struct JobRec {
    pub id: u64,
    pub submitted: u64,
    pub factory: u64,
    pub first_run: u64,
    pub last_end: u64,
    pub run_sum: u64,
    pub slices: u32,
    /// Every slice as `(start, end)`, kept for sampled jobs only.
    pub detail: Option<Vec<(u64, u64)>>,
}

#[derive(Default)]
pub struct ThreadLog {
    pub jobs: Vec<JobRec>,
    /// One `run()` return to the next `run()` call on this thread.
    pub gaps: Hist,
}

/// Collects the worker threads' logs of one traced trial.
pub struct Tracer {
    clock: TscClock,
    /// Jobs whose id is a multiple of this keep every slice.
    sample_stride: u64,
    done: Mutex<Vec<ThreadLog>>,
}

struct Local {
    log: ThreadLog,
    tracer: Arc<Tracer>,
}

impl Drop for Local {
    fn drop(&mut self) {
        // A poisoned lock means another thread already panicked; the
        // trial fails on the missing log, so dropping it here is enough.
        if let Ok(mut done) = self.tracer.done.lock() {
            done.push(std::mem::take(&mut self.log));
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
    static LAST_RETURN: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    pub fn new(clock: TscClock, sample_stride: u64) -> Arc<Tracer> {
        Arc::new(Tracer {
            clock,
            sample_stride: sample_stride.max(1),
            done: Mutex::new(Vec::new()),
        })
    }

    /// Wraps a job factory: stamps the factory call and returns the job
    /// inside a [`TimedJob`].
    pub fn wrap_factory<F>(
        self: &Arc<Self>,
        inner: F,
    ) -> impl Fn(&RtRequest) -> Box<dyn Job> + Send + Sync + 'static
    where
        F: Fn(&RtRequest) -> Box<dyn Job> + Send + Sync + 'static,
    {
        let tracer = Arc::clone(self);
        move |req: &RtRequest| {
            let factory = tracer.clock.wall_nanos().as_nanos();
            LOCAL.with(|l| {
                l.borrow_mut().get_or_insert_with(|| Local {
                    log: ThreadLog::default(),
                    tracer: Arc::clone(&tracer),
                });
            });
            Box::new(TimedJob {
                inner: inner(req),
                clock: tracer.clock.clone(),
                rec: JobRec {
                    id: req.id.0,
                    submitted: req.submitted.as_nanos(),
                    factory,
                    detail: req.id.0.is_multiple_of(tracer.sample_stride).then(Vec::new),
                    ..JobRec::default()
                },
            })
        }
    }

    /// The logs of every worker thread that has ended. Call after the
    /// server has shut down.
    pub fn take(&self) -> Vec<ThreadLog> {
        std::mem::take(&mut *self.done.lock().expect("a worker panicked while logging"))
    }
}

/// A job that stamps each `run()` call and return.
struct TimedJob {
    inner: Box<dyn Job>,
    clock: TscClock,
    rec: JobRec,
}

impl Job for TimedJob {
    fn run(&mut self, ctx: &mut QuantumCtx) -> JobStatus {
        let start = self.clock.wall_nanos().as_nanos();
        let status = self.inner.run(ctx);
        let end = self.clock.wall_nanos().as_nanos();
        let previous = LAST_RETURN.replace(end);
        let rec = &mut self.rec;
        if rec.slices == 0 {
            rec.first_run = start;
        }
        rec.slices += 1;
        rec.run_sum += end - start;
        rec.last_end = end;
        if let Some(detail) = &mut rec.detail {
            detail.push((start, end));
        }
        LOCAL.with(|l| {
            if let Some(local) = l.borrow_mut().as_mut() {
                if previous != 0 {
                    local.log.gaps.record(start.saturating_sub(previous));
                }
                if status == JobStatus::Done {
                    local.log.jobs.push(std::mem::take(rec));
                }
            }
        });
        status
    }
}

/// What [`TimedTransport`] saw. `rx` is in receive order, which is the
/// order the serve loop assigns job ids in.
#[derive(Default)]
pub struct TransportLog {
    /// `(tag, recv_batch return)` per request frame.
    pub rx: Vec<(u64, u64)>,
    /// `(tag, send_batch start, send_batch return)` per response frame.
    pub tx: Vec<(u64, u64, u64)>,
    pub recv_busy_ns: u64,
    pub send_ns: u64,
    pub polls: u64,
    pub empty_polls: u64,
}

/// A transport that times every call into the one it wraps.
pub struct TimedTransport<T> {
    inner: T,
    clock: TscClock,
    pub log: TransportLog,
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T, clock: TscClock, expected_frames: usize) -> Self {
        TimedTransport {
            inner,
            clock,
            log: TransportLog {
                rx: Vec::with_capacity(expected_frames),
                tx: Vec::with_capacity(expected_frames),
                ..TransportLog::default()
            },
        }
    }
}

fn le_u64(bytes: Option<&[u8]>) -> u64 {
    bytes
        .and_then(|b| b.try_into().ok())
        .map_or(u64::MAX, u64::from_le_bytes)
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn recv_batch(&mut self, out: &mut [Frame]) -> io::Result<usize> {
        let start = self.clock.wall_nanos().as_nanos();
        let n = self.inner.recv_batch(out)?;
        self.log.polls += 1;
        if n == 0 {
            self.log.empty_polls += 1;
            return Ok(0);
        }
        let end = self.clock.wall_nanos().as_nanos();
        self.log.recv_busy_ns += end - start;
        for f in &out[..n] {
            // The request's tag is its last eight bytes.
            self.log.rx.push((le_u64(f.payload().get(10..18)), end));
        }
        Ok(n)
    }

    fn send_batch(&mut self, frames: &[Frame]) -> io::Result<()> {
        let start = self.clock.wall_nanos().as_nanos();
        self.inner.send_batch(frames)?;
        let end = self.clock.wall_nanos().as_nanos();
        self.log.send_ns += end - start;
        for f in frames {
            // The response's tag is its first eight bytes.
            self.log
                .tx
                .push((le_u64(f.payload().get(0..8)), start, end));
        }
        Ok(())
    }

    fn max_batch(&self) -> usize {
        self.inner.max_batch()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Every stamp of one request. The wire stamps are absent in process.
#[derive(Clone, Debug, Default)]
pub struct Stamps {
    pub due: u64,
    pub send: u64,
    pub srv_recv: Option<u64>,
    pub submitted: u64,
    pub factory: u64,
    pub first_run: u64,
    pub last_end: u64,
    pub run_sum: u64,
    /// `(send_batch start, send_batch return)`.
    pub tx: Option<(u64, u64)>,
    pub recv: u64,
}

impl Stamps {
    /// The ten stage durations, in the order of [`STAGES`], or `None` if
    /// the stamps are not monotone. They sum to `recv - due`.
    pub fn stages(&self) -> Option<[u64; 10]> {
        let srv_recv = self.srv_recv.unwrap_or(self.send);
        // The client can have the response before the server's send call
        // returns; what is left of the call is then not on the request's
        // path, so the stage ends at the receipt.
        let (tx_start, tx_end) = match self.tx {
            Some((s, e)) => (s, e.min(self.recv)),
            None => (self.recv, self.recv),
        };
        let bounds = [
            self.due,
            self.send,
            srv_recv,
            self.submitted,
            self.factory,
            self.first_run,
            self.last_end,
            tx_start,
            tx_end,
            self.recv,
        ];
        if bounds.windows(2).any(|w| w[0] > w[1]) || self.run_sum > self.last_end - self.first_run {
            return None;
        }
        Some([
            self.send - self.due,
            srv_recv - self.send,
            self.submitted - srv_recv,
            self.factory - self.submitted,
            self.first_run - self.factory,
            self.run_sum,
            self.last_end - self.first_run - self.run_sum,
            tx_start - self.last_end,
            tx_end - tx_start,
            self.recv - tx_end,
        ])
    }
}

/// One interval of one request's trace; `parent` is the span that caused
/// it, as an index into the same list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Each span's duration minus the part of it its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    (0..spans.len())
        .map(|i| {
            let (start, end) = (spans[i].start, spans[i].end);
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(|s| (s.start.clamp(start, end), s.end.clamp(start, end)))
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = start;
            for (s, e) in kids {
                if e > reach {
                    covered += e - s.max(reach);
                    reach = e;
                }
            }
            end - start - covered
        })
        .collect()
}

/// The spans of one request: the request, the stages under it, the
/// server's and the job's share as spans of their own, and under the job
/// one span per slice when `slices` has them. The job's self time is the
/// `preempted` stage.
pub fn request_spans(st: &Stamps, slices: &[(u64, u64)]) -> Vec<Span> {
    let mut spans = vec![Span {
        name: "request",
        parent: None,
        start: st.due,
        end: st.recv,
    }];
    let mut add = |name, parent, start, end| {
        spans.push(Span {
            name,
            parent: Some(parent),
            start,
            end,
        });
        spans.len() - 1
    };
    add("stage.gen_lag", 0, st.due, st.send);
    let (tx_start, tx_end) = match st.tx {
        Some((s, e)) => (s, e.min(st.recv)),
        None => (st.recv, st.recv),
    };
    // On the wire the server's share is a span of its own; in process
    // the stages hang off the request.
    let server = match st.srv_recv {
        Some(srv_recv) => {
            add("stage.wire_in", 0, st.send, srv_recv);
            let server = add("server", 0, srv_recv, tx_end);
            add("stage.ingest", server, srv_recv, st.submitted);
            server
        }
        None => {
            add("stage.ingest", 0, st.send, st.submitted);
            0
        }
    };
    add("stage.dispatch_hop", server, st.submitted, st.factory);
    add("stage.admit", server, st.factory, st.first_run);
    let job = add("job", server, st.first_run, st.last_end);
    for &(s, e) in slices {
        add("slice", job, s, e);
    }
    add("stage.completion_hop", server, st.last_end, tx_start);
    if st.tx.is_some() {
        add("stage.tx", server, tx_start, tx_end);
        add("stage.wire_out", 0, tx_end, st.recv);
    }
    spans
}

/// The joined trace of one trial.
#[derive(Default)]
pub struct Ledger {
    pub stages: [Hist; 10],
    pub round_trip: Hist,
    pub requests: u64,
    /// Requests whose stamps were missing or not monotone.
    pub violations: u64,
    pub first_violation: Option<String>,
    /// `(tag, spans)` of the sampled requests.
    pub samples: Vec<(u64, Vec<Span>)>,
}

impl Ledger {
    pub fn add(&mut self, tag: u64, st: &Stamps, detail: Option<&[(u64, u64)]>) {
        self.requests += 1;
        let Some(stages) = st.stages() else {
            self.violate(format!("request {tag}: stamps not monotone: {st:?}"));
            return;
        };
        debug_assert_eq!(stages.iter().sum::<u64>(), st.recv - st.due);
        for (h, v) in self.stages.iter_mut().zip(stages) {
            h.record(v);
        }
        self.round_trip.record(st.recv - st.due);
        if let Some(slices) = detail {
            self.samples.push((tag, request_spans(st, slices)));
        }
    }

    pub fn violate(&mut self, what: String) {
        self.violations += 1;
        self.first_violation.get_or_insert(what);
    }

    /// Mean of each stage as a share of the mean round trip.
    pub fn shares(&self) -> [f64; 10] {
        let whole = self.round_trip.mean();
        std::array::from_fn(|i| {
            if whole > 0.0 {
                self.stages[i].mean() / whole
            } else {
                0.0
            }
        })
    }

    pub fn to_json(&self) -> Json {
        let shares = self.shares();
        let stages = STAGES.iter().enumerate().map(|(i, name)| {
            let h = &self.stages[i];
            (
                format!("stage.{name}"),
                Json::obj([
                    ("p50_ns", Json::Num(h.percentile(0.5))),
                    ("p99_ns", Json::Num(h.percentile(0.99))),
                    ("mean_ns", Json::Num(h.mean())),
                    ("share_of_round_trip", Json::Num(shares[i])),
                ]),
            )
        });
        let samples = self.samples.iter().map(|(tag, spans)| {
            let selfs = self_times(spans);
            Json::obj([
                ("request", Json::Num(*tag as f64)),
                (
                    "spans",
                    Json::Arr(
                        spans
                            .iter()
                            .zip(selfs)
                            .enumerate()
                            .map(|(i, (s, self_ns))| {
                                Json::obj([
                                    ("id", Json::Num(i as f64)),
                                    (
                                        "parent",
                                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                    ),
                                    ("name", Json::str(s.name)),
                                    ("start_ns", Json::Num(s.start as f64)),
                                    ("end_ns", Json::Num(s.end as f64)),
                                    ("self_ns", Json::Num(self_ns as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        });
        Json::obj([
            ("requests", Json::Num(self.requests as f64)),
            ("violations", Json::Num(self.violations as f64)),
            ("round_trip_mean_ns", Json::Num(self.round_trip.mean())),
            ("stages", Json::obj(stages)),
            ("sampled_requests", Json::Arr(samples.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_stamps() -> Stamps {
        Stamps {
            due: 100,
            send: 130,
            srv_recv: Some(400),
            submitted: 450,
            factory: 700,
            first_run: 720,
            last_end: 1_500,
            run_sum: 500,
            tx: Some((1_600, 1_900)),
            recv: 1_800,
        }
    }

    #[test]
    fn stages_sum_to_the_round_trip() {
        let st = wire_stamps();
        let stages = st.stages().expect("monotone");
        assert_eq!(stages.iter().sum::<u64>(), st.recv - st.due);
        // service, preempted, and a tx stage cut short at the receipt.
        assert_eq!(stages[5], 500);
        assert_eq!(stages[6], 280);
        assert_eq!(stages[8], 200);
        assert_eq!(stages[9], 0);

        let rt = Stamps {
            srv_recv: None,
            tx: None,
            ..wire_stamps()
        };
        let stages = rt.stages().expect("monotone");
        assert_eq!(stages.iter().sum::<u64>(), rt.recv - rt.due);
        assert_eq!((stages[1], stages[8], stages[9]), (0, 0, 0));
        assert_eq!(stages[2], 450 - 130);
        assert_eq!(stages[7], 1_800 - 1_500);
    }

    #[test]
    fn out_of_order_stamps_are_refused() {
        let late_factory = Stamps {
            factory: 10_000,
            ..wire_stamps()
        };
        assert_eq!(late_factory.stages(), None);
        let too_much_service = Stamps {
            run_sum: 900,
            ..wire_stamps()
        };
        assert_eq!(too_much_service.stages(), None);
        let mut ledger = Ledger::default();
        ledger.add(7, &late_factory, None);
        ledger.add(8, &wire_stamps(), None);
        assert_eq!((ledger.requests, ledger.violations), (2, 1));
        assert!(ledger
            .first_violation
            .as_deref()
            .is_some_and(|v| v.contains("request 7")));
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            Span {
                name: "parent",
                parent: None,
                start: 0,
                end: 100,
            },
            Span {
                name: "a",
                parent: Some(0),
                start: 10,
                end: 30,
            },
            // Overlaps `a` and runs past the parent's end.
            Span {
                name: "b",
                parent: Some(0),
                start: 20,
                end: 120,
            },
            Span {
                name: "grandchild",
                parent: Some(1),
                start: 12,
                end: 15,
            },
        ];
        assert_eq!(self_times(&spans), vec![10, 17, 100, 3]);
    }

    #[test]
    fn span_tree_of_a_request_matches_its_stages() {
        let st = wire_stamps();
        let slices = [(720, 1_000), (1_280, 1_500)];
        let spans = request_spans(&st, &slices);
        let selfs = self_times(&spans);
        let by_name = |name: &str| {
            let i = spans.iter().position(|s| s.name == name).expect(name);
            (spans[i].end - spans[i].start, selfs[i])
        };
        // The stages tile the request and the server, and the job's self
        // time is the time it stood preempted.
        assert_eq!(by_name("request"), (1_700, 0));
        assert_eq!(by_name("server").1, 0);
        assert_eq!(by_name("job"), (780, 280));
        let stages = st.stages().expect("monotone");
        for (name, want) in STAGES.iter().zip(stages) {
            if matches!(*name, "service" | "preempted") {
                continue;
            }
            let full = format!("stage.{name}");
            let span = spans.iter().find(|s| s.name == full).expect("stage span");
            assert_eq!(span.end - span.start, want, "{full}");
        }
    }
}
