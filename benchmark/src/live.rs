//! One trial of a live workload: a fresh in-process server, the
//! benchmark's own client on one thread, a timed window over a fixed
//! number of requests, and the checks on what came back.
//!
//! Servers run `ServerConfig::default()` / `NetConfig::default()` with two
//! workers and one clock shared with the client, so what ships is what is
//! measured and every stamp is on one timeline.

use crate::host::{cpu_time_ns, Placement};
use crate::stats::Hist;
use crate::trace::{JobRec, Ledger, Stamps, TimedTransport, Tracer, TransportLog};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tq_core::Nanos;
use tq_harness::Pacer;
use tq_runtime::net::{self, decode_response, encode_request, NetConfig, NetStats, ServeOutcome};
use tq_runtime::server::JobFactory;
use tq_runtime::transport::{set_socket_buffers, Frame, Transport, UdpTransport, MAX_BATCH};
use tq_runtime::{
    kv, Job, JobStatus, QuantumCtx, ServerConfig, ServerStats, SpinJob, TinyQuanta, TscClock,
};
use tq_sim::SimRng;
use tq_workloads::{table1, ArrivalGen};

pub const WORKERS: usize = 2;
/// A kv store and the requests made of it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct KvShape {
    pub keys: u64,
    pub value_bytes: usize,
    /// Entries per SCAN.
    pub scan_len: usize,
    /// Share of requests that are SCANs (`table1::rocksdb`); the rest GET.
    pub scan_share: f64,
}

/// `wire_open`: the paper's RocksDB workload with few SCANs. The store is
/// some 40 MB, far beyond the caches.
pub const KV_LARGE: KvShape = KvShape {
    keys: 200_000,
    value_bytes: 100,
    scan_len: 20_000,
    scan_share: 0.005,
};
/// `wire_kv`: a store that stays in a core's L2 and as many SCANs as GETs.
/// With `KV_LARGE` the work is memory-bound, and the host's memory speed
/// moved `wire_kv` from 13.6 to 23.8 us a request within ten runs (and
/// `setup_s`, which is the populate, from 0.066 to 0.109 s with it); at
/// 0.5% SCANs their number in a trial, 125 give or take 11 by the seed,
/// moved it as well.
pub const KV_SMALL: KvShape = KvShape {
    keys: 8_192,
    value_bytes: 64,
    scan_len: 2_000,
    scan_share: 0.5,
};
/// Slices of one `rt_slice` job: 255 yields, then done.
pub const SLICES_PER_JOB: u64 = 256;
/// A closed loop with no response for this long has lost a request.
const STALL: Duration = Duration::from_secs(5);
/// A backlog is growing when this much of an open loop's rate is
/// outstanding at the end of the schedule and half as much already was
/// halfway through. Overload grows a backlog steadily; a stall the host
/// imposes shows at one of the two points only.
const BACKLOG_SECONDS: f64 = 0.050;
/// The open loop holds back while this many requests are outstanding (a
/// tenth of a second of arrivals at `wire_open`'s rate). It never comes
/// near it unless the server's CPU is taken away for that long, which a
/// shared host does now and then; the requests held back are then late,
/// which their latency from the due time counts, instead of lost to a
/// full socket buffer or shed at the in-flight bound.
const MAX_OUTSTANDING: u64 = 2048;

/// What the requests of a workload do on a worker.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Jobs {
    /// `SpinJob` with zero service.
    Spin,
    /// Yields 255 times doing no work, then finishes.
    Yield,
    /// `kv_factory` over a freshly populated store.
    Kv(KvShape),
}

/// How requests are offered.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Loop {
    /// At most `window` outstanding; a response frees a slot.
    Closed { window: u64 },
    /// Poisson schedule at `rate` requests per second, drawn from the
    /// seed before the trial; latency counts from the due time.
    Open { rate: f64 },
}

#[derive(Clone, Copy, Debug)]
pub struct LiveSpec {
    /// Over loopback UDP through `net::serve`, or straight into
    /// `submit_burst` / `drain_completions_into`.
    pub wire: bool,
    pub load: Loop,
    pub jobs: Jobs,
    /// Per-class latency limits `(short, long)` in nanoseconds for
    /// `loadgen.slo_miss_share`, frozen at 5x the seed commit's p99.
    pub slo_ns: (u64, u64),
}

#[derive(Clone, Copy, Default)]
pub struct TrialMode {
    pub traced: bool,
    pub audit: bool,
}

/// Stamps the client keeps in a traced trial, by tag.
#[derive(Default)]
struct ClientTrace {
    due: Vec<u64>,
    send: Vec<u64>,
    recv: Vec<u64>,
}

/// The client's books for one trial.
struct Client {
    n: u64,
    /// Where a request's latency starts: its due time in an open loop,
    /// its hand-over in a closed one.
    origin: Vec<u64>,
    /// Which requests are of the long class; empty when none is.
    long: Vec<bool>,
    seen: Vec<u64>,
    trace: Option<ClientTrace>,
    slo_ns: (u64, u64),
    done: u64,
    unexpected: u64,
    wrong_quanta: u64,
    slo_miss: u64,
    lat: Hist,
    lat_long: Hist,
    lag: Hist,
    send_ns: u64,
    recv_ns: u64,
}

impl Client {
    fn new(n: u64, long: Vec<bool>, traced: bool, slo_ns: (u64, u64)) -> Client {
        let len = n as usize;
        Client {
            n,
            origin: vec![0; len],
            long,
            seen: vec![0; len.div_ceil(64)],
            trace: traced.then(|| ClientTrace {
                due: vec![0; len],
                send: vec![0; len],
                recv: vec![0; len],
            }),
            slo_ns,
            done: 0,
            unexpected: 0,
            wrong_quanta: 0,
            slo_miss: 0,
            lat: Hist::default(),
            lat_long: Hist::default(),
            lag: Hist::default(),
            send_ns: 0,
            recv_ns: 0,
        }
    }

    fn sent(&mut self, tag: u64, due: u64, send: u64, from_due: bool) {
        let i = tag as usize;
        self.origin[i] = if from_due { due } else { send };
        self.lag.record(send.saturating_sub(due));
        if let Some(t) = &mut self.trace {
            t.due[i] = due;
            t.send[i] = send;
        }
    }

    /// Books one response: exactly once per tag, latency by class.
    fn received(&mut self, tag: u64, at: u64) {
        let i = tag as usize;
        if tag >= self.n || self.seen[i / 64] & (1 << (i % 64)) != 0 {
            self.unexpected += 1;
            return;
        }
        self.seen[i / 64] |= 1 << (i % 64);
        self.done += 1;
        let lat = at.saturating_sub(self.origin[i]);
        let (hist, limit) = if self.long.get(i) == Some(&true) {
            (&mut self.lat_long, self.slo_ns.1)
        } else {
            (&mut self.lat, self.slo_ns.0)
        };
        hist.record(lat);
        self.slo_miss += u64::from(lat > limit);
        if let Some(t) = &mut self.trace {
            t.recv[i] = at;
        }
    }
}

/// What one trial measured and checked.
pub struct Trial {
    pub setup_s: f64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Checks the program failed.
    pub errors: Vec<String>,
    /// Failures that are the host's doing, not the program's: datagrams
    /// the kernel dropped between the two sockets while the server's own
    /// ledger balanced, or an open loop's backlog that grew because the
    /// server's CPU was taken away. A trial that has only these may be
    /// discarded and repeated; see `workloads::MAX_DISCARDED`.
    pub disturbed: Vec<String>,
    /// Requests the client never saw answered, until the trial knows
    /// whether the server lost them (an error) or the kernel did.
    lost: Option<String>,
    pub lat: Hist,
    pub lat_long: Hist,
    pub lag: Hist,
    pub slo_miss: u64,
    /// Client time inside send / `submit_burst` calls, and inside the
    /// receive / drain calls that returned something.
    pub send_ns: u64,
    pub recv_ns: u64,
    pub tier: &'static str,
    pub net: Option<NetStats>,
    pub server: ServerStats,
    pub traced: Option<TracedTrial>,
}

pub struct TracedTrial {
    pub ledger: Ledger,
    pub transport: Option<TransportLog>,
    pub gaps: Hist,
}

struct YieldJob {
    left: u64,
}

impl Job for YieldJob {
    fn run(&mut self, _ctx: &mut QuantumCtx) -> JobStatus {
        if self.left == 0 {
            return JobStatus::Done;
        }
        self.left -= 1;
        JobStatus::Yielded
    }
}

fn start_server(
    jobs: Jobs,
    seed: u64,
    clock: &TscClock,
    audit: bool,
    tracer: Option<&Arc<Tracer>>,
) -> TinyQuanta {
    let config = ServerConfig {
        workers: WORKERS,
        seed,
        audit,
        ..ServerConfig::default()
    };
    let job_clock = clock.clone();
    let factory: Box<JobFactory> = match jobs {
        Jobs::Spin => Box::new(move |req| Box::new(SpinJob::with_clock(req, &job_clock))),
        Jobs::Yield => Box::new(|_| {
            Box::new(YieldJob {
                left: SLICES_PER_JOB - 1,
            })
        }),
        Jobs::Kv(kv) => kv::kv_factory(
            kv::kv_store(seed, kv.keys, kv.value_bytes),
            kv.keys,
            kv.scan_len,
        ),
    };
    match tracer {
        Some(t) => TinyQuanta::start_with_clock(config, clock.clone(), t.wrap_factory(factory)),
        None => TinyQuanta::start_with_clock(config, clock.clone(), factory),
    }
}

/// The requests of a kv workload, `(due offset, class, service)` each,
/// drawn from the seed: Poisson arrivals at `rate`, class 1 (SCAN) with
/// probability `scan_share`, class 0 (GET) otherwise.
fn schedule(seed: u64, scan_share: f64, rate: f64, n: u64) -> Vec<(u64, u16, Nanos)> {
    let mut gen = ArrivalGen::new(table1::rocksdb(scan_share), rate, SimRng::new(seed));
    (0..n)
        .map(|_| {
            let r = gen.next_request();
            (r.arrival.as_nanos(), r.class.0, r.service)
        })
        .collect()
}

pub fn udp_socket() -> UdpSocket {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind a loopback UDP socket");
    // Room for the requests of a stall of tens of milliseconds, which a
    // shared host imposes now and then; the kernel may grant less.
    set_socket_buffers(&socket, 4 << 20).expect("size socket buffers");
    socket
}

type Served = (std::io::Result<ServeOutcome>, Option<TransportLog>);

/// Runs the timed window: `(result, wall ns, process CPU ns)`.
fn timed<R>(window: impl FnOnce() -> R) -> (R, u64, u64) {
    let cpu0 = cpu_time_ns();
    let started = Instant::now();
    let result = window();
    let wall_ns = started.elapsed().as_nanos() as u64;
    (result, wall_ns, cpu_time_ns() - cpu0)
}

/// Runs one trial of `ops` requests.
pub fn trial(
    spec: &LiveSpec,
    seed: u64,
    ops: u64,
    mode: TrialMode,
    placement: &Placement,
) -> Trial {
    let begun = Instant::now();
    let schedule = match (spec.jobs, spec.load) {
        (Jobs::Kv(kv), Loop::Open { rate }) => schedule(seed, kv.scan_share, rate, ops),
        // A closed loop takes the classes in the order drawn and sends
        // each request when a slot is free, whatever its due time.
        (Jobs::Kv(kv), Loop::Closed { .. }) => schedule(seed, kv.scan_share, 1.0, ops),
        _ => Vec::new(),
    };
    let clock = TscClock::calibrated();
    let tracer = mode
        .traced
        .then(|| Tracer::new(clock.clone(), (ops / 64).max(1)));
    let server = start_server(spec.jobs, seed, &clock, mode.audit, tracer.as_ref());
    let long = schedule.iter().map(|s| s.1 != 0).collect();
    let mut client = Client::new(ops, long, mode.traced, spec.slo_ns);

    let mut t = if spec.wire {
        let srv_socket = udp_socket();
        let srv_addr = srv_socket.local_addr().expect("server address");
        let net_config = NetConfig::default();
        let transport = net::server_transport(srv_socket, &net_config).expect("server transport");
        let tier = transport.label();
        let stop = Arc::new(AtomicBool::new(false));
        let serve_thread = {
            let (stop, clock, traced) = (Arc::clone(&stop), clock.clone(), mode.traced);
            std::thread::spawn(move || -> Served {
                if traced {
                    let mut timed = TimedTransport::new(transport, clock, ops as usize);
                    let out = net::serve(server, &mut timed, &stop, &net_config);
                    (out, Some(timed.log))
                } else {
                    let mut transport = transport;
                    (net::serve(server, &mut transport, &stop, &net_config), None)
                }
            })
        };
        let mut wire = UdpTransport::batched(udp_socket()).expect("client transport");
        if matches!(spec.load, Loop::Open { .. }) {
            placement.to_generator();
        }
        let setup_s = begun.elapsed().as_secs_f64();

        let ((backlog, errors), wall_ns, cpu_ns) = timed(|| match spec.load {
            Loop::Closed { window } => {
                let errors = flood(&mut wire, srv_addr, &clock, &mut client, &schedule, window);
                (0, errors)
            }
            Loop::Open { rate } => {
                open_loop(&mut wire, srv_addr, &clock, &mut client, &schedule, rate)
            }
        });

        placement.to_server();
        stop.store(true, Ordering::Release);
        let (outcome, log) = serve_thread.join().expect("serve thread panicked");
        let mut t = Trial::new(setup_s, wall_ns, cpu_ns, tier, &mut client);
        match spec.load {
            Loop::Open { .. } => t.disturbed.extend(errors),
            Loop::Closed { .. } => t.errors.extend(errors),
        }
        t.failed += backlog;
        match outcome {
            Ok(o) => {
                t.check_net(&o.net, ops);
                t.net = Some(o.net);
                t.server = o.server;
            }
            Err(e) => t.errors.push(format!("serve failed: {e}")),
        }
        // With every other check passed, the server answered each request
        // it received: what is missing never reached a socket's far end.
        match t.lost.take() {
            Some(lost) if t.errors.is_empty() => t.disturbed.push(format!(
                "{lost}; the server's ledger balances, so the kernel dropped them between the sockets"
            )),
            Some(lost) => t.errors.push(lost),
            None => {}
        }
        t.traced = tracer.map(|tr| join(&client, tr.take(), log));
        t
    } else {
        let Loop::Closed { window } = spec.load else {
            panic!("the in-process workloads are closed loops");
        };
        let setup_s = begun.elapsed().as_secs_f64();
        let expect_quanta = match spec.jobs {
            Jobs::Yield => SLICES_PER_JOB,
            _ => 1,
        };
        let (errors, wall_ns, cpu_ns) =
            timed(|| submit_loop(&server, &clock, &mut client, window, expect_quanta));
        let (rest, stats) = server.shutdown_with_stats();
        let mut t = Trial::new(setup_s, wall_ns, cpu_ns, "in-process", &mut client);
        t.errors.extend(t.lost.take());
        t.errors.extend(errors);
        if !rest.is_empty() {
            t.errors
                .push(format!("{} completions left at shutdown", rest.len()));
        }
        t.server = stats;
        t.traced = tracer.map(|tr| join(&client, tr.take(), None));
        t
    };
    let taken_in = t.net.as_ref().map_or(ops, |net| net.received);
    t.check_server(taken_in, mode.audit);
    // A disturbed trial's stamps cannot all be joined; it is not kept.
    if let Some(traced) = t.traced.as_ref().filter(|_| t.disturbed.is_empty()) {
        if traced.ledger.violations > 0 || traced.ledger.requests != t.completed {
            t.errors.push(format!(
                "trace: {} of {} requests joined, {} without monotone stamps ({})",
                traced.ledger.requests,
                t.completed,
                traced.ledger.violations,
                traced.ledger.first_violation.as_deref().unwrap_or("-"),
            ));
        }
    }
    // A trial that failed a check has no trustworthy operation count.
    if !t.errors.is_empty() || !t.disturbed.is_empty() {
        t.failed = t.failed.max(1);
    }
    t
}

impl Trial {
    fn new(setup_s: f64, wall_ns: u64, cpu_ns: u64, tier: &'static str, c: &mut Client) -> Trial {
        let mut errors = Vec::new();
        if c.unexpected > 0 {
            errors.push(format!("{} duplicate or unknown responses", c.unexpected));
        }
        if c.wrong_quanta > 0 {
            errors.push(format!(
                "{} completions with the wrong quanta count",
                c.wrong_quanta
            ));
        }
        let lost = c.n - c.done;
        let lost_note = (lost > 0).then(|| {
            let mut missing = (0..c.n).filter(|&t| c.seen[t as usize / 64] & (1 << (t % 64)) == 0);
            let first = missing.next().unwrap_or(0);
            format!(
                "{lost} of {} requests never answered (tags {first}..={})",
                c.n,
                missing.next_back().unwrap_or(first)
            )
        });
        Trial {
            disturbed: Vec::new(),
            lost: lost_note,
            setup_s,
            wall_ns,
            cpu_ns,
            attempted: c.n,
            completed: c.done,
            failed: lost + c.unexpected + c.wrong_quanta,
            errors,
            lat: std::mem::take(&mut c.lat),
            lat_long: std::mem::take(&mut c.lat_long),
            lag: std::mem::take(&mut c.lag),
            // A request that failed misses any limit.
            slo_miss: c.slo_miss + lost,
            send_ns: c.send_ns,
            recv_ns: c.recv_ns,
            tier,
            net: None,
            server: ServerStats::default(),
            traced: None,
        }
    }

    /// The datagram ledger: every request received was answered, the
    /// transport's frame counters agree, nothing was shed or malformed.
    /// (Whether every request sent was received is the client's check.)
    fn check_net(&mut self, net: &NetStats, ops: u64) {
        let report = net.audit();
        if !report.is_clean() {
            self.errors.push(format!("net audit: {report}"));
        }
        if net.shed != 0 || net.malformed != 0 {
            self.failed += net.shed + net.malformed;
            self.errors
                .push(format!("{} shed, {} malformed", net.shed, net.malformed));
        }
        if net.received > ops || net.responded != net.received {
            self.errors.push(format!(
                "server received {} and answered {} of {ops}",
                net.received, net.responded
            ));
        }
    }

    fn check_server(&mut self, ops: u64, audited: bool) {
        let s = &self.server;
        if s.total_completed() != ops || s.dispatcher.forwarded != ops || s.total_dropped() != 0 {
            self.errors.push(format!(
                "server forwarded {}, completed {}, dropped {} of {ops} submitted",
                s.dispatcher.forwarded,
                s.total_completed(),
                s.total_dropped()
            ));
        }
        match &s.audit {
            Some(report) if !report.is_clean() => {
                self.errors.push(format!("server audit: {report}"))
            }
            None if audited => self
                .errors
                .push("audit was on but no report came back".into()),
            _ => {}
        }
    }

    pub fn wall_ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.completed.max(1) as f64
    }

    pub fn cpu_ns_per_op(&self) -> f64 {
        self.cpu_ns as f64 / self.completed.max(1) as f64
    }
}

fn request_frame(class: u16, service: Nanos, tag: u64, to: SocketAddr) -> Frame {
    Frame::new(&encode_request(class, service, tag), to)
}

/// Drains every response readable now. Returns how many arrived and the
/// stamp of the last non-empty receive.
fn drain_wire(
    wire: &mut UdpTransport,
    rx: &mut [Frame],
    clock: &TscClock,
    c: &mut Client,
) -> (u64, u64) {
    let (mut got, mut at) = (0, 0);
    loop {
        let start = clock.wall_nanos().as_nanos();
        let n = wire.recv_batch(rx).expect("client receive");
        if n == 0 {
            return (got, at);
        }
        at = clock.wall_nanos().as_nanos();
        c.recv_ns += at - start;
        got += n as u64;
        for f in &rx[..n] {
            match decode_response(f.payload()) {
                Some((tag, _, _)) => c.received(tag, at),
                None => c.unexpected += 1,
            }
        }
    }
}

/// The closed loop over the wire: keep `window` requests outstanding until
/// all `c.n` are answered; request `i` is of `schedule[i]`'s class, or a
/// zero-service one of class 0 when there is no schedule.
fn flood(
    wire: &mut UdpTransport,
    to: SocketAddr,
    clock: &TscClock,
    c: &mut Client,
    schedule: &[(u64, u16, Nanos)],
    window: u64,
) -> Vec<String> {
    let mut rx = vec![Frame::empty(); wire.max_batch()];
    let mut tx: Vec<Frame> = Vec::with_capacity(MAX_BATCH);
    let mut next = 0u64;
    let mut slot_free = clock.wall_nanos().as_nanos();
    let mut progress = Instant::now();
    while c.done < c.n {
        tx.clear();
        let first = next;
        while next < c.n && next - c.done < window && tx.len() < MAX_BATCH {
            let (class, service) = schedule
                .get(next as usize)
                .map_or((0, Nanos::ZERO), |s| (s.1, s.2));
            tx.push(request_frame(class, service, next, to));
            next += 1;
        }
        if !tx.is_empty() {
            let send = clock.wall_nanos().as_nanos();
            wire.send_batch(&tx).expect("client send");
            c.send_ns += clock.wall_nanos().as_nanos() - send;
            for tag in first..next {
                c.sent(tag, slot_free, send, false);
            }
        }
        let (got, at) = drain_wire(wire, &mut rx, clock, c);
        if got > 0 {
            slot_free = at;
            progress = Instant::now();
        } else if c.unexpected > 0 || progress.elapsed() > STALL {
            return vec![format!("flood stopped at {} of {} responses", c.done, c.n)];
        } else {
            // Yield, as bench_net's client does: with fewer cores than
            // threads a spinning client would time the OS scheduler.
            std::thread::yield_now();
        }
    }
    Vec::new()
}

/// The open loop over the wire. Returns the requests outstanding when the
/// last one was sent if the backlog was growing (0 if not), and any error.
fn open_loop(
    wire: &mut UdpTransport,
    to: SocketAddr,
    clock: &TscClock,
    c: &mut Client,
    schedule: &[(u64, u16, Nanos)],
    rate: f64,
) -> (u64, Vec<String>) {
    let mut rx = vec![Frame::empty(); wire.max_batch()];
    let mut tx: Vec<Frame> = Vec::with_capacity(MAX_BATCH);
    let pacer = Pacer::start(clock.clone());
    let t0 = pacer.origin().as_nanos();
    let mut i = 0;
    let mut outstanding_halfway = 0;
    while i < schedule.len() {
        if i <= schedule.len() / 2 {
            outstanding_halfway = i as u64 - c.done;
        }
        pacer.wait_until_with(Nanos::from_nanos(schedule[i].0), &mut || {
            drain_wire(wire, &mut rx, clock, c);
        });
        let held = Instant::now();
        while i as u64 - c.done >= MAX_OUTSTANDING && held.elapsed() < STALL {
            drain_wire(wire, &mut rx, clock, c);
        }
        let send = clock.wall_nanos().as_nanos();
        tx.clear();
        let first = i;
        while i < schedule.len() && t0 + schedule[i].0 <= send && tx.len() < MAX_BATCH {
            tx.push(request_frame(schedule[i].1, schedule[i].2, i as u64, to));
            i += 1;
        }
        wire.send_batch(&tx).expect("client send");
        c.send_ns += clock.wall_nanos().as_nanos() - send;
        for (tag, due) in schedule.iter().enumerate().take(i).skip(first) {
            c.sent(tag as u64, t0 + due.0, send, true);
        }
    }
    drain_wire(wire, &mut rx, clock, c);
    let outstanding = c.n - c.done;
    let allowance = (rate * BACKLOG_SECONDS) as u64;
    let mut errors = Vec::new();
    let growing = outstanding > allowance && outstanding_halfway > allowance / 2;
    if growing {
        errors.push(format!(
            "{outstanding_halfway} requests outstanding halfway and {outstanding} when the last was sent \
             (allowance {allowance}): the backlog was growing"
        ));
    }
    let backlog = if growing { outstanding } else { 0 };
    let mut progress = Instant::now();
    while c.done < c.n && progress.elapsed() < STALL {
        if drain_wire(wire, &mut rx, clock, c).0 > 0 {
            progress = Instant::now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    (backlog, errors)
}

/// The closed loop in process: `submit_burst` up to 64 at a time, drain
/// completions, until all `c.n` are back.
fn submit_loop(
    server: &TinyQuanta,
    clock: &TscClock,
    c: &mut Client,
    window: u64,
    expect_quanta: u64,
) -> Vec<String> {
    let burst = [(0u16, Nanos::ZERO); MAX_BATCH];
    let mut completions = Vec::with_capacity(4096);
    let mut next = 0u64;
    let mut slot_free = clock.wall_nanos().as_nanos();
    let mut progress = Instant::now();
    while c.done < c.n {
        let k = (window - (next - c.done))
            .min(c.n - next)
            .min(MAX_BATCH as u64);
        if k > 0 {
            let send = clock.wall_nanos().as_nanos();
            let first = server.submit_burst(&burst[..k as usize]).0;
            c.send_ns += clock.wall_nanos().as_nanos() - send;
            if first != next {
                return vec![format!("submit_burst returned id {first}, expected {next}")];
            }
            for tag in next..next + k {
                c.sent(tag, slot_free, send, false);
            }
            next += k;
        }
        completions.clear();
        let start = clock.wall_nanos().as_nanos();
        server.drain_completions_into(&mut completions);
        if completions.is_empty() {
            if c.unexpected > 0 || progress.elapsed() > STALL {
                return vec![format!("stopped at {} of {} completions", c.done, c.n)];
            }
            if k == 0 {
                std::thread::yield_now();
            }
            continue;
        }
        let at = clock.wall_nanos().as_nanos();
        c.recv_ns += at - start;
        for done in &completions {
            c.wrong_quanta += u64::from(done.quanta != expect_quanta);
            c.received(done.id.0, at);
        }
        slot_free = at;
        progress = Instant::now();
    }
    Vec::new()
}

/// Joins the client's, the transport's and the workers' stamps into the
/// stage ledger. On the wire the k-th frame the server received is job
/// `k`, which holds because nothing was shed or malformed.
fn join(
    client: &Client,
    logs: Vec<crate::trace::ThreadLog>,
    transport: Option<TransportLog>,
) -> TracedTrial {
    let n = client.n as usize;
    let ct = client
        .trace
        .as_ref()
        .expect("a traced trial keeps client stamps");
    let mut ledger = Ledger::default();
    let mut gaps = Hist::default();
    let mut jobs: Vec<Option<JobRec>> = vec![None; n];
    if logs.len() != WORKERS {
        ledger.violate(format!("{} worker logs, expected {WORKERS}", logs.len()));
    }
    for log in logs {
        gaps.merge(&log.gaps);
        for rec in log.jobs {
            let id = rec.id as usize;
            if id < n {
                jobs[id] = Some(rec);
            }
        }
    }
    let mut tx_of: Vec<Option<(u64, u64)>> = vec![None; n];
    if let Some(log) = &transport {
        for &(tag, start, end) in &log.tx {
            if let Some(slot) = tx_of.get_mut(tag as usize) {
                *slot = Some((start, end));
            }
        }
    }
    for (id, rec) in jobs.iter().enumerate() {
        let Some(rec) = rec else {
            ledger.requests += 1;
            ledger.violate(format!("job {id} left no record"));
            continue;
        };
        let (tag, srv_recv, tx) = match &transport {
            Some(log) => match log.rx.get(id) {
                Some(&(tag, at)) if (tag as usize) < n => {
                    (tag as usize, Some(at), tx_of[tag as usize])
                }
                _ => {
                    ledger.requests += 1;
                    ledger.violate(format!("job {id} has no received frame"));
                    continue;
                }
            },
            None => (id, None, None),
        };
        if transport.is_some() && tx.is_none() {
            ledger.requests += 1;
            ledger.violate(format!("request {tag} was never sent back"));
            continue;
        }
        let stamps = Stamps {
            due: ct.due[tag],
            send: ct.send[tag],
            srv_recv,
            submitted: rec.submitted,
            factory: rec.factory,
            first_run: rec.first_run,
            last_end: rec.last_end,
            run_sum: rec.run_sum,
            tx,
            recv: ct.recv[tag],
        };
        ledger.add(tag as u64, &stamps, rec.detail.as_deref());
    }
    TracedTrial {
        ledger,
        transport,
        gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_trial(wire: bool, jobs: Jobs, ops: u64) -> Trial {
        let spec = LiveSpec {
            wire,
            load: Loop::Closed { window: 64 },
            jobs,
            slo_ns: (u64::MAX, u64::MAX),
        };
        let mode = TrialMode {
            traced: true,
            audit: true,
        };
        trial(&spec, 7, ops, mode, &Placement::server_side())
    }

    /// A live traced trial joins every request, monotone, on both paths.
    #[test]
    fn traced_trials_account_for_every_request() {
        for (wire, jobs, quanta) in [(false, Jobs::Yield, SLICES_PER_JOB), (true, Jobs::Spin, 1)] {
            let t = traced_trial(wire, jobs, 2_000);
            assert!(t.errors.is_empty(), "wire {wire}: {:?}", t.errors);
            assert_eq!((t.completed, t.failed), (2_000, 0));
            assert_eq!(t.server.total_quanta(), 2_000 * quanta);
            let traced = t.traced.expect("traced");
            assert_eq!(
                (traced.ledger.requests, traced.ledger.violations),
                (2_000, 0)
            );
            assert_eq!(traced.ledger.round_trip.count(), 2_000);
            assert_eq!(traced.transport.is_some(), wire);
            assert!(!traced.ledger.samples.is_empty());
        }
    }
}
