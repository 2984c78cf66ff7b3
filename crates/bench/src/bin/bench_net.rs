//! Socket front-end throughput baseline: per-datagram syscalls vs the
//! batched `recvmmsg`/`sendmmsg` transport vs the completion-driven
//! io_uring transport, end to end over loopback.
//!
//! ```text
//! cargo run --release -p tq-bench --bin bench_net -- --throughput  # all arms → BENCH_net.json
//! cargo run --release -p tq-bench --bin bench_net -- --check       # perf gate vs committed file
//! ```
//!
//! Each arm drives the full wire path — client `sendmmsg` → kernel
//! loopback → server `recvmmsg` → burst decode → batched dispatch →
//! workers → coalesced `sendmmsg` of responses → client `recvmmsg` —
//! with a windowed flood: the client keeps a fixed number of
//! zero-service requests outstanding, so the socket pipeline (not the
//! arrival pacing, and not worker service time) is the bottleneck being
//! measured. The gated number is wall nanoseconds per completed
//! request. The `per_datagram` arm is the pre-PR front end reproduced
//! verbatim ([`serve_legacy`]): a blocking socket with a 1 ms read
//! timeout, one `recv_from` syscall and one `submit()` per request, a
//! heap `HashMap` per in-flight job, and one `send_to` syscall per
//! completion — with the client likewise pinned to one frame per
//! syscall. The `batched` arm is the shipped [`serve`] loop over the
//! `recvmmsg`/`sendmmsg` transport. The `io_uring` arm runs the same
//! serve loop over `IoUringTransport` (multishot provided-buffer
//! receive on a registered file) behind the
//! *same* mmsg client as the batched arm — the client is held constant
//! so the delta isolates the server-side transport swap — and exists
//! only where the startup capability probe validates it; the probe
//! result is printed either way, so a skipped arm is visible in logs,
//! never silently green.
//!
//! `--throughput` measures every arm (best of trials, criterion-style
//! minimum) and writes `BENCH_net.json` (schema `tq-bench-net/v1`) at
//! the repo root; on io_uring-capable hosts it refuses to write a
//! baseline in which the io_uring arm does not beat the batched arm
//! (floor [`URING_BASELINE_FLOOR`], recorded in the file). `--check`
//! re-measures the batched arm — and, where the probe allows, the
//! io_uring arm — and exits non-zero if ns/request regressed past
//! [`NET_CHECK_TOLERANCE`] against the committed baseline, or if the
//! io_uring arm fell below [`URING_CHECK_FLOOR`] of the batched arm
//! measured in the same run; it never rewrites the file. As with
//! `bench_rt`, the tolerances are generous because CI hosts are shared:
//! the gates catch a lost batch/completion path (e.g. a reintroduced
//! per-datagram send loop), not percent-level drift.
//!
//! Every trial is audited end to end (`TQ_AUDIT=0` disables): client
//! conservation (every request answered exactly once), the server's
//! datagram ledger (`received == responded + malformed + shed`), and the
//! server's internal invariant report. A trial that loses a datagram or
//! stalls fails the process — on loopback with sized socket buffers and
//! a bounded window, loss means a bug, not weather.
//!
//! Knobs: `TQ_NET_REQUESTS` (per trial; default 240k full / 48k check),
//! `TQ_NET_WINDOW` (outstanding requests, default 256), `TQ_RT_WORKERS`
//! (default 2), `TQ_SEED`, `TQ_AUDIT`.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tq_core::Nanos;
use tq_runtime::net::{
    self, decode_request, decode_response, encode_request, encode_response, serve, NetConfig,
    NetStats, ServeOutcome,
};
use tq_runtime::transport::{
    set_socket_buffers, Frame, Transport, TransportStats, UdpTransport, MAX_BATCH,
};
use tq_runtime::uring;
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};

/// `--check` fails when a gated arm's ns/request rises above
/// `committed / NET_CHECK_TOLERANCE` (a >2.5x regression). Same
/// rationale as `bench_rt`'s gate: shared CI hosts make wall time noisy;
/// the gate exists to catch a lost batch path, not drift.
const NET_CHECK_TOLERANCE: f64 = 0.4;

/// `--throughput` refuses to write a baseline in which the io_uring arm
/// is slower than the batched arm: the committed file must always show
/// the completion-driven path winning on the host that produced it.
const URING_BASELINE_FLOOR: f64 = 1.0;

/// `--check`'s same-run relative floor: the io_uring arm must stay
/// within this fraction of the batched arm's speed (a lost completion
/// path shows up as a multiple, not a percent).
const URING_CHECK_FLOOR: f64 = 0.8;

/// Requests per trial, `--throughput` and `--check`: five and four times
/// what they were before trains were received coalesced, when a request
/// cost five times as much, so a trial still lasts ≈ 90 and ≈ 20 ms.
const FULL_REQUESTS: u64 = 240_000;
const CHECK_REQUESTS: u64 = 48_000;

/// The measurable arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    PerDatagram,
    Batched,
    IoUring,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::PerDatagram => "per_datagram",
            Arm::Batched => "batched",
            Arm::IoUring => "io_uring",
        }
    }
}

fn audit_enabled() -> bool {
    std::env::var("TQ_AUDIT").map_or(true, |v| v != "0")
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// One arm's measurement (best trial kept).
struct NetMeasure {
    arm: &'static str,
    requests: u64,
    window: usize,
    trials: usize,
    wall_nanos: u64,
    /// Client transport counters from the best trial.
    client: TransportStats,
    /// Server-side ledger and syscall amortization from the best trial.
    server: NetStats,
}

impl NetMeasure {
    /// Wall time per completed request — the gated number.
    fn ns_per_request(&self) -> f64 {
        self.wall_nanos as f64 / self.requests.max(1) as f64
    }

    /// Requests per second achieved by the flood.
    fn krps(&self) -> f64 {
        self.requests as f64 / (self.wall_nanos.max(1) as f64 / 1e9) / 1e3
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"arm\": \"{}\", \"requests\": {}, \"window\": {}, ",
                "\"trials\": {}, \"wall_nanos\": {}, \"ns_per_request\": {:.2}, ",
                "\"krps\": {:.2}, \"client_send_calls\": {}, ",
                "\"client_recv_calls\": {}, \"server_recv_calls\": {}, ",
                "\"server_send_calls\": {}, \"server_frames_per_recv\": {:.2}, ",
                "\"server_frames_per_send\": {:.2}, \"server_send_msgs\": {}, ",
                "\"server_frames_per_msg\": {:.2}, \"client_send_msgs\": {}, ",
                "\"client_frames_per_msg\": {:.2}, \"server_recv_msgs\": {}, ",
                "\"server_frames_per_recv_msg\": {:.2}, \"client_recv_msgs\": {}, ",
                "\"client_frames_per_recv_msg\": {:.2}, \"responded\": {}}}"
            ),
            self.arm,
            self.requests,
            self.window,
            self.trials,
            self.wall_nanos,
            self.ns_per_request(),
            self.krps(),
            self.client.send_calls,
            self.client.recv_calls,
            self.server.transport.recv_calls,
            self.server.transport.send_calls,
            self.server.transport.frames_per_recv_call(),
            self.server.transport.frames_per_send_call(),
            self.server.transport.send_msgs,
            self.server.transport.frames_per_msg(),
            self.client.send_msgs,
            self.client.frames_per_msg(),
            self.server.transport.recv_msgs,
            self.server.transport.frames_per_recv_msg(),
            self.client.recv_msgs,
            self.client.frames_per_recv_msg(),
            self.server.responded,
        )
    }
}

fn make_transport(socket: UdpSocket, batched: bool) -> UdpTransport {
    set_socket_buffers(&socket, 1 << 20).expect("socket buffers");
    if batched {
        UdpTransport::batched(socket)
    } else {
        UdpTransport::per_datagram(socket)
    }
    .expect("transport")
}

/// The client-side transport for an arm: one frame per syscall for
/// `per_datagram`, mmsg batching for everything else. The `io_uring`
/// arm deliberately reuses the batched client — the client is the load
/// generator, not the system under test, and holding it constant makes
/// the batched→io_uring delta attribute entirely to the server-side
/// transport swap. (`tq-loadgen --transport io_uring` is what runs the
/// io_uring transport in the client role; it is not gated here.)
fn client_transport(arm: Arm) -> Box<dyn Transport + Send> {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    match arm {
        Arm::PerDatagram => Box::new(make_transport(socket, false)),
        Arm::Batched | Arm::IoUring => Box::new(make_transport(socket, true)),
    }
}

/// The server-side transport for an arm (the `per_datagram` arm never
/// gets here — it runs [`serve_legacy`] on the raw socket).
fn server_transport(arm: Arm, socket: UdpSocket, net_config: &NetConfig) -> Box<dyn Transport + Send> {
    match arm {
        Arm::PerDatagram => unreachable!("per_datagram runs serve_legacy"),
        Arm::Batched => Box::new(UdpTransport::batched(socket).expect("transport")),
        // The arm only runs where the probe passed, so this is io_uring.
        Arm::IoUring => net::server_transport(socket, net_config).expect("uring server"),
    }
}

/// The pre-PR serving loop, verbatim: a blocking socket with a 1 ms read
/// timeout (so every datagram pays a receiver wakeup), one `recv_from`
/// syscall and one `submit()` — with its own ledger snapshot — per
/// request, a heap `HashMap` entry per in-flight job, a fresh `Vec`
/// allocation per completion drain, and one `send_to` syscall per
/// completion inside the delivery closure. This is the `per_datagram`
/// arm: what a client observed before the batched front end existed.
fn serve_legacy(
    server: TinyQuanta,
    socket: &UdpSocket,
    stop: &AtomicBool,
) -> std::io::Result<ServeOutcome> {
    use std::collections::HashMap;
    socket.set_read_timeout(Some(Duration::from_millis(1)))?;
    let mut net = NetStats::default();
    let mut buf = [0u8; 64];
    let mut in_flight: HashMap<u64, (u64, SocketAddr)> = HashMap::new();
    let deliver = |completions: Vec<tq_runtime::Completion>,
                       in_flight: &mut HashMap<u64, (u64, SocketAddr)>,
                       net: &mut NetStats|
     -> std::io::Result<()> {
        for c in completions {
            if let Some((tag, addr)) = in_flight.remove(&c.id.0) {
                let resp = encode_response(tag, c.sojourn(), c.quanta);
                socket.send_to(&resp, addr)?;
                net.responded += 1;
                net.transport.send_calls += 1;
                net.transport.send_msgs += 1;
                net.transport.send_frames += 1;
            }
        }
        Ok(())
    };
    loop {
        match socket.recv_from(&mut buf) {
            Ok((len, addr)) => {
                net.received += 1;
                net.transport.recv_calls += 1;
                net.transport.recv_msgs += 1;
                net.transport.recv_frames += 1;
                match decode_request(&buf[..len]) {
                    Some((class, service, tag)) => {
                        let id = server.submit(class, service);
                        in_flight.insert(id.0, (tag, addr));
                    }
                    None => net.malformed += 1,
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
        deliver(server.drain_completions(), &mut in_flight, &mut net)?;
        net.max_in_flight = net.max_in_flight.max(in_flight.len() as u64);
        if stop.load(Ordering::Acquire) && in_flight.is_empty() {
            break;
        }
    }
    let (rest, server_stats) = server.shutdown_with_stats();
    deliver(rest, &mut in_flight, &mut net)?;
    Ok(ServeOutcome {
        net,
        server: server_stats,
    })
}

/// One windowed flood over a freshly started server; returns the trial's
/// wall time and both sides' counters. Panics on loss, stall, or audit
/// violation — a throughput baseline over loopback must conserve.
fn run_trial(
    arm: Arm,
    n: u64,
    window: usize,
    workers: usize,
    audit: bool,
    seed: u64,
    clock: &TscClock,
) -> (u64, TransportStats, ServeOutcome) {
    let config = ServerConfig {
        workers,
        quantum: Nanos::from_micros(5),
        seed,
        audit,
        ..ServerConfig::default()
    };
    let job_clock = clock.clone();
    let server = TinyQuanta::start_with_clock(config, clock.clone(), move |req| {
        Box::new(SpinJob::with_clock(req, &job_clock))
    });
    let srv_socket = UdpSocket::bind("127.0.0.1:0").expect("bind server");
    // Sized before the client can send its first window: the default
    // SO_RCVBUF holds 256 lone datagrams but only 253 segments of a train.
    set_socket_buffers(&srv_socket, 1 << 20).expect("socket buffers");
    let srv_addr: SocketAddr = srv_socket.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let serve_thread = {
        let stop = Arc::clone(&stop);
        let net_config = NetConfig {
            max_in_flight: (2 * window).max(1024),
            ..NetConfig::default()
        };
        std::thread::spawn(move || {
            if arm == Arm::PerDatagram {
                serve_legacy(server, &srv_socket, &stop)
            } else {
                let mut t = server_transport(arm, srv_socket, &net_config);
                serve(server, &mut t, &stop, &net_config)
            }
        })
    };

    let mut transport = client_transport(arm);
    let mut rx = vec![Frame::empty(); transport.max_batch()];
    let mut tx: Vec<Frame> = Vec::with_capacity(MAX_BATCH);
    let mut next = 0u64; // next tag to send
    let mut done = 0u64; // responses received
    let mut last_progress = Instant::now();
    let started = Instant::now();
    while done < n {
        // Top the window up in one batched send.
        tx.clear();
        while next < n && next - done < window as u64 && tx.len() < MAX_BATCH {
            tx.push(Frame::new(&encode_request(0, Nanos::ZERO, next), srv_addr));
            next += 1;
        }
        if !tx.is_empty() {
            transport.send_batch(&tx).expect("client send");
        }
        let got = transport.recv_batch(&mut rx).expect("client recv");
        for f in &rx[..got] {
            let (tag, _, _) = decode_response(f.payload()).expect("well-formed response");
            assert!(tag < n, "unknown tag {tag}");
            done += 1;
        }
        if got > 0 {
            last_progress = Instant::now();
        } else {
            assert!(
                last_progress.elapsed() < Duration::from_secs(5),
                "[{}] flood stalled at {done}/{n} responses (datagram lost on loopback?); \
                 client {:?}",
                arm.name(),
                transport.stats(),
            );
            // Yield, don't spin: on a host with fewer cores than threads
            // a spinning client serializes all progress to OS timeslices
            // and the measurement stops being about the socket path.
            std::thread::yield_now();
        }
    }
    let wall_nanos = started.elapsed().as_nanos() as u64;
    stop.store(true, Ordering::Release);
    let outcome = serve_thread.join().expect("serve thread").expect("serve ok");
    assert_eq!(outcome.net.responded, n, "flood must conserve datagrams");
    assert_eq!(outcome.net.shed, 0, "window below the in-flight bound never sheds");
    if audit {
        let net_report = outcome.net.audit();
        assert!(net_report.is_clean(), "net audit: {net_report}");
        if let Some(report) = &outcome.server.audit {
            assert!(report.is_clean(), "server audit: {report}");
        }
    }
    (wall_nanos, transport.stats(), outcome)
}

/// Best (lowest ns/request) of `trials` floods for one arm.
#[allow(clippy::too_many_arguments)]
fn measure(
    arm: Arm,
    n: u64,
    window: usize,
    workers: usize,
    trials: usize,
    audit: bool,
    seed: u64,
    clock: &TscClock,
) -> NetMeasure {
    let mut best: Option<NetMeasure> = None;
    for _ in 0..trials.max(1) {
        let (wall_nanos, client, outcome) = run_trial(arm, n, window, workers, audit, seed, clock);
        let m = NetMeasure {
            arm: arm.name(),
            requests: n,
            window,
            trials: trials.max(1),
            wall_nanos,
            client,
            server: outcome.net,
        };
        if best.as_ref().is_none_or(|b| m.wall_nanos < b.wall_nanos) {
            best = Some(m);
        }
    }
    best.expect("at least one trial")
}

fn print_measure(m: &NetMeasure) {
    println!(
        "{:>12}: {:>8.1} ns/request  ({:>7.1} krps, server {:.1} frames/recv syscall, \
         {:.1} frames/send, {} send_msgs = {:.1} frames/msg, {} recv_msgs = {:.1} frames/msg; \
         client {} sends {} recvs, {} send_msgs = {:.1} frames/msg, \
         {} recv_msgs = {:.1} frames/msg)",
        m.arm,
        m.ns_per_request(),
        m.krps(),
        m.server.transport.frames_per_recv_call(),
        m.server.transport.frames_per_send_call(),
        m.server.transport.send_msgs,
        m.server.transport.frames_per_msg(),
        m.server.transport.recv_msgs,
        m.server.transport.frames_per_recv_msg(),
        m.client.send_calls,
        m.client.recv_calls,
        m.client.send_msgs,
        m.client.frames_per_msg(),
        m.client.recv_msgs,
        m.client.frames_per_recv_msg(),
    );
}

/// Extracts `"ns_per_request": <number>` for the given arm from a
/// committed `BENCH_net.json` (string-search parsing, as everywhere: the
/// vendored dependency set has no JSON parser).
fn baseline_ns_per_request(json: &str, arm: &str) -> Option<f64> {
    let at = json.find(&format!("\"arm\": \"{arm}\""))?;
    let rest = &json[at..];
    let key = "\"ns_per_request\": ";
    let v = &rest[rest.find(key)? + key.len()..];
    let end = v.find([',', '}', '\n'])?;
    v[..end].trim().parse().ok()
}

fn run_throughput(n: u64, window: usize, workers: usize, audit: bool, seed: u64) -> ! {
    let trials = 3;
    let caps = uring::probe();
    println!(
        "bench_net (throughput): {workers} workers, {n} requests/trial, window {window}, \
         best of {trials}, seed {seed}, audit {}",
        if audit { "on" } else { "off" }
    );
    println!("capability probe: {}", caps.summary());
    println!();
    let clock = TscClock::calibrated();
    let per_datagram = measure(Arm::PerDatagram, n, window, workers, trials, audit, seed, &clock);
    print_measure(&per_datagram);
    let batched = measure(Arm::Batched, n, window, workers, trials, audit, seed, &clock);
    print_measure(&batched);
    let io_uring = if caps.available {
        let m = measure(Arm::IoUring, n, window, workers, trials, audit, seed, &clock);
        print_measure(&m);
        Some(m)
    } else {
        println!("    io_uring: SKIPPED — {}", caps.reason);
        None
    };
    let speedup = per_datagram.ns_per_request() / batched.ns_per_request();
    println!();
    println!("socket speedup (per-datagram / batched ns/request): {speedup:.2}x");
    let uring_speedup = io_uring.as_ref().map(|m| {
        let s = batched.ns_per_request() / m.ns_per_request();
        println!("io_uring speedup (batched / io_uring ns/request): {s:.2}x");
        s
    });
    if let Some(s) = uring_speedup {
        assert!(
            s >= URING_BASELINE_FLOOR,
            "refusing to commit a baseline where io_uring ({:.1} ns/request) does not beat \
             batched ({:.1} ns/request): {s:.2}x < {URING_BASELINE_FLOOR:.1}x floor",
            io_uring.as_ref().unwrap().ns_per_request(),
            batched.ns_per_request(),
        );
    }

    let mut arms = vec![per_datagram.json(), batched.json()];
    if let Some(m) = &io_uring {
        arms.push(m.json());
    }
    let doc = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"tq-bench-net/v1\",\n",
            "  \"workers\": {},\n",
            "  \"requests\": {},\n",
            "  \"window\": {},\n",
            "  \"seed\": {},\n",
            "  \"audit\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"quick\": {},\n",
            "  \"io_uring_probe\": \"{}\",\n",
            "  \"arms\": [\n    {}\n  ],\n",
            "  \"speedup_ns_per_request\": {:.2},\n",
            "  \"io_uring_speedup_vs_batched\": {},\n",
            "  \"io_uring_gate_floor_vs_batched\": {:.1}\n",
            "}}\n"
        ),
        workers,
        n,
        window,
        seed,
        audit,
        tq_bench::host_cores(),
        n < FULL_REQUESTS, // reduced flood via TQ_NET_REQUESTS: not a full baseline
        caps.summary(),
        arms.join(",\n    "),
        speedup,
        uring_speedup.map_or("null".to_string(), |s| format!("{s:.2}")),
        URING_BASELINE_FLOOR,
    );
    std::fs::write("BENCH_net.json", &doc).expect("write BENCH_net.json");
    println!("wrote BENCH_net.json");
    std::process::exit(0);
}

fn run_check(n: u64, window: usize, workers: usize, audit: bool, seed: u64) -> ! {
    let trials = 2;
    let caps = uring::probe();
    println!(
        "bench_net (check): {workers} workers, {n} requests/trial, window {window}, \
         best of {trials}, seed {seed}, audit {}",
        if audit { "on" } else { "off" }
    );
    println!("capability probe: {}", caps.summary());
    println!();
    let committed = std::fs::read_to_string("BENCH_net.json")
        .expect("--check needs a committed BENCH_net.json");
    let baseline = baseline_ns_per_request(&committed, "batched")
        .expect("BENCH_net.json has no batched ns_per_request");
    let clock = TscClock::calibrated();
    let batched = measure(Arm::Batched, n, window, workers, trials, audit, seed, &clock);
    print_measure(&batched);
    let current = batched.ns_per_request();
    let mut failed = false;
    // ns/request is a cost: a ratio below 1.0 means slower than committed.
    let ratio = baseline / current;
    println!();
    println!(
        "perf gate (batched): {current:.1} ns/request vs committed {baseline:.1} ns/request — \
         {:.0}% (floor {:.0}%)",
        ratio * 100.0,
        NET_CHECK_TOLERANCE * 100.0,
    );
    if ratio < NET_CHECK_TOLERANCE {
        eprintln!(
            "PERF REGRESSION: socket ns/request rose to {:.1}x the committed baseline",
            current / baseline
        );
        failed = true;
    }
    if caps.available {
        let io_uring = measure(Arm::IoUring, n, window, workers, trials, audit, seed, &clock);
        print_measure(&io_uring);
        let uring_current = io_uring.ns_per_request();
        // Absolute gate against the committed io_uring arm (if the file
        // predates the arm, the same-run relative gate still applies).
        if let Some(uring_baseline) = baseline_ns_per_request(&committed, "io_uring") {
            let uring_ratio = uring_baseline / uring_current;
            println!(
                "perf gate (io_uring): {uring_current:.1} ns/request vs committed \
                 {uring_baseline:.1} ns/request — {:.0}% (floor {:.0}%)",
                uring_ratio * 100.0,
                NET_CHECK_TOLERANCE * 100.0,
            );
            if uring_ratio < NET_CHECK_TOLERANCE {
                eprintln!(
                    "PERF REGRESSION: io_uring ns/request rose to {:.1}x the committed baseline",
                    uring_current / uring_baseline
                );
                failed = true;
            }
        }
        // Same-run relative floor: catches a lost completion path even
        // when both arms drift together with the host.
        let rel = current / uring_current;
        println!(
            "perf gate (io_uring vs batched, same run): {:.2}x (floor {URING_CHECK_FLOOR:.1}x)",
            rel
        );
        if rel < URING_CHECK_FLOOR {
            eprintln!(
                "PERF REGRESSION: io_uring ({uring_current:.1} ns/request) fell below \
                 {URING_CHECK_FLOOR:.1}x of batched ({current:.1} ns/request) in the same run"
            );
            failed = true;
        }
    } else {
        // Loud skip: the gate must never look green because the probe
        // quietly said no.
        println!("PERF GATE SKIPPED (io_uring arm): {}", caps.reason);
    }
    if failed {
        std::process::exit(1);
    }
    println!("perf gate passed");
    std::process::exit(0);
}

fn main() {
    let mut mode_check = false;
    let mut mode_throughput = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--check" => mode_check = true,
            "--throughput" => mode_throughput = true,
            _ => {
                eprintln!("unknown argument {a:?} (supported: --throughput, --check)");
                std::process::exit(2);
            }
        }
    }
    let workers = env_u64("TQ_RT_WORKERS", 2) as usize;
    let window = env_u64("TQ_NET_WINDOW", 256) as usize;
    let audit = audit_enabled();
    let seed = tq_bench::seed();
    if mode_check {
        let n = env_u64("TQ_NET_REQUESTS", CHECK_REQUESTS);
        run_check(n, window, workers, audit, seed);
    }
    if mode_throughput {
        let n = env_u64("TQ_NET_REQUESTS", FULL_REQUESTS);
        run_throughput(n, window, workers, audit, seed);
    }
    eprintln!("pick a mode: --throughput (write BENCH_net.json) or --check (gate against it)");
    std::process::exit(2);
}
