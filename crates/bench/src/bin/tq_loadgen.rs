//! `tq-loadgen`: the paper's open-loop client over a real socket.
//!
//! Paces a pre-drawn Poisson arrival schedule (the same `ArrivalGen`
//! streams every engine consumes) against the wall clock with the
//! harness [`Pacer`] — hybrid sleep/spin, never re-timing — and sends
//! each request as a UDP datagram to a Tiny Quanta server, draining
//! responses *while pacing* so the measurement stays open-loop (§5.1
//! methodology, scaled to loopback). By default it starts the server
//! in-process behind `crates/runtime`'s batched socket front end serving
//! the shared tq-kv GET/SCAN job; `--connect` aims it at an external
//! server instead.
//!
//! ```text
//! cargo run --release -p tq-bench --bin tq-loadgen                 # kv over loopback
//! cargo run --release -p tq-bench --bin tq-loadgen -- --smoke      # CI: small, audited
//! cargo run --release -p tq-bench --bin tq-loadgen -- --compare    # + in-process RtEngine run
//! cargo run --release -p tq-bench --bin tq-loadgen -- --connect 10.0.0.2:9000
//! ```
//!
//! Results land in `results/loadgen.json` in the shared `tq-run/v1`
//! schema: the socket run is an ordinary record whose `classes_sojourn`
//! percentiles are *client-observed* round trips (measured on the client
//! clock from send to receive) and whose `net` block carries the
//! transport label, loss ledger, and both sides' datagram accounting.
//! `--compare` appends the in-process `RtEngine` record for the same
//! spec, so wire cost is one subtraction away.
//!
//! Auditing (`TQ_AUDIT`, default on) checks the client ledger
//! (`sent == responses + lost`), the server ledger
//! (`received == responded + malformed + shed`, frame counters agreeing
//! with the transport), and the server's internal invariant report.
//! Loss is tolerated on a noisy host — UDP makes no promises — but in
//! `--smoke` mode any loss, shed, or audit violation fails the process:
//! over loopback at smoke rates every datagram must survive, which is
//! what the CI net smoke job gates on.
//!
//! Multi-client fan-in (`--clients N`) splits the offered load across
//! `N` concurrent paced clients, each on its own socket with its own
//! arrival schedule (seed `base ^ idx`) at `rate / N` — the server sees
//! genuinely interleaved flows, which is what exercises the batched and
//! io_uring receive paths' frame demultiplexing. The merged record's
//! `net` block then carries per-client round-trip tails and the
//! cross-client p99.9 spread (max − min), so fan-in unfairness is one
//! field, not a re-run.
//!
//! Knobs: `--requests` (total across clients), `--rate` (rps, total),
//! `--clients N` (default 1), `--workload kv|spin|<preset>` (a
//! hostile-traffic preset name from `tq_workloads::hostile` runs its
//! workload *and* arrival process as spin jobs), `--workers`,
//! `--transport mmsg|syscall|io_uring` (both sides; `io_uring` runs the
//! one io_uring transport in both roles, each on its own unconnected
//! socket, and skips loudly — exit 0 with the probe's reason — where
//! the kernel lacks it), `--out`; `TQ_SEED`, `TQ_AUDIT`, `TQ_RT_WORKERS`
//! as everywhere else.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tq_audit::InvariantAuditor;
use tq_core::job::Completion;
use tq_core::Nanos;
use tq_harness::{json, ClientRtt, NetMeta, Pacer, PolicyMeta, RtEngine, RunRecord, RunSpec};
use tq_runtime::kv::{kv_factory, kv_store};
use tq_runtime::net::{self, decode_response, encode_request, serve, NetConfig, ServeOutcome};
use tq_runtime::transport::{set_socket_buffers, Frame, Transport, UdpTransport};
use tq_runtime::uring::{self, IoUringTransport, UringConfig};
use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};
use tq_sim::TailStats;
use tq_workloads::{table1, ArrivalProcess};

#[derive(Clone, Copy, PartialEq)]
enum WorkloadChoice {
    /// tq-kv GET/SCAN behind the wire (RocksDB 0.5% SCAN mix).
    Kv,
    /// Spin jobs burning the drawn service time (extreme bimodal).
    Spin,
    /// Spin jobs drawn from a named hostile-traffic preset
    /// (`tq_workloads::hostile`): its workload *and* arrival process.
    Hostile(&'static str),
}

/// Which wire both sides ride (`--transport`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TransportChoice {
    /// One datagram per syscall (`udp:syscall`).
    Syscall,
    /// `recvmmsg`/`sendmmsg` batching (`udp:mmsg`).
    Mmsg,
    /// io_uring (`uring:multishot`) on both sides; requires the
    /// capability probe to pass.
    IoUring,
}

impl TransportChoice {
    fn label(self) -> &'static str {
        match self {
            TransportChoice::Syscall => "udp:syscall",
            TransportChoice::Mmsg => "udp:mmsg",
            TransportChoice::IoUring => "io_uring",
        }
    }
}

#[derive(Clone)]
struct Args {
    requests: u64,
    rate_rps: f64,
    clients: usize,
    workload: WorkloadChoice,
    workers: usize,
    transport: TransportChoice,
    smoke: bool,
    compare: bool,
    connect: Option<SocketAddr>,
    serve: Option<SocketAddr>,
    serve_secs: u64,
    policy: Option<String>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 0, // resolved after --smoke is known
        rate_rps: 0.0,
        clients: 1,
        workload: WorkloadChoice::Kv,
        workers: 0,
        transport: TransportChoice::Mmsg,
        smoke: false,
        compare: false,
        connect: None,
        serve: None,
        serve_secs: 60,
        policy: None,
        out: "results/loadgen.json".to_string(),
    };
    let mut requests: Option<u64> = None;
    let mut rate: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = true,
            "--requests" => requests = value("--requests").parse().ok(),
            "--rate" => rate = value("--rate").parse().ok(),
            "--workers" => args.workers = value("--workers").parse().unwrap_or(0),
            "--out" => args.out = value("--out"),
            "--connect" => {
                args.connect = Some(value("--connect").parse().unwrap_or_else(|e| {
                    eprintln!("--connect: bad address: {e}");
                    std::process::exit(2);
                }));
            }
            "--serve" => {
                args.serve = Some(value("--serve").parse().unwrap_or_else(|e| {
                    eprintln!("--serve: bad bind address: {e}");
                    std::process::exit(2);
                }));
            }
            "--serve-secs" => {
                args.serve_secs = value("--serve-secs").parse().unwrap_or_else(|e| {
                    eprintln!("--serve-secs: bad value: {e}");
                    std::process::exit(2);
                });
            }
            "--policy" => args.policy = Some(value("--policy")),
            "--workload" => {
                args.workload = match value("--workload").as_str() {
                    "kv" => WorkloadChoice::Kv,
                    "spin" => WorkloadChoice::Spin,
                    v => match tq_workloads::hostile::by_name(v) {
                        Some(p) => WorkloadChoice::Hostile(p.name),
                        None => {
                            eprintln!(
                                "--workload takes kv|spin|<hostile preset> (known presets: {}), got {v:?}",
                                tq_workloads::hostile::NAMES.join(", ")
                            );
                            std::process::exit(2);
                        }
                    },
                };
            }
            "--transport" => {
                args.transport = match value("--transport").as_str() {
                    "mmsg" => TransportChoice::Mmsg,
                    "syscall" => TransportChoice::Syscall,
                    "io_uring" => TransportChoice::IoUring,
                    v => {
                        eprintln!("--transport takes mmsg|syscall|io_uring, got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--clients" => {
                args.clients = value("--clients").parse().unwrap_or(0);
                if args.clients == 0 {
                    eprintln!("--clients needs a positive count");
                    std::process::exit(2);
                }
            }
            _ => {
                eprintln!(
                    "unknown argument {a:?} (supported: --smoke, --compare, --requests N, \
                     --rate RPS, --clients N, --workload kv|spin, --workers N, \
                     --transport mmsg|syscall|io_uring, --policy NAME, --connect ADDR, \
                     --serve ADDR, --serve-secs N, --out PATH)"
                );
                std::process::exit(2);
            }
        }
    }
    // Gentle defaults: on a shared host the client, serve loop,
    // dispatcher and workers are all oversubscribed OS threads.
    args.requests = requests.unwrap_or(if args.smoke { 2_000 } else { 20_000 });
    args.rate_rps = rate.unwrap_or(if args.smoke { 10_000.0 } else { 20_000.0 });
    if args.workers == 0 {
        args.workers = tq_bench::rt_workers();
    }
    args
}

/// `--transport io_uring` on a kernel whose probe fails: skip loudly,
/// exit clean — the CI job passes without pretending the arm ran.
fn gate_uring_or_skip() {
    let caps = uring::probe();
    if !caps.available {
        println!("SKIPPED (--transport io_uring): {}", caps.reason);
        std::process::exit(0);
    }
}

/// The server-side transport for a choice. The io_uring choice is only
/// reached past [`gate_uring_or_skip`], where `net::server_transport`
/// yields io_uring.
fn server_wire(
    choice: TransportChoice,
    socket: UdpSocket,
    net_config: &NetConfig,
) -> std::io::Result<Box<dyn Transport + Send>> {
    Ok(match choice {
        TransportChoice::Syscall => Box::new(UdpTransport::per_datagram(socket)?),
        TransportChoice::Mmsg => Box::new(UdpTransport::batched(socket)?),
        TransportChoice::IoUring => net::server_transport(socket, net_config)?,
    })
}

/// A client transport on its own unconnected socket; every frame the
/// client sends carries the server's address.
fn client_wire(choice: TransportChoice) -> Box<dyn Transport + Send> {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    set_socket_buffers(&socket, 1 << 20).expect("socket buffers");
    match choice {
        TransportChoice::Syscall => {
            Box::new(UdpTransport::per_datagram(socket).expect("client transport"))
        }
        TransportChoice::Mmsg => Box::new(UdpTransport::batched(socket).expect("client transport")),
        TransportChoice::IoUring => {
            // Send depth covers an open-loop backlog burst; the answers
            // to one come back as trains, a posted buffer each.
            Box::new(
                IoUringTransport::server_with(
                    socket,
                    UringConfig { send_pool: 512, ..UringConfig::default() },
                )
                .expect("uring client"),
            )
        }
    }
}

/// Per-response client bookkeeping filled in by the receive path.
struct ClientState {
    /// Stream-time receive instant per tag (`None` = still outstanding).
    recv_time: Vec<Option<Nanos>>,
    /// Responses matched to an outstanding tag.
    responses: u64,
    /// Frames that decoded but repeated an already-answered tag, or
    /// carried a tag that was never sent.
    unexpected: u64,
    /// Frames that failed response decoding.
    malformed: u64,
    /// Server-reported sojourn per response, for the printed breakdown.
    server_sojourn: TailStats,
}

/// One fan-in client's ledger, tail, and completion stream.
struct ClientOutcome {
    sent: u64,
    responses: u64,
    lost: u64,
    unexpected: u64,
    malformed: u64,
    rtt: TailStats,
    server_sojourn: TailStats,
    /// Client-observed completions on this client's stream clock
    /// (arrival = actual send instant, finish = receive instant).
    completions: Vec<Completion>,
    in_horizon: u64,
}

/// Paces `schedule` against the wall clock over its own socket,
/// draining responses while pacing, then drains stragglers. The whole
/// open-loop client, one call per fan-in client.
fn run_client(
    choice: TransportChoice,
    srv_addr: SocketAddr,
    clock: TscClock,
    schedule: &[tq_core::Request],
    horizon: Nanos,
    smoke: bool,
) -> ClientOutcome {
    let mut transport = client_wire(choice);
    let mut rx = vec![Frame::empty(); transport.max_batch()];
    let mut state = ClientState {
        recv_time: vec![None; schedule.len()],
        responses: 0,
        unexpected: 0,
        malformed: 0,
        server_sojourn: TailStats::new(),
    };
    let mut send_time = vec![Nanos::ZERO; schedule.len()];

    let pacer = Pacer::start(clock.clone());
    let t0 = pacer.origin();
    for (i, r) in schedule.iter().enumerate() {
        pacer.wait_until_with(r.arrival, &mut || {
            drain_responses(&mut transport, &mut rx, &clock, t0, &mut state);
        });
        // Wire tags are schedule positions, local to this client's
        // socket — responses route back by source address.
        let req = encode_request(r.class.0, r.service, i as u64);
        transport
            .send_batch(&[Frame::new(&req, srv_addr)])
            .expect("client send");
        send_time[i] = clock.wall_nanos().saturating_sub(t0);
    }
    let sent = schedule.len() as u64;

    // Drain stragglers: UDP promises nothing, so give up after a
    // deadline and account the rest as lost.
    let drain_deadline = Instant::now() + Duration::from_secs(if smoke { 5 } else { 10 });
    while state.responses < sent && Instant::now() < drain_deadline {
        drain_responses(&mut transport, &mut rx, &clock, t0, &mut state);
        std::thread::sleep(Duration::from_micros(100));
    }
    let lost = sent - state.responses;

    let mut rtt = TailStats::new();
    let mut completions: Vec<Completion> = Vec::with_capacity(state.responses as usize);
    let mut in_horizon = 0u64;
    for (i, r) in schedule.iter().enumerate() {
        if let Some(finish) = state.recv_time[i] {
            rtt.record(finish.saturating_sub(send_time[i]).as_nanos());
            in_horizon += u64::from(finish <= horizon);
            completions.push(Completion {
                id: r.id,
                class: r.class,
                // Sojourn here = the client-observed round trip: the
                // clock starts at the actual send instant (open loop:
                // late sends measure the trip, not the pacing debt).
                arrival: send_time[i],
                service: r.service,
                finish,
            });
        }
    }
    ClientOutcome {
        sent,
        responses: state.responses,
        lost,
        unexpected: state.unexpected,
        malformed: state.malformed,
        rtt,
        server_sojourn: state.server_sojourn,
        completions,
        in_horizon,
    }
}

/// Drains every response currently readable, stamping receive times.
fn drain_responses<T: Transport + ?Sized>(
    transport: &mut T,
    rx: &mut [Frame],
    clock: &TscClock,
    t0: Nanos,
    state: &mut ClientState,
) {
    loop {
        let n = transport.recv_batch(rx).expect("client recv");
        if n == 0 {
            return;
        }
        let now = clock.wall_nanos().saturating_sub(t0);
        for f in &rx[..n] {
            match decode_response(f.payload()) {
                None => state.malformed += 1,
                Some((tag, sojourn, _quanta)) => {
                    match state.recv_time.get_mut(tag as usize) {
                        Some(slot @ None) => {
                            *slot = Some(now);
                            state.responses += 1;
                            state.server_sojourn.record(sojourn.as_nanos());
                        }
                        _ => state.unexpected += 1,
                    }
                }
            }
        }
    }
}

/// `--serve`: run only the server side, bound to a fixed address, so a
/// separate `tq-loadgen` process can `--connect` to it — the CI socket
/// smoke runs client and server as genuinely separate processes. Serves
/// until the `--serve-secs` backstop elapses (or the process is killed),
/// then reports both ledgers; audit violations exit non-zero.
fn run_server(args: &Args, config: ServerConfig, bind: SocketAddr) {
    let clock = TscClock::calibrated();
    let server = match args.workload {
        WorkloadChoice::Kv => {
            let n_keys = 200_000;
            let store = kv_store(config.seed, n_keys, 100);
            TinyQuanta::start_with_clock(
                config.clone(),
                clock.clone(),
                kv_factory(store, n_keys, 20_000),
            )
        }
        WorkloadChoice::Spin | WorkloadChoice::Hostile(_) => {
            let job_clock = clock.clone();
            TinyQuanta::start_with_clock(config.clone(), clock.clone(), move |req| {
                Box::new(SpinJob::with_clock(req, &job_clock))
            })
        }
    };
    let socket = UdpSocket::bind(bind).expect("bind serve socket");
    set_socket_buffers(&socket, 1 << 20).expect("socket buffers");
    let addr = socket.local_addr().unwrap();
    // Generous admission: the paced loopback smoke must never shed, and
    // max_in_flight only bounds concurrently outstanding requests.
    let net_config = NetConfig {
        max_in_flight: (args.requests as usize).max(4096),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let backstop = Duration::from_secs(args.serve_secs.max(1));
    std::thread::spawn(move || {
        std::thread::sleep(backstop);
        stop2.store(true, Ordering::Release);
    });
    println!(
        "tq-loadgen (serve): listening on {addr} for up to {}s ({:?} dispatch, {:?} discipline, {} workers)",
        args.serve_secs.max(1),
        config.dispatch,
        config.discipline,
        config.workers,
    );
    let mut t = server_wire(args.transport, socket, &net_config).expect("serve transport");
    let outcome = serve(server, &mut t, &stop, &net_config).expect("serve ok");
    println!(
        "server: received {}  responded {}  malformed {}  shed {}",
        outcome.net.received, outcome.net.responded, outcome.net.malformed, outcome.net.shed
    );
    let mut report = outcome.net.audit();
    if let Some(server_report) = outcome.server.audit.clone() {
        report.absorb(server_report);
    }
    println!("{report}");
    if !report.is_clean() {
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let audit = tq_bench::audit_enabled();
    let seed = tq_bench::seed();
    // One server shape for every mode (in-process, --serve, --compare):
    // the defaults, or a named preset's dispatch/discipline/stealing.
    let server_config = {
        let mut c = match &args.policy {
            Some(name) => {
                let preset =
                    tq_bench::policy_or_exit(name, args.workers, Nanos::from_micros(5));
                tq_bench::server_config_for(&preset)
            }
            None => ServerConfig {
                workers: args.workers,
                quantum: Nanos::from_micros(5),
                ..ServerConfig::default()
            },
        };
        c.seed = seed;
        c.audit = audit;
        c
    };
    if args.transport == TransportChoice::IoUring {
        gate_uring_or_skip();
    }
    if let Some(bind) = args.serve {
        run_server(&args, server_config, bind);
        return;
    }
    let (workload, process) = match args.workload {
        WorkloadChoice::Kv => (table1::rocksdb_low_scan(), ArrivalProcess::Poisson),
        WorkloadChoice::Spin => (table1::extreme_bimodal(), ArrivalProcess::Poisson),
        WorkloadChoice::Hostile(name) => {
            let p = tq_workloads::hostile::by_name(name).expect("validated at parse");
            (p.workload, p.process)
        }
    };
    let horizon = Nanos::from_nanos_f64(args.requests as f64 / args.rate_rps * 1e9);
    let spec = RunSpec {
        workload: workload.clone(),
        process,
        rate_rps: args.rate_rps,
        horizon,
        seed,
    };
    // Fan-in: client `i` draws its own schedule from `seed ^ i` at an
    // equal share of the offered rate, so the flows are independent
    // but the whole run stays reproducible from one seed.
    let n_clients = args.clients;
    let schedules: Vec<Vec<tq_core::Request>> = (0..n_clients)
        .map(|i| {
            RunSpec {
                workload: workload.clone(),
                process,
                rate_rps: args.rate_rps / n_clients as f64,
                horizon,
                seed: seed ^ i as u64,
            }
            .arrivals()
            .until(horizon)
        })
        .collect();
    let sent_target: u64 = schedules.iter().map(|s| s.len() as u64).sum();
    let transport_label = args.transport.label();
    println!(
        "tq-loadgen ({}): {} requests at {:.0} rps over {} ({} workload, {} workers, {} client{}, seed {}, audit {})",
        if args.smoke { "smoke" } else { "full" },
        sent_target,
        args.rate_rps,
        transport_label,
        match args.workload {
            WorkloadChoice::Kv => "kv",
            WorkloadChoice::Spin => "spin",
            WorkloadChoice::Hostile(name) => name,
        },
        args.workers,
        n_clients,
        if n_clients == 1 { "" } else { "s" },
        seed,
        if audit { "on" } else { "off" },
    );

    let clock = TscClock::calibrated();

    // --- server side (in-process unless --connect) -----------------------
    let stop = Arc::new(AtomicBool::new(false));
    let mut server_thread = None;
    let srv_addr = match args.connect {
        Some(addr) => addr,
        None => {
            let config = server_config.clone();
            let server = match args.workload {
                WorkloadChoice::Kv => {
                    let n_keys = 200_000;
                    let store = kv_store(seed, n_keys, 100);
                    TinyQuanta::start_with_clock(
                        config,
                        clock.clone(),
                        kv_factory(store, n_keys, 20_000),
                    )
                }
                WorkloadChoice::Spin | WorkloadChoice::Hostile(_) => {
                    let job_clock = clock.clone();
                    TinyQuanta::start_with_clock(config, clock.clone(), move |req| {
                        Box::new(SpinJob::with_clock(req, &job_clock))
                    })
                }
            };
            let socket = UdpSocket::bind("127.0.0.1:0").expect("bind server socket");
            set_socket_buffers(&socket, 1 << 20).expect("socket buffers");
            let addr = socket.local_addr().unwrap();
            let choice = args.transport;
            // Admit the entire schedule: shedding is a backpressure
            // safety valve, not something a paced loopback run should
            // trip (smoke asserts it stays at zero).
            let net_config = NetConfig {
                max_in_flight: (sent_target as usize).max(1024),
            };
            let stop2 = Arc::clone(&stop);
            server_thread = Some(std::thread::spawn(move || -> std::io::Result<ServeOutcome> {
                let mut t = server_wire(choice, socket, &net_config)?;
                serve(server, &mut t, &stop2, &net_config)
            }));
            addr
        }
    };

    // --- open-loop clients (fan-in when --clients > 1) --------------------
    let choice = args.transport;
    let smoke = args.smoke;
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                let clock = clock.clone();
                scope.spawn(move || run_client(choice, srv_addr, clock, schedule, horizon, smoke))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // --- shut the server down, collect both ledgers ----------------------
    stop.store(true, Ordering::Release);
    let outcome = server_thread.map(|h| h.join().expect("serve thread").expect("serve ok"));

    // --- merged client-observed metrics -----------------------------------
    let sent = sent_target;
    let responses: u64 = outcomes.iter().map(|o| o.responses).sum();
    let lost: u64 = outcomes.iter().map(|o| o.lost).sum();
    let unexpected: u64 = outcomes.iter().map(|o| o.unexpected).sum();
    let malformed: u64 = outcomes.iter().map(|o| o.malformed).sum();
    let in_horizon: u64 = outcomes.iter().map(|o| o.in_horizon).sum();
    let mut rtt = TailStats::new();
    let mut server_sojourn = TailStats::new();
    let mut completions: Vec<Completion> = Vec::with_capacity(responses as usize);
    for (i, o) in outcomes.iter().enumerate() {
        rtt.absorb(&o.rtt);
        server_sojourn.absorb(&o.server_sojourn);
        // Completion ids are client-local schedule ids; offset them so
        // the merged stream stays unique.
        let base: u64 = outcomes[..i].iter().map(|p| p.sent).sum();
        completions.extend(o.completions.iter().map(|c| Completion {
            id: tq_core::JobId(base + c.id.0),
            ..*c
        }));
    }
    let summary = tq_harness::summarize(&mut completions);

    // --- audits -----------------------------------------------------------
    let audit_report = audit.then(|| {
        let mut a = InvariantAuditor::new("loadgen");
        a.check(
            "client_conservation",
            sent == responses + lost,
            || format!("sent {sent} != responses {responses} + lost {lost}"),
        );
        a.check("client_no_unexpected_tags", unexpected == 0, || {
            format!("{unexpected} duplicate/unknown response tags")
        });
        a.check("client_no_malformed_responses", malformed == 0, || {
            format!("{malformed} undecodable responses")
        });
        let mut report = a.finish();
        if let Some(o) = &outcome {
            report.absorb(o.net.audit());
            if let Some(server_report) = o.server.audit.clone() {
                report.absorb(server_report);
            }
        }
        report
    });

    // The server's policy, when this process knows it: always for the
    // in-process server; for --connect only when --policy names the
    // configuration the remote end is expected to be running.
    let policy_meta = (args.connect.is_none() || args.policy.is_some()).then(|| {
        PolicyMeta::new(
            format!("{:?}", server_config.dispatch),
            server_config.discipline,
        )
    });
    // Per-client tails (only meaningful — and only recorded — when the
    // run actually fanned in) plus the cross-client p99.9 spread.
    let mut outcomes = outcomes;
    let client_rtts: Vec<ClientRtt> = if n_clients > 1 {
        outcomes
            .iter_mut()
            .map(|o| ClientRtt {
                sent: o.sent,
                responses: o.responses,
                rtt_p50_ns: o.rtt.percentile(50.0),
                rtt_p99_ns: o.rtt.percentile(99.0),
                rtt_p999_ns: o.rtt.percentile(99.9),
            })
            .collect()
    } else {
        Vec::new()
    };
    let rtt_p999_spread_ns = {
        let max = client_rtts.iter().map(|c| c.rtt_p999_ns).max().unwrap_or(0);
        let min = client_rtts.iter().map(|c| c.rtt_p999_ns).min().unwrap_or(0);
        max - min
    };
    let net_meta = {
        let mut m = NetMeta {
            transport: transport_label.to_string(),
            sent,
            responses,
            lost,
            rtt_p50_ns: rtt.percentile(50.0),
            rtt_p99_ns: rtt.percentile(99.0),
            rtt_p999_ns: rtt.percentile(99.9),
            clients: client_rtts.clone(),
            rtt_p999_spread_ns,
            ..NetMeta::default()
        };
        if let Some(o) = &outcome {
            m.server_received = o.net.received;
            m.server_responded = o.net.responded;
            m.server_malformed = o.net.malformed;
            m.server_shed = o.net.shed;
            m.frames_per_recv = o.net.transport.frames_per_recv_call();
            m.frames_per_send = o.net.transport.frames_per_send_call();
            m.send_msgs = o.net.transport.send_msgs;
            m.frames_per_msg = o.net.transport.frames_per_msg();
            m.recv_msgs = o.net.transport.recv_msgs;
            m.frames_per_recv_msg = o.net.transport.frames_per_recv_msg();
            m.rcvbuf_bytes = o.net.transport.rcvbuf_bytes;
            m.sndbuf_bytes = o.net.transport.sndbuf_bytes;
        }
        m
    };
    let record = RunRecord {
        engine: "rt",
        model: "runtime",
        system: format!("TinyQuanta/net({transport_label})"),
        workload: workload.name().to_string(),
        process: process.name(),
        workers: args.workers,
        rate_rps: args.rate_rps,
        horizon,
        seed,
        submitted: sent,
        completed: responses,
        in_horizon,
        achieved_rps: in_horizon as f64 / horizon.as_secs_f64(),
        classes: summary.classes_e2e,
        classes_sojourn: summary.classes_sojourn,
        overall_slowdown_p999: summary.overall_slowdown_p999,
        counters: Default::default(),
        policy: policy_meta,
        audit: audit_report.clone(),
        rack: None,
        net: Some(net_meta),
        controller: None,
    };

    // --- report ----------------------------------------------------------
    println!();
    println!(
        "client: sent {sent}  responses {responses}  lost {lost}  (rtt p50 {} p99 {} p999 {})",
        Nanos::from_nanos(rtt.percentile(50.0)),
        Nanos::from_nanos(rtt.percentile(99.0)),
        Nanos::from_nanos(rtt.percentile(99.9)),
    );
    println!(
        "        server-reported sojourn p50 {} p99 {}",
        Nanos::from_nanos(server_sojourn.percentile(50.0)),
        Nanos::from_nanos(server_sojourn.percentile(99.0)),
    );
    for (i, c) in client_rtts.iter().enumerate() {
        println!(
            "client {i}: sent {}  responses {}  rtt p50 {} p99 {} p999 {}",
            c.sent,
            c.responses,
            Nanos::from_nanos(c.rtt_p50_ns),
            Nanos::from_nanos(c.rtt_p99_ns),
            Nanos::from_nanos(c.rtt_p999_ns),
        );
    }
    if client_rtts.len() > 1 {
        println!(
            "fan-in: cross-client p99.9 spread {} across {} clients",
            Nanos::from_nanos(rtt_p999_spread_ns),
            client_rtts.len(),
        );
    }
    if let Some(o) = &outcome {
        println!(
            "server: received {}  responded {}  malformed {}  shed {}  max_in_flight {}",
            o.net.received, o.net.responded, o.net.malformed, o.net.shed, o.net.max_in_flight
        );
        println!(
            "        {:.1} frames per recv syscall, {:.1} per send ({} recv calls, {} send calls), \
             {:.1} frames per message sent ({} send_msgs), {:.1} per message received \
             ({} recv_msgs)",
            o.net.transport.frames_per_recv_call(),
            o.net.transport.frames_per_send_call(),
            o.net.transport.recv_calls,
            o.net.transport.send_calls,
            o.net.transport.frames_per_msg(),
            o.net.transport.send_msgs,
            o.net.transport.frames_per_recv_msg(),
            o.net.transport.recv_msgs,
        );
    }
    if let Some(report) = &audit_report {
        println!("{report}");
    }

    let mut records = vec![record];
    if args.compare {
        // The same spec through the in-process engine (spin-server
        // model): subtracting its percentiles from the socket record's
        // isolates the wire + syscall cost.
        println!();
        println!("running the in-process RtEngine comparison...");
        let mut rt = RtEngine::new(server_config.clone());
        let rec = tq_harness::run_to_record(&mut rt, &spec);
        println!(
            "in-process: submitted {}  completed {}  (sojourn p999 of class 0: {})",
            rec.submitted,
            rec.completed,
            rec.classes_sojourn
                .first()
                .map_or_else(|| "-".to_string(), |c| c.p999.to_string()),
        );
        records.push(rec);
    }

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(&args.out, json::document(&records)).expect("write results");
    println!("wrote {} ({} records, schema {})", args.out, records.len(), json::SCHEMA);

    // --- verdict ----------------------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    if let Some(report) = &audit_report {
        if !report.is_clean() {
            failures.push(format!("audit violations: {report}"));
        }
    }
    if args.smoke {
        // Loopback at smoke rates: every datagram must survive.
        if lost != 0 {
            failures.push(format!("smoke run lost {lost} responses"));
        }
        if let Some(o) = &outcome {
            if o.net.shed != 0 {
                failures.push(format!("smoke run shed {} requests", o.net.shed));
            }
            if o.net.malformed != 0 {
                failures.push(format!("{} malformed datagrams", o.net.malformed));
            }
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("conservation held on both sides of the wire");
}
