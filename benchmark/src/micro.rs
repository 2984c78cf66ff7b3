//! The micro pass: each layer's unit costs by direct calls into its
//! public API, a few tenths of a second apiece. It runs on every traced
//! run, whatever the workload, so these numbers are always measured.

use crate::host::Placement;
use crate::live::{self, Jobs, LiveSpec, Loop, TrialMode};
use crate::sim::{self, EngineTally, Sweep};
use crate::stats::{median, Hist};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use tq_core::adaptive::{ControllerConfig, QuantumController};
use tq_core::policy::{DispatchPolicy, Dispatcher, TieBreak, WorkerLoad};
use tq_core::{ClassId, JobId, Nanos};
use tq_harness::{run_to_record, summarize, Engine, RackEngine, RunSpec, SimEngine};
use tq_kv::KvStore;
use tq_queueing::presets;
use tq_queueing::rack::RackSpec;
use tq_runtime::net::{
    decode_request, decode_response, encode_request, encode_response, InFlightSlab,
};
use tq_runtime::transport::{Frame, Transport, UdpTransport, MAX_BATCH};
use tq_runtime::uring::{self, IoUringTransport};
use tq_runtime::{
    kv, ring, Job, JobStatus, QuantumCtx, RtRequest, ServerConfig, SpinJob, TinyQuanta, TscClock,
};
use tq_sim::{EventQueue, SimRng};
use tq_workloads::{table1, ArrivalGen, ArrivalProcess};

/// Nanoseconds per iteration of `body` over `iters` iterations.
fn ns_per(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        body(i);
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// `scale` shrinks every loop (1.0 in a full run, less in a smoke run).
pub fn run(
    seed: u64,
    scale: f64,
    with_sim: bool,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let n = |full: u64| ((full as f64 * scale) as u64).max(64);
    let clock = TscClock::calibrated();
    let mut out = Vec::new();
    transport(&mut out, n(60_000), notes);
    net(&mut out, n(1_000_000));
    rings(&mut out, n(4_000_000));
    jobs(&mut out, &clock, n(1_000_000));
    kv_store(&mut out, seed, n(200_000));
    core(&mut out, seed, n(1_000_000));
    sim_core(&mut out, seed, n(1_000_000));
    server(&mut out, &clock);
    audit(&mut out, seed, n(40_000));
    if with_sim {
        simulators(&mut out, seed, ((4.0 * scale) as u64).max(1));
    }
    out
}

/// Bare echo: a thread that sends every frame straight back, no server
/// behind it, under the same windowed client as `wire_flood`.
fn echo<T: Transport + Send>(mut server: T, to: std::net::SocketAddr, frames: u64) -> f64 {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut rx = vec![Frame::empty(); server.max_batch().max(1)];
            while !stop.load(Ordering::Acquire) {
                let n = server.recv_batch(&mut rx).expect("echo receive");
                if n > 0 {
                    server.send_batch(&rx[..n]).expect("echo send");
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let mut client = UdpTransport::batched(live::udp_socket()).expect("echo client");
        let mut rx = vec![Frame::empty(); MAX_BATCH];
        let mut tx = Vec::with_capacity(MAX_BATCH);
        let (mut next, mut done) = (0u64, 0u64);
        let mut progress = Instant::now();
        let started = Instant::now();
        while done < frames && progress.elapsed().as_secs() < 5 {
            tx.clear();
            while next < frames && next - done < 256 && tx.len() < MAX_BATCH {
                tx.push(Frame::new(&encode_request(0, Nanos::ZERO, next), to));
                next += 1;
            }
            if !tx.is_empty() {
                client.send_batch(&tx).expect("echo client send");
            }
            let got = client.recv_batch(&mut rx).expect("echo client receive");
            if got > 0 {
                done += got as u64;
                progress = Instant::now();
            } else {
                std::thread::yield_now();
            }
        }
        let ns = started.elapsed().as_nanos() as f64;
        stop.store(true, Ordering::Release);
        assert_eq!(done, frames, "the echo lost frames on loopback");
        ns / frames as f64
    })
}

fn transport(out: &mut Vec<(&'static str, f64)>, frames: u64, notes: &mut Vec<String>) {
    let bind = || {
        let s = live::udp_socket();
        let addr = s.local_addr().expect("echo server address");
        (s, addr)
    };
    let (s, addr) = bind();
    out.push((
        "transport.echo_ns_per_frame.mmsg",
        echo(
            UdpTransport::batched(s).expect("mmsg transport"),
            addr,
            frames,
        ),
    ));
    let (s, addr) = bind();
    out.push((
        "transport.echo_ns_per_frame.per_datagram",
        echo(
            UdpTransport::per_datagram(s).expect("per-datagram transport"),
            addr,
            frames / 2,
        ),
    ));
    let caps = uring::probe();
    if caps.available {
        let (s, addr) = bind();
        let t = IoUringTransport::server(s).expect("the probe validated io_uring");
        notes.push(format!(
            "transport.echo_ns_per_frame.uring measured over {}",
            t.label()
        ));
        out.push(("transport.echo_ns_per_frame.uring", echo(t, addr, frames)));
    } else {
        notes.push(format!(
            "transport.echo_ns_per_frame.uring skipped: {} (reads 0)",
            caps.summary()
        ));
    }
}

fn net(out: &mut Vec<(&'static str, f64)>, iters: u64) {
    out.push((
        "net.codec_ns_per_req",
        ns_per(iters, |i| {
            let req = encode_request(black_box(1), Nanos::from_nanos(i), i);
            let (_, service, tag) = decode_request(black_box(&req)).expect("request decodes");
            let resp = encode_response(tag, service, 1);
            black_box(decode_response(black_box(&resp)).expect("response decodes"));
        }),
    ));
    let addr = "127.0.0.1:9".parse().expect("literal address");
    let mut slab = InFlightSlab::with_capacity(8192);
    out.push((
        "net.slab_ns_per_req",
        ns_per(iters, |i| {
            slab.insert(i, i, addr);
            if i >= 256 {
                black_box(slab.remove(i - 256));
            }
        }),
    ));
}

fn rings(out: &mut Vec<(&'static str, f64)>, items: u64) {
    let (tx, rx) = ring::spsc::<u64>(1024);
    out.push((
        "ring.single_ns_per_item",
        ns_per(items, |i| {
            tx.push(i).expect("the ring has room");
            black_box(rx.pop());
        }),
    ));
    let started = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut batch = Vec::with_capacity(64);
            let mut next = 0;
            while next < items || !batch.is_empty() {
                while batch.len() < 64 && next < items {
                    batch.push(next);
                    next += 1;
                }
                if tx.push_batch(&mut batch) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut got = Vec::with_capacity(64);
        let mut seen = 0;
        while seen < items {
            got.clear();
            if rx.pop_batch(&mut got, 64) == 0 {
                std::thread::yield_now();
            }
            seen += got.len() as u64;
        }
    });
    out.push((
        "ring.xfer_ns_per_item",
        started.elapsed().as_nanos() as f64 / items as f64,
    ));
}

fn jobs(out: &mut Vec<(&'static str, f64)>, clock: &TscClock, iters: u64) {
    out.push((
        "job.clock_now_ns",
        ns_per(iters, |_| {
            black_box(clock.now());
        }),
    ));
    let mut ctx = QuantumCtx::new(clock.clone());
    ctx.arm(clock.to_cycles(Nanos::from_secs(3600)));
    out.push((
        "job.probe_ns",
        ns_per(iters, |_| {
            black_box(ctx.probe());
        }),
    ));
    let quantum = clock.to_cycles(Nanos::from_micros(5));
    out.push(("job.arm_ns", ns_per(iters, |_| ctx.arm(black_box(quantum)))));

    // A SpinJob driven the way a worker drives it, at the default 5 us
    // quantum: what is left of the wall time after the service is the
    // cost of slicing, and a slice's excess over the quantum is how late
    // the probe fired.
    let service = Nanos::from_micros(500);
    let rounds = (iters / 2_000).max(8);
    let mut overshoot = Hist::default();
    let (mut slices, mut wall) = (0u64, 0u64);
    for _ in 0..rounds {
        let mut job = SpinJob::new(clock.to_cycles(service));
        let begun = clock.wall_nanos().as_nanos();
        let mut at = begun;
        loop {
            ctx.arm(quantum);
            let status = job.run(&mut ctx);
            let now = clock.wall_nanos().as_nanos();
            slices += 1;
            if status == JobStatus::Done {
                break;
            }
            overshoot.record((now - at).saturating_sub(5_000));
            at = now;
        }
        wall += clock.wall_nanos().as_nanos() - begun;
    }
    out.push((
        "job.yield_ns",
        wall.saturating_sub(rounds * service.as_nanos()) as f64 / slices as f64,
    ));
    out.push(("job.overshoot_p50_ns", overshoot.percentile(0.5)));
    out.push(("job.overshoot_p99_ns", overshoot.percentile(0.99)));

    let req = RtRequest {
        id: JobId(0),
        class: ClassId(0),
        service: Nanos::ZERO,
        submitted: Nanos::ZERO,
    };
    let factory = |r: &RtRequest| -> Box<dyn Job> { Box::new(SpinJob::with_clock(r, clock)) };
    out.push((
        "job.factory_ns",
        ns_per(iters, |_| {
            black_box(factory(black_box(&req)));
        }),
    ));
}

fn kv_store(out: &mut Vec<(&'static str, f64)>, seed: u64, gets: u64) {
    let started = Instant::now();
    let store = kv::kv_store(seed, live::KV_LARGE.keys, live::KV_LARGE.value_bytes);
    out.push(("kv.populate_s", started.elapsed().as_secs_f64()));
    let mut rng = SimRng::new(seed);
    let keys: Vec<Vec<u8>> = (0..4096)
        .map(|_| KvStore::nth_key(rng.u64() % live::KV_LARGE.keys))
        .collect();
    out.push((
        "kv.get_ns",
        ns_per(gets, |i| {
            black_box(store.get(&keys[i as usize % keys.len()]));
        }),
    ));
    let scans = (gets / 20_000).max(2);
    let started = Instant::now();
    let mut entries = 0;
    for i in 0..scans {
        let from = &keys[i as usize % keys.len()];
        entries += black_box(store.scan(from, live::KV_LARGE.scan_len)).len() as u64;
    }
    out.push((
        "kv.scan_ns_per_entry",
        started.elapsed().as_nanos() as f64 / entries.max(1) as f64,
    ));
}

fn core(out: &mut Vec<(&'static str, f64)>, seed: u64, iters: u64) {
    let mut dispatcher =
        Dispatcher::new(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), 16, seed);
    let mut rng = SimRng::new(seed);
    let mut loads: Vec<WorkerLoad> = (0..16)
        .map(|_| WorkerLoad {
            queued_jobs: rng.u64() % 4,
            serviced_quanta: rng.u64() % 1000,
        })
        .collect();
    out.push((
        "core.pick_ns",
        ns_per(iters, |i| {
            let w = dispatcher.pick(black_box(&loads), i);
            loads[w].queued_jobs = (loads[w].queued_jobs + 1) % 4;
        }),
    ));
    let mut controller = QuantumController::new(ControllerConfig::default(), Nanos::from_micros(5));
    out.push((
        "core.controller_ns_per_sample",
        ns_per(iters, |i| {
            controller.record(Nanos::from_micros(1), Nanos::from_nanos(1_000 + i % 3_000));
            // One sample per 100 ns of virtual time: 2000 per window.
            black_box(controller.advance(Nanos::from_nanos(i * 100)));
        }),
    ));
}

fn sim_core(out: &mut Vec<(&'static str, f64)>, seed: u64, iters: u64) {
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(2048);
    let mut rng = SimRng::new(seed);
    for i in 0..1_000 {
        queue.push(Nanos::from_nanos(rng.u64() % 10_000), i);
    }
    out.push((
        "sim.events.push_pop_ns",
        ns_per(iters, |i| {
            let (now, _) = queue.pop().expect("the queue holds 1000 events");
            queue.push(now + Nanos::from_nanos(1 + rng.u64() % 10_000), i as u32);
        }),
    ));

    let workload = table1::extreme_bimodal();
    let rate = workload.rate_for_load(16, 0.8);
    let arrivals = (iters / 4).max(1_000);
    let horizon = Nanos::from_nanos((arrivals as f64 / rate * 1e9) as u64);
    let started = Instant::now();
    let drawn = ArrivalGen::new(workload.clone(), rate, SimRng::new(seed)).until(horizon);
    out.push((
        "workloads.arrivals_ns_per_arrival",
        started.elapsed().as_nanos() as f64 / drawn.len().max(1) as f64,
    ));

    let spec = RunSpec {
        workload,
        process: ArrivalProcess::Poisson,
        rate_rps: rate,
        horizon: Nanos::from_nanos((sim::ARRIVALS_PER_RUN * 4.0 / rate * 1e9) as u64),
        seed,
    };
    let mut engine = SimEngine::new(presets::tq(16, Nanos::from_micros(2)));
    let mut run = engine.run(&spec, spec.arrivals(), spec.horizon);
    let completions = run.completions.len();
    let started = Instant::now();
    black_box(summarize(&mut run.completions));
    out.push((
        "sim.metrics.summarize_ns_per_completion",
        started.elapsed().as_nanos() as f64 / completions.max(1) as f64,
    ));

    // The rack at load 0.8 on one and on two threads: the PDES counts are
    // exact and equal on both, the ratio of wall times is what sharding
    // buys on this host.
    let rack = RackSpec::new(presets::tq(16, Nanos::from_micros(2)), 4);
    let rack_spec = RunSpec {
        rate_rps: spec.workload.rate_for_load(64, 0.8),
        ..spec.clone()
    };
    let timed = |threads| {
        let mut engine = RackEngine::new(rack.clone(), threads);
        let started = Instant::now();
        let record = run_to_record(&mut engine, &rack_spec);
        (started.elapsed().as_nanos() as f64, record)
    };
    let (one_ns, one) = timed(1);
    let (two_ns, _) = timed(2);
    let meta = one.rack.expect("a rack run carries rack meta");
    out.push(("sim.pdes.windows", meta.windows as f64));
    out.push((
        "sim.pdes.messages_per_event",
        meta.messages as f64 / one.counters.sim_events.max(1) as f64,
    ));
    out.push(("sim.pdes.sharded_speedup", one_ns / two_ns.max(1.0)));
}

fn server(out: &mut Vec<(&'static str, f64)>, clock: &TscClock) {
    let (mut starts, mut stops) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let job_clock = clock.clone();
        let started = Instant::now();
        let server = TinyQuanta::start_with_clock(
            ServerConfig {
                workers: live::WORKERS,
                ..ServerConfig::default()
            },
            clock.clone(),
            move |req| Box::new(SpinJob::with_clock(req, &job_clock)),
        );
        starts.push(started.elapsed().as_secs_f64());
        let stopping = Instant::now();
        black_box(server.shutdown_with_stats());
        stops.push(stopping.elapsed().as_secs_f64());
    }
    out.push(("server.start_s", median(&starts)));
    out.push(("server.shutdown_s", median(&stops)));
}

/// A short wire flood with `ServerConfig.audit` off and on, alternating.
fn audit(out: &mut Vec<(&'static str, f64)>, seed: u64, ops: u64) {
    let spec = LiveSpec {
        wire: true,
        load: Loop::Closed { window: 256 },
        jobs: Jobs::Spin,
        slo_ns: (u64::MAX, u64::MAX),
    };
    let placement = Placement::server_side();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for audit in [false, true] {
            let t = live::trial(
                &spec,
                seed,
                ops,
                TrialMode {
                    traced: false,
                    audit,
                },
                &placement,
            );
            assert!(
                t.errors.is_empty(),
                "audit micro flood failed: {:?}",
                t.errors
            );
            (if audit { &mut on } else { &mut off }).push(t.wall_ns_per_op());
        }
    }
    out.push(("audit.overhead_share", median(&on) / median(&off) - 1.0));
}

fn simulators(out: &mut Vec<(&'static str, f64)>, seed: u64, sweeps: u64) {
    let mut sweep = Sweep::new(seed);
    let mut lat = Hist::default();
    let (mut plain, mut split) = ([EngineTally::default(); 3], [EngineTally::default(); 3]);
    for _ in 0..sweeps {
        sweep.run(false, &mut lat, &mut plain);
        sweep.run(true, &mut lat, &mut split);
    }
    assert!(
        sweep.errors.is_empty(),
        "micro sweep failed: {:?}",
        sweep.errors
    );
    out.extend(sim::layer_values(&plain, &split));
}
