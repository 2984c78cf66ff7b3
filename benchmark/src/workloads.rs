//! The five workloads: their frozen sizes, and a pass of each with
//! tracing off (the end-to-end metrics) and with tracing on (the
//! per-layer metrics, the stage ledger and the micro pass).
//!
//! A pass is one discarded warm-up trial and then timed trials of a fixed
//! operation count until the time allowed is used, three at least. The
//! operation counts were sized on the commit that added the benchmark, to
//! about half a second a trial, and are frozen: a trial does the same work
//! on every commit, and a faster commit fits more trials into a run.
//!
//! Trials are short and many because a fresh server settles into one of
//! two speeds for its whole life (on the sizing host `rt_admit` ran at
//! either 580 or 1050 ns per request, trial by trial), and because the
//! host itself has a slow state that takes a varying share of a run: the
//! fastest of some sixty trials (`Pass::value`) is free of both, the
//! median of five is not.

use crate::host::{self, Placement};
use crate::json::Json;
use crate::live::{self, Jobs, LiveSpec, Loop, Trial, TrialMode};
use crate::micro;
use crate::report::Pass;
use crate::sim::{self, EngineTally, Sweep};
use crate::spec::STAGES;
use crate::stats::Hist;
use std::path::PathBuf;
use std::time::Instant;
use tq_runtime::TscClock;

pub struct Ctx {
    pub seed: u64,
    /// Time for the timed trials of one pass.
    pub seconds: f64,
    /// A sixteenth of the work per trial and two trials: checks on, numbers
    /// not comparable.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

struct Live {
    spec: LiveSpec,
    /// Requests per timed trial, and per trial of the traced pass.
    ops: u64,
    traced_ops: u64,
}

fn live_workload(name: &str) -> Option<Live> {
    let closed = |wire, window, jobs, ops, traced_ops| Live {
        spec: LiveSpec {
            wire,
            load: Loop::Closed { window },
            jobs,
            slo_ns: (u64::MAX, u64::MAX),
        },
        ops,
        traced_ops,
    };
    match name {
        "wire_flood" => Some(closed(true, 256, Jobs::Spin, 100_000, 50_000)),
        "wire_kv" => Some(closed(true, 256, Jobs::Kv(live::KV_SMALL), 16_000, 8_000)),
        "wire_open" => Some(Live {
            spec: LiveSpec {
                wire: true,
                load: Loop::Open {
                    rate: WIRE_OPEN_RATE,
                },
                jobs: Jobs::Kv(live::KV_LARGE),
                slo_ns: WIRE_OPEN_SLO_NS,
            },
            ops: (WIRE_OPEN_RATE * 0.5) as u64,
            traced_ops: (WIRE_OPEN_RATE * 0.5) as u64,
        }),
        "rt_admit" => Some(closed(false, 1024, Jobs::Spin, 800_000, 200_000)),
        "rt_slice" => Some(closed(false, 64, Jobs::Yield, 60_000, 20_000)),
        _ => None,
    }
}

/// Requests per second offered by `wire_open`.
const WIRE_OPEN_RATE: f64 = 20_000.0;
/// GET and SCAN latency limits of `wire_open`: five times the p99 seen on
/// the commit that added the benchmark.
const WIRE_OPEN_SLO_NS: (u64, u64) = (16_000_000, 28_000_000);
/// Sweeps of the six simulator configurations per timed `sim_sweep` trial.
const SIM_SWEEPS: u64 = 32;

impl Ctx {
    fn scaled(&self, ops: u64) -> u64 {
        if self.smoke {
            (ops / 16).max(1)
        } else {
            ops
        }
    }

    /// Calls `trial` (after one discarded warm-up call) until the pass's
    /// time is used. A call that returns false discarded its trial, which
    /// then does not count.
    fn trials(&self, mut trial: impl FnMut(bool) -> bool) {
        trial(true);
        let started = Instant::now();
        let mut done = 0;
        loop {
            let begun = Instant::now();
            done += u32::from(trial(false));
            let enough = if self.smoke { done >= 2 } else { done >= 3 };
            let next_ends = started.elapsed().as_secs_f64() + begun.elapsed().as_secs_f64();
            if enough && (self.smoke || next_ends > self.seconds) {
                return;
            }
        }
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Trials of one pass that may be discarded and repeated because the host
/// disturbed them (`Trial::disturbed`) before the pass fails. In the runs
/// made before the benchmark was committed about one `wire_open` trial in
/// a thousand was disturbed, and never three in one pass; a program that
/// loses requests or falls behind does so on every trial.
const MAX_DISCARDED: usize = 2;

/// Whether any of `trials`, made together, was disturbed and nothing else
/// is wrong with them, and the pass may still discard them.
fn discard(pass: &mut Pass, trials: &[&Trial]) -> bool {
    let sound = trials.iter().all(|t| t.errors.is_empty());
    let Some(why) = trials.iter().find_map(|t| t.disturbed.first()) else {
        return false;
    };
    if !sound || pass.discarded >= MAX_DISCARDED {
        return false;
    }
    pass.discarded += 1;
    pass.notes.push(format!(
        "trial discarded and repeated ({} of at most {MAX_DISCARDED}): {why}",
        pass.discarded
    ));
    true
}

fn book(pass: &mut Pass, t: &Trial) {
    pass.attempted += t.attempted;
    pass.failed += t.failed;
    for e in t.errors.iter().chain(&t.disturbed) {
        if pass.errors.len() < 8 {
            pass.errors.push(e.clone());
        }
    }
}

pub fn untraced(name: &str, ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let placement = Placement::server_side();
    pass.notes.push(placement.describe());
    pass.notes.push(format!(
        "host: {}",
        host::describe(&TscClock::calibrated()).to_line()
    ));
    match live_workload(name) {
        Some(w) => {
            let ops = ctx.scaled(w.ops);
            let mut last = None;
            ctx.trials(|warmup| {
                let t = live::trial(&w.spec, ctx.seed, ops, TrialMode::default(), &placement);
                if warmup {
                    return true;
                }
                if discard(&mut pass, &[&t]) {
                    return false;
                }
                book(&mut pass, &t);
                pass.push("setup_s", t.setup_s);
                pass.push("wall_ns_per_op", t.wall_ns_per_op());
                pass.push("cpu_ns_per_op", t.cpu_ns_per_op());
                last = Some(t);
                true
            });
            if let Some(t) = last {
                pass.notes.push(format!(
                    "server transport {}; {ops} requests per trial; latency percentiles over {} samples per trial; \
                     generator lag p99 {:.1} us, latency p50 {:.1} p99 {:.1} us, long class p50 {:.1} p99 {:.1} us over {} samples (last trial)",
                    t.tier,
                    t.lat.count(),
                    us(t.lag.percentile(0.99)),
                    us(t.lat.percentile(0.5)),
                    us(t.lat.percentile(0.99)),
                    us(t.lat_long.percentile(0.5)),
                    us(t.lat_long.percentile(0.99)),
                    t.lat_long.count(),
                ));
            }
        }
        None => {
            let sweeps = ctx.scaled(SIM_SWEEPS);
            let mut digest = None;
            ctx.trials(|warmup| {
                let t = sim_trial(ctx.seed, sweeps, false);
                if warmup {
                    return true;
                }
                pass.attempted += t.sweep.runs;
                pass.failed += t.sweep.failed;
                pass.errors.extend(t.sweep.errors.iter().take(2).cloned());
                // Per simulated event, not per run: by the seed a run has
                // more or fewer long jobs, and its events, and with them
                // its time, moved by 0.2 between seeds.
                let events = t.tally.iter().map(|e| e.events).sum::<u64>().max(1) as f64;
                pass.push("setup_s", t.setup_s);
                pass.push("wall_ns_per_op", t.wall_ns as f64 / events);
                pass.push("cpu_ns_per_op", t.cpu_ns as f64 / events);
                digest = Some(t.sweep.digest_json());
                true
            });
            check_digest(&mut pass, ctx.seed, digest);
            pass.notes.push(format!(
                "{} simulator runs per trial, about {} arrivals each; an operation is one simulated event, \
                 attempted and failed count runs",
                sweeps * 6,
                sim::ARRIVALS_PER_RUN
            ));
        }
    }
    pass
}

fn check_digest(pass: &mut Pass, seed: u64, digest: Option<Json>) {
    match (sim::expected_digest(seed), digest) {
        (Some(want), Some(got)) if want != got => pass.errors.push(format!(
            "virtual-time results differ from expected.json for seed {seed}: got {}",
            got.to_line()
        )),
        (Some(_), _) => pass
            .notes
            .push(format!("results match expected.json for seed {seed}")),
        (None, _) => pass.notes.push(format!(
            "no committed results for seed {seed}; repetitions checked against the first"
        )),
    }
}

struct SimTrial {
    setup_s: f64,
    wall_ns: u64,
    cpu_ns: u64,
    lat: Hist,
    tally: [EngineTally; 3],
    sweep: Sweep,
}

/// Builds the engines and runs one untimed sweep (the set-up), then times
/// `sweeps` sweeps.
fn sim_trial(seed: u64, sweeps: u64, split: bool) -> SimTrial {
    let begun = Instant::now();
    let mut sweep = Sweep::new(seed);
    sweep.run(
        split,
        &mut Hist::default(),
        &mut [EngineTally::default(); 3],
    );
    let setup_s = begun.elapsed().as_secs_f64();
    let (runs, failed) = (sweep.runs, sweep.failed);
    let mut lat = Hist::default();
    let mut tally = [EngineTally::default(); 3];
    let cpu0 = host::cpu_time_ns();
    let started = Instant::now();
    for _ in 0..sweeps {
        sweep.run(split, &mut lat, &mut tally);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let cpu_ns = host::cpu_time_ns() - cpu0;
    // Count the timed runs only; a failure in the set-up sweep stays one.
    sweep.runs -= runs;
    sweep.failed = sweep.failed.max(failed);
    SimTrial {
        setup_s,
        wall_ns,
        cpu_ns,
        lat,
        tally,
        sweep,
    }
}

pub fn traced(name: &str, ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let placement = Placement::server_side();
    pass.notes.push(placement.describe());
    let clock = TscClock::calibrated();
    let mut trace_file = None;
    match live_workload(name) {
        Some(w) => {
            let ops = ctx.scaled(w.traced_ops);
            let mut last: Option<Trial> = None;
            ctx.trials(|warmup| {
                let plain = live::trial(&w.spec, ctx.seed, ops, TrialMode::default(), &placement);
                let traced = live::trial(
                    &w.spec,
                    ctx.seed,
                    ops,
                    TrialMode {
                        traced: true,
                        audit: false,
                    },
                    &placement,
                );
                if warmup {
                    return true;
                }
                if discard(&mut pass, &[&plain, &traced]) {
                    return false;
                }
                book(&mut pass, &plain);
                book(&mut pass, &traced);
                layer_metrics(&mut pass, &plain, &traced);
                last = Some(traced);
                true
            });
            pass.push("loadgen.trials_discarded", pass.discarded as f64);
            if let Some(t) = last.as_ref().and_then(|t| t.traced.as_ref()) {
                let shares = t.ledger.shares();
                let line: Vec<String> = STAGES
                    .iter()
                    .zip(shares)
                    .map(|(s, share)| format!("{s} {:.1}%", share * 100.0))
                    .collect();
                pass.notes.push(format!(
                    "stage shares of the mean round trip ({:.0} ns, {} requests, {} not monotone): {}",
                    t.ledger.round_trip.mean(),
                    t.ledger.requests,
                    t.ledger.violations,
                    line.join(", ")
                ));
                trace_file = Some(Json::obj([
                    ("workload", Json::str(name)),
                    ("seed", Json::Num(ctx.seed as f64)),
                    ("host", host::describe(&clock)),
                    ("trace", t.ledger.to_json()),
                ]));
            }
        }
        None => {
            let sweeps = ctx.scaled(SIM_SWEEPS / 2);
            ctx.trials(|warmup| {
                let plain = sim_trial(ctx.seed, sweeps, false);
                let split = sim_trial(ctx.seed, sweeps, true);
                if warmup {
                    return true;
                }
                for t in [&plain, &split] {
                    pass.attempted += t.sweep.runs;
                    pass.failed += t.sweep.failed;
                    pass.errors.extend(t.sweep.errors.iter().take(2).cloned());
                }
                for (metric, value) in sim::layer_values(&plain.tally, &split.tally) {
                    pass.push(metric, value);
                }
                pass.push(
                    "trace.overhead_share",
                    split.wall_ns as f64 / plain.wall_ns.max(1) as f64 - 1.0,
                );
                pass.push("lat_p50_us", us(plain.lat.percentile(0.5)));
                true
            });
        }
    }
    // The micro pass has two-thread measurements; it runs unpinned.
    drop(placement);
    let scale = if ctx.smoke { 0.03 } else { 1.0 };
    for (metric, value) in micro::run(ctx.seed, scale, name != "sim_sweep", &mut pass.notes) {
        pass.push(metric, value);
    }
    if let Some(file) = trace_file {
        let path = ctx.out_dir.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(&ctx.out_dir)
            .and_then(|()| std::fs::write(&path, file.to_pretty(3)))
        {
            Ok(()) => pass
                .notes
                .push(format!("trace written to {}", path.display())),
            Err(e) => pass
                .errors
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    pass
}

fn tier_code(label: &str) -> f64 {
    match label {
        "udp:mmsg" => 1.0,
        "uring:rw" => 2.0,
        "uring:fixed" => 3.0,
        "uring:recvmsg" => 4.0,
        "uring:multishot" => 5.0,
        _ => 0.0,
    }
}

/// The per-layer values of one pair of trials: counts and client-side
/// times from the untraced one, stamps from the traced one.
fn layer_metrics(pass: &mut Pass, plain: &Trial, traced: &Trial) {
    let ops = plain.completed.max(1) as f64;
    pass.push("loadgen.lag_p99_us", us(plain.lag.percentile(0.99)));
    pass.push(
        "loadgen.slo_miss_share",
        plain.slo_miss as f64 / plain.attempted.max(1) as f64,
    );
    pass.push(
        "loadgen.short_pmax_us",
        us(plain.lat.top().map_or(0.0, |t| t.1)),
    );
    pass.push("lat_p50_us", us(plain.lat.percentile(0.5)));
    pass.push("lat_p99_us", us(plain.lat.percentile(0.99)));
    pass.push("long_p50_us", us(plain.lat_long.percentile(0.5)));
    if let Some(net) = &plain.net {
        pass.push("loadgen.send_ns_per_frame", plain.send_ns as f64 / ops);
        pass.push("loadgen.recv_ns_per_frame", plain.recv_ns as f64 / ops);
        pass.push("transport.tier", tier_code(plain.tier));
        pass.push(
            "transport.frames_per_recv",
            net.transport.frames_per_recv_call(),
        );
        pass.push(
            "transport.frames_per_send",
            net.transport.frames_per_send_call(),
        );
        pass.push(
            "transport.enter_calls_per_req",
            net.transport.enter_calls as f64 / ops,
        );
        pass.push("net.max_in_flight", net.max_in_flight as f64);
        pass.push("net.shed", net.shed as f64);
        pass.push("net.malformed", net.malformed as f64);
    } else {
        pass.push("server.submit_ns_per_req", plain.send_ns as f64 / ops);
        pass.push("server.drain_ns_per_completion", plain.recv_ns as f64 / ops);
    }
    let s = &plain.server;
    let d = &s.dispatcher;
    pass.push("dispatcher.busy_ns_per_req", d.ns_per_request());
    pass.push(
        "dispatcher.mean_burst",
        d.forwarded as f64 / d.bursts.max(1) as f64,
    );
    pass.push(
        "dispatcher.ring_full_retries_per_kreq",
        d.ring_full_retries as f64 * 1e3 / ops,
    );
    let quanta = s.total_quanta().max(1) as f64;
    pass.push("worker.quanta_per_req", quanta / ops);
    pass.push(
        "worker.ns_per_quantum",
        plain.wall_ns as f64 * live::WORKERS as f64 / quanta,
    );
    let idle: u64 = s.workers.iter().map(|w| w.idle_iterations).sum();
    pass.push("worker.idle_iter_per_req", idle as f64 / ops);
    pass.push("worker.max_ring_occupancy", s.max_ring_occupancy() as f64);
    let most = s.workers.iter().map(|w| w.completed).max().unwrap_or(0);
    let fewest = s.workers.iter().map(|w| w.completed).min().unwrap_or(0);
    pass.push("worker.imbalance", most as f64 / fewest.max(1) as f64);

    // By latency, not by wall time per request, which an open loop's
    // schedule fixes; in a closed loop the two move together.
    pass.push(
        "trace.overhead_share",
        traced.lat.percentile(0.5) / plain.lat.percentile(0.5).max(1.0) - 1.0,
    );
    let Some(t) = &traced.traced else { return };
    for (i, stage) in STAGES.iter().enumerate() {
        let h = &t.ledger.stages[i];
        // `push` wants the static name from the metric table.
        let find = |suffix: &str| {
            crate::spec::metric(&format!("stage.{stage}_{suffix}"))
                .expect("every stage has its two metrics")
                .name
        };
        pass.push(find("p50_ns"), h.percentile(0.5));
        pass.push(find("p99_ns"), h.percentile(0.99));
    }
    pass.push("worker.switch_gap_ns_p50", t.gaps.percentile(0.5));
    pass.push("worker.switch_gap_ns_p99", t.gaps.percentile(0.99));
    if let Some(log) = &t.transport {
        let frames = log.rx.len().max(1) as f64;
        pass.push(
            "transport.recv_ns_per_frame",
            log.recv_busy_ns as f64 / frames,
        );
        pass.push(
            "transport.send_ns_per_frame",
            log.send_ns as f64 / log.tx.len().max(1) as f64,
        );
        pass.push(
            "transport.empty_recv_share",
            log.empty_polls as f64 / log.polls.max(1) as f64,
        );
        pass.push("net.ingest_ns_per_req", t.ledger.stages[2].mean());
    }
}
