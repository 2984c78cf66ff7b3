//! `sim_sweep`: single-threaded `run_to_record` over the two-level,
//! centralized and rack engines on Extreme Bimodal at loads 0.5 and 0.8.
//!
//! A run has about [`ARRIVALS_PER_RUN`] arrivals; the end-to-end metrics
//! count its simulated events as the operations. Every repetition of a configuration runs the same inputs, so
//! each must reproduce the first one's results exactly, and for seed 42
//! the results must equal the committed `expected.json`: an engine that
//! got faster by changing virtual-time results fails.

use crate::json::Json;
use crate::stats::Hist;
use std::time::Instant;
use tq_core::Nanos;
use tq_harness::{run_to_record, summarize, Engine, RackEngine, RunSpec, SimEngine};
use tq_queueing::presets;
use tq_queueing::rack::RackSpec;
use tq_workloads::{table1, ArrivalProcess};

/// The horizon of each configuration is this many arrivals at its rate.
pub const ARRIVALS_PER_RUN: f64 = 6_000.0;
pub const ENGINES: [&str; 3] = ["twolevel", "centralized", "rack"];
const LOADS: [f64; 2] = [0.5, 0.8];
const SIM_WORKERS: usize = 16;
const RACK_SERVERS: usize = 4;

/// What identifies one run's virtual-time results: its completions and
/// every class's p99.9 slowdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Digest {
    pub completed: u64,
    pub slowdown_p999: Vec<f64>,
}

struct Config {
    engine: usize,
    load: f64,
    sim: Box<dyn Engine>,
    spec: RunSpec,
    first: Option<Digest>,
}

/// Time and counts of one engine over some runs.
#[derive(Clone, Copy, Default)]
pub struct EngineTally {
    pub wall_ns: u64,
    /// Inside `Engine::run` and inside `summarize` (split runs only).
    pub run_ns: u64,
    pub summarize_ns: u64,
    pub events: u64,
    pub completed: u64,
}

pub struct Sweep {
    configs: Vec<Config>,
    pub errors: Vec<String>,
    pub runs: u64,
    pub failed: u64,
}

impl Sweep {
    pub fn new(seed: u64) -> Sweep {
        let workload = table1::extreme_bimodal();
        let mut configs = Vec::new();
        for (engine, name) in ENGINES.iter().enumerate() {
            for load in LOADS {
                let sim: Box<dyn Engine> = match *name {
                    "twolevel" => Box::new(SimEngine::new(presets::tq(
                        SIM_WORKERS,
                        Nanos::from_micros(2),
                    ))),
                    "centralized" => Box::new(SimEngine::new(presets::shinjuku(
                        SIM_WORKERS,
                        Nanos::from_micros(5),
                    ))),
                    _ => Box::new(RackEngine::new(
                        RackSpec::new(
                            presets::tq(SIM_WORKERS, Nanos::from_micros(2)),
                            RACK_SERVERS,
                        ),
                        1,
                    )),
                };
                let rate_rps = workload.rate_for_load(sim.workers(), load);
                let spec = RunSpec {
                    workload: workload.clone(),
                    process: ArrivalProcess::Poisson,
                    rate_rps,
                    horizon: Nanos::from_nanos((ARRIVALS_PER_RUN / rate_rps * 1e9) as u64),
                    seed,
                };
                configs.push(Config {
                    engine,
                    load,
                    sim,
                    spec,
                    first: None,
                });
            }
        }
        Sweep {
            configs,
            errors: Vec::new(),
            runs: 0,
            failed: 0,
        }
    }

    /// Runs every configuration once. `split` times `Engine::run` and
    /// `summarize` apart (the traced form of `run_to_record`); otherwise
    /// `run_to_record` is timed whole. Each run's wall time goes to `lat`.
    pub fn run(&mut self, split: bool, lat: &mut Hist, tally: &mut [EngineTally; 3]) {
        for c in &mut self.configs {
            let started = Instant::now();
            let (run_ns, digest, events, conserved) = if split {
                let mut out = c.sim.run(&c.spec, c.spec.arrivals(), c.spec.horizon);
                let run_ns = started.elapsed().as_nanos() as u64;
                let completed = out.completions.len() as u64;
                let summary = summarize(&mut out.completions);
                let digest = Digest {
                    completed,
                    slowdown_p999: summary
                        .classes_e2e
                        .iter()
                        .map(|s| s.slowdown_p999)
                        .collect(),
                };
                (
                    run_ns,
                    digest,
                    out.counters.sim_events,
                    out.submitted == completed,
                )
            } else {
                let record = run_to_record(c.sim.as_mut(), &c.spec);
                let digest = Digest {
                    completed: record.completed,
                    slowdown_p999: record.classes.iter().map(|s| s.slowdown_p999).collect(),
                };
                (0, digest, record.counters.sim_events, record.conserved())
            };
            let wall_ns = started.elapsed().as_nanos() as u64;
            lat.record(wall_ns);
            let t = &mut tally[c.engine];
            t.wall_ns += wall_ns;
            t.events += events;
            t.completed += digest.completed;
            if split {
                t.run_ns += run_ns;
                t.summarize_ns += wall_ns - run_ns;
            }
            self.runs += 1;
            let first = c.first.get_or_insert_with(|| digest.clone());
            if !conserved || *first != digest || digest.completed == 0 {
                self.failed += 1;
                if self.errors.len() < 4 {
                    self.errors.push(format!(
                        "{} at load {}: conserved {conserved}, {digest:?}, first repetition gave {first:?}",
                        ENGINES[c.engine], c.load
                    ));
                }
            }
        }
    }

    /// The first repetition's results, in `expected.json`'s form.
    pub fn digest_json(&self) -> Json {
        Json::Arr(
            self.configs
                .iter()
                .map(|c| {
                    let d = c.first.clone().unwrap_or_default();
                    Json::obj([
                        ("engine", Json::str(ENGINES[c.engine])),
                        ("load", Json::Num(c.load)),
                        ("completed", Json::Num(d.completed as f64)),
                        ("slowdown_p999", Json::nums(&d.slowdown_p999)),
                    ])
                })
                .collect(),
        )
    }
}

/// The committed results for `seed`, if any are committed.
pub fn expected_digest(seed: u64) -> Option<Json> {
    let all = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
    all.get(&format!("seed_{seed}")).cloned()
}

/// Per-layer numbers of the simulators from `tally` (split runs) and
/// `plain` (whole `run_to_record` runs).
pub fn layer_values(
    plain: &[EngineTally; 3],
    split: &[EngineTally; 3],
) -> Vec<(&'static str, f64)> {
    const MEPS: [&str; 3] = ["sim_twolevel_meps", "sim_central_meps", "sim_rack_meps"];
    const NS_PER_EVENT: [&str; 3] = [
        "queueing.twolevel.ns_per_event",
        "queueing.centralized.ns_per_event",
        "queueing.rack.ns_per_event",
    ];
    const EVENTS_PER_COMPLETION: [&str; 3] = [
        "queueing.twolevel.events_per_completion",
        "queueing.centralized.events_per_completion",
        "queueing.rack.events_per_completion",
    ];
    let mut out = Vec::new();
    for e in 0..3 {
        // Events per nanosecond x 1000 = million events per second.
        out.push((
            MEPS[e],
            plain[e].events as f64 * 1e3 / plain[e].wall_ns.max(1) as f64,
        ));
        out.push((
            NS_PER_EVENT[e],
            split[e].run_ns as f64 / split[e].events.max(1) as f64,
        ));
        out.push((
            EVENTS_PER_COMPLETION[e],
            split[e].events as f64 / split[e].completed.max(1) as f64,
        ));
    }
    let (summarize, whole) = split
        .iter()
        .fold((0, 0), |(s, w), t| (s + t.summarize_ns, w + t.wall_ns));
    out.push((
        "harness.summarize_share",
        summarize as f64 / whole.max(1) as f64,
    ));
    out
}
