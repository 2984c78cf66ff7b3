//! Policy playground: simulate any paper workload under any system.
//!
//! A small CLI over the serving-system models:
//!
//! ```text
//! cargo run --release --example policy_playground -- \
//!     [workload] [system] [load] [millis]
//!
//! workload: extreme | high | tpcc | exp | rocksdb-low | rocksdb-high
//! system:   tq | shinjuku | caladan | caladan-dp | tq-fcfs | tq-rand
//! load:     offered utilization in (0, 1.2], default 0.7
//! millis:   simulated milliseconds of arrivals, default 100
//! ```
//!
//! Prints per-class p50/p99/p99.9 end-to-end latency and the overall
//! 99.9% slowdown — a one-command way to explore where each policy
//! breaks.

use tq_core::Nanos;
use tq_harness::{run_to_record, RunSpec, SimEngine};
use tq_queueing::{presets, SystemConfig};
use tq_workloads::{table1, ArrivalProcess, Workload};

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "extreme" => table1::extreme_bimodal(),
        "high" => table1::high_bimodal(),
        "tpcc" => table1::tpcc(),
        "exp" => table1::exp1(),
        "rocksdb-low" => table1::rocksdb_low_scan(),
        "rocksdb-high" => table1::rocksdb_high_scan(),
        _ => return None,
    })
}

fn system(name: &str) -> Option<SystemConfig> {
    let q = Nanos::from_micros(2);
    Some(match name {
        "tq" => presets::tq(16, q),
        "shinjuku" => presets::shinjuku(16, Nanos::from_micros(5)),
        "caladan" => presets::caladan_iokernel(16),
        "caladan-dp" => presets::caladan_directpath(16),
        "tq-fcfs" => presets::tq_fcfs(16),
        "tq-rand" => presets::tq_rand(16, q),
        "tq-p2" => presets::tq_power_two(16, q),
        "tq-ic" => presets::tq_ic(16, q),
        "tq-slow-yield" => presets::tq_slow_yield(16, q),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wl_name = args.first().map(String::as_str).unwrap_or("extreme");
    let sys_name = args.get(1).map(String::as_str).unwrap_or("tq");
    let load: f64 = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.7);
    let millis: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(100);

    let Some(wl) = workload(wl_name) else {
        eprintln!("unknown workload {wl_name:?} (try: extreme high tpcc exp rocksdb-low rocksdb-high)");
        std::process::exit(2);
    };
    let Some(cfg) = system(sys_name) else {
        eprintln!(
            "unknown system {sys_name:?} (try: tq shinjuku caladan caladan-dp tq-fcfs tq-rand tq-p2 tq-ic tq-slow-yield)"
        );
        std::process::exit(2);
    };

    let rate = wl.rate_for_load(cfg.n_workers, load);
    println!(
        "{} serving {} at {:.2} Mrps (load {:.0}%), {}ms of arrivals",
        cfg.name,
        wl.name(),
        rate / 1e6,
        load * 100.0,
        millis
    );
    let spec = RunSpec {
        workload: wl.clone(),
        process: ArrivalProcess::Poisson,
        rate_rps: rate,
        horizon: Nanos::from_millis(millis),
        seed: 42,
    };
    let result = run_to_record(&mut SimEngine::new(cfg), &spec);
    println!(
        "{:<14}{:>10}{:>12}{:>12}{:>12}",
        "class", "count", "p50(us)", "p99(us)", "p99.9(us)"
    );
    for c in &result.classes {
        println!(
            "{:<14}{:>10}{:>12.1}{:>12.1}{:>12.1}",
            wl.class(c.class).name,
            c.count,
            c.p50.as_micros_f64(),
            c.p99.as_micros_f64(),
            c.p999.as_micros_f64()
        );
    }
    println!(
        "overall 99.9% slowdown: {:.1}; goodput {:.2} Mrps",
        result.overall_slowdown_p999,
        result.achieved_rps / 1e6
    );
}
