//! §6: dispatcher throughput — TQ ~14 Mrps vs. centralized ~5 Mrps.
//!
//! Measures the modeled dispatcher's sustainable request rate directly:
//! sweep the offered rate of a tiny-job workload (so workers are never
//! the bottleneck at 16 cores) and report goodput, which saturates at
//! the dispatcher's 1/cost ceiling.

use tq_bench::{banner, mrps, run_point};
use tq_core::{costs, Nanos};
use tq_queueing::presets;
use tq_workloads::{ClassDist, JobClass, Workload};

fn main() {
    banner(
        "Dispatcher throughput (§6)",
        "goodput vs offered rate for a 0.2us-job workload (dispatcher-bound)",
        "TQ's dispatcher sustains ~14 Mrps; a centralized dispatcher ~5 Mrps",
    );
    // 0.2µs jobs on 16 cores: worker capacity 80 Mrps, far above any
    // dispatcher ceiling — the dispatcher is the bottleneck by design.
    let wl = Workload::new(
        "tiny jobs",
        vec![JobClass::new(
            "tiny",
            ClassDist::Deterministic(Nanos::from_nanos(200)),
            1.0,
        )],
    );
    println!(
        "analytic ceilings: TQ {} Mrps, centralized {} Mrps",
        mrps(1e9 / costs::TQ_DISPATCH_PER_REQ.as_nanos() as f64),
        mrps(1e9 / costs::CENTRALIZED_DISPATCH_PER_REQ.as_nanos() as f64),
    );
    println!();
    let tq = presets::tq(16, Nanos::from_micros(2));
    let shinjuku = presets::shinjuku(16, Nanos::from_micros(5));
    // The §6 "~5 Mrps" figure is the centralized dispatcher's *packet
    // path* alone; the full Shinjuku dispatcher also spends per-quantum
    // scheduling work on every job, landing lower.
    let mut ct_packets_only = shinjuku.clone().named("CT packet path");
    ct_packets_only.dispatch_per_quantum = Nanos::ZERO;
    println!(
        "{:>12}{:>16}{:>16}{:>18}",
        "offered", "TQ goodput", "Shinjuku", "CT packet path"
    );
    for offered_mrps in [2.0, 4.0, 5.0, 6.0, 10.0, 13.0, 14.0, 16.0, 20.0] {
        let rate = offered_mrps * 1e6;
        let a = run_point(&tq, &wl, rate);
        let b = run_point(&shinjuku, &wl, rate);
        let c = run_point(&ct_packets_only, &wl, rate);
        println!(
            "{:>12}{:>16}{:>16}{:>18}",
            mrps(rate),
            mrps(a.achieved_rps),
            mrps(b.achieved_rps),
            mrps(c.achieved_rps)
        );
    }
}
