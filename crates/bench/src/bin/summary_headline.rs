//! The abstract's headline: "TQ achieves low tail latency while
//! sustaining 1.2x to 6.8x the throughput of prior blind scheduling
//! systems."
//!
//! For every Table 1 workload, finds the maximum rate each system
//! sustains with the shortest class's p999 end-to-end latency under a
//! 50 µs budget (the paper's recurring SLO), and prints TQ's advantage
//! over the better baseline and over each individually.

use tq_bench::{banner, better_caladan, mrps, run_point};
use tq_core::Nanos;
use tq_queueing::{presets, SystemConfig};
use tq_workloads::{table1, Workload};

/// Max sustainable Mrps under the 50 µs shortest-class budget, by
/// bisection over offered load (12 probes ⇒ ~0.05% resolution).
fn capacity(cfg: &SystemConfig, wl: &Workload) -> f64 {
    let budget = Nanos::from_micros(50);
    let ok = |load: f64| {
        let r = run_point(cfg, wl, wl.rate_for_load(cfg.n_workers, load));
        r.classes.first().map(|c| c.p999 <= budget).unwrap_or(false)
    };
    let (mut lo, mut hi) = (0.02, 1.6);
    if !ok(lo) {
        return 0.0;
    }
    for _ in 0..12 {
        let mid = (lo + hi) / 2.0;
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    wl.rate_for_load(cfg.n_workers, lo)
}

fn main() {
    banner(
        "Headline summary",
        "max rate with shortest-class p999 <= 50us, per workload and system",
        "abstract: TQ sustains 1.2x to 6.8x the throughput of prior blind schedulers",
    );
    let shinjuku_quantum = |wl: &Workload| match wl.name() {
        "Extreme Bimodal" | "High Bimodal" => Nanos::from_micros(5),
        n if n.starts_with("RocksDB") => Nanos::from_micros(15),
        _ => Nanos::from_micros(10),
    };
    println!(
        "{:<22}{:>10}{:>12}{:>12}{:>10}{:>10}",
        "workload", "TQ", "Shinjuku", "Caladan", "xShin", "xCal"
    );
    let mut ratios: Vec<f64> = Vec::new();
    for wl in table1::all() {
        let tq = capacity(&presets::tq(16, Nanos::from_micros(2)), &wl);
        let sh = capacity(&presets::shinjuku(16, shinjuku_quantum(&wl)), &wl);
        let ca = capacity(&better_caladan(&wl), &wl);
        let x_sh = if sh > 0.0 { tq / sh } else { f64::INFINITY };
        let x_ca = if ca > 0.0 { tq / ca } else { f64::INFINITY };
        // The abstract's range spans every (workload, baseline) pair.
        ratios.push(x_sh);
        ratios.push(x_ca);
        println!(
            "{:<22}{:>10}{:>12}{:>12}{:>10.2}{:>10.2}",
            wl.name(),
            mrps(tq),
            mrps(sh),
            mrps(ca),
            x_sh,
            x_ca
        );
    }
    let finite: Vec<f64> = ratios.iter().cloned().filter(|r| r.is_finite()).collect();
    let min = finite.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = finite.iter().cloned().fold(0.0, f64::max);
    println!();
    println!(
        "TQ sustains {min:.1}x to {max:.1}x the prior systems' load across \
         (workload, baseline) pairs. Paper: 1.2x to 6.8x."
    );
}
