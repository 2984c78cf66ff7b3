//! Figure 2: maximum load under a slowdown-10 SLO, vs. quantum size, for
//! three preemption overheads.
//!
//! With zero overhead, shrinking quanta monotonically raises capacity
//! (~40% from 5 µs down to sub-µs). At 0.1 µs overhead the gain shrinks
//! and reverses below ~1 µs quanta; at 1 µs overhead (a Shinjuku-class
//! interrupt) anything below ~3 µs *loses* capacity — the overhead has to
//! be tiny for tiny quanta to pay off.

use tq_bench::{banner, max_rate_under, mrps, run_point};
use tq_core::Nanos;
use tq_queueing::presets;
use tq_workloads::table1;

fn main() {
    banner(
        "Figure 2",
        "max rate with 99.9% slowdown <= 10 vs quantum, centralized PS, Extreme Bimodal",
        "overhead 0: capacity grows as quanta shrink; overhead 1us: shrinking below ~3us hurts",
    );
    let wl = table1::extreme_bimodal();
    let quanta_us = [0.5, 1.0, 2.0, 3.0, 5.0, 10.0];
    let overheads_ns = [0u64, 100, 1_000];
    let loads: Vec<f64> = (4..=19).map(|i| i as f64 * 0.05).collect();

    print!("{:>8}", "quantum");
    for o in overheads_ns {
        print!("{:>14}", format!("ovh={}ns", o));
    }
    println!("   (max Mrps with slowdown<=10)");
    for q in quanta_us {
        print!("{:>8}", format!("{q}us"));
        for o in overheads_ns {
            let mut cfg = presets::ideal_centralized_ps(16, Nanos::from_micros_f64(q));
            cfg.preempt_overhead = Nanos::from_nanos(o);
            let results: Vec<_> = loads
                .iter()
                .map(|&l| run_point(&cfg, &wl, wl.rate_for_load(16, l)))
                .collect();
            let cap = max_rate_under(&results, 10.0, |r| r.overall_slowdown_p999);
            match cap {
                Some(rate) => print!("{:>14}", mrps(rate)),
                None => print!("{:>14}", "-"),
            }
        }
        println!();
    }
}
