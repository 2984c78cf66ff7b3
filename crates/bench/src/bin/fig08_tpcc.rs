//! Figure 8: the TPC-C transaction mix (§5.3).
//!
//! Multi-modal service times (5.7–100 µs) show how each system treats
//! different job sizes: Shinjuku preempts (good short-transaction
//! latency, costly throughput), Caladan runs to completion (good long,
//! bad short). TQ gets the best of both; the overall 99.9% slowdown
//! calibrates across the size mix.

use tq_bench::{banner, better_caladan, compare_systems, mrps, run_point, LOAD_SWEEP};
use tq_core::Nanos;
use tq_queueing::presets;
use tq_workloads::table1;

fn main() {
    banner(
        "Figure 8",
        "TPC-C: per-class p999 end-to-end latency + overall 99.9% slowdown",
        "TQ sustains the highest load; Shinjuku best short-txn latency at low load; \
         Caladan favors Delivery/StockLevel",
    );
    let wl = table1::tpcc();
    let systems = [
        presets::tq(16, Nanos::from_micros(2)),
        presets::shinjuku(16, Nanos::from_micros(10)),
        better_caladan(&wl),
    ];
    compare_systems(&systems, &wl);

    println!("-- overall 99.9% slowdown --");
    print!("{:>10}", "Mrps");
    for cfg in &systems {
        print!("{:>24}", cfg.name);
    }
    println!();
    for &load in LOAD_SWEEP.iter() {
        let rate = wl.rate_for_load(16, load);
        print!("{:>10}", mrps(rate));
        for cfg in &systems {
            let r = run_point(cfg, &wl, rate);
            print!("{:>24.1}", r.overall_slowdown_p999);
        }
        println!();
    }
}
