//! Figure 6: TQ's long-job tail latency across quantum sizes (§5.2).
//!
//! Companion to Figure 5: the 500 µs jobs. Throughput stays nearly
//! identical for all quanta above 0.5 µs — evidence that preemption
//! overhead, not scheduling capacity, is the only cost of going finer.

use tq_bench::{banner, mrps, run_point, us, LOAD_SWEEP};
use tq_core::Nanos;
use tq_queueing::presets;
use tq_workloads::table1;

fn main() {
    banner(
        "Figure 6",
        "TQ long-job p999 end-to-end latency vs rate, quanta 0.5-10us, Extreme Bimodal",
        "long-job throughput almost identical for quanta >= 0.5us",
    );
    let wl = table1::extreme_bimodal();
    let quanta_us = [0.5, 1.0, 2.0, 5.0, 10.0];
    print!("{:>10}", "Mrps");
    for q in quanta_us {
        print!("{:>12}", format!("q={q}us"));
    }
    println!("   (long-job p999, us)");
    for load in LOAD_SWEEP {
        let rate = wl.rate_for_load(16, load);
        print!("{:>10}", mrps(rate));
        for q in quanta_us {
            let cfg = presets::tq(16, Nanos::from_micros_f64(q));
            let r = run_point(&cfg, &wl, rate);
            print!("{:>12}", us(r.class(1).p999));
        }
        println!();
    }
}
