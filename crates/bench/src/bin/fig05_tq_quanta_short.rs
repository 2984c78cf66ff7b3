//! Figure 5: TQ's short-job tail latency across quantum sizes (§5.2).
//!
//! Extreme Bimodal, quanta from 10 µs down to 0.5 µs. Smaller quanta cut
//! short-job latency; thanks to forced multitasking's tiny overhead, the
//! maximum throughput holds all the way down to 2 µs quanta and remains
//! substantial at 0.5 µs.

use tq_bench::{banner, mrps, run_point, us, LOAD_SWEEP};
use tq_core::Nanos;
use tq_queueing::presets;
use tq_workloads::table1;

fn main() {
    banner(
        "Figure 5",
        "TQ short-job p999 end-to-end latency vs rate, quanta 0.5-10us, Extreme Bimodal",
        "smaller quanta -> lower short-job latency; same max throughput down to 2us quanta",
    );
    let wl = table1::extreme_bimodal();
    let quanta_us = [0.5, 1.0, 2.0, 5.0, 10.0];
    print!("{:>10}", "Mrps");
    for q in quanta_us {
        print!("{:>12}", format!("q={q}us"));
    }
    println!("   (short-job p999, us)");
    for load in LOAD_SWEEP {
        let rate = wl.rate_for_load(16, load);
        print!("{:>10}", mrps(rate));
        for q in quanta_us {
            let cfg = presets::tq(16, Nanos::from_micros_f64(q));
            let r = run_point(&cfg, &wl, rate);
            print!("{:>12}", us(r.class(0).p999));
        }
        println!();
    }
}
