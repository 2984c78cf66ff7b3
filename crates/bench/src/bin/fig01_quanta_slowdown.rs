//! Figure 1: tail slowdown vs. load for different quantum sizes.
//!
//! The §2 motivating simulation: 16 worker cores plus a centralized
//! zero-overhead PS scheduler serving the Extreme Bimodal workload.
//! Smaller quanta reduce head-of-line blocking of the 0.5 µs jobs, so the
//! 99.9% slowdown curve rises later — the case for tiny quanta.

use tq_bench::{banner, run_point, LOAD_SWEEP};
use tq_core::Nanos;
use tq_queueing::presets;
use tq_workloads::table1;

fn main() {
    banner(
        "Figure 1",
        "99.9% slowdown vs load, centralized PS, zero overhead, Extreme Bimodal",
        "smaller quanta keep slowdown under 10 until much higher load; \
         5us quanta (Shinjuku's floor) blow up earliest",
    );
    let wl = table1::extreme_bimodal();
    let quanta_us = [0.5, 1.0, 2.0, 5.0, 10.0];
    print!("{:>6}", "load");
    for q in quanta_us {
        print!("{:>12}", format!("q={q}us"));
    }
    println!("   (99.9% slowdown, all jobs)");
    for load in LOAD_SWEEP {
        let rate = wl.rate_for_load(16, load);
        print!("{load:>6.2}");
        for q in quanta_us {
            let cfg = presets::ideal_centralized_ps(16, Nanos::from_micros_f64(q));
            let r = run_point(&cfg, &wl, rate);
            print!("{:>12.1}", r.overall_slowdown_p999);
        }
        println!();
    }
}
