//! Figure 4: centralized vs. two-level scheduling, and the MSQ tie-break.
//!
//! Long-job 99.9% slowdown on Extreme Bimodal with all overheads zeroed:
//! centralized PS is the (unimplementable-at-speed) gold standard;
//! two-level JSQ-PS with naive random tie-breaking hurts long jobs;
//! Maximum-Serviced-Quanta tie-breaking recovers most of the gap.

use tq_bench::{banner, run_point, LOAD_SWEEP};
use tq_core::policy::TieBreak;
use tq_core::Nanos;
use tq_queueing::presets;
use tq_workloads::table1;

fn main() {
    banner(
        "Figure 4",
        "long-job 99.9% slowdown: CT-PS vs TLS JSQ-PS (random / MSQ tie-break), no overhead",
        "CT best in idealized simulation; TLS+MSQ close to CT; TLS+random clearly worse",
    );
    let wl = table1::extreme_bimodal();
    let q = Nanos::from_micros(1);
    let systems = [
        presets::ideal_centralized_ps(16, q),
        presets::ideal_two_level(16, q, TieBreak::Random),
        presets::ideal_two_level(16, q, TieBreak::MaxServicedQuanta),
    ];
    print!("{:>6}", "load");
    for s in &systems {
        print!("{:>26}", s.name);
    }
    println!("   (long-job 99.9% slowdown)");
    for load in LOAD_SWEEP {
        let rate = wl.rate_for_load(16, load);
        print!("{load:>6.2}");
        for s in &systems {
            let r = run_point(s, &wl, rate);
            print!("{:>26.2}", r.classes_sojourn[1].slowdown_p999);
        }
        println!();
    }
}
