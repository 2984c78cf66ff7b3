//! Extension: least-attained-service quantum scheduling.
//!
//! §3.1 notes that TQ's run-time yield decision "supports dynamic quantum
//! sizes, which are needed for scheduling policies like
//! least-attained-service" — but the paper never evaluates LAS. This
//! bench does: TQ-PS vs TQ-LAS on Extreme Bimodal. Expectation from
//! queueing theory: LAS matches PS for the short jobs (both give a fresh
//! job immediate service) and *sacrifices the long jobs' tail* (the most
//! attained job starves while anything newer exists).

use tq_bench::{banner, mrps, run_point, us, LOAD_SWEEP};
use tq_core::Nanos;
use tq_queueing::presets;
use tq_workloads::table1;

fn main() {
    banner(
        "Extension: LAS",
        "TQ-PS vs TQ-LAS on Extreme Bimodal, per-class p999 end-to-end",
        "(beyond the paper) LAS ~= PS for shorts; LAS sharply worse for the 500us jobs",
    );
    let wl = table1::extreme_bimodal();
    let q = Nanos::from_micros(2);
    let systems = [presets::tq(16, q), presets::tq_las(16, q)];
    for (class_idx, label) in [(0usize, "Short"), (1usize, "Long")] {
        println!("-- {label} jobs --");
        print!("{:>10}", "Mrps");
        for s in &systems {
            print!("{:>14}", s.name);
        }
        println!("   (p999, us)");
        for load in LOAD_SWEEP {
            let rate = wl.rate_for_load(16, load);
            print!("{:>10}", mrps(rate));
            for s in &systems {
                let r = run_point(s, &wl, rate);
                print!("{:>14}", us(r.class(class_idx).p999));
            }
            println!();
        }
        println!();
    }
}
