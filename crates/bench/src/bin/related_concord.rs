//! Related work (§7): Concord vs. TQ.
//!
//! Concord is the concurrent coroutine-based system that keeps the
//! *centralized* scheduling framework, replacing interrupts with a shared
//! cache line the dispatcher sets and workers poll. Preemption itself
//! becomes cheap, but the dispatcher still performs work per quantum per
//! core and its per-request path saturates around 4 Mrps — while TQ's
//! forced multitasking needs no external signal at all, so its dispatcher
//! load is per-job (~14 Mrps) and constant in the quantum size.

use tq_bench::{banner, mrps, run_point, us, LOAD_SWEEP};
use tq_core::Nanos;
use tq_queueing::presets;
use tq_workloads::{table1, ClassDist, JobClass, Workload};

fn main() {
    banner(
        "Related work: Concord (§7)",
        "TQ vs Concord: dispatcher ceiling and Extreme Bimodal short-job tail",
        "Concord saturates ~4 Mrps (centralized, per-quantum dispatcher work); TQ ~14 Mrps",
    );
    // Dispatcher ceilings on a tiny-job workload.
    let tiny = Workload::new(
        "tiny jobs",
        vec![JobClass::new(
            "tiny",
            ClassDist::Deterministic(Nanos::from_nanos(200)),
            1.0,
        )],
    );
    println!("{:>10}{:>16}{:>16}   (goodput, Mrps)", "offered", "TQ", "Concord");
    for offered_mrps in [2.0, 4.0, 6.0, 10.0, 14.0, 18.0] {
        let rate = offered_mrps * 1e6;
        let tq = run_point(&presets::tq(16, Nanos::from_micros(2)), &tiny, rate);
        let concord = run_point(&presets::concord(16, Nanos::from_micros(2)), &tiny, rate);
        println!(
            "{:>10}{:>16}{:>16}",
            mrps(rate),
            mrps(tq.achieved_rps),
            mrps(concord.achieved_rps)
        );
    }

    println!();
    println!("Extreme Bimodal, short-job p999 end-to-end (us):");
    let wl = table1::extreme_bimodal();
    println!("{:>10}{:>16}{:>16}", "Mrps", "TQ", "Concord");
    for load in LOAD_SWEEP {
        let rate = wl.rate_for_load(16, load);
        let tq = run_point(&presets::tq(16, Nanos::from_micros(2)), &wl, rate);
        let concord = run_point(&presets::concord(16, Nanos::from_micros(2)), &wl, rate);
        println!(
            "{:>10}{:>16}{:>16}",
            mrps(rate),
            us(tq.class(0).p999),
            us(concord.class(0).p999)
        );
    }
}
