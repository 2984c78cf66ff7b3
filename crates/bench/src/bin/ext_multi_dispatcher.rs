//! Extension: multiple dispatcher cores (§6).
//!
//! The paper's dispatcher sustains ~14 Mrps, which "could still be
//! insufficient for short requests and many cores"; §6 suggests scaling
//! the dispatcher out. This bench does it: the NIC sprays packets
//! round-robin over D dispatcher cores, each running JSQ+MSQ against the
//! live worker counters. Goodput on a dispatcher-bound tiny-job workload
//! should scale ~linearly in D, with tail latency intact.

use tq_bench::{banner, mrps, run_point, us};
use tq_core::Nanos;
use tq_queueing::presets;
use tq_workloads::{ClassDist, JobClass, Workload};

fn main() {
    banner(
        "Extension: multi-dispatcher",
        "goodput and p999 vs offered rate for D in {1, 2, 4} dispatcher cores",
        "(beyond the paper) §6 sketch: dispatcher ceiling scales with D (~14 Mrps per core)",
    );
    // 0.4µs jobs on 64 workers: worker capacity 160 Mrps; the dispatcher
    // tier is the bottleneck throughout.
    let wl = Workload::new(
        "tiny jobs",
        vec![JobClass::new(
            "tiny",
            ClassDist::Deterministic(Nanos::from_nanos(400)),
            1.0,
        )],
    );
    let dispatchers = [1usize, 2, 4];
    print!("{:>10}", "offered");
    for d in dispatchers {
        print!("{:>22}", format!("D={d} goodput/p999"));
    }
    println!("   (Mrps / us)");
    for offered_mrps in [5.0, 10.0, 13.0, 20.0, 26.0, 40.0, 52.0, 70.0] {
        let rate = offered_mrps * 1e6;
        print!("{:>10}", mrps(rate));
        for d in dispatchers {
            let cfg = presets::tq_multi_dispatcher(64, Nanos::from_micros(2), d);
            let r = run_point(&cfg, &wl, rate);
            let p999 = r
                .classes
                .first()
                .map(|c| us(c.p999))
                .unwrap_or_else(|| "-".into());
            print!("{:>22}", format!("{} / {}", mrps(r.achieved_rps), p999));
        }
        println!();
    }
}
