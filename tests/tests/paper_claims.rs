//! The paper's headline comparative claims, checked end-to-end against
//! the models at reduced (CI-friendly) durations. These are *shape*
//! assertions — who wins and in what direction — not absolute numbers.

use tq_core::policy::TieBreak;
use tq_core::Nanos;
use tq_integration::sim_point;
use tq_queueing::{presets, scaling, SystemConfig};
use tq_workloads::table1;

const DUR: Nanos = Nanos::from_millis(40);

fn short_p999(cfg: &SystemConfig, wl: &tq_workloads::Workload, load: f64, seed: u64) -> Nanos {
    let r = sim_point(cfg, wl, wl.rate_for_load(16, load), DUR, seed);
    r.class(0).p999
}

/// §5.3: at high load on Extreme Bimodal, TQ keeps the short-job tail low
/// where both Shinjuku and Caladan have lost it.
#[test]
fn tq_beats_both_baselines_on_extreme_bimodal() {
    let wl = table1::extreme_bimodal();
    let load = 0.8;
    let tq = short_p999(&presets::tq(16, Nanos::from_micros(2)), &wl, load, 5);
    let shinjuku = short_p999(&presets::shinjuku(16, Nanos::from_micros(5)), &wl, load, 5);
    let caladan = short_p999(&presets::caladan_directpath(16), &wl, load, 5);
    assert!(
        tq < Nanos::from_micros(50),
        "TQ should hold the 50us budget at 80% load: {tq}"
    );
    assert!(shinjuku > tq * 5, "Shinjuku {shinjuku} vs TQ {tq}");
    assert!(caladan > tq * 5, "Caladan {caladan} vs TQ {tq}");
}

/// §5.2: TQ's throughput under a 50 µs short-job budget is essentially
/// unchanged between 10 µs and 2 µs quanta (overheads small enough),
/// while latency *improves* with smaller quanta at medium load.
#[test]
fn tiny_quanta_cost_nothing_but_help_latency() {
    let wl = table1::extreme_bimodal();
    let at = |q_us: f64, load: f64| {
        short_p999(
            &presets::tq(16, Nanos::from_micros_f64(q_us)),
            &wl,
            load,
            7,
        )
    };
    // Latency ordering at medium load.
    let l_10 = at(10.0, 0.65);
    let l_1 = at(1.0, 0.65);
    assert!(l_1 < l_10, "1us quanta {l_1} should beat 10us {l_10}");
    // Throughput parity at high load: both hold the budget.
    assert!(at(2.0, 0.85) < Nanos::from_micros(50));
    assert!(at(10.0, 0.85) < Nanos::from_micros(60));
}

/// §3.2/Figure 4: MSQ tie-breaking beats random tie-breaking for the
/// long jobs (checked at two seeds to guard against flukes).
#[test]
fn msq_beats_random_tiebreak_for_long_jobs() {
    let wl = table1::extreme_bimodal();
    let rate = wl.rate_for_load(16, 0.55);
    let mut msq_wins = 0;
    for seed in [1, 2, 3] {
        let msq = sim_point(
            &presets::ideal_two_level(16, Nanos::from_micros(1), TieBreak::MaxServicedQuanta),
            &wl,
            rate,
            Nanos::from_millis(60),
            seed,
        );
        let rnd = sim_point(
            &presets::ideal_two_level(16, Nanos::from_micros(1), TieBreak::Random),
            &wl,
            rate,
            Nanos::from_millis(60),
            seed,
        );
        if msq.classes_sojourn[1].slowdown_p999 < rnd.classes_sojourn[1].slowdown_p999 {
            msq_wins += 1;
        }
    }
    assert!(msq_wins >= 2, "MSQ won only {msq_wins}/3 seeds");
}

/// §5.4: every ablation hurts — each variant's short-job p999 at high
/// load is worse than TQ's.
#[test]
fn every_ablation_is_worse_than_tq() {
    let wl = table1::rocksdb_low_scan();
    let load = 0.8;
    let q = Nanos::from_micros(2);
    let tq = short_p999(&presets::tq(16, q), &wl, load, 9);
    for variant in [
        presets::tq_ic(16, q),
        presets::tq_slow_yield(16, q),
        presets::tq_rand(16, q),
        presets::tq_fcfs(16),
    ] {
        let v = short_p999(&variant, &wl, load, 9);
        assert!(
            v > tq,
            "{} ({v}) should be worse than TQ ({tq})",
            variant.name
        );
    }
}

/// §5.6/Figure 16: the dispatcher-scalability cliff — Shinjuku's
/// sustainable cores collapse as quanta shrink; TQ's do not.
#[test]
fn dispatcher_scalability_cliff() {
    let five = Nanos::from_micros(5);
    let half = Nanos::from_nanos(500);
    assert_eq!(
        scaling::max_cores(&presets::shinjuku(16, five), five, 16),
        16
    );
    assert!(scaling::max_cores(&presets::shinjuku(16, half), half, 16) <= 4);
    assert_eq!(scaling::max_cores(&presets::tq(16, half), half, 16), 16);
}

/// §6: the modeled dispatcher throughputs — TQ ~14 Mrps vs centralized
/// ~5 Mrps — emerge from the calibrated per-request costs.
#[test]
fn dispatcher_throughput_gap() {
    use tq_workloads::{ClassDist, JobClass, Workload};
    let wl = Workload::new(
        "tiny",
        vec![JobClass::new(
            "t",
            ClassDist::Deterministic(Nanos::from_nanos(200)),
            1.0,
        )],
    );
    let offered = 20.0e6; // far past both ceilings
    let tq = sim_point(&presets::tq(16, Nanos::from_micros(2)), &wl, offered, DUR, 3);
    let ct = sim_point(
        &presets::shinjuku(16, Nanos::from_micros(5)),
        &wl,
        offered,
        DUR,
        3,
    );
    assert!(
        (12.0e6..16.0e6).contains(&tq.achieved_rps),
        "TQ goodput {:.1} Mrps",
        tq.achieved_rps / 1e6
    );
    assert!(
        ct.achieved_rps < 6.0e6,
        "centralized goodput {:.1} Mrps",
        ct.achieved_rps / 1e6
    );
}
