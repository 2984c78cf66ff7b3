//! Smoke tests that every figure's computational path stays runnable:
//! each test exercises the exact library calls the regeneration binary
//! makes, at toy durations, so `cargo test` catches harness rot without
//! paying full simulation cost.

use tq_cache::chase::{run as chase_run, ChaseConfig, Placement};
use tq_cache::reuse::ReuseHistogram;
use tq_core::policy::TieBreak;
use tq_core::Nanos;
use tq_instrument::exec::ExecConfig;
use tq_integration::sim_point;
use tq_kv::{AccessTrace, KvStore};
use tq_queueing::{presets, scaling};
use tq_workloads::table1;

const TINY: Nanos = Nanos::from_millis(4);

#[test]
fn fig1_2_path() {
    let wl = table1::extreme_bimodal();
    for q in [0.5, 5.0] {
        let mut cfg = presets::ideal_centralized_ps(8, Nanos::from_micros_f64(q));
        cfg.preempt_overhead = Nanos::from_nanos(100);
        let r = sim_point(&cfg, &wl, wl.rate_for_load(8, 0.5), TINY, 1);
        assert!(r.completed > 0);
    }
}

#[test]
fn fig4_path() {
    let wl = table1::extreme_bimodal();
    for tie in [TieBreak::Random, TieBreak::MaxServicedQuanta] {
        let cfg = presets::ideal_two_level(8, Nanos::from_micros(1), tie);
        let r = sim_point(&cfg, &wl, wl.rate_for_load(8, 0.5), TINY, 1);
        assert!(r.completed > 0);
    }
}

#[test]
fn fig5_to_12_paths() {
    let q = Nanos::from_micros(2);
    let systems = [
        presets::tq(8, q),
        presets::shinjuku(8, Nanos::from_micros(5)),
        presets::caladan_iokernel(8),
        presets::caladan_directpath(8),
        presets::tq_ic(8, q),
        presets::tq_slow_yield(8, q),
        presets::tq_timing(8),
        presets::tq_rand(8, q),
        presets::tq_power_two(8, q),
        presets::tq_fcfs(8),
        presets::tq_las(8, q),
        presets::tq_multi_dispatcher(8, q, 2),
        presets::concord(8, q),
    ];
    for wl in [
        table1::extreme_bimodal(),
        table1::high_bimodal(),
        table1::tpcc(),
        table1::exp1(),
        table1::rocksdb_low_scan(),
        table1::rocksdb_high_scan(),
    ] {
        for cfg in &systems {
            let r = sim_point(cfg, &wl, wl.rate_for_load(8, 0.4), TINY, 2);
            assert!(
                r.completed > 0,
                "{} on {} produced no completions",
                cfg.name,
                wl.name()
            );
        }
    }
}

#[test]
fn fig13_14_path() {
    let cfg = ChaseConfig {
        array_bytes: 8 * 1024,
        cores: 4,
        jobs_per_core: 2,
        quantum_accesses: 64,
        passes: 2,
    };
    let tls = chase_run(Placement::TwoLevel, &cfg, 1);
    let ct = chase_run(Placement::Centralized, &cfg, 1);
    assert!(tls.avg_cycles >= 4.0 && ct.avg_cycles >= 4.0);
}

#[test]
fn fig15_path() {
    let mut store = KvStore::new(1);
    store.populate(5_000, 64);
    let mut t = AccessTrace::new();
    store.get_with_trace(&KvStore::nth_key(99), &mut t);
    store.scan_with_trace(&KvStore::nth_key(0), 500, &mut t);
    let h = ReuseHistogram::from_trace(t.lines(), ReuseHistogram::figure15_bounds());
    assert!(h.total > 0);
}

#[test]
fn fig16_path() {
    let q = Nanos::from_micros(5);
    assert!(scaling::max_cores(&presets::shinjuku(4, q), q, 4) >= 1);
    assert_eq!(scaling::max_cores(&presets::tq(4, q), q, 4), 4);
}

#[test]
fn table3_path() {
    let mut cfg = ExecConfig::default_for_quantum(Nanos::from_micros(2));
    cfg.repeats = 2;
    for name in ["pca", "barnes"] {
        let p = tq_instrument::programs::by_name(name).unwrap();
        let row = tq_instrument::report::measure(&p, &cfg, 1);
        assert!(row.overhead_ci >= 0.0 && row.overhead_tq >= 0.0);
        assert!(row.probes_ci > 0 && row.probes_tq > 0);
    }
}
