//! Queueing-theoretic sanity of the serving-system models: the simulator
//! must reproduce closed-form results before its comparative claims mean
//! anything.

use tq_core::policy::WorkerPolicy;
use tq_core::Nanos;
use tq_integration::sim_point;
use tq_queueing::presets;
use tq_workloads::{table1, ClassDist, JobClass, Workload};

fn exp_workload(mean_us: u64) -> Workload {
    Workload::new(
        "M/M/1",
        vec![JobClass::new(
            "exp",
            ClassDist::Exponential(Nanos::from_micros(mean_us)),
            1.0,
        )],
    )
}

/// A single zero-overhead FCFS server fed Poisson arrivals is M/M/1:
/// mean sojourn = 1 / (mu - lambda).
#[test]
fn mm1_fcfs_mean_sojourn_matches_analytic() {
    let mut cfg = presets::caladan_directpath(1);
    cfg.worker_rx_cost = Nanos::ZERO;
    cfg.work_stealing = false;
    cfg.dispatch_per_req = Nanos::ZERO;
    let wl = exp_workload(1); // mu = 1 per us
    for rho in [0.3, 0.5, 0.7] {
        let rate = wl.rate_for_load(1, rho);
        let r = sim_point(&cfg, &wl, rate, Nanos::from_millis(400), 7);
        let measured = r.classes_sojourn[0].mean.as_nanos() as f64;
        let analytic = 1_000.0 / (1.0 - rho); // ns
        let err = (measured - analytic).abs() / analytic;
        assert!(
            err < 0.08,
            "rho={rho}: measured {measured}ns vs analytic {analytic}ns ({:.1}% off)",
            err * 100.0
        );
    }
}

/// M/M/1-PS has the same mean sojourn as M/M/1-FCFS (a classic identity);
/// with fine quanta and zero overheads the PS emulation must agree.
#[test]
fn mm1_ps_mean_matches_fcfs_mean() {
    let wl = exp_workload(1);
    let rate = wl.rate_for_load(1, 0.6);
    let dur = Nanos::from_millis(400);

    let mut fcfs = presets::caladan_directpath(1);
    fcfs.worker_rx_cost = Nanos::ZERO;
    fcfs.work_stealing = false;
    fcfs.dispatch_per_req = Nanos::ZERO;
    let fcfs_mean = sim_point(&fcfs, &wl, rate, dur, 9).classes_sojourn[0]
        .mean
        .as_nanos() as f64;

    let mut ps = presets::ideal_two_level(
        1,
        Nanos::from_nanos(100),
        tq_core::policy::TieBreak::MaxServicedQuanta,
    );
    ps.worker_policy = WorkerPolicy::ProcessorSharing;
    let ps_mean = sim_point(&ps, &wl, rate, dur, 9).classes_sojourn[0]
        .mean
        .as_nanos() as f64;

    let err = (ps_mean - fcfs_mean).abs() / fcfs_mean;
    assert!(
        err < 0.1,
        "PS mean {ps_mean}ns vs FCFS mean {fcfs_mean}ns differ {:.1}%",
        err * 100.0
    );
}

/// Under PS, short jobs must never wait behind a whole long job: the
/// short-class p999 stays within a few quanta of its service time even
/// with 1000x stragglers in the mix.
#[test]
fn ps_bounds_short_job_tail_under_extreme_bimodal() {
    let cfg = presets::ideal_two_level(
        16,
        Nanos::from_micros(1),
        tq_core::policy::TieBreak::MaxServicedQuanta,
    );
    let wl = table1::extreme_bimodal();
    let r = sim_point(&cfg, &wl, wl.rate_for_load(16, 0.5), Nanos::from_millis(60), 3);
    let p999 = r.classes_sojourn[0].p999;
    assert!(
        p999 < Nanos::from_micros(30),
        "short p999 {p999} despite PS at 50% load"
    );
}

/// FCFS at the same operating point head-of-line blocks the shorts by
/// orders of magnitude — the phenomenon motivating the whole paper.
#[test]
fn fcfs_head_of_line_blocks_shorts() {
    // At 70% load most workers are busy, so JSQ cannot hide the 500µs
    // stragglers: a run-to-completion worker blocks its queued shorts.
    let fcfs = presets::tq_fcfs(16);
    let wl = table1::extreme_bimodal();
    let r = sim_point(&fcfs, &wl, wl.rate_for_load(16, 0.7), Nanos::from_millis(60), 3);
    let p999 = r.classes_sojourn[0].p999;
    assert!(
        p999 > Nanos::from_micros(200),
        "FCFS short p999 {p999} suspiciously good"
    );
}

/// Conservation: at sub-saturation load, everything that arrives
/// completes, for every architecture.
#[test]
fn all_systems_conserve_jobs() {
    let wl = table1::high_bimodal();
    let dur = Nanos::from_millis(20);
    for cfg in [
        presets::tq(8, Nanos::from_micros(2)),
        presets::shinjuku(8, Nanos::from_micros(5)),
        presets::caladan_iokernel(8),
        presets::caladan_directpath(8),
        presets::tq_fcfs(8),
    ] {
        let rate = wl.rate_for_load(8, 0.5);
        let r = sim_point(&cfg, &wl, rate, dur, 11);
        let expected = (rate * dur.as_secs_f64() * 0.9) as f64;
        let got = r.classes.iter().map(|c| c.count).sum::<usize>() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "{}: completed {got} vs expected ~{expected}",
            cfg.name
        );
    }
}

/// The simulator agrees with the Erlang-C closed form for M/M/k-FCFS:
/// 8 workers behind a zero-cost random... no — FCFS with a *shared* queue
/// is what M/M/k means, which our centralized model provides when the
/// quantum never fires.
#[test]
fn mmk_mean_matches_erlang_c() {
    use tq_queueing::theory::mmk_mean_sojourn;
    let k = 4;
    let mut cfg = presets::ideal_centralized_ps(k, Nanos::from_secs(1)); // never preempts
    cfg.name = "M/M/4".into();
    let wl = exp_workload(1); // mu = 1 per us per server
    for rho in [0.4, 0.7] {
        let lambda = rho * k as f64; // jobs per us
        let rate = wl.rate_for_load(k, rho);
        let r = sim_point(&cfg, &wl, rate, Nanos::from_millis(400), 13);
        let measured_us = r.classes_sojourn[0].mean.as_nanos() as f64 / 1_000.0;
        let analytic_us = mmk_mean_sojourn(lambda, 1.0, k);
        let err = (measured_us - analytic_us).abs() / analytic_us;
        assert!(
            err < 0.08,
            "rho={rho}: measured {measured_us}us vs Erlang-C {analytic_us}us"
        );
    }
}

/// PS insensitivity, simulated: two service distributions with the same
/// mean produce the same mean sojourn under fine-grained PS.
#[test]
fn ps_insensitivity_holds_in_simulation() {
    use tq_queueing::theory::mg1_ps_mean_sojourn;
    let rho = 0.6;
    let dur = Nanos::from_millis(300);
    let cfg = presets::ideal_two_level(
        1,
        Nanos::from_nanos(100),
        tq_core::policy::TieBreak::MaxServicedQuanta,
    );
    // Exponential(1us) vs a 2-point distribution with the same 1us mean.
    let exp = exp_workload(1);
    let two_point = Workload::new(
        "two-point",
        vec![
            JobClass::new("short", ClassDist::Deterministic(Nanos::from_nanos(500)), 0.9),
            JobClass::new(
                "long",
                ClassDist::Deterministic(Nanos::from_nanos(5_500)),
                0.1,
            ),
        ],
    );
    let analytic = mg1_ps_mean_sojourn(1.0, rho); // us
    for wl in [exp, two_point] {
        let rate = wl.rate_for_load(1, rho);
        let r = sim_point(&cfg, &wl, rate, dur, 21);
        let mean_us: f64 = r
            .classes_sojourn
            .iter()
            .map(|c| c.mean.as_nanos() as f64 * c.count as f64)
            .sum::<f64>()
            / r.classes_sojourn.iter().map(|c| c.count as f64).sum::<f64>()
            / 1_000.0;
        let err = (mean_us - analytic).abs() / analytic;
        assert!(
            err < 0.1,
            "{}: mean {mean_us}us vs PS closed form {analytic}us",
            r.workload
        );
    }
}

/// Determinism across the whole pipeline: same seed, same RunRecord.
#[test]
fn end_to_end_determinism() {
    let wl = table1::tpcc();
    let cfg = presets::tq(8, Nanos::from_micros(2));
    let rate = wl.rate_for_load(8, 0.7);
    let a = sim_point(&cfg, &wl, rate, Nanos::from_millis(20), 123);
    let b = sim_point(&cfg, &wl, rate, Nanos::from_millis(20), 123);
    assert_eq!(a.classes, b.classes);
    assert_eq!(a.overall_slowdown_p999, b.overall_slowdown_p999);
}
