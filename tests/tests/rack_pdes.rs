//! Differential and determinism properties for the rack tier.
//!
//! Two contracts pin the sharded PDES core to the serial engine:
//!
//! 1. **Fed vs own arrivals** — a rack server is the serial engine in fed
//!    mode: its requests come through an inbox instead of its own
//!    generator. Pre-injecting a generator's stream (`at = arrival`) into
//!    a fed engine and stepping it to quiescence must execute exactly the
//!    events of the own-mode run over the same stream. For two-level
//!    servers the completion streams are bit-identical too; for
//!    centralized servers the inbox-wins tie rule can reorder a
//!    same-instant arrival against a dispatcher op, so there the
//!    contract is equal event counts, exactly-once completion and causal
//!    timestamps (DESIGN.md "Fed vs own arrivals" has the measured
//!    rates).
//! 2. **Thread-count independence** — for any multi-server rack, the
//!    completion stream and PDES window/message counts are a function of
//!    the spec and seed alone, not of how many OS threads execute the
//!    shards. That is the conservative-lookahead contract (DESIGN.md
//!    "The conservative-lookahead contract") made testable.

use proptest::prelude::*;
use tq_core::job::Completion;
use tq_core::policy::{DispatchPolicy, TieBreak};
use tq_core::Nanos;
use tq_harness::{run_to_record, RackEngine, RunSpec};
use tq_queueing::rack::{simulate_rack, MembershipChange, RackPolicy, RackSpec};
use tq_queueing::{presets, SystemConfig, SystemSim};
use tq_sim::SimRng;
use tq_workloads::{table1, ArrivalGen, ArrivalProcess};

const HORIZON: Nanos = Nanos::from_millis(2);

const DISPATCHES: [DispatchPolicy; 4] = [
    DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta),
    DispatchPolicy::PowerOfTwo,
    DispatchPolicy::Random,
    DispatchPolicy::RssHash,
];

const RACK_POLICIES: [RackPolicy; 4] = [
    RackPolicy::Random,
    RackPolicy::RoundRobin,
    RackPolicy::PowerOfK(2),
    RackPolicy::Affinity { spill: 3 },
];

/// A two-level server config over the (dispatch × stealing) grid.
fn server_cfg(dispatch: DispatchPolicy, stealing: bool, n_workers: usize) -> SystemConfig {
    let mut cfg = presets::tq(n_workers, Nanos::from_micros(2));
    cfg.name = format!("rackgrid({dispatch:?},steal={stealing})");
    cfg.arch = tq_queueing::Architecture::TwoLevel { dispatch };
    cfg.work_stealing = stealing;
    cfg.steal_cost = if stealing {
        tq_core::costs::WORK_STEAL
    } else {
        Nanos::ZERO
    };
    cfg
}

/// Serves `gen`'s stream up to [`HORIZON`] on a fed engine, every
/// request pre-injected at its arrival time; returns the completions and
/// the event count.
fn run_fed(cfg: &SystemConfig, mut gen: ArrivalGen, seed: u64) -> (Vec<Completion>, u64) {
    let mut sim = SystemSim::new_fed(cfg, HORIZON, seed);
    sim.inject_batch(gen.until(HORIZON).into_iter().map(|r| (r.arrival, r)));
    let mut completions = Vec::new();
    while sim.step(&mut completions) {}
    (completions, sim.events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1, two-level servers: fed and own arrivals are
    /// bit-identical over the (dispatch × stealing) grid.
    #[test]
    fn fed_arrivals_match_own_twolevel(
        dispatch_idx in 0usize..DISPATCHES.len(),
        stealing in any::<bool>(),
        n_workers in 1usize..10,
        load_pct in 20u32..90,
        seed in 1u64..100_000,
    ) {
        let cfg = server_cfg(DISPATCHES[dispatch_idx], stealing, n_workers);
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(n_workers, load_pct as f64 / 100.0);
        let gen = ArrivalGen::new(wl, rate, SimRng::new(seed));

        let (fed, fed_events) = run_fed(&cfg, gen.clone(), seed);
        let own = tq_queueing::simulate(&cfg, gen, HORIZON, seed);

        prop_assert_eq!(&fed, &own.completions, "{} diverged", cfg.name);
        prop_assert_eq!(fed_events, own.events);
    }

    /// Contract 1, centralized servers: same events, same jobs; order
    /// only up to the inbox-wins tie rule.
    #[test]
    fn fed_arrivals_match_own_centralized(
        n_workers in 1usize..10,
        load_pct in 20u32..90,
        seed in 1u64..100_000,
    ) {
        let cfg = presets::shinjuku(n_workers, Nanos::from_micros(5));
        let wl = table1::high_bimodal();
        let rate = wl.rate_for_load(n_workers, load_pct as f64 / 100.0);
        let gen = ArrivalGen::new(wl, rate, SimRng::new(seed));

        let (fed, fed_events) = run_fed(&cfg, gen.clone(), seed);
        let own = tq_queueing::simulate(&cfg, gen, HORIZON, seed);

        prop_assert_eq!(fed_events, own.events);
        let ids = |cs: &[Completion]| {
            let mut ids: Vec<u64> = cs.iter().map(|c| c.id.0).collect();
            ids.sort_unstable();
            ids
        };
        let fed_ids = ids(&fed);
        prop_assert!(fed_ids.windows(2).all(|w| w[0] < w[1]), "a job completed twice");
        prop_assert_eq!(fed_ids, ids(&own.completions));
        prop_assert!(fed.iter().all(|c| c.finish >= c.arrival + c.service));
    }

    /// Contract 2: same spec + seed → identical completions, windows,
    /// and messages at every thread count, including with membership
    /// churn and across every rack policy.
    #[test]
    fn rack_run_is_deterministic_across_thread_counts(
        policy_idx in 0usize..RACK_POLICIES.len(),
        n_servers in 2usize..5,
        n_workers in 1usize..6,
        load_pct in 20u32..80,
        churn in any::<bool>(),
        seed in 1u64..100_000,
    ) {
        let mut spec = RackSpec::new(
            server_cfg(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), true, n_workers),
            n_servers,
        );
        spec.policy = RACK_POLICIES[policy_idx];
        if churn {
            // The last server leaves early and rejoins mid-run.
            spec.membership = vec![
                MembershipChange { at: Nanos::from_micros(50), server: n_servers - 1, join: false },
                MembershipChange { at: Nanos::from_millis(1), server: n_servers - 1, join: true },
            ];
        }
        let wl = table1::extreme_bimodal();
        let rate = wl.rate_for_load(n_workers, load_pct as f64 / 100.0) * n_servers as f64;
        let gen = ArrivalGen::new(wl, rate, SimRng::new(seed));

        let (base, base_stats) = simulate_rack(&spec, gen.clone(), HORIZON, seed, 1);
        prop_assert_eq!(base.len() as u64, base_stats.submitted, "rack lost jobs");
        for threads in [2usize, 3, 8] {
            let (run, stats) = simulate_rack(&spec, gen.clone(), HORIZON, seed, threads);
            prop_assert_eq!(&run, &base, "diverged at {} threads", threads);
            prop_assert_eq!(stats.windows, base_stats.windows);
            prop_assert_eq!(stats.messages, base_stats.messages);
            prop_assert_eq!(stats.events, base_stats.events);
        }
    }
}

/// An audited rack run through the harness conserves every job and
/// attributes counters per server.
#[test]
fn audited_rack_engine_run_is_clean() {
    let mut spec = RackSpec::new(presets::tq(4, Nanos::from_micros(2)), 3);
    spec.policy = RackPolicy::PowerOfK(2);
    let wl = table1::extreme_bimodal();
    let run = RunSpec {
        rate_rps: wl.rate_for_load(4, 0.6) * 3.0,
        workload: wl,
        process: ArrivalProcess::Poisson,
        horizon: Nanos::from_millis(3),
        seed: 42,
    };
    let mut engine = RackEngine::new(spec, 2).with_audit(true);
    let record = run_to_record(&mut engine, &run);
    assert!(record.conserved(), "rack lost jobs");
    let audit = record.audit.as_ref().expect("auditing was on");
    assert!(audit.is_clean(), "audit violations: {audit}");
    assert!(audit.checks >= 9, "expected per-server + rack-wide checks");
    let rack = record.rack.as_ref().expect("rack engine sets rack meta");
    assert_eq!(rack.n_servers, 3);
    assert!(rack.windows > 0);
    let routed: u64 = rack.per_server.iter().map(|s| s.routed).sum();
    assert_eq!(routed, record.submitted);
    // The record serializes with the rack block populated.
    let json = tq_harness::json::record_json(&record);
    assert!(json.contains("\"rack\": {\"n_servers\": 3"), "rack block missing: {json}");
}
