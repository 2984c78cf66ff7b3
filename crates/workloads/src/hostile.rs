//! The hostile-traffic catalog.
//!
//! Named presets pairing a service-time [`Workload`] with an
//! [`ArrivalProcess`] and a default offered load, so every driver
//! (`bench_rt` on both engines, `tq-loadgen`, `adaptive_sweep`) can reach
//! the same adversarial scenario by name. The catalog deliberately
//! stresses the failure modes a *blind* scheduler cannot see coming:
//!
//! | preset         | what it stresses                                        |
//! |----------------|---------------------------------------------------------|
//! | `poisson`      | the paper's baseline client — control, not hostile      |
//! | `bursty`       | MMPP arrival bursts 16× denser than the calm phase      |
//! | `heavy_tail`   | bounded-Pareto service: rare jobs 1000× the common case |
//! | `diurnal`      | slow load ramp crossing the knee of the latency curve   |
//! | `multi_tenant` | four tenants with clashing size distributions           |
//! | `overload`     | sustained λ > µ, exercising drop accounting             |
//!
//! Every preset's arrival process is normalized to its configured mean
//! rate, so `load` means the same utilization it does for the Poisson
//! baseline (overload excepted — there the point *is* λ > µ).

use crate::arrivals::ArrivalProcess;
use crate::spec::{ClassDist, JobClass, Workload};
use crate::table1;
use tq_core::Nanos;

/// A named hostile-traffic scenario: a workload, an arrival shape, and
/// the offered load (utilization) the scenario is designed to run at.
#[derive(Debug, Clone)]
pub struct TrafficPreset {
    /// Catalog name (snake_case; stable across releases, used by CI).
    pub name: &'static str,
    /// Service-time mix.
    pub workload: Workload,
    /// Inter-arrival process.
    pub process: ArrivalProcess,
    /// Default offered load as a fraction of per-worker capacity; above
    /// 1.0 means sustained overload.
    pub load: f64,
}

/// Names of every preset in the catalog, in presentation order.
pub const NAMES: [&str; 6] = [
    "poisson",
    "bursty",
    "heavy_tail",
    "diurnal",
    "multi_tenant",
    "overload",
];

/// Looks a preset up by its catalog name.
pub fn by_name(name: &str) -> Option<TrafficPreset> {
    let p = match name {
        "poisson" => poisson(),
        "bursty" => bursty(),
        "heavy_tail" => heavy_tail(),
        "diurnal" => diurnal(),
        "multi_tenant" => multi_tenant(),
        "overload" => overload(),
        _ => return None,
    };
    Some(p)
}

/// Every preset in the catalog, in [`NAMES`] order.
pub fn all() -> Vec<TrafficPreset> {
    NAMES.iter().map(|n| by_name(n).unwrap()).collect()
}

/// The paper's baseline: Extreme Bimodal service under Poisson arrivals
/// at moderate load. The control the hostile presets are compared to.
pub fn poisson() -> TrafficPreset {
    TrafficPreset {
        name: "poisson",
        workload: table1::extreme_bimodal(),
        process: ArrivalProcess::Poisson,
        load: 0.6,
    }
}

/// MMPP bursts: 500 µs dwells at 4× the mean rate alternating with 2 ms
/// calm stretches at 0.25× — the kind of correlated arrival clumping
/// that makes a fixed quantum tuned on Poisson traffic look foolish.
pub fn bursty() -> TrafficPreset {
    TrafficPreset {
        name: "bursty",
        workload: table1::extreme_bimodal(),
        process: ArrivalProcess::Mmpp {
            burst_mult: 4.0,
            calm_mult: 0.25,
            burst_dwell: Nanos::from_micros(500),
            calm_dwell: Nanos::from_millis(2),
        },
        load: 0.6,
    }
}

/// Heavy-tailed service: 90% 1 µs point mass plus a 10% bounded-Pareto
/// class (α = 1.5, capped at 1 ms) whose rare giants create the
/// head-of-line blocking that quantum preemption exists to bound.
pub fn heavy_tail() -> TrafficPreset {
    TrafficPreset {
        name: "heavy_tail",
        workload: Workload::new(
            "HeavyTail",
            vec![
                JobClass::new(
                    "short",
                    ClassDist::Deterministic(Nanos::from_micros(1)),
                    0.9,
                ),
                JobClass::new(
                    "pareto",
                    ClassDist::Pareto {
                        scale: Nanos::from_micros(2),
                        alpha: 1.5,
                        cap: Nanos::from_millis(1),
                    },
                    0.1,
                ),
            ],
        ),
        process: ArrivalProcess::Poisson,
        load: 0.6,
    }
}

/// Diurnal ramp: the rate triangle-waves between 0.4× and 1.6× of the
/// configured mean every 20 ms, repeatedly crossing the knee of the
/// latency/load curve within a single experiment.
pub fn diurnal() -> TrafficPreset {
    TrafficPreset {
        name: "diurnal",
        workload: table1::extreme_bimodal(),
        process: ArrivalProcess::Diurnal {
            period: Nanos::from_millis(20),
            low_mult: 0.4,
            high_mult: 1.6,
        },
        load: 0.6,
    }
}

/// Four tenants with clashing shapes sharing one box: a latency-critical
/// point mass, a bursty exponential mid-tier, a batch tenant with
/// heavy-tailed scans, and a background point mass of medium jobs.
pub fn multi_tenant() -> TrafficPreset {
    TrafficPreset {
        name: "multi_tenant",
        workload: Workload::new(
            "MultiTenant",
            vec![
                JobClass::new(
                    "latency",
                    ClassDist::Deterministic(Nanos::from_nanos(500)),
                    0.55,
                ),
                JobClass::new(
                    "mid",
                    ClassDist::Exponential(Nanos::from_micros(2)),
                    0.3,
                ),
                JobClass::new(
                    "batch",
                    ClassDist::Pareto {
                        scale: Nanos::from_micros(5),
                        alpha: 1.5,
                        cap: Nanos::from_micros(500),
                    },
                    0.05,
                ),
                JobClass::new(
                    "background",
                    ClassDist::Deterministic(Nanos::from_micros(10)),
                    0.1,
                ),
            ],
        ),
        process: ArrivalProcess::Poisson,
        load: 0.7,
    }
}

/// Sustained overload: λ = 1.4 µ of the paper's Extreme Bimodal mix.
/// Nothing keeps up; the point is what the system does while drowning —
/// bounded queues, honest drop accounting (`tq-audit` drop reasons), and
/// a tail that degrades instead of diverging.
pub fn overload() -> TrafficPreset {
    TrafficPreset {
        name: "overload",
        workload: table1::extreme_bimodal(),
        process: ArrivalProcess::Poisson,
        load: 1.4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrivalGen;
    use tq_sim::SimRng;

    #[test]
    fn catalog_is_complete_and_names_agree() {
        for name in NAMES {
            let p = by_name(name).expect("preset listed in NAMES must resolve");
            assert_eq!(p.name, name);
            assert!(p.load > 0.0);
            p.process.validate();
        }
        assert!(by_name("nonsense").is_none());
        assert_eq!(all().len(), NAMES.len());
    }

    #[test]
    fn only_overload_exceeds_unit_load() {
        for p in all() {
            if p.name == "overload" {
                assert!(p.load > 1.0, "overload must actually overload");
            } else {
                assert!(p.load < 1.0, "{} load {} should be < 1", p.name, p.load);
            }
        }
    }

    #[test]
    fn every_preset_is_bit_deterministic_across_replays() {
        // Satellite property: the full catalog replays identically from
        // the same seed — arrivals, classes, and service times.
        for p in all() {
            let rate = 1.0e6;
            let mut a = ArrivalGen::with_process(
                p.workload.clone(),
                rate,
                p.process,
                SimRng::new(0xCA7),
            );
            let mut b =
                ArrivalGen::with_process(p.workload, rate, p.process, SimRng::new(0xCA7));
            for _ in 0..3_000 {
                let (ra, rb) = (a.next_request(), b.next_request());
                assert_eq!(ra.id, rb.id, "{}", p.name);
                assert_eq!(ra.class, rb.class, "{}", p.name);
                assert_eq!(ra.arrival, rb.arrival, "{}", p.name);
                assert_eq!(ra.service, rb.service, "{}", p.name);
            }
        }
    }

    #[test]
    fn every_preset_honors_its_configured_rate() {
        // All arrival shapes are normalized to the configured stationary
        // mean, so the offered load is comparable across presets.
        for p in all() {
            let rate = 1.0e6;
            let horizon = Nanos::from_millis(1_000);
            let mut gen =
                ArrivalGen::with_process(p.workload, rate, p.process, SimRng::new(3));
            let got = gen.until(horizon).len() as f64;
            let expected = rate * horizon.as_secs_f64();
            assert!(
                (got - expected).abs() / expected < 0.03,
                "{}: {got} arrivals vs expected ~{expected}",
                p.name
            );
        }
    }
}
