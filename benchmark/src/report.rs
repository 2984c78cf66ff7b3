//! What a run of one workload produced, and the three ways it is shown:
//! lines for a reader, the one-line result the driver reads, and the
//! result file `compare` reads.

use crate::json::Json;
use crate::spec::{self, Better, MetricSpec};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// One pass (tracing off, or tracing on) of one workload.
#[derive(Default)]
pub struct Pass {
    /// Metric name to its value on each trial.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Trials the host disturbed that were discarded and repeated.
    pub discarded: usize,
    /// Every check that failed. Empty means the outputs were correct.
    pub errors: Vec<String>,
    /// Lines for the reader that are not metrics.
    pub notes: Vec<String>,
}

impl Pass {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::metric(name).is_some(), "unknown metric {name}");
        self.samples.entry(name).or_default().push(value);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// A run's value of a metric. Of an end-to-end metric (a time, lower
    /// is better) it is the fastest trial: the host has a slow state that
    /// comes and goes by the second and by the minute, a trial cannot be
    /// faster than the program allows, and the fastest of some sixty
    /// half-second trials repeated between runs where their median moved
    /// with the share of a run the slow state took (`wire_kv`, ten runs:
    /// 0.09 against 0.26). Of a per-layer metric it is the median.
    pub fn value(&self, name: &str) -> f64 {
        let Some(trials) = self.samples.get(name) else {
            return 0.0;
        };
        match spec::metric(name) {
            Some(m) if m.bound.is_some() => trials.iter().copied().fold(f64::INFINITY, f64::min),
            _ => median(trials),
        }
    }

    fn spread(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| spread(v))
    }

    fn trials(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }

    /// One line per metric of `metrics`: name, value, unit, direction,
    /// spread over the trials.
    pub fn print(&self, workload: &str, metrics: &[MetricSpec]) {
        for m in metrics {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", bound {b}, fastest trial"));
            println!(
                "{workload:<10} {:<44} {:>16.4} {:<6} ({} is better{bound}; spread {:.3} over {} trials)",
                m.name,
                self.value(m.name),
                m.unit,
                m.better.as_str(),
                self.spread(m.name),
                self.trials(m.name),
            );
            if m.bound.is_some() {
                let trials: Vec<String> = self
                    .samples
                    .get(m.name)
                    .into_iter()
                    .flatten()
                    .map(|v| format!("{v:.4}"))
                    .collect();
                println!("{workload:<10} {:<44} trials: {}", "", trials.join(" "));
            }
        }
        for note in &self.notes {
            println!("{workload:<10} note: {note}");
        }
        for error in &self.errors {
            println!("{workload:<10} CHECK FAILED: {error}");
        }
    }

    /// The driver's line: every metric of `metrics`, a number each.
    pub fn contract_line(&self, metrics: &[MetricSpec]) -> String {
        let values = metrics.iter().map(|m| {
            let v = self.value(m.name);
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(if v.is_finite() { v } else { 0.0 })),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(values)),
        ])
        .to_line()
    }

    /// For the result file: per metric its value, spread and trials.
    pub fn to_json(&self, metrics: &[MetricSpec]) -> Json {
        Json::obj(metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(self.value(m.name))),
                    ("spread", Json::Num(self.spread(m.name))),
                    ("unit", Json::str(m.unit)),
                    (
                        "trials",
                        Json::nums(self.samples.get(m.name).map_or(&[], Vec::as_slice)),
                    ),
                ]),
            )
        }))
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Same,
    Worse,
    /// A spread wider than the bound: the two values cannot be told apart.
    Unresolved,
}

/// `b` against `a`, both `(value, spread)`: worse when `b`'s value is off
/// `a`'s in the bad direction by more than `bound`, unresolved when either
/// spread is wider than `bound`.
pub fn verdict(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> Verdict {
    if a.1 > bound || b.1 > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => b.0 / a.0 - 1.0,
        Better::Higher => 1.0 - b.0 / a.0,
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Prints one row per end-to-end metric and workload of two result
/// files. Returns how many rows were `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let field = |file: &Json, workload: &str, metric: &str, key: &str| {
        file.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get(key)?
            .as_f64()
    };
    println!(
        "{:<10} {:<16} {:>14} {:>8} {:>14} {:>8} {:>22}  verdict",
        "workload", "metric", "A value", "A spread", "B value", "B spread", "B / A"
    );
    let mut worse = 0;
    let mut rows = 0;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let get = |file, key| field(file, w.name, m.name, key);
            let (Some(am), Some(asp), Some(bm), Some(bsp)) = (
                get(a, "value"),
                get(a, "spread"),
                get(b, "value"),
                get(b, "spread"),
            ) else {
                continue;
            };
            rows += 1;
            let v = verdict(m.better, m.bound.unwrap_or(0.0), (am, asp), (bm, bsp));
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<10} {:<16} {am:>14.4} {asp:>8.3} {bm:>14.4} {bsp:>8.3} {:>9.4} of {am:<9.4}  {}",
                w.name,
                m.name,
                bm / am,
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload and metric".into());
    }
    for (name, file) in [("A", a), ("B", b)] {
        if let Some(f) = file.get("failed").and_then(Json::as_f64) {
            let correct = file.get("correct") == Some(&Json::Bool(true));
            println!(
                "{name}: {f} operations failed, outputs {}",
                if correct { "correct" } else { "NOT correct" }
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(
            verdict(Lower, 0.1, (100.0, 0.02), (109.0, 0.02)),
            Verdict::Same
        );
        assert_eq!(
            verdict(Lower, 0.1, (100.0, 0.02), (111.0, 0.02)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Lower, 0.1, (100.0, 0.02), (50.0, 0.02)),
            Verdict::Same
        );
        assert_eq!(
            verdict(Higher, 0.1, (100.0, 0.02), (89.0, 0.02)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Higher, 0.1, (100.0, 0.02), (120.0, 0.02)),
            Verdict::Same
        );
        assert_eq!(
            verdict(Lower, 0.1, (100.0, 0.2), (150.0, 0.02)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn contract_line_has_exactly_the_named_metrics() {
        let mut pass = Pass {
            attempted: 10,
            ..Pass::default()
        };
        for v in [3.0, 1.0, 2.0] {
            pass.push("wall_ns_per_op", v);
        }
        let line = Json::parse(&pass.contract_line(spec::END_TO_END)).expect("one JSON object");
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").expect("metrics");
        let names: Vec<&str> = metrics.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let wall = metrics.get("wall_ns_per_op").expect("wall");
        // The fastest trial of an end-to-end metric, the median of others.
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.0));
        for v in [3.0, 1.0, 2.0] {
            pass.push("lat_p50_us", v);
        }
        assert_eq!(pass.value("lat_p50_us"), 2.0);
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("ns"));
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}
