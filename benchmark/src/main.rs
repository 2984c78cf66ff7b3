//! The repo's benchmark: workloads over the wire, the runtime and the
//! simulators, end-to-end metrics as the fastest of many short trials
//! with their spread, and per-layer metrics from a traced pass. See
//! `README.md`.
//!
//! ```text
//! tq-benchmark list [--json]
//! tq-benchmark run [--workload NAME] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! tq-benchmark run --workload NAME --trace 0|1 [--seed N] [--seconds S]
//! tq-benchmark compare A.json B.json
//! tq-benchmark digest [--seed N]
//! ```
//!
//! With `--trace` a run makes one pass of one workload and ends with one
//! line of JSON: the end-to-end metrics for `--trace 0`, the per-layer
//! metrics for `--trace 1`. Without it a run makes both passes of every
//! workload chosen and writes a result file for `compare`.

mod host;
mod json;
mod live;
mod micro;
mod report;
mod sim;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Ctx;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// What `BENCHMARK.json` tells the driver to run, from the repo's root.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `--name value` pairs (and the valueless `--smoke`, `--json`)
    /// from positional arguments.
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(name) if matches!(name, "smoke" | "json") => {
                    args.flags.push((name.into(), None))
                }
                Some(name) => args.flags.push((name.into(), raw.next())),
                None => args.positional.push(a),
            }
        }
        args
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            Some((_, None)) => Err(format!("--{name} needs a value")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    host::host_cores();
    let args = Args::parse(std::env::args().skip(1));
    let result = match args.positional.first().map(String::as_str) {
        Some("list") => list(&args),
        Some("run") => run(&args),
        Some("compare") => compare(&args),
        Some("digest") => digest(&args),
        _ => Err("usage: tq-benchmark list | run | compare A.json B.json | digest (see benchmark/README.md)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("tq-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`, from the tables in `spec`.
fn benchmark_json() -> Json {
    let metric = |m: &spec::MetricSpec| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                spec::WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(spec::END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(spec::PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

fn list(args: &Args) -> Result<bool, String> {
    args.check_known(&["json"])?;
    if args.has("json") {
        print!("{}", benchmark_json().to_pretty(2));
        return Ok(true);
    }
    println!("workloads:");
    for w in spec::WORKLOADS {
        let by_hand = if w.gated { "" } else { " [not in BENCHMARK.json]" };
        println!("  {:<10} {}{by_hand}", w.name, w.why);
    }
    println!("end-to-end metrics (tracing off; every workload reports every one):");
    for m in spec::END_TO_END {
        println!(
            "  {:<16} {:<4} {} is better, bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0),
            m.what
        );
    }
    println!("per-layer metrics (traced pass; 0 where the workload does not cross the layer):");
    for m in spec::PER_LAYER {
        println!(
            "  {:<44} {:<6} {} is better  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
    Ok(true)
}

fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn run(args: &Args) -> Result<bool, String> {
    args.check_known(&["workload", "seed", "seconds", "trace", "smoke", "out"])?;
    let chosen: Option<String> = args.value("workload")?;
    if let Some(name) = &chosen {
        if spec::workload(name).is_none() {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?}; the workloads are {}",
                known.join(", ")
            ));
        }
    }
    let seconds = args.value("seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let ctx = Ctx {
        seed: args.value("seed")?.unwrap_or(42),
        seconds,
        smoke: args.has("smoke"),
        out_dir: out_dir(),
    };

    if let Some(trace) = args.value::<u8>("trace")? {
        let name = chosen.ok_or("--trace needs --workload")?;
        let (pass, metrics) = match trace {
            0 => (workloads::untraced(&name, &ctx), spec::END_TO_END),
            1 => (workloads::traced(&name, &ctx), spec::PER_LAYER),
            other => return Err(format!("--trace {other}: 0 or 1")),
        };
        pass.print(&name, metrics);
        println!("{}", pass.contract_line(metrics));
        return Ok(pass.correct());
    }

    if ctx.smoke {
        println!("smoke run: short trials, checks on, numbers NOT comparable with any other run");
    }
    println!("traffic crosses the host's loopback interface, not a link");
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut per_workload = Vec::new();
    for w in spec::WORKLOADS
        .iter()
        .filter(|w| chosen.as_deref().is_none_or(|c| c == w.name))
    {
        let plain = workloads::untraced(w.name, &ctx);
        plain.print(w.name, spec::END_TO_END);
        let traced = workloads::traced(w.name, &ctx);
        traced.print(w.name, spec::PER_LAYER);
        correct &= plain.correct() && traced.correct();
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
        let errors = plain
            .errors
            .iter()
            .chain(&traced.errors)
            .map(Json::str)
            .collect();
        per_workload.push((
            w.name,
            Json::obj([
                ("end_to_end", plain.to_json(spec::END_TO_END)),
                ("per_layer", traced.to_json(spec::PER_LAYER)),
                ("errors", Json::Arr(errors)),
            ]),
        ));
    }
    println!(
        "failed_share {} ({failed} of {attempted} operations); outputs {}",
        failed as f64 / attempted.max(1) as f64,
        if correct { "correct" } else { "NOT correct" }
    );
    let file = Json::obj([
        ("schema", Json::str("tq-benchmark/v1")),
        ("seed", Json::Num(ctx.seed as f64)),
        ("seconds", Json::Num(ctx.seconds)),
        ("comparable", Json::Bool(!ctx.smoke)),
        ("host", host::describe(&tq_runtime::TscClock::calibrated())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("workloads", Json::obj(per_workload)),
    ]);
    let path = args
        .value::<PathBuf>("out")?
        .unwrap_or_else(|| ctx.out_dir.join("result.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_pretty(4))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(correct)
}

fn compare(args: &Args) -> Result<bool, String> {
    args.check_known(&[])?;
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if file.get("comparable") == Some(&Json::Bool(false)) {
            println!("warning: {path} is a smoke run; its numbers are not comparable");
        }
        Ok::<Json, String>(file)
    };
    let worse = report::compare(&read(a)?, &read(b)?)?;
    println!("{worse} rows worse");
    Ok(worse == 0)
}

/// Prints the simulators' virtual-time results for a seed, in the form
/// `expected.json` keeps them.
fn digest(args: &Args) -> Result<bool, String> {
    args.check_known(&["seed"])?;
    let seed = args.value("seed")?.unwrap_or(42);
    let mut sweep = sim::Sweep::new(seed);
    sweep.run(
        false,
        &mut stats::Hist::default(),
        &mut [sim::EngineTally::default(); 3],
    );
    let entry = Json::obj([(format!("seed_{seed}"), sweep.digest_json())]);
    print!("{}", entry.to_pretty(2));
    Ok(sweep.errors.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// The committed `BENCHMARK.json` is exactly what the metric and
    /// workload tables say, so what a run emits and what the file names
    /// cannot drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let committed =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json());
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut names = std::collections::BTreeSet::new();
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            assert!(valid_name(m.name), "metric name {:?}", m.name);
            assert!(names.insert(m.name), "metric {} named twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?}",
                m.unit
            );
        }
        for w in spec::WORKLOADS {
            assert!(
                valid_name(w.name) && names.insert(w.name),
                "workload {:?}",
                w.name
            );
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!((2..=8).contains(&spec::WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!((1..=16).contains(&spec::END_TO_END.len()));
        assert!((1..=128).contains(&spec::PER_LAYER.len()));
        assert!(spec::END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec::PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = spec::metric("setup_s").expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
        // Every stage has its two metrics.
        for stage in spec::STAGES {
            for suffix in ["p50_ns", "p99_ns"] {
                assert!(
                    spec::metric(&format!("stage.{stage}_{suffix}")).is_some(),
                    "{stage}"
                );
            }
        }
    }

    /// A pass emits exactly the names of the tables, whatever it measured.
    #[test]
    fn emitted_json_names_every_metric_of_the_tables() {
        let mut pass = report::Pass {
            attempted: 1,
            ..report::Pass::default()
        };
        pass.push("net.shed", 0.0);
        for (metrics, key) in [
            (spec::END_TO_END, "end_to_end"),
            (spec::PER_LAYER, "per_layer"),
        ] {
            let line = Json::parse(&pass.contract_line(metrics)).expect("a JSON object");
            let emitted: Vec<&str> = line
                .get("metrics")
                .expect("metrics")
                .as_obj()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let committed = Json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
            let named: Vec<&str> = committed
                .get(key)
                .expect(key)
                .as_arr()
                .iter()
                .filter_map(|m| m.get("name")?.as_str())
                .collect();
            assert_eq!(emitted, named);
            assert!(emitted.iter().all(|n| valid_name(n)));
        }
    }

    #[test]
    fn args_split_flags_from_positionals() {
        let args = Args::parse(
            ["run", "--workload", "rt_admit", "--smoke", "--seed", "7"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(args.positional, ["run"]);
        assert_eq!(
            args.value::<String>("workload"),
            Ok(Some("rt_admit".into()))
        );
        assert_eq!(args.value::<u64>("seed"), Ok(Some(7)));
        assert!(args.has("smoke") && !args.has("json"));
        assert!(args.value::<u64>("workload").is_err());
        assert!(args.check_known(&["workload", "seed"]).is_err());
    }
}
