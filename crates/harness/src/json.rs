//! Hand-rolled JSON output for [`RunRecord`]s (schema `tq-run/v1`).
//!
//! The build environment vendors `serde` but not `serde_json`, so
//! records are formatted by hand — here and nowhere else: every run
//! record the workspace writes (`bench_rt`, `tq-loadgen`) goes through
//! [`document`]. (`adaptive_sweep` writes a summary of its own,
//! `tq-adaptive-sweep/v1`, which is not a run record.)
//! Both engines pass through this one code path, which is what makes
//! the sim and runtime schemas identical by construction: downstream
//! tooling distinguishes them only by the `engine` field.

use crate::engine::{NetMeta, PolicyMeta, RackMeta, RunRecord};
use tq_audit::AuditReport;
use tq_core::adaptive::ControllerReport;
use tq_sim::metrics::ClassSummary;

/// The schema identifier written into every document.
pub const SCHEMA: &str = "tq-run/v1";

/// Formats an `f64` as a JSON value (`null` for non-finite, which JSON
/// cannot represent).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON string literal (violation
/// details are free-form text).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The audit verdict as a JSON value: `null` when auditing was off.
fn audit_json(a: Option<&AuditReport>) -> String {
    match a {
        None => "null".to_string(),
        Some(r) => {
            let violations: Vec<String> = r
                .violations
                .iter()
                .map(|v| {
                    format!(
                        "{{\"invariant\": \"{}\", \"detail\": \"{}\"}}",
                        json_str(v.invariant),
                        json_str(&v.detail)
                    )
                })
                .collect();
            format!(
                "{{\"context\": \"{}\", \"checks\": {}, \"clean\": {}, \"violations\": [{}]}}",
                json_str(&r.context),
                r.checks,
                r.is_clean(),
                violations.join(", ")
            )
        }
    }
}

/// The rack metadata as a JSON value: `null` for single-server engines.
fn rack_json(m: Option<&RackMeta>) -> String {
    match m {
        None => "null".to_string(),
        Some(m) => {
            let servers: Vec<String> = m
                .per_server
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    format!(
                        "{{\"server\": {}, \"routed\": {}, \"completed\": {}, \"reports\": {}}}",
                        i, s.routed, s.completed, s.reports
                    )
                })
                .collect();
            format!(
                concat!(
                    "{{\"n_servers\": {}, \"policy\": \"{}\", \"threads\": {}, ",
                    "\"windows\": {}, \"messages\": {}, \"servers\": [{}]}}"
                ),
                m.n_servers,
                json_str(&m.policy),
                m.threads,
                m.windows,
                m.messages,
                servers.join(", ")
            )
        }
    }
}

/// The policy block as a JSON value: `null` for engines predating the
/// policy layer.
fn policy_json(m: Option<&PolicyMeta>) -> String {
    match m {
        None => "null".to_string(),
        Some(m) => {
            let params: Vec<String> = m
                .params
                .iter()
                .map(|(name, values)| {
                    let vs: Vec<String> = values.iter().map(u64::to_string).collect();
                    format!("\"{}\": [{}]", json_str(name), vs.join(", "))
                })
                .collect();
            format!(
                "{{\"dispatch\": \"{}\", \"discipline\": \"{}\", \"ranked\": {}, \"params\": {{{}}}}}",
                json_str(&m.dispatch),
                json_str(&m.discipline),
                m.ranked,
                params.join(", ")
            )
        }
    }
}

/// The adaptive-quantum controller report as a JSON value: `null` for
/// fixed-quantum runs.
fn controller_json(r: Option<&ControllerReport>) -> String {
    match r {
        None => "null".to_string(),
        Some(r) => format!(
            concat!(
                "{{\"final_quantum_ns\": {}, \"windows\": {}, ",
                "\"empty_windows\": {}, \"grows\": {}, \"shrinks\": {}, ",
                "\"min_quantum_ns\": {}, \"max_quantum_ns\": {}}}"
            ),
            r.final_quantum.as_nanos(),
            r.stats.windows,
            r.stats.empty_windows,
            r.stats.grows,
            r.stats.shrinks,
            r.stats.min_quantum_seen.as_nanos(),
            r.stats.max_quantum_seen.as_nanos(),
        ),
    }
}

/// One fan-in client's ledger and tail as a JSON object.
fn client_rtt_json(c: &crate::engine::ClientRtt) -> String {
    format!(
        concat!(
            "{{\"sent\": {}, \"responses\": {}, \"rtt_p50_ns\": {}, ",
            "\"rtt_p99_ns\": {}, \"rtt_p999_ns\": {}}}"
        ),
        c.sent, c.responses, c.rtt_p50_ns, c.rtt_p99_ns, c.rtt_p999_ns,
    )
}

/// The socket metadata as a JSON value: `null` for in-process runs.
fn net_json(m: Option<&NetMeta>) -> String {
    match m {
        None => "null".to_string(),
        Some(m) => {
            let clients: Vec<String> = m.clients.iter().map(client_rtt_json).collect();
            format!(
                concat!(
                    "{{\"transport\": \"{}\", \"sent\": {}, \"responses\": {}, ",
                    "\"lost\": {}, \"rtt_p50_ns\": {}, \"rtt_p99_ns\": {}, ",
                    "\"rtt_p999_ns\": {}, \"server_received\": {}, ",
                    "\"server_responded\": {}, \"server_malformed\": {}, ",
                    "\"server_shed\": {}, \"frames_per_recv\": {}, ",
                    "\"frames_per_send\": {}, \"send_msgs\": {}, ",
                    "\"frames_per_msg\": {}, \"recv_msgs\": {}, ",
                    "\"frames_per_recv_msg\": {}, \"rcvbuf_bytes\": {}, ",
                    "\"sndbuf_bytes\": {}, \"rtt_p999_spread_ns\": {}, ",
                    "\"clients\": [{}]}}"
                ),
                json_str(&m.transport),
                m.sent,
                m.responses,
                m.lost,
                m.rtt_p50_ns,
                m.rtt_p99_ns,
                m.rtt_p999_ns,
                m.server_received,
                m.server_responded,
                m.server_malformed,
                m.server_shed,
                json_f64(m.frames_per_recv),
                json_f64(m.frames_per_send),
                m.send_msgs,
                json_f64(m.frames_per_msg),
                m.recv_msgs,
                json_f64(m.frames_per_recv_msg),
                m.rcvbuf_bytes,
                m.sndbuf_bytes,
                m.rtt_p999_spread_ns,
                clients.join(", "),
            )
        }
    }
}

fn class_json(c: &ClassSummary) -> String {
    format!(
        concat!(
            "{{\"class\": {}, \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, ",
            "\"p999_ns\": {}, \"mean_ns\": {}, \"slowdown_p999\": {}, ",
            "\"slowdown_mean\": {}}}"
        ),
        c.class.0,
        c.count,
        c.p50.as_nanos(),
        c.p99.as_nanos(),
        c.p999.as_nanos(),
        c.mean.as_nanos(),
        json_f64(c.slowdown_p999),
        json_f64(c.slowdown_mean),
    )
}

/// One record as a JSON object.
pub fn record_json(r: &RunRecord) -> String {
    let classes: Vec<String> = r.classes.iter().map(class_json).collect();
    let sojourn: Vec<String> = r.classes_sojourn.iter().map(class_json).collect();
    let workers: Vec<String> = r
        .counters
        .workers
        .iter()
        .enumerate()
        .map(|(i, w)| {
            format!(
                concat!(
                    "{{\"worker\": {}, \"quanta\": {}, \"completed\": {}, ",
                    "\"steals\": {}, \"max_ring_occupancy\": {}}}"
                ),
                i, w.quanta, w.completed, w.steals, w.max_ring_occupancy,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"engine\": \"{}\", \"model\": \"{}\", \"system\": \"{}\", ",
            "\"workload\": \"{}\", \"process\": \"{}\", \"workers\": {}, ",
            "\"rate_rps\": {}, \"horizon_ns\": {}, \"seed\": {},\n",
            "     \"submitted\": {}, \"completed\": {}, \"in_horizon\": {}, ",
            "\"achieved_rps\": {}, \"overall_slowdown_p999\": {},\n",
            "     \"classes_e2e\": [{}],\n",
            "     \"classes_sojourn\": [{}],\n",
            "     \"counters\": {{\"sim_events\": {}, \"dispatcher_forwarded\": {}, ",
            "\"ring_full_retries\": {}, ",
            "\"dispatcher_bursts\": {}, \"dispatch_busy_nanos\": {}, ",
            "\"dispatch_ns_per_request\": {},\n",
            "      \"workers\": [{}]}},\n",
            "     \"policy\": {},\n",
            "     \"controller\": {},\n",
            "     \"rack\": {},\n",
            "     \"net\": {},\n",
            "     \"audit\": {}}}"
        ),
        r.engine,
        r.model,
        r.system,
        r.workload,
        r.process,
        r.workers,
        json_f64(r.rate_rps),
        r.horizon.as_nanos(),
        r.seed,
        r.submitted,
        r.completed,
        r.in_horizon,
        json_f64(r.achieved_rps),
        json_f64(r.overall_slowdown_p999),
        classes.join(", "),
        sojourn.join(", "),
        r.counters.sim_events,
        r.counters.dispatcher_forwarded,
        r.counters.ring_full_retries,
        r.counters.dispatcher_bursts,
        r.counters.dispatch_busy_nanos,
        json_f64(r.counters.dispatch_ns_per_request()),
        workers.join(", "),
        policy_json(r.policy.as_ref()),
        controller_json(r.controller.as_ref()),
        rack_json(r.rack.as_ref()),
        net_json(r.net.as_ref()),
        audit_json(r.audit.as_ref()),
    )
}

/// A full `tq-run/v1` document holding any mix of sim and rt records.
pub fn document(records: &[RunRecord]) -> String {
    let runs: Vec<String> = records.iter().map(record_json).collect();
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"runs\": [\n    {}\n  ]\n}}\n",
        SCHEMA,
        runs.join(",\n    "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.500000");
    }

    /// Minimal structural lint: balanced braces/brackets and no bare NaN
    /// tokens — a stand-in for a parser the vendored deps don't provide.
    #[test]
    fn document_is_structurally_balanced() {
        use crate::engine::{EngineCounters, RunRecord, WorkerCounters};
        let rec = RunRecord {
            engine: "sim",
            model: "two_level",
            system: "TQ".into(),
            workload: "wl".into(),
            process: "mmpp",
            workers: 2,
            rate_rps: 1e6,
            horizon: tq_core::Nanos::from_millis(5),
            seed: 42,
            submitted: 10,
            completed: 10,
            in_horizon: 9,
            achieved_rps: 1800.0,
            classes: vec![],
            classes_sojourn: vec![],
            overall_slowdown_p999: f64::NAN,
            counters: EngineCounters {
                sim_events: 100,
                dispatcher_forwarded: 10,
                ring_full_retries: 0,
                dispatcher_bursts: 3,
                dispatch_busy_nanos: 1200,
                workers: vec![WorkerCounters::default(); 2],
            },
            policy: Some(crate::engine::PolicyMeta {
                dispatch: "Jsq(MaxServicedQuanta)".into(),
                discipline: "earliest_deadline".into(),
                ranked: true,
                params: vec![("slo_us".into(), vec![50, 1_000, 2_000, 2_000])],
            }),
            rack: Some(crate::engine::RackMeta {
                n_servers: 2,
                policy: "PowerOfK(2)".into(),
                threads: 3,
                windows: 40,
                messages: 25,
                per_server: vec![crate::engine::RackServerMeta::default(); 2],
            }),
            net: Some(crate::engine::NetMeta {
                transport: "udp:mmsg".into(),
                sent: 10,
                responses: 9,
                lost: 1,
                rtt_p50_ns: 12_000,
                rtt_p99_ns: 48_000,
                rtt_p999_ns: 95_000,
                server_received: 10,
                server_responded: 9,
                server_malformed: 0,
                server_shed: 1,
                frames_per_recv: 3.5,
                frames_per_send: f64::NAN, // must render as null, not NaN
                send_msgs: 3,
                frames_per_msg: 3.0,
                recv_msgs: 4,
                frames_per_recv_msg: 2.5,
                rcvbuf_bytes: 2 << 20,
                sndbuf_bytes: 2 << 20,
                rtt_p999_spread_ns: 4_000,
                clients: vec![
                    crate::engine::ClientRtt {
                        sent: 5,
                        responses: 5,
                        rtt_p50_ns: 11_000,
                        rtt_p99_ns: 46_000,
                        rtt_p999_ns: 91_000,
                    },
                    crate::engine::ClientRtt {
                        sent: 5,
                        responses: 4,
                        rtt_p50_ns: 13_000,
                        rtt_p99_ns: 50_000,
                        rtt_p999_ns: 95_000,
                    },
                ],
            }),
            audit: Some(tq_audit::AuditReport {
                context: "sim two_level".into(),
                checks: 6,
                violations: vec![tq_audit::Violation {
                    invariant: "job_conservation",
                    detail: "submitted 10 != completed 9 + dropped 0 [\"quoted\"]".into(),
                }],
            }),
            controller: Some(ControllerReport {
                final_quantum: tq_core::Nanos::from_micros(8),
                stats: tq_core::adaptive::ControllerStats {
                    windows: 12,
                    empty_windows: 2,
                    grows: 3,
                    shrinks: 1,
                    min_quantum_seen: tq_core::Nanos::from_micros(4),
                    max_quantum_seen: tq_core::Nanos::from_micros(10),
                },
            }),
        };
        let doc = document(&[rec.clone(), rec]);
        let mut depth: i64 = 0;
        for ch in doc.chars() {
            match ch {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced JSON: {doc}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {doc}");
        assert!(!doc.contains("NaN"), "bare NaN leaked into JSON");
        assert!(doc.contains("\"schema\": \"tq-run/v1\""));
    }
}
