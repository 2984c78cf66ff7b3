//! # Tiny Quanta experiment harness
//!
//! One pipeline from `WorkloadSpec` to summary, over every execution
//! engine in the repository. The paper's argument rests on running *the
//! same* TQ policies both as queueing models and as a real multithreaded
//! system; this crate is the layer that makes those two worlds
//! interchangeable behind the [`Engine`] trait:
//!
//! * [`SimEngine`] — the discrete-event models of `tq-queueing`
//!   (two-level and centralized): the one way to run a simulated point,
//!   alone or over a list of rates with [`sweep`].
//! * [`RackEngine`] — N server instances behind a rack scheduler
//!   (power-of-k over stale load reports, random, round-robin, or
//!   flow-affinity), executed in parallel by the conservative-lookahead
//!   PDES core in `tq_sim::pdes`.
//! * [`RtEngine`] — the live [`tq_runtime::TinyQuanta`] server, fed by a
//!   pacing loop that replays the open-loop Poisson stream in real time
//!   and normalizes `TscClock` timestamps back onto the stream's time
//!   base.
//!
//! Both produce a [`RunOutput`] whose completions flow through the
//! identical `ClassRecorder::summarize_all` metrics path
//! ([`run_to_record`]) and serialize to the same `tq-run/v1` JSON schema
//! ([`json`]), distinguished only by the `engine` field. See DESIGN.md
//! ("The Engine abstraction") for the real-time vs virtual-time
//! measurement contract.
//!
//! ## Example
//!
//! ```
//! use tq_core::Nanos;
//! use tq_harness::{run_to_record, Engine, RunSpec, SimEngine};
//! use tq_workloads::{table1, ArrivalProcess};
//!
//! let spec = RunSpec {
//!     workload: table1::extreme_bimodal(),
//!     process: ArrivalProcess::Poisson,
//!     rate_rps: table1::extreme_bimodal().rate_for_load(4, 0.3),
//!     horizon: Nanos::from_millis(5),
//!     seed: 42,
//! };
//! let mut engine = SimEngine::new(tq_queueing::presets::tq(4, Nanos::from_micros(2)));
//! let record = run_to_record(&mut engine, &spec);
//! assert!(record.conserved());
//! assert!(!record.classes.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod json;
pub mod rack;
pub mod rt;
pub mod sim;

pub use engine::{
    run_to_record, summarize, ClientRtt, Engine, EngineCounters, EngineKind, NetMeta, PolicyMeta,
    RackMeta, RackServerMeta, RunOutput, RunRecord, RunSpec, WorkerCounters,
};
pub use rack::RackEngine;
pub use rt::{Pacer, RtEngine};
pub use sim::{sweep, SimEngine};
