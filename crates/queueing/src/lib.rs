//! # Tiny Quanta serving-system models
//!
//! Nanosecond-resolution discrete-event models of the complete serving
//! systems the paper evaluates (§5):
//!
//! * **TQ** — two-level scheduling: a load-balancing-only dispatcher
//!   (JSQ + MSQ tie-breaking) in front of per-core processor-sharing
//!   quantum schedulers driven by forced multitasking (coroutine-yield
//!   preemption cost, probe-inflation of service times).
//! * **Shinjuku** — centralized single-queue preemptive scheduling: the
//!   dispatcher core receives packets, schedules *every quantum* of every
//!   core, and preempts via ~1 µs interrupts.
//! * **Caladan** — RSS-steered FCFS run-to-completion with work stealing,
//!   in IOKernel or directpath mode.
//! * **Ablation variants** — TQ-IC, TQ-SLOW-YIELD, TQ-TIMING, TQ-RAND,
//!   TQ-POWER-TWO, TQ-FCFS (§5.4).
//!
//! The models share the policy code in [`tq_core::policy`] and the event
//! queue and metrics in `tq_sim`, and are exercised by one regeneration
//! binary per paper figure in `tq-bench`. Experiments run them through
//! `tq_harness::SimEngine`, which adds the warm-up discard and the
//! per-class summaries.
//!
//! ## Example
//!
//! ```
//! use tq_core::Nanos;
//! use tq_queueing::{presets, simulate};
//! use tq_sim::SimRng;
//! use tq_workloads::{table1, ArrivalGen};
//!
//! let cfg = presets::tq(16, Nanos::from_micros(2));
//! let wl = table1::extreme_bimodal();
//! let rate = wl.rate_for_load(16, 0.4); // 40% load
//! let arrivals = ArrivalGen::new(wl, rate, SimRng::new(1));
//! let out = simulate(&cfg, arrivals, Nanos::from_millis(20), 1);
//! let mut short: Vec<Nanos> = out
//!     .completions
//!     .iter()
//!     .filter(|c| c.class.0 == 0)
//!     .map(|c| c.finish - c.arrival)
//!     .collect();
//! short.sort_unstable();
//! // At 40% load with 2µs quanta, short jobs see little queueing:
//! assert!(short[short.len() * 999 / 1000] < Nanos::from_micros(60));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod presets;
pub mod rack;
pub mod scaling;
pub mod theory;

mod active;
mod centralized;
mod mask;
mod slab;
mod twolevel;

pub use config::{Architecture, SystemConfig};
pub use engine::{simulate, simulate_into, SystemOutcome, SystemSim, SystemStats};
pub use rack::{simulate_rack, simulate_rack_into, MembershipChange, RackPolicy, RackSpec, RackStats};
