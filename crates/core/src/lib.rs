//! # Tiny Quanta core
//!
//! Shared vocabulary and *blind scheduling policies* for the Tiny Quanta (TQ)
//! system, a reproduction of "Efficient Microsecond-scale Blind Scheduling
//! with Tiny Quanta" (ASPLOS 2024).
//!
//! TQ schedules microsecond-scale jobs without any knowledge of individual
//! service times or their distribution ("blind" scheduling). It combines two
//! mechanisms:
//!
//! * **Forced multitasking** — jobs run as cheap cooperative coroutines and
//!   are made to yield when a physical-clock probe observes that the current
//!   quantum has expired (implemented in `tq-runtime` and `tq-instrument`).
//! * **Two-level scheduling** — a dispatcher that *only* load-balances whole
//!   jobs across cores (join-the-shortest-queue with maximum-serviced-quanta
//!   tie-breaking), plus a per-core processor-sharing quantum scheduler.
//!
//! This crate holds the pieces both the discrete-event models (`tq-queueing`)
//! and the real runtime (`tq-runtime`) share, so that the *same policy code*
//! is what every experiment exercises:
//!
//! * [`time`] — nanosecond/cycle time arithmetic ([`Nanos`], [`Cycles`],
//!   [`CpuFreq`]).
//! * [`job`] — job identities, classes, and request descriptors.
//! * [`policy`] — dispatch policies (JSQ/MSQ, random, power-of-two, …) and
//!   worker-local quantum scheduling queues (PS, FCFS).
//! * [`heap`] — the packed-key min-heap under the ranked run queue and
//!   the simulators' event queues.
//! * [`counters`] — the wrap-safe worker→dispatcher load counters of §4 of
//!   the paper, in both plain and shared-atomic (cache-line) form.
//! * [`costs`] — the calibrated cost constants used by the simulators.
//! * [`adaptive`] — the per-window tail-feedback quantum controller
//!   shared by the simulators (virtual-time windows) and the live
//!   runtime (wall-clock windows).
//!
//! ## Example
//!
//! Pick a worker for an incoming request the way TQ's dispatcher does:
//!
//! ```
//! use tq_core::policy::{Dispatcher, DispatchPolicy, TieBreak, WorkerLoad};
//!
//! let mut d = Dispatcher::new(DispatchPolicy::Jsq(TieBreak::MaxServicedQuanta), 4, 42);
//! let loads = [
//!     WorkerLoad { queued_jobs: 3, serviced_quanta: 10 },
//!     WorkerLoad { queued_jobs: 1, serviced_quanta: 7 },
//!     WorkerLoad { queued_jobs: 1, serviced_quanta: 9 },
//!     WorkerLoad { queued_jobs: 2, serviced_quanta: 1 },
//! ];
//! // Workers 1 and 2 tie on queue length; MSQ prefers the one that has
//! // serviced more quanta (expected to drain sooner).
//! assert_eq!(d.pick(&loads, 0), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod costs;
pub mod counters;
pub mod heap;
pub mod job;
pub mod policy;
pub mod time;

pub use job::{ClassId, JobId, Request};
pub use time::{CpuFreq, Cycles, Nanos};
