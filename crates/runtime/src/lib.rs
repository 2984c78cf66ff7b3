//! # Tiny Quanta runtime
//!
//! The executable TQ system (§3/§4): a dispatcher — the submitting
//! thread itself — load-balancing incoming requests over worker threads
//! whose scheduler loops interleave *forced-multitasking* job coroutines
//! at microsecond quanta.
//!
//! * [`clock`] — the physical clock: `RDTSC` on x86-64 (calibrated
//!   against wall time), a monotonic fallback elsewhere.
//! * [`ring`] — the lock-free single-producer single-consumer rings the
//!   dispatcher pushes jobs through (§4's "lockless ring buffer").
//! * [`job`] — the stackless-coroutine job model: [`Job::run`] executes
//!   until [`QuantumCtx::probe`] reports quantum expiry, then saves state
//!   and yields (what the paper's LLVM pass automates for C code, a Rust
//!   job expresses with explicit probe points; see DESIGN.md).
//! * [`worker`] — the per-core scheduler coroutine: PS rotation over task
//!   slots, completion counters in a shared cache line.
//! * [`dispatcher`] — JSQ with Maximum-Serviced-Quanta tie-breaking over
//!   the workers' counters.
//! * [`server`] — the [`TinyQuanta`] facade tying it together.
//! * [`transport`] — batched datagram I/O: the [`transport::Transport`]
//!   trait and a UDP implementation moving up to 64 messages — each a
//!   datagram or a whole train of them — per `recvmmsg`/`sendmmsg`.
//! * [`uring`] — the completion-driven io_uring implementation of the
//!   same trait: mmap'd SQ/CQ rings, a registered file, and
//!   provided-buffer multishot receive, behind a startup self-test
//!   whose failure means the mmsg transport serves instead.
//! * [`net`] — the socket front end speaking the paper's client
//!   protocol over a [`transport::Transport`], burst-submitting into the
//!   dispatch pipeline.
//! * [`kv`] — the tq-kv GET/SCAN job used as the served workload in the
//!   end-to-end socket experiments.
//!
//! ## Example
//!
//! ```
//! use tq_runtime::{ServerConfig, SpinJob, TinyQuanta, TscClock};
//! use tq_core::Nanos;
//!
//! let clock = TscClock::calibrated();
//! let job_clock = clock.clone();
//! let server = TinyQuanta::start_with_clock(
//!     ServerConfig {
//!         workers: 2,
//!         quantum: Nanos::from_micros(5),
//!         ..ServerConfig::default()
//!     },
//!     clock,
//!     // Job factory: a CPU-spinning job of the requested duration,
//!     // converted to cycles by the server's clock.
//!     move |req| Box::new(SpinJob::with_clock(req, &job_clock)),
//! );
//! for i in 0..64 {
//!     server.submit(i % 4, Nanos::from_micros(3));
//! }
//! let completions = server.shutdown();
//! assert_eq!(completions.len(), 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod clock;
pub mod dispatcher;
pub mod job;
pub mod kv;
pub mod net;
pub mod ring;
pub mod server;
pub mod transport;
pub mod uring;
pub mod worker;

pub use clock::TscClock;
pub use job::{Job, JobStatus, QuantumCtx, SpinJob};
pub use dispatcher::DispatcherStats;
pub use server::{Completion, RtRequest, ServerConfig, ServerStats, TinyQuanta};
pub use worker::WorkerStats;
