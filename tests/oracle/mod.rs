//! The seed-era implementations, kept as differential-testing oracles.
//!
//! Each module here is a copy of a seed implementation that the release
//! crates have since replaced with a faster one. The copies live in
//! this test crate, not beside the code they check, so no release build
//! ships them and no oracle can share a type with the engine it judges.
//!
//! * [`events`]: the seed's `BinaryHeap` future-event list, against
//!   `tq_sim::{EventQueue, TagQueue}`.
//! * [`metrics`]: the seed's multi-pass `summarize_all`, against
//!   `tq_sim::ClassRecorder::summarize_all`.
//! * [`queueing`]: the seed two-level and centralized serving models,
//!   against `tq_queueing::simulate`. They run on [`events`]' queue and
//!   on a seed job type of their own.
//!
//! Each module has one comparison helper, `assert_matches`, which every
//! differential test calls.

pub mod events;
pub mod metrics;
pub mod queueing;
