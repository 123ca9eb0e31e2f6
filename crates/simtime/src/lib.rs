//! # hsim-time
//!
//! Virtual-time foundation for the `heterosim` node simulator.
//!
//! Every simulated component — GPU kernels, host loops, MPI messages —
//! charges *simulated nanoseconds* to a clock rather than consuming wall
//! time. This keeps experiment sweeps deterministic and lets a laptop
//! reproduce the scheduling economics of a 16-core + 4-GPU node.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond newtypes with
//!   saturating arithmetic (no silent overflow in long sweeps),
//! * [`RankClock`] — the per-MPI-rank clock that the rest of the stack
//!   advances and merges (Lamport-style) on communication,
//! * [`stats`] — Welford mean/variance, min/max, and fixed-bucket
//!   histograms for kernel-time aggregation,
//! * [`rng`] — a SplitMix64 generator for deterministic workload
//!   perturbations without external dependencies,
//! * [`task`] — resumable rank tasks: the blocking and the stepped
//!   driver, and the wait primitive that serves both.

#![forbid(unsafe_code)]

pub mod clock;
pub mod rng;
pub mod stats;
pub mod task;
pub mod time;

pub use clock::RankClock;
pub use rng::SplitMix64;
pub use stats::{Histogram, Welford};
pub use time::{advanced, Overflow, SimDuration, SimTime};
