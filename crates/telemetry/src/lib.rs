//! # hsim-telemetry
//!
//! Observability for virtual-time simulations. Three pillars, all
//! charging **zero virtual time** and, when disabled, zero wall-clock
//! heap traffic on the hot path:
//!
//! * [`metrics`] — a registry of pre-registered counters, gauges, and
//!   virtual-time distributions, each a count, Σns, Σns², minimum and
//!   maximum in integer nanoseconds ([`Durations`]). Handles are enum
//!   variants indexing fixed arrays, so recording is an array store,
//!   never a hash lookup or allocation. Every entry merges by sum,
//!   minimum or maximum, so the merged registry is the same in any
//!   merge order.
//! * [`mod@span`] / [`chrome`] — structured span tracing (rank, stream,
//!   kernel, and message spans with categories and key/value
//!   attributes) exporting Chrome trace-event JSON loadable in
//!   Perfetto or `chrome://tracing`; [`gantt`] renders the same store
//!   as an ASCII Gantt, one row per rank.
//! * [`profile`] — the per-kernel table: launches (host and device),
//!   elements, total virtual duration and occupancy per kernel name,
//!   as exact integer sums. Every `hsim-raja` executor keeps one, with
//!   or without a collector; the run's merged table is the metrics
//!   JSON's `kernels` array.
//!
//! Producers call the free functions in [`collector`]
//! (`telemetry::count`, `telemetry::span`, `telemetry::kernel_launch`,
//! …). They no-op unless a [`Collector`] has been installed in the
//! calling thread, so instrumented code needs no config plumbing and
//! pays one thread-local branch when telemetry is off.
//!
//! The runner installs one collector per rank, drains them at
//! the end of the run, and merges them into a [`Summary`] whose JSON
//! exports are byte-deterministic for a given seed.

pub mod chrome;
pub mod collector;
pub mod gantt;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod summary;

pub use collector::{
    count, gauge_max, gauge_set, install, is_enabled, kernel_launch, rank_span, span, span_args,
    swap, time_stat, uninstall, Collector,
};
pub use metrics::{Counter, Durations, Gauge, Metrics, TimeStat};
pub use profile::{KernelSums, KernelTable};
pub use span::{Category, SpanEvent};
pub use summary::Summary;

/// Process-id offset for device timelines in exported traces: rank
/// timelines use `pid == rank`, device timelines use
/// `pid == DEVICE_PID_BASE + device_id` with `tid == stream`.
pub const DEVICE_PID_BASE: u32 = 1000;
