//! # hsim-serve
//!
//! Simulation-as-a-service: a long-lived server that amortizes
//! calibration (the `auto_tile` probe, the persistent host
//! [`hsim_raja::WorkPool`]) across many runs and caches completed
//! results keyed by [`hsim_core::runner::RunConfig::content_hash`].
//! Because runs are deterministic in virtual time, a cache hit returns
//! bytes *identical* to re-executing the request — hits are exact, not
//! approximate.
//!
//! The paper's heterogeneous decomposition only pays off once its
//! per-machine calibration is reused; a server that calibrates once
//! and serves many configurations is the production-scale shape of
//! that observation.
//!
//! Two front ends share one [`Server`]:
//!
//! * the in-process client API ([`Server::submit`],
//!   [`Server::figure_csv`]) — what the bench load driver and tests
//!   drive;
//! * a thin HTTP/1.1 interface over pure-std TCP ([`http`]) —
//!   `GET /healthz`, `GET /metrics` (Prometheus text),
//!   `POST /run`, `GET /figure/<id>` — behind `heterosim serve`,
//!   answering connections concurrently so that the workers behind
//!   [`Server::submit`] are kept busy by as many clients as there are.
//!
//! Admission control is a bounded queue with typed rejection
//! ([`ServeError::QueueFull`], HTTP 429) when full, LPT (longest
//! processing time first) ordering of queued work generalizing the
//! sweep engine's batching, and per-request deadlines with graceful
//! cancellation ([`ServeError::DeadlineExpired`], HTTP 504).
//! Everything the server does is visible in its `serve_*` telemetry
//! counters, exported live at `/metrics`.

#![forbid(unsafe_code)]

pub mod http;
pub mod server;

pub use server::{
    render_response, Request, Response, RunOutcome, ServeError, ServeStats, Server, ServerConfig,
};
