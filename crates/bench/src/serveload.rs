//! Synthetic many-client load driver for the serve subsystem.
//!
//! Two deterministic phases feed the `serve.*` rows of the perf
//! harness's results file:
//!
//! 1. **Hit-rate / latency phase** — a small fleet of client threads
//!    hammers one [`Server`] with requests drawn round-robin from a
//!    fixed set of distinct configs. Every config is requested many
//!    times, so by construction most requests are content-hash cache
//!    hits (or single-flight joins) and the hit rate lands well above
//!    the gate floor. Latency quantiles come from the server's own
//!    per-request clock.
//! 2. **Overflow probe** — a zero-worker server with a tiny queue is
//!    filled to capacity and then pushed past it. Every overflow must
//!    surface as the *typed* [`ServeError::QueueFull`] (never a panic,
//!    never a hang); the probe records whether that held.
//!
//! The counts are fixed (not flags) so the report is comparable across
//! runs and machines: only the latency columns are wall-clock.

use std::time::Duration;

use hsim_core::runner::RunConfig;
use hsim_core::ExecMode;
use hsim_serve::{Request, ServeError, Server, ServerConfig};

use crate::results::Row;
use crate::rows;

/// Client threads in the hit-rate phase.
pub const CLIENTS: usize = 4;
/// Requests each client issues.
pub const PER_CLIENT: usize = 12;
/// Distinct configs the clients draw from (`CLIENTS * PER_CLIENT`
/// requests collapse onto this many executions).
pub const DISTINCT_CONFIGS: usize = 6;
/// Queue bound in the overflow probe.
pub const PROBE_CAPACITY: usize = 4;
/// Submissions past the bound; each must be a typed rejection.
pub const PROBE_OVERFLOW: usize = 3;

/// What the load driver observed; [`ServeLoadReport::rows`] puts it
/// in the perf results file, where `perf ci-gate` gates it.
#[derive(Debug, Clone)]
pub struct ServeLoadReport {
    pub clients: usize,
    pub requests: usize,
    pub distinct_configs: usize,
    pub hits: u64,
    pub misses: u64,
    pub admitted: u64,
    /// Typed `QueueFull` rejections from the overflow probe.
    pub rejected: u64,
    pub deadline_drops: u64,
    pub hit_rate: f64,
    /// Latency quantiles in microseconds — the server records
    /// nanoseconds per request, so sub-millisecond cache hits report
    /// nonzero quantiles instead of truncating to 0.
    pub p50_us: f64,
    pub p99_us: f64,
    /// `true` iff every probe rejection was the typed `QueueFull`
    /// carrying the configured capacity.
    pub rejections_typed: bool,
}

impl ServeLoadReport {
    /// The `serve.*` result rows.
    pub fn rows(&self) -> Vec<Row> {
        rows!("serve";
            "hits" => self.hits, "misses" => self.misses, "admitted" => self.admitted,
            "rejected" => self.rejected, "deadline_drops" => self.deadline_drops,
            "hit_rate" => self.hit_rate, "p50_us" => self.p50_us, "p99_us" => self.p99_us,
            "rejections_typed" => self.rejections_typed,
        )
        .into()
    }
}

/// The i-th distinct workload: same small grid, distinct cycle count,
/// so each has its own content hash but all run in milliseconds.
fn load_cfg(i: usize) -> RunConfig {
    let mut cfg = RunConfig::sweep((24, 16, 8), ExecMode::hetero());
    cfg.cycles = 1 + (i % DISTINCT_CONFIGS) as u64;
    cfg
}

/// Run both phases and assemble the report. `tile` seeds the server's
/// calibration so the driver never pays (or races on) the probe.
pub fn run_load(tile: [usize; 2]) -> ServeLoadReport {
    // Phase 1: many clients, few configs, one shared server.
    let server = Server::new(ServerConfig {
        workers: 2,
        tile: Some(tile),
        ..ServerConfig::default()
    });
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let server = &server;
            s.spawn(move || {
                for r in 0..PER_CLIENT {
                    // Offset by client id so the very first wave
                    // already exercises single-flight joining.
                    let resp = server
                        .submit(Request::direct(load_cfg(c + r)))
                        .expect("load request serves");
                    assert!(!resp.outcome.bytes.is_empty());
                }
            });
        }
    });
    let stats = server.stats();
    drop(server);

    // Phase 2: overflow probe against a zero-worker server.
    let probe = Server::new(ServerConfig {
        workers: 0,
        queue_capacity: PROBE_CAPACITY,
        default_deadline: None,
        tile: Some(tile),
    });
    let mut rejections_typed = true;
    let mut rejected = 0u64;
    for i in 0..PROBE_CAPACITY + PROBE_OVERFLOW {
        let mut req = Request::direct(load_cfg(100 + i));
        req.cfg.cycles = 100 + i as u64; // distinct from phase 1 and each other
        req.deadline = Some(Duration::ZERO);
        match probe.submit(req) {
            // Queued, then immediately expired: typed, no hang.
            Err(ServeError::DeadlineExpired { .. }) if i < PROBE_CAPACITY => {}
            // Past the bound: must be the typed QueueFull.
            Err(ServeError::QueueFull { capacity }) if i >= PROBE_CAPACITY => {
                rejected += 1;
                rejections_typed &= capacity == PROBE_CAPACITY;
            }
            other => {
                rejections_typed = false;
                drop(other);
            }
        }
    }
    rejections_typed &= rejected == PROBE_OVERFLOW as u64 && probe.stats().rejected == rejected;
    drop(probe); // full queue, zero workers: drop must not hang

    ServeLoadReport {
        clients: CLIENTS,
        requests: CLIENTS * PER_CLIENT,
        distinct_configs: DISTINCT_CONFIGS,
        hits: stats.hits,
        misses: stats.misses,
        admitted: stats.admitted,
        rejected,
        deadline_drops: stats.deadline_drops,
        hit_rate: stats.hit_rate(),
        p50_us: stats.p50_us,
        p99_us: stats.p99_us,
        rejections_typed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_driver_hits_hot_and_rejects_typed() {
        let report = run_load([8, 8]);
        assert_eq!(report.requests, CLIENTS * PER_CLIENT);
        // Every config executes exactly once; the rest are hits/joins.
        assert_eq!(report.misses, DISTINCT_CONFIGS as u64, "{report:?}");
        assert_eq!(
            report.hits,
            (CLIENTS * PER_CLIENT - DISTINCT_CONFIGS) as u64,
            "{report:?}"
        );
        assert!(report.hit_rate > 0.5, "{report:?}");
        assert_eq!(report.rejected, PROBE_OVERFLOW as u64, "{report:?}");
        assert!(report.rejections_typed, "{report:?}");
        assert!(report.p50_us <= report.p99_us, "{report:?}");
        // The precision fix this field exists for: dozens of requests
        // hit the cache in well under a millisecond each, and the
        // nanosecond clock must still resolve them.
        assert!(report.p50_us > 0.0, "{report:?}");
    }
}
