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
//!
//! [`http_miss_round`] is the front end's own measurement: the wall
//! time of a fixed batch of misses sent over loopback HTTP by one or
//! by two closed-loop clients, the two sides of
//! `serve.http.two_client_speedup`.

// The host-perf harness times the host and drives the server from threads.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use hsim_core::runner::RunConfig;
use hsim_core::ExecMode;
use hsim_serve::{http, Request, ServeError, Server, ServerConfig};

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
/// in the perf results file, and `perf serve` gates the rows.
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

/// Distinct runs in one [`http_miss_round`]: four modes on six grids
/// of the paper's figure range, cost-only, a few milliseconds each.
pub const HTTP_MISSES: usize = 24;

fn http_miss_bodies() -> Vec<String> {
    let mut bodies = Vec::with_capacity(HTTP_MISSES);
    for (y, z) in [(240, 160), (480, 320)] {
        for x in [100, 200, 300] {
            for mode in ["cpuonly", "default", "mps", "hetero"] {
                bodies.push(format!("mode={mode}&grid={x},{y},{z}&cycles=10&balanced=1"));
            }
        }
    }
    bodies
}

/// `POST /run` on a connection of its own; true iff the reply is a
/// 200 that ran the body (`X-Cache: miss`).
fn post_run_misses(addr: SocketAddr, body: &str) -> std::io::Result<bool> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let request = format!(
        "POST /run HTTP/1.1\r\nHost: perf\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    let head = reply.split("\r\n\r\n").next().unwrap_or("");
    Ok(head.starts_with("HTTP/1.1 200 ") && head.contains("\r\nX-Cache: miss"))
}

/// Wall seconds a fresh two-worker server behind [`http::serve`] on a
/// loopback port takes to answer [`HTTP_MISSES`] distinct runs, none
/// of them cached, sent by `clients` closed-loop clients (client `c`
/// sends every `clients`-th body from the `c`-th on, each on its own
/// connection, the next only after the reply). One client keeps one
/// worker busy; what two gain over it is what the front end lets
/// overlap.
pub fn http_miss_round(tile: [usize; 2], clients: usize) -> f64 {
    let server = Server::new(ServerConfig {
        workers: 2,
        tile: Some(tile),
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let bodies = http_miss_bodies();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| http::serve(&server, listener, Some(bodies.len())).expect("serve"));
        for c in 0..clients {
            let mine = bodies.iter().skip(c).step_by(clients);
            s.spawn(move || {
                for body in mine {
                    let missed = post_run_misses(addr, body).expect("loopback request");
                    assert!(missed, "`{body}` was not answered 200 as a miss");
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_miss_round_sends_distinct_bodies_that_all_run() {
        let bodies = http_miss_bodies();
        assert_eq!(bodies.len(), HTTP_MISSES);
        let distinct: std::collections::BTreeSet<_> = bodies.iter().collect();
        assert_eq!(distinct.len(), HTTP_MISSES);
        // Every reply is checked inside: a hit, a refusal or a short
        // count would panic or hang here.
        assert!(http_miss_round([8, 8], 2) > 0.0);
    }

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
