//! Thin HTTP/1.1 front end over pure-std TCP — no external deps, no
//! async runtime. One connection is handled at a time (`Connection:
//! close`); concurrency lives in the server's worker pool behind
//! [`Server::submit`], not in the socket layer.
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness, `200 ok`.
//! * `GET /metrics` — the telemetry registry in Prometheus text
//!   format, including the `serve_*` counters and latency quantiles.
//! * `POST /run` — body is `key=value` pairs (`&`- or
//!   newline-separated). The keys that describe the run — `mode`,
//!   `grid`, `cycles`, `problem`, `scenario`, `particles` — are
//!   forwarded to the run-spec table ([`hsim_core::spec`]; the README's
//!   "Configuring a run" lists syntax and bounds); this front end
//!   adds `balanced=0|1` (default 1) and `deadline_ms=N`. Replies
//!   with the rendered run report; `X-Cache: hit|miss` and
//!   `X-Content-Key` carry the cache disposition and key.
//! * `GET /figure/<id>` — the figure sweep CSV (e.g. `/figure/fig14`).
//!
//! Typed failures map to statuses: queue full → 429, deadline → 504,
//! run failure → 422, bad request → 400, shutdown → 503. The socket
//! is not trusted: an over-long request or header line is a 400, a
//! body over the cap a 413, and a run larger than any the paper swept
//! a 400 — none of them is executed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use hsim_core::runner::RunConfig;
use hsim_core::spec::RunSpec;
use hsim_core::{figures, ExecMode};

use crate::server::{Request, ServeError, Server};

/// Socket read timeout: a stalled client must not wedge the accept
/// loop forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest request line or header line read: a newline-free stream
/// must not grow a `String` without limit.
const MAX_LINE: u64 = 8 << 10;

/// Largest request body read.
const MAX_BODY: usize = 1 << 20;

/// Most cycles one request may run: a thousand times the sweeps' 10.
const MAX_CYCLES: u64 = 10_000;

/// Most zones one request may run: a hundred times the largest paper
/// sweep point (4.6e7); a cost-only run of this size takes 0.06 s.
const MAX_ZONES: u64 = 1 << 32;

/// Most particles one request may seed: every rank materializes the
/// global set (56 B x count x 16 ranks).
const MAX_PARTICLES: u64 = 1 << 18;

/// The run-spec keys reachable over HTTP.
const RUN_KEYS: [&str; 6] = ["mode", "grid", "cycles", "problem", "scenario", "particles"];

/// Serve HTTP requests from `listener` until `max_requests` have been
/// answered (`None` = forever). Bind the listener yourself (port 0
/// works for tests) so the address is known before serving starts.
pub fn serve(
    server: &Server,
    listener: TcpListener,
    max_requests: Option<usize>,
) -> std::io::Result<()> {
    for (served, stream) in listener.incoming().enumerate() {
        let stream = stream?;
        // A single misbehaving client should cost one connection, not
        // the server: IO errors are per-connection and non-fatal.
        let _ = handle_connection(server, stream);
        if max_requests.is_some_and(|m| served + 1 >= m) {
            break;
        }
    }
    Ok(())
}

/// Read one line of at most [`MAX_LINE`] bytes; `None` if the line is
/// longer than that.
fn read_bounded_line(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    reader.by_ref().take(MAX_LINE).read_line(&mut line)?;
    let truncated = line.len() as u64 >= MAX_LINE && !line.ends_with('\n');
    Ok((!truncated).then_some(line))
}

fn handle_connection(server: &Server, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let Some(line) = read_bounded_line(&mut reader)? else {
        return respond(stream, 400, "request line too long\n", &[]);
    };
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return respond(stream, 400, "malformed request line\n", &[]),
    };
    let mut content_length = 0usize;
    loop {
        let Some(header) = read_bounded_line(&mut reader)? else {
            return respond(stream, 400, "header line too long\n", &[]);
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap_or(0);
        }
    }
    if content_length > MAX_BODY {
        return respond(stream, 413, "request body too large\n", &[]);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8_lossy(&body).into_owned();

    match (method.as_str(), path.as_str()) {
        ("GET", "/healthz") => respond(stream, 200, "ok\n", &[]),
        ("GET", "/metrics") => respond(stream, 200, &server.metrics_text(), &[]),
        ("POST", "/run") => match parse_run_body(&body).and_then(|req| server.submit(req)) {
            Ok(resp) => {
                let headers = [
                    format!("X-Cache: {}", if resp.cached { "hit" } else { "miss" }),
                    format!("X-Content-Key: {:016x}", resp.key),
                ];
                respond_bytes(stream, 200, &resp.outcome.bytes, &headers)
            }
            Err(e) => respond(stream, e.http_status(), &format!("{e}\n"), &[]),
        },
        ("GET", p) if p.starts_with("/figure/") => {
            let id = &p["/figure/".len()..];
            match server.figure_csv(id, &figures::paper_modes()) {
                Ok(csv) => respond(stream, 200, &csv, &[]),
                Err(e) => respond(stream, e.http_status(), &format!("{e}\n"), &[]),
            }
        }
        _ => respond(stream, 404, "not found\n", &[]),
    }
}

/// Refuse a run larger than this front end will execute.
fn check_bounds(cfg: &RunConfig) -> Result<(), ServeError> {
    let (x, y, z) = cfg.grid;
    let zones = (x as u64)
        .checked_mul(y as u64)
        .and_then(|xy| xy.checked_mul(z as u64));
    let particles = cfg.particles.map_or(0, |p| p.count);
    for (what, value, max) in [
        ("cycles", cfg.cycles, MAX_CYCLES),
        ("grid zone count", zones.unwrap_or(u64::MAX), MAX_ZONES),
        ("particles", particles, MAX_PARTICLES),
    ] {
        if value > max {
            return Err(ServeError::BadRequest(format!("{what} above {max}")));
        }
    }
    Ok(())
}

/// Parse the `POST /run` body into a [`Request`].
fn parse_run_body(body: &str) -> Result<Request, ServeError> {
    let mut spec = RunSpec::new(RunConfig::sweep((64, 48, 32), ExecMode::hetero()));
    let mut balanced = true;
    let mut deadline = None;
    for pair in body.split(['&', '\n']).map(str::trim) {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| ServeError::BadRequest(format!("expected key=value, got `{pair}`")))?;
        let bad = || ServeError::BadRequest(format!("bad {k} `{v}`"));
        match k {
            "balanced" => {
                balanced = match v {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    _ => return Err(bad()),
                }
            }
            "deadline_ms" => deadline = Some(Duration::from_millis(v.parse().map_err(|_| bad())?)),
            _ if RUN_KEYS.contains(&k) => spec.set(k, v).map_err(ServeError::BadRequest)?,
            _ => return Err(ServeError::BadRequest(format!("unknown key `{k}`"))),
        }
    }
    let cfg = spec.finish();
    check_bounds(&cfg)?;
    Ok(Request {
        cfg,
        balanced,
        deadline,
    })
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

fn respond(
    stream: TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[String],
) -> std::io::Result<()> {
    respond_bytes(stream, status, body.as_bytes(), extra_headers)
}

fn respond_bytes(
    mut stream: TcpStream,
    status: u16,
    body: &[u8],
    extra_headers: &[String],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        status_reason(status),
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_body_parses_and_defaults() {
        let req = parse_run_body("mode=default&grid=24,16,8&cycles=3").expect("parses");
        assert_eq!(req.cfg.mode, ExecMode::Default);
        assert_eq!(req.cfg.grid, (24, 16, 8));
        assert_eq!(req.cfg.cycles, 3);
        assert!(req.balanced);
        assert!(req.deadline.is_none());

        let req = parse_run_body("balanced=0\ndeadline_ms=250").expect("parses");
        assert!(!req.balanced);
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn scenario_and_particles_keys_select_distinct_cache_keys() {
        let base = parse_run_body("grid=24,16,8&cycles=2").expect("parses");
        let mut seen = vec![base.cfg.content_hash()];
        for body in [
            "grid=24,16,8&cycles=2&scenario=sod",
            "grid=24,16,8&cycles=2&scenario=noh",
            "grid=24,16,8&cycles=2&scenario=taylor-green",
            "grid=24,16,8&cycles=2&particles=256",
        ] {
            let req = parse_run_body(body).expect("parses");
            let h = req.cfg.content_hash();
            assert!(!seen.contains(&h), "body `{body}` aliased a cache key");
            seen.push(h);
        }
        // `scenario=sedov` is the default problem: same content key.
        let sedov = parse_run_body("grid=24,16,8&cycles=2&scenario=sedov").expect("parses");
        assert_eq!(sedov.cfg.content_hash(), base.cfg.content_hash());
        let parts = parse_run_body("particles=512").expect("parses");
        assert_eq!(parts.cfg.particles.map(|p| p.count), Some(512));
    }

    #[test]
    fn run_body_rejections_are_typed() {
        for body in [
            "mode=warp",
            "grid=1,2",
            "cycles=ten",
            "balanced=maybe",
            "nonsense",
            "frobnicate=1",
            "scenario=vortex",
            "particles=lots",
            "particles=20000000000",
            "cycles=18446744073709551615",
            "grid=4294967296,4294967296,2",
            // Run-spec keys this front end does not expose.
            "faults=rank.loss@rank5.cycle4",
            "tile=8x8",
            "full=",
        ] {
            let err = parse_run_body(body).unwrap_err();
            assert_eq!(err.http_status(), 400, "body `{body}` → {err:?}");
        }
    }

    #[test]
    fn status_reasons_cover_every_serve_error() {
        for e in [
            ServeError::QueueFull { capacity: 1 },
            ServeError::DeadlineExpired { waited_ms: 1 },
            ServeError::Run(String::new()),
            ServeError::BadRequest(String::new()),
            ServeError::ShuttingDown,
        ] {
            assert_ne!(status_reason(e.http_status()), "Error");
        }
    }
}
