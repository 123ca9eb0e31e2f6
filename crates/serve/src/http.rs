//! Thin HTTP/1.1 front end over pure-std TCP — no external deps, no
//! async runtime. One request per connection (`Connection: close`).
//! Connections are answered concurrently: [`serve`] accepts and
//! handles on the calling thread and starts a helper thread whenever a
//! connection is taken and no thread is left waiting in `accept()`, up
//! to [`MAX_HANDLERS`]; helpers are reused for the rest of the call,
//! so how many run is decided by how many connections are open at
//! once, and two clients' misses overlap on the server's workers
//! behind [`Server::submit`] while a hit or a `/healthz` never queues
//! behind them.
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness, `200 ok`.
//! * `GET /metrics` — the server's own metrics in Prometheus text
//!   format: the `serve_*` request counters, the queue's high-water
//!   depth, the latency quantiles and the latency histogram.
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
//! run failure → 422, bad request → 400, shutdown → 503.
//!
//! The socket is not trusted, and what one connection can cost is
//! bounded: a request (head and body together) has 10 s to arrive
//! however slowly its bytes trickle and a reply 10 s to be taken, after
//! which the connection is dropped; a request or header line over
//! 8 KiB or more than 64 header lines is a 400, a body over 1 MiB a
//! 413, and a run larger than any the paper swept a 400 — none of them
//! is executed. A connection that stalls, trickles, overruns a bound or
//! panics its handler costs that handler, not the others; once
//! [`MAX_HANDLERS`] connections are open the next one waits in the
//! listen backlog, for no longer than those deadlines plus the runs in
//! flight. A failed `accept()` loses that connection, not the server.

// Connection deadlines are real elapsed time by design.
#![allow(clippy::disallowed_types)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{self, Scope};
use std::time::{Duration, Instant};

use hsim_core::runner::RunConfig;
use hsim_core::spec::RunSpec;
use hsim_core::{figures, ExecMode};

use crate::server::{Request, ServeError, Server};

/// Time a whole request, head and body, has to arrive: a client
/// sending a byte now and then must not hold a handler for ever.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Time a client has to take the whole reply: one that never reads
/// must not hold a handler once the socket buffer is full.
const REPLY_DEADLINE: Duration = Duration::from_secs(10);

/// Most connections answered at once, hence most handler threads one
/// [`serve`] call runs (its own thread included). Each holds at most
/// one request (a 1 MiB body) and one reply.
pub const MAX_HANDLERS: usize = 16;

/// Pause after a failed `accept()` (`ECONNABORTED`, `EMFILE`, …)
/// before the next try.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Longest request line or header line read: a newline-free stream
/// must not grow a `String` without limit.
const MAX_LINE: u64 = 8 << 10;

/// Most header lines read: an endless run of short ones must not hold
/// a handler until the request deadline.
const MAX_HEADERS: usize = 64;

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

/// Serve HTTP requests from `listener` until `max_requests`
/// connections have been accepted and answered (`None` = forever):
/// exactly that many are accepted, and the call returns only after the
/// last reply is written. Bind the listener yourself (port 0 works for
/// tests) so the address is known before serving starts.
pub fn serve(
    server: &Server,
    listener: TcpListener,
    max_requests: Option<usize>,
) -> std::io::Result<()> {
    serve_with(&listener, max_requests, |stream| {
        // A single misbehaving client should cost one connection, not
        // the server: IO errors are per-connection and non-fatal.
        let _ = handle_connection(server, stream);
    });
    Ok(())
}

/// What the handler threads of one [`serve`] call share.
struct Front<'a, H> {
    listener: &'a TcpListener,
    /// The per-connection body.
    handle: H,
    /// Connections still to accept (`None` = no limit). A thread takes
    /// one before each `accept()`, so every thread blocked there is
    /// owed a connection and all of them end without a wake-up.
    tickets: Option<AtomicUsize>,
    /// Handler threads not answering a connection: in `accept()` or
    /// about to be. A thread leaves the count when it takes a
    /// connection and rejoins it *before* it closes that connection, so
    /// a closed-loop client's next connection never finds its own
    /// handler still counted busy (which would start one thread more
    /// per round trip, up to the cap).
    idle: AtomicUsize,
    /// Handler threads started, the caller's included. None ends
    /// before the tickets run out, so this is also how many are live.
    started: AtomicUsize,
}

/// [`serve`] over any per-connection body; returns how many handler
/// threads ran (at least 1: the caller's).
#[allow(clippy::disallowed_methods)] // the front end owns its connection handlers
fn serve_with(
    listener: &TcpListener,
    max_requests: Option<usize>,
    handle: impl Fn(&TcpStream) + Sync,
) -> usize {
    let front = Front {
        listener,
        handle,
        tickets: max_requests.map(AtomicUsize::new),
        idle: AtomicUsize::new(1),
        started: AtomicUsize::new(1),
    };
    thread::scope(|scope| front.handler_loop(scope));
    front.started.into_inner()
}

impl<H: Fn(&TcpStream) + Sync> Front<'_, H> {
    /// One handler thread: accept, make sure somebody is left to
    /// accept the next connection, answer, again.
    fn handler_loop<'scope, 'env>(&'env self, scope: &'scope Scope<'scope, 'env>) {
        while self.take_ticket() {
            let stream = self.accept();
            if self.idle.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.start_helper(scope);
            }
            // A panicking body costs its connection, not this thread
            // and, through the scope's join, the server.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| (self.handle)(&stream)));
            self.idle.fetch_add(1, Ordering::SeqCst);
            drop(stream);
        }
    }

    fn take_ticket(&self) -> bool {
        let Some(tickets) = &self.tickets else {
            return true;
        };
        tickets
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    fn accept(&self) -> TcpStream {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => return stream,
                Err(_) => thread::sleep(ACCEPT_BACKOFF),
            }
        }
    }

    /// Start one more handler thread, born idle, if a connection is
    /// still to come and fewer than [`MAX_HANDLERS`] run. Called by the
    /// thread that took the last idle one's place; if the thread cannot
    /// be started, connections wait for a handler to finish.
    #[allow(clippy::disallowed_methods)] // the front end owns its connection handlers
    fn start_helper<'scope, 'env>(&'env self, scope: &'scope Scope<'scope, 'env>) {
        let to_come = match &self.tickets {
            Some(tickets) => tickets.load(Ordering::SeqCst) > 0,
            None => true,
        };
        let reserve = |n: usize| (n < MAX_HANDLERS).then_some(n + 1);
        if !to_come
            || self
                .started
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, reserve)
                .is_err()
        {
            return;
        }
        self.idle.fetch_add(1, Ordering::SeqCst);
        let helper = thread::Builder::new()
            .name("hsim-serve-conn".to_string())
            .spawn_scoped(scope, move || self.handler_loop(scope));
        if helper.is_err() {
            self.idle.fetch_sub(1, Ordering::SeqCst);
            self.started.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A socket whose reads, or whose writes, must all be over by one
/// deadline: each call gets what is left of it as its timeout, so a
/// peer cannot stretch the total by moving a byte at a time.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> Deadlined<'a> {
    fn new(stream: &'a TcpStream, within: Duration) -> Self {
        Deadlined {
            stream,
            deadline: Instant::now() + within,
        }
    }

    fn left(&self) -> std::io::Result<Duration> {
        match self.deadline.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(left),
            _ => Err(std::io::ErrorKind::TimedOut.into()),
        }
    }
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Read one line of at most [`MAX_LINE`] bytes; `None` if the line is
/// longer than that.
fn read_bounded_line(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    reader.by_ref().take(MAX_LINE).read_line(&mut line)?;
    let truncated = line.len() as u64 >= MAX_LINE && !line.ends_with('\n');
    Ok((!truncated).then_some(line))
}

fn handle_connection(server: &Server, stream: &TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(Deadlined::new(stream, REQUEST_DEADLINE));
    let Some(line) = read_bounded_line(&mut reader)? else {
        return respond(stream, 400, "request line too long\n", &[]);
    };
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return respond(stream, 400, "malformed request line\n", &[]),
    };
    let mut content_length = 0usize;
    for seen in 0.. {
        let Some(header) = read_bounded_line(&mut reader)? else {
            return respond(stream, 400, "header line too long\n", &[]);
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if seen == MAX_HEADERS {
            return respond(stream, 400, "too many header lines\n", &[]);
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
    stream: &TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[String],
) -> std::io::Result<()> {
    respond_bytes(stream, status, body.as_bytes(), extra_headers)
}

/// Write the whole reply with one `write`: head and body as two
/// segments let Nagle and the peer's delayed ACK hold the second back.
fn respond_bytes(
    stream: &TcpStream,
    status: u16,
    body: &[u8],
    extra_headers: &[String],
) -> std::io::Result<()> {
    let mut reply = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        status_reason(status),
        body.len()
    );
    for h in extra_headers {
        reply.push_str(h);
        reply.push_str("\r\n");
    }
    reply.push_str("\r\n");
    let mut reply = reply.into_bytes();
    reply.extend_from_slice(body);
    Deadlined::new(stream, REPLY_DEADLINE).write_all(&reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;
    use std::sync::Barrier;

    /// Run [`serve_with`] over `handle` on a loopback port for
    /// `connections` connections while `clients` runs; returns how many
    /// handler threads it took.
    fn serving(
        connections: usize,
        handle: impl Fn(&TcpStream) + Sync,
        clients: impl FnOnce(SocketAddr),
    ) -> usize {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        thread::scope(|s| {
            let front = s.spawn(|| serve_with(&listener, Some(connections), &handle));
            clients(addr);
            front.join().expect("serve_with")
        })
    }

    /// What the peer sends before it closes.
    fn reply_to(addr: SocketAddr) -> String {
        let mut reply = String::new();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.read_to_string(&mut reply);
        reply
    }

    #[test]
    #[cfg_attr(miri, ignore = "needs sockets")]
    fn a_panicking_handler_costs_its_connection_only() {
        let first = std::sync::atomic::AtomicBool::new(true);
        let handle = |mut stream: &TcpStream| {
            assert!(!first.swap(false, Ordering::SeqCst), "handler bug");
            let _ = stream.write_all(b"answered");
        };
        let handlers = serving(3, handle, |addr| {
            assert_eq!(reply_to(addr), "", "the panicking handler's connection");
            assert_eq!(reply_to(addr), "answered");
            assert_eq!(reply_to(addr), "answered");
        });
        assert_eq!(handlers, 2, "the thread that panicked went on serving");
    }

    #[test]
    #[cfg_attr(miri, ignore = "needs sockets")]
    fn handlers_start_with_the_connections_open_at_once_up_to_the_cap() {
        // One client, one connection at a time, however many: the
        // caller's thread and the one that stands by while it answers.
        let echo = |mut stream: &TcpStream| drop(stream.write_all(b"ok"));
        let handlers = serving(40, echo, |addr| {
            (0..40).for_each(|_| assert_eq!(reply_to(addr), "ok"));
        });
        assert_eq!(handlers, 2);

        // `open` connections held at once (each handler waits for all
        // of them): one thread each and one standing by, never more
        // than the cap. Past it, connections wait their turn.
        for (open, want) in [(2, 3), (5, 6), (MAX_HANDLERS, MAX_HANDLERS)] {
            let all_open = Barrier::new(open);
            let hold = |mut stream: &TcpStream| {
                all_open.wait();
                let _ = stream.write_all(b"ok");
            };
            let handlers = serving(2 * open, hold, |addr| {
                for _ in 0..2 {
                    let streams: Vec<_> = (0..open).map(|_| TcpStream::connect(addr)).collect();
                    for stream in streams {
                        let mut reply = String::new();
                        let _ = stream.expect("connect").read_to_string(&mut reply);
                        assert_eq!(reply, "ok");
                    }
                }
            });
            assert_eq!(handlers, want, "{open} connections open at once");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "needs sockets")]
    fn a_trickling_peer_cannot_stretch_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        thread::scope(|s| {
            // A byte every 20 ms, for ever: every single read succeeds
            // well inside any per-read timeout.
            s.spawn(move || {
                let mut peer = TcpStream::connect(addr).expect("connect");
                while peer.write_all(b"x").is_ok() {
                    thread::sleep(Duration::from_millis(20));
                }
            });
            let (stream, _) = listener.accept().expect("accept");
            let t0 = Instant::now();
            let mut sink = Vec::new();
            let end = Deadlined::new(&stream, Duration::from_millis(200)).read_to_end(&mut sink);
            let kind = end.expect_err("the peer never closes").kind();
            assert!(
                matches!(
                    kind,
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "{kind:?}"
            );
            assert!(!sink.is_empty() && t0.elapsed() < Duration::from_secs(5));
        });
    }

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
