//! End-to-end HTTP tests over a real loopback socket: health, run
//! (miss then byte-identical hit), live metrics, typed error statuses,
//! and what concurrent connections must and must not do to each other.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use hsim_serve::{http, Server, ServerConfig};

/// Minimal HTTP/1.1 client: returns (status, headers, body).
fn request(
    addr: &std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("recv");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body split");
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head, raw[split + 4..].to_vec())
}

#[test]
fn http_endpoints_end_to_end() {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        s.spawn(|| http::serve(&server, listener, Some(6)).expect("serve"));

        let (status, _, body) = request(&addr, "GET", "/healthz", "");
        assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

        let run_body = "mode=default&grid=24,16,8&cycles=2&balanced=0";
        let (status, head, cold) = request(&addr, "POST", "/run", run_body);
        assert_eq!(status, 200, "cold run head: {head}");
        assert!(head.contains("X-Cache: miss"), "head: {head}");
        assert!(head.contains("X-Content-Key: "), "head: {head}");
        assert!(cold.starts_with(b"schema,"), "body starts with CSV header");

        let (status, head, warm) = request(&addr, "POST", "/run", run_body);
        assert_eq!(status, 200);
        assert!(head.contains("X-Cache: hit"), "head: {head}");
        assert_eq!(cold, warm, "hit must be byte-identical to the miss");

        let (status, _, metrics) = request(&addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let text = String::from_utf8(metrics).expect("utf8 metrics");
        assert!(text.contains("hsim_serve_hits 1"), "metrics:\n{text}");
        assert!(text.contains("hsim_serve_misses 1"), "metrics:\n{text}");
        assert!(text.contains("hsim_serve_latency_us{quantile=\"0.99\"}"));

        let (status, _, _) = request(&addr, "GET", "/no-such-endpoint", "");
        assert_eq!(status, 404);

        let (status, _, _) = request(&addr, "POST", "/run", "mode=warp");
        assert_eq!(status, 400);
    });
}

/// Send raw bytes, then read whatever the server answers.
fn raw(addr: &std::net::SocketAddr, bytes: &[u8]) -> String {
    reply_of(&mut begin(addr, bytes))
}

/// Hostile input is refused with a typed status, never executed, and
/// the server keeps answering afterwards.
#[test]
fn hostile_requests_are_refused_and_the_server_survives() {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let alive = || {
        let (status, _, body) = request(&addr, "GET", "/healthz", "");
        assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
    };

    std::thread::scope(|s| {
        s.spawn(|| http::serve(&server, listener, Some(12)).expect("serve"));

        // Runs sized to exhaust memory, wrap the zone count, or never
        // finish: 400 before anything is queued.
        for body in [
            "mode=cpuonly&grid=24,16,8&cycles=2&particles=20000000000",
            "grid=4294967296,4294967296,2",
            "cycles=18446744073709551615",
        ] {
            let (status, _, _) = request(&addr, "POST", "/run", body);
            assert_eq!(status, 400, "body `{body}`");
            alive();
        }

        // A body over the 1 MiB cap is refused by its declared length,
        // not truncated and parsed.
        let reply = raw(
            &addr,
            b"POST /run HTTP/1.1\r\nHost: test\r\nContent-Length: 1048577\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 413 "), "reply: {reply}");
        alive();

        // A header that never ends is cut off at the 8 KiB line bound
        // (exactly that many bytes, so the server closes with nothing
        // unread and the reply is not lost to a reset).
        let mut endless = b"GET /healthz HTTP/1.1\r\n".to_vec();
        endless.resize(endless.len() + (8 << 10), b'a');
        let reply = raw(&addr, &endless);
        assert!(reply.starts_with("HTTP/1.1 400 "), "reply: {reply}");
        alive();

        // So is a head that never ends in lines that do: the 65th
        // header line is refused (and is the last byte sent, as above).
        let mut many = b"GET /healthz HTTP/1.1\r\n".to_vec();
        (0..65).for_each(|i| many.extend_from_slice(format!("X-{i}: y\r\n").as_bytes()));
        let reply = raw(&addr, &many);
        assert!(reply.starts_with("HTTP/1.1 400 "), "reply: {reply}");
        assert!(reply.ends_with("too many header lines\n"), "reply: {reply}");
        alive();
    });
    assert_eq!(server.stats().admitted, 0, "nothing hostile was queued");
}

/// Serve exactly `connections` connections of a fresh server on a
/// loopback port while `clients` runs; returns once `http::serve` has.
fn serving<R>(
    config: ServerConfig,
    connections: usize,
    clients: impl FnOnce(SocketAddr, &Server) -> R,
) -> R {
    let server = Server::new(config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let front = s.spawn(|| http::serve(&server, listener, Some(connections)).expect("serve"));
        let outcome = catch_unwind(AssertUnwindSafe(|| clients(addr, &server)));
        // A failed assertion must fail the test, not hang it: make the
        // connections the clients did not get to, so `serve` returns.
        while outcome.is_err() && !front.is_finished() {
            let _ = TcpStream::connect(addr);
            std::thread::sleep(Duration::from_millis(1));
        }
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    })
}

/// Open a connection and send `head`, the start of a request.
fn begin(addr: &SocketAddr, head: impl AsRef<[u8]>) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(head.as_ref()).expect("send");
    stream
}

/// Send `tail`, the rest of a begun request.
fn finish(stream: &mut TcpStream, tail: &str) {
    stream.write_all(tail.as_bytes()).expect("send");
}

/// Everything the server sends until it closes the connection.
fn reply_of(stream: &mut TcpStream) -> String {
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("recv");
    String::from_utf8_lossy(&reply).into_owned()
}

/// Poll `ready` until it holds: waits for a state the server reaches
/// on its own, whatever the scheduler does.
fn until(ready: impl Fn() -> bool) {
    while !ready() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Single-flight over the socket: eight clients released together on
/// one body run it once, and the seven that joined or hit get the
/// miss's bytes.
#[test]
fn identical_concurrent_runs_execute_once() {
    serving(ServerConfig::default(), 9, |addr, _| {
        let body = "mode=default&grid=24,16,8&cycles=200&balanced=0";
        let gate = Barrier::new(8);
        let replies: Vec<_> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        request(&addr, "POST", "/run", body)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client"))
                .collect()
        });
        let with = |tag: &str| replies.iter().filter(|r| r.1.contains(tag)).count();
        assert_eq!((with("X-Cache: miss"), with("X-Cache: hit")), (1, 7));
        for (status, head, bytes) in &replies {
            assert_eq!(*status, 200, "head: {head}");
            assert_eq!(bytes, &replies[0].2, "every client gets the same bytes");
        }
        let (_, _, metrics) = request(&addr, "GET", "/metrics", "");
        let text = String::from_utf8(metrics).expect("utf8 metrics");
        assert!(text.contains("hsim_serve_misses 1\n"), "metrics:\n{text}");
        assert!(text.contains("hsim_serve_hits 7\n"), "metrics:\n{text}");
        assert!(text.contains("hsim_serve_latency_hist_us_count 8\n"));
    });
}

/// A connection that stalls half-way through its request line and a
/// miss that runs for seconds each hold one handler; `/healthz` on a
/// third connection is answered at once, not after them.
#[test]
fn healthz_answers_beside_a_stalled_request_and_a_miss_in_flight() {
    let one_worker = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    serving(one_worker, 3, |addr, server| {
        let mut stalled = begin(&addr, "GET /hea");
        std::thread::scope(|s| {
            // Particles are stepped through every cycle; without them
            // a run adds its period up and 10 000 cycles are over in
            // milliseconds.
            let long = "mode=default&grid=24,16,8&cycles=10000&particles=64&balanced=0";
            let miss = s.spawn(|| request(&addr, "POST", "/run", long));
            until(|| server.stats().misses == 1);

            let t0 = Instant::now();
            let (status, _, body) = request(&addr, "GET", "/healthz", "");
            let took = t0.elapsed();
            assert!(!miss.is_finished(), "the miss outlasts the health check");
            assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
            assert!(took < Duration::from_secs(1), "healthz took {took:?}");

            // Neither of the two was hurt by being overtaken.
            finish(&mut stalled, "lthz HTTP/1.1\r\n\r\n");
            let reply = reply_of(&mut stalled);
            assert!(reply.starts_with("HTTP/1.1 200 "), "reply: {reply}");
            let (status, head, _) = miss.join().expect("client");
            assert_eq!(status, 200, "head: {head}");
            assert!(head.contains("X-Cache: miss"), "head: {head}");
        });
    });
}

/// More open connections than handler threads: the ones past the cap
/// wait in the listen backlog for a handler and are answered too.
#[test]
fn connections_past_the_handler_cap_are_all_answered() {
    let n = http::MAX_HANDLERS + 4;
    serving(ServerConfig::default(), n, |addr, _| {
        let mut open: Vec<TcpStream> = (0..n)
            .map(|_| begin(&addr, "GET /healthz HTTP/1.1\r\n"))
            .collect();
        // Newest first: the first requests to be complete are ones no
        // handler has yet.
        for stream in open.iter_mut().rev() {
            finish(stream, "\r\n");
        }
        for stream in &mut open {
            let reply = reply_of(stream);
            assert!(reply.starts_with("HTTP/1.1 200 "), "reply: {reply}");
        }
    });
}

/// Admission over HTTP: with nothing draining a queue of two, two
/// distinct runs wait out their deadlines (504) and a third, arriving
/// while both still wait, is turned away at once (429).
#[test]
fn a_full_queue_rejects_over_http_while_queued_requests_wait() {
    let undrained = ServerConfig {
        workers: 0,
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let stats = serving(undrained, 3, |addr, server| {
        let body = |cycles: usize| {
            format!("mode=default&grid=24,16,8&cycles={cycles}&balanced=0&deadline_ms=2000")
        };
        std::thread::scope(|s| {
            let queued: Vec<_> = (1..=2)
                .map(|cycles| s.spawn(move || request(&addr, "POST", "/run", &body(cycles)).0))
                .collect();
            until(|| server.queue_len() == 2);
            let (status, _, text) = request(&addr, "POST", "/run", &body(3));
            assert_eq!(status, 429, "{}", String::from_utf8_lossy(&text));
            assert!(
                queued.iter().all(|q| !q.is_finished()),
                "the rejection overtook both queued requests"
            );
            for q in queued {
                assert_eq!(q.join().expect("client"), 504);
            }
        });
        server.stats()
    });
    assert_eq!((stats.admitted, stats.rejected), (2, 1), "{stats:?}");
}

/// `Some(n)` is a contract on both ends: the n-th reply is complete
/// when `serve` returns, and an (n+1)-th connection is never accepted.
#[test]
fn serve_returns_after_its_last_reply_and_accepts_nothing_more() {
    let server = Server::new(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let serving = s.spawn(|| http::serve(&server, listener, Some(3)));
        // Three connections that three handlers hold at once, then a
        // whole request that must stay in the backlog.
        let mut held: Vec<TcpStream> = (0..3)
            .map(|_| begin(&addr, "GET /healthz HTTP/1.1\r\n"))
            .collect();
        let mut extra = begin(&addr, "GET /healthz HTTP/1.1\r\n\r\n");
        for stream in &mut held {
            finish(stream, "\r\n");
        }
        let mut last = held.pop().expect("three held");
        for stream in &mut held {
            assert!(reply_of(stream).starts_with("HTTP/1.1 200 "));
        }
        // The last reply is read only after `serve` has returned.
        serving.join().expect("serve thread").expect("serve");
        assert!(reply_of(&mut last).ends_with("\r\n\r\nok\n"));
        let mut unanswered = Vec::new();
        let _ = extra.read_to_end(&mut unanswered);
        assert!(unanswered.is_empty(), "a fourth connection was answered");
    });
}

/// A failing `accept()` costs a retry, not the server: on a
/// non-blocking listener every early `accept()` fails (`EAGAIN`), and
/// requests are answered all the same. (Linux: an accepted socket does
/// not inherit the listener's non-blocking flag.)
#[cfg(target_os = "linux")]
#[test]
fn a_failed_accept_is_retried() {
    let server = Server::new(ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.set_nonblocking(true).expect("non-blocking");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        s.spawn(|| http::serve(&server, listener, Some(2)).expect("serve"));
        for _ in 0..2 {
            let (status, _, body) = request(&addr, "GET", "/healthz", "");
            assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
        }
    });
}
