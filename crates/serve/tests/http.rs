//! End-to-end HTTP smoke over a real loopback socket: health, run
//! (miss then byte-identical hit), live metrics, and typed error
//! statuses.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

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
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("recv");
    String::from_utf8_lossy(&reply).into_owned()
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
        s.spawn(|| http::serve(&server, listener, Some(10)).expect("serve"));

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
    });
    assert_eq!(server.stats().admitted, 0, "nothing hostile was queued");
}
