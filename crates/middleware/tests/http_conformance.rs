//! HTTP/1.1 transport conformance: keep-alive, pipelining, truncation,
//! slowloris deadlines and backpressure telemetry.
//!
//! These tests speak raw TCP at the event-loop server, exercising exactly
//! the segmentations and abuse patterns the readiness-driven front end
//! claims to handle. Handlers echo enough request detail to prove ordering.

use hpcqc_middleware::http::{Handler, Request, Response};
use hpcqc_middleware::server::{HttpServer, ServerConfig};
use hpcqc_telemetry::{Labels, Registry};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn echo_handler() -> Handler {
    Arc::new(|req: Request| {
        Response::json(
            200,
            format!(r#"{{"path":{:?},"body_len":{}}}"#, req.path, req.body.len()),
        )
    })
}

fn server_with(cfg: ServerConfig) -> (HttpServer, Registry) {
    let metrics = Registry::new();
    let server = HttpServer::spawn_with(
        0,
        echo_handler(),
        ServerConfig {
            metrics: Some(metrics.clone()),
            ..cfg
        },
    )
    .unwrap();
    (server, metrics)
}

/// An unlabelled transport counter (0 before its first event).
fn value(metrics: &Registry, name: &str) -> f64 {
    metrics.get_value(name, &Labels::new()).unwrap_or(0.0)
}

fn connect(server: &HttpServer) -> TcpStream {
    let s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Read exactly one HTTP response off the stream; returns
/// `(status, headers, body)` and asserts nothing followed it. Tests that
/// expect a pipelined successor use [`read_one_of_many`] instead: TCP is
/// free to deliver both responses in one segment (the server's vectored
/// flush even makes that the common case), so bytes past the first
/// response are carry-over there, not garbage.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut carry = Vec::new();
    let resp = read_one_of_many(stream, &mut carry);
    assert!(carry.is_empty(), "unexpected trailing bytes: {carry:?}");
    resp
}

/// Read one HTTP response, leaving any bytes of a pipelined successor that
/// arrived in the same segment in `carry` for the next call.
fn read_one_of_many(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
    let buf = carry;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = find(buf, b"\r\n\r\n") {
            let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(str::to_string)
                })
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            let body_start = head_end + 4;
            while buf.len() < body_start + content_length {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "EOF mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
            let body =
                String::from_utf8(buf[body_start..body_start + content_length].to_vec()).unwrap();
            buf.drain(..body_start + content_length);
            return (status, head, body);
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "EOF before response head");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Block until the peer closes (EOF); panics if data arrives instead or the
/// read times out.
fn expect_eof(stream: &mut TcpStream, within: Duration) {
    stream.set_read_timeout(Some(within)).unwrap();
    let mut chunk = [0u8; 256];
    match stream.read(&mut chunk) {
        Ok(0) => {}
        Ok(n) => panic!("expected EOF, got {n} bytes"),
        Err(e) => panic!("expected EOF, got error {e}"),
    }
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let (server, metrics) = server_with(ServerConfig::default());
    let mut stream = connect(&server);
    for i in 0..5 {
        stream
            .write_all(format!("GET /seq/{i} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes())
            .unwrap();
        let (status, head, body) = read_one_response(&mut stream);
        assert_eq!(status, 200);
        assert!(head.contains("connection: keep-alive"), "{head}");
        assert!(body.contains(&format!("/seq/{i}")), "{body}");
    }
    // Give the event loop a beat to account the final completion.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        value(&metrics, "http_keepalive_reuse_total") >= 4.0,
        "5 requests on one connection = 4 reuses, got {}",
        value(&metrics, "http_keepalive_reuse_total")
    );
    assert_eq!(value(&metrics, "http_connections_accepted_total"), 1.0);
    assert_eq!(value(&metrics, "http_connections_active"), 1.0);
}

#[test]
fn pipelined_requests_in_one_segment_answer_in_order() {
    let (server, _metrics) = server_with(ServerConfig::default());
    let mut stream = connect(&server);
    // Two complete requests in a single write (one TCP segment with nodelay).
    stream
        .write_all(b"GET /first HTTP/1.1\r\nhost: x\r\n\r\nGET /second HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let mut carry = Vec::new();
    let (st1, _, body1) = read_one_of_many(&mut stream, &mut carry);
    let (st2, _, body2) = read_one_of_many(&mut stream, &mut carry);
    assert!(carry.is_empty(), "unexpected trailing bytes: {carry:?}");
    assert_eq!((st1, st2), (200, 200));
    assert!(
        body1.contains("/first"),
        "responses must keep order: {body1}"
    );
    assert!(body2.contains("/second"), "{body2}");
}

#[test]
fn pipelined_request_split_across_segments() {
    let (server, _metrics) = server_with(ServerConfig::default());
    let mut stream = connect(&server);
    // A POST whose head+body straddle three writes, with the follow-up GET's
    // first bytes riding in the same segment as the POST's body tail.
    stream
        .write_all(b"POST /split HTTP/1.1\r\nhost: x\r\ncontent-le")
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    stream.write_all(b"ngth: 10\r\n\r\n12345").unwrap();
    std::thread::sleep(Duration::from_millis(30));
    stream
        .write_all(b"67890GET /tail HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let mut carry = Vec::new();
    let (st1, _, body1) = read_one_of_many(&mut stream, &mut carry);
    assert_eq!(st1, 200);
    assert!(
        body1.contains("/split") && body1.contains("\"body_len\":10"),
        "{body1}"
    );
    let (st2, _, body2) = read_one_of_many(&mut stream, &mut carry);
    assert_eq!(st2, 200);
    assert!(body2.contains("/tail"), "{body2}");
    assert!(carry.is_empty(), "unexpected trailing bytes: {carry:?}");
}

#[test]
fn truncated_body_on_reused_connection_closes_without_response() {
    let (server, metrics) = server_with(ServerConfig {
        request_deadline: Duration::from_millis(200),
        ..Default::default()
    });
    let mut stream = connect(&server);
    // First request completes normally — the connection is now "reused".
    stream
        .write_all(b"GET /warm HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    // Second request declares 50 body bytes but delivers 5, then half-closes.
    stream
        .write_all(b"POST /trunc HTTP/1.1\r\nhost: x\r\ncontent-length: 50\r\n\r\nshort")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    // The server must close the connection without inventing a response.
    expect_eof(&mut stream, Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        metrics
            .get_value(
                "http_requests_total",
                &hpcqc_telemetry::labels(&[("code", "2xx")])
            )
            .unwrap_or(0.0),
        1.0,
        "only the warm-up request may be counted; the truncated one got no response"
    );
}

#[test]
fn slowloris_partial_request_is_closed_by_deadline() {
    let (server, metrics) = server_with(ServerConfig {
        request_deadline: Duration::from_millis(200),
        idle_timeout: Duration::from_secs(30),
        ..Default::default()
    });
    let mut stream = connect(&server);
    // Dribble a request head one fragment at a time, never finishing it.
    stream.write_all(b"GET /slow HTTP/1.1\r\nhost").unwrap();
    let started = Instant::now();
    // The sweeper must cut the connection near the 200 ms deadline.
    expect_eof(&mut stream, Duration::from_secs(5));
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "slowloris connection must be closed promptly, took {elapsed:?}"
    );
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        metrics
            .get_value(
                "http_deadline_closes_total",
                &hpcqc_telemetry::labels(&[("kind", "read")])
            )
            .unwrap_or(0.0)
            >= 1.0,
        "read-deadline close must be counted"
    );
    assert!(value(&metrics, "http_connections_closed_total") >= 1.0);
}

#[test]
fn idle_keep_alive_connection_is_reaped() {
    let (server, metrics) = server_with(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..Default::default()
    });
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /once HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    // Now go idle; the sweeper reaps the connection.
    expect_eof(&mut stream, Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        metrics
            .get_value(
                "http_deadline_closes_total",
                &hpcqc_telemetry::labels(&[("kind", "idle")])
            )
            .unwrap_or(0.0)
            >= 1.0,
        "idle close must be counted"
    );
}

#[test]
fn client_connection_close_is_honored() {
    let (server, _metrics) = server_with(ServerConfig::default());
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /bye HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.contains("connection: close"), "{head}");
    expect_eof(&mut stream, Duration::from_secs(5));
}

#[test]
fn http_1_0_defaults_to_close() {
    let (server, _metrics) = server_with(ServerConfig::default());
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /old HTTP/1.0\r\nhost: x\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.contains("connection: close"), "{head}");
    expect_eof(&mut stream, Duration::from_secs(5));
}

/// Regression companion to the JSON-escaping fix: over the real socket,
/// hostile bytes in the request must still yield a parseable JSON 400 body.
#[test]
fn four_hundred_bodies_are_json_over_the_wire() {
    let (server, _metrics) = server_with(ServerConfig::default());
    for raw in [
        "GET /x \"SPDY\\\"}{\"\r\n\r\n".as_bytes().to_vec(),
        b"NONSENSE\r\n\r\n".to_vec(),
        b"GET /x HTTP/1.1\r\nbad\"header\\line\r\n\r\n".to_vec(),
    ] {
        let mut stream = connect(&server);
        stream.write_all(&raw).unwrap();
        let (status, _, body) = read_one_response(&mut stream);
        assert_eq!(status, 400, "raw={raw:?}");
        let parsed: Result<serde_json::Value, _> = serde_json::from_str(&body);
        assert!(
            parsed.is_ok() && parsed.unwrap().get("error").is_some(),
            "400 body must be JSON with an error field, got {body:?}"
        );
        expect_eof(&mut stream, Duration::from_secs(5));
    }
}

#[test]
fn oversized_head_gets_413_and_close() {
    let (server, _metrics) = server_with(ServerConfig::default());
    let mut stream = connect(&server);
    // Stream an endless header line; the server must answer 413 and close
    // rather than buffer forever.
    let chunk = vec![b'a'; 8192];
    stream.write_all(b"GET /x HTTP/1.1\r\npad: ").unwrap();
    let mut sent = 0usize;
    let result = loop {
        match stream.write(&chunk) {
            Ok(n) => {
                sent += n;
                if sent > (64 << 10) {
                    break Ok(());
                }
            }
            Err(e) => break Err(e),
        }
    };
    // Either the server already reset the stream mid-write, or it accepted
    // ≤ 64 KiB and now answers 413.
    if result.is_ok() {
        let mut buf = Vec::new();
        let mut tmp = [0u8; 4096];
        loop {
            match stream.read(&mut tmp) {
                Ok(0) | Err(_) => break,
                Ok(n) => buf.extend_from_slice(&tmp[..n]),
            }
        }
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("413"), "expected 413, got: {text:?}");
    }
}

#[test]
fn handler_offload_keeps_wire_responsive() {
    // With a worker pool, a slow handler on one connection must not stall
    // another connection's request.
    let handler: Handler = Arc::new(|req: Request| {
        if req.path == "/slow" {
            std::thread::sleep(Duration::from_millis(500));
        }
        Response::json(200, format!(r#"{{"path":{:?}}}"#, req.path))
    });
    let server = HttpServer::spawn_with(
        0,
        handler,
        ServerConfig {
            workers: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    let mut slow = TcpStream::connect(server.addr()).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    slow.write_all(b"GET /slow HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let mut fast = TcpStream::connect(server.addr()).unwrap();
    fast.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    fast.write_all(b"GET /fast HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_one_response(&mut fast);
    let fast_latency = started.elapsed();
    assert_eq!(status, 200);
    assert!(body.contains("/fast"));
    assert!(
        fast_latency < Duration::from_millis(400),
        "fast request must not wait behind the slow handler: {fast_latency:?}"
    );
    let (status, _, _) = read_one_response(&mut slow);
    assert_eq!(status, 200);
}

#[test]
fn rejected_connection_read_error_does_not_poison_others() {
    // Fill a cap-1 table, shed one arrival, drain, and verify service
    // continues — the lifecycle counters must balance.
    let (server, metrics) = server_with(ServerConfig {
        max_connections: 1,
        ..Default::default()
    });
    let mut held = connect(&server);
    held.write_all(b"GET /a HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_one_response(&mut held);
    assert_eq!(status, 200);
    // Table is full (held is keep-alive): next arrival is shed with 503.
    let mut shed = connect(&server);
    let mut buf = [0u8; 1024];
    let n = shed.read(&mut buf).unwrap();
    assert!(
        String::from_utf8_lossy(&buf[..n]).contains("503"),
        "expected load-shed 503"
    );
    drop(shed);
    drop(held);
    // Once the held connection is gone, service resumes.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = TcpStream::connect(server.addr()).unwrap();
        retry
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        retry
            .write_all(b"GET /again HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut out = Vec::new();
        let _ = retry.read_to_end(&mut out);
        if String::from_utf8_lossy(&out).contains("200") {
            break;
        }
        assert!(Instant::now() < deadline, "service never resumed");
        std::thread::sleep(Duration::from_millis(50));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert!(value(&metrics, "http_connections_rejected_total") >= 1.0);
    assert!(
        value(&metrics, "http_connections_accepted_total")
            >= value(&metrics, "http_connections_closed_total")
    );
}

/// `read_one_response` helper sanity: errors loudly rather than hanging on
/// a server that never answers (uses the read timeout set in `connect`).
/// Every per-task route answers an id the daemon has never seen with 404
/// and a JSON error — `/warnings` used to answer `200 {"warnings":[]}`,
/// telling a client that mistyped an id its program linted clean.
#[test]
fn unknown_task_id_is_404_on_every_task_route() {
    let resource = Arc::new(hpcqc_qrmi::LocalEmulatorResource::new(
        "emu",
        Arc::new(hpcqc_emulator::SvBackend::default()),
        1,
    ));
    let svc = hpcqc_middleware::MiddlewareService::new(resource, Default::default());
    let server = hpcqc_middleware::rest::serve_on(Arc::new(svc), 0).unwrap();
    let mut stream = connect(&server);
    for route in ["", "/warnings", "/result"] {
        let raw = format!("GET /v1/tasks/424242{route} HTTP/1.1\r\nhost: t\r\n\r\n");
        stream.write_all(raw.as_bytes()).unwrap();
        let (status, _, body) = read_one_response(&mut stream);
        assert_eq!(status, 404, "route {route:?}: {body}");
        let v: serde_json::Value = serde_json::from_str(&body).expect("json error body");
        assert!(v["error"].as_str().is_some(), "route {route:?}: {body}");
    }
}

#[test]
fn helper_times_out_rather_than_hanging() {
    let (server, _metrics) = server_with(ServerConfig::default());
    let mut stream = connect(&server);
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    // No request sent: reading must fail with a timeout error, not block.
    let mut chunk = [0u8; 16];
    let err = stream.read(&mut chunk).unwrap_err();
    assert!(
        matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "got {err:?}"
    );
}
