//! Minimal HTTP/1.1 protocol layer over `std::net`.
//!
//! The daemon's REST API (paper §3.3) runs on a hand-rolled HTTP stack: no
//! external web framework — the protocol slice needed by the middleware is
//! small and auditable, which matters for a service installed with elevated
//! access on a quantum access node (§3.4).
//!
//! This module owns the *transport protocol*: request/response types, the
//! one request parser ([`extract_request`], which cuts requests out of a
//! connection's input buffer — the event loop calls it after every read and
//! the hostile-input tests call the same function), the one response framer
//! ([`extract_response`], its mirror for the client side), and the blocking
//! keep-alive client ([`HttpClient`]) that reads through it. What a body
//! means is [`crate::protocol`]'s business. The readiness-driven event-loop
//! server lives in [`crate::server`] and is re-exported here as
//! [`HttpServer`].
//!
//! Safety properties (property-tested against arbitrary byte soup):
//! * parsing is total — malformed inputs produce `Err`, never panics;
//! * input is bounded — a peer that sends more than [`MAX_HEAD_BYTES`] of
//!   head, or declares more than [`MAX_BODY_BYTES`] of body, is answered
//!   `413` at the first framing attempt that sees it, so the server never
//!   holds more than the budget plus one readiness event's worth of reads;
//!   a response declaring more than [`MAX_RESPONSE_BODY_BYTES`] is
//!   [`HttpError::TooLarge`] before any of its body is read;
//! * error bodies are always valid JSON — parser error text is escaped
//!   through the JSON serializer, never string-interpolated.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

pub use crate::server::{HttpServer, ServerConfig};

/// Upper bound on accepted request bodies (1 MiB: programs are small).
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Upper bound on a request or response head (start line + headers).
pub const MAX_HEAD_BYTES: usize = 16 << 10;
/// Upper bound on a response body the client accepts. The largest reply
/// the daemon produces is a result: an emulator accepts up to 10^6 shots,
/// so up to 10^6 distinct bitstrings, each a JSON count entry of at most
/// 25 bytes (`"<u64 key>":<count>,`; 12 bytes in a binary frame) — 25 MB
/// in all. The metrics, session and telemetry views are far smaller. 32 MiB
/// takes the largest result with room, and a hostile `content-length` is
/// refused before anything is allocated for it.
pub const MAX_RESPONSE_BODY_BYTES: usize = 32 << 20;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters (no percent-decoding: the API uses plain
    /// tokens and numbers).
    pub query: BTreeMap<String, String>,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    /// Body as UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into().into_bytes(),
        }
    }

    /// A response with an explicit content type and raw byte body — the
    /// binary wire codec and the gateway's opaque forwarding use this.
    pub fn bytes(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Response {
            status,
            content_type,
            body,
        }
    }

    pub fn not_found() -> Self {
        Response::json(404, r#"{"error":"not found"}"#)
    }

    pub(crate) fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            415 => "Unsupported Media Type",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Preformatted status line for the codes the API actually emits. The
    /// submit hot path encodes one response per request; `format!` with five
    /// interpolations was measurable there, a static-slice copy is not.
    fn status_line(&self) -> Option<&'static str> {
        Some(match self.status {
            200 => "HTTP/1.1 200 OK\r\n",
            201 => "HTTP/1.1 201 Created\r\n",
            204 => "HTTP/1.1 204 No Content\r\n",
            400 => "HTTP/1.1 400 Bad Request\r\n",
            401 => "HTTP/1.1 401 Unauthorized\r\n",
            403 => "HTTP/1.1 403 Forbidden\r\n",
            404 => "HTTP/1.1 404 Not Found\r\n",
            408 => "HTTP/1.1 408 Request Timeout\r\n",
            409 => "HTTP/1.1 409 Conflict\r\n",
            413 => "HTTP/1.1 413 Payload Too Large\r\n",
            415 => "HTTP/1.1 415 Unsupported Media Type\r\n",
            422 => "HTTP/1.1 422 Unprocessable Entity\r\n",
            429 => "HTTP/1.1 429 Too Many Requests\r\n",
            500 => "HTTP/1.1 500 Internal Server Error\r\n",
            503 => "HTTP/1.1 503 Service Unavailable\r\n",
            _ => return None,
        })
    }

    /// Append the serialized head + body to `out` without intermediate
    /// allocations: preformatted status lines, static header fragments, and
    /// an integer fast path for `content-length` (no `format!` anywhere on
    /// the common codes). The event-loop server appends straight into the
    /// per-connection write buffer, so back-to-back pipelined responses
    /// coalesce into one buffer — and one `writev` syscall.
    pub fn encode_into(&self, keep_alive: bool, out: &mut Vec<u8>) {
        self.encode_head_into(keep_alive, out);
        out.extend_from_slice(&self.body);
    }

    /// Serialize only the head (status line + headers + blank line). The
    /// event-loop server queues the head and the body as separate `writev`
    /// segments, so the body `Vec` is *moved* onto the wire without a copy.
    pub fn encode_head_into(&self, keep_alive: bool, out: &mut Vec<u8>) {
        out.reserve(128 + self.content_type.len());
        match self.status_line() {
            Some(line) => out.extend_from_slice(line.as_bytes()),
            None => {
                out.extend_from_slice(b"HTTP/1.1 ");
                write_uint(out, self.status as u64);
                out.push(b' ');
                out.extend_from_slice(self.status_text().as_bytes());
                out.extend_from_slice(b"\r\n");
            }
        }
        out.extend_from_slice(b"content-type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        out.extend_from_slice(b"\r\ncontent-length: ");
        write_uint(out, self.body.len() as u64);
        if keep_alive {
            out.extend_from_slice(b"\r\nconnection: keep-alive\r\n\r\n");
        } else {
            out.extend_from_slice(b"\r\nconnection: close\r\n\r\n");
        }
    }

    /// Serialize head + body into one wire buffer.
    ///
    /// `keep_alive` selects the `connection:` header; the server decides it
    /// per-request (client's `connection: close`, server backpressure,
    /// shutdown drain).
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(keep_alive, &mut out);
        out
    }
}

/// Append the decimal digits of `n` (itoa fast path: one stack buffer, no
/// `format!` machinery).
fn write_uint(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Parser/transport errors.
#[derive(Debug, Clone, PartialEq)]
pub enum HttpError {
    Malformed(String),
    TooLarge,
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge => write!(f, "request too large"),
            HttpError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Map a parse failure to the response the server sends before closing.
///
/// The error text goes through the JSON serializer, so quotes, backslashes
/// and control characters in `Malformed` payloads (which embed client input
/// via `{:?}`) cannot break the body out of the JSON string.
pub fn error_response(e: &HttpError) -> Response {
    let status = match e {
        HttpError::TooLarge => 413,
        _ => 400,
    };
    Response::json(
        status,
        serde_json::json!({ "error": e.to_string() }).to_string(),
    )
}

fn io_err(e: std::io::Error) -> HttpError {
    HttpError::Io(e.to_string())
}

/// A parsed request head: the [`Request`] (body empty until
/// [`extract_request`] has cut it) plus the framing facts the transport
/// needs to finish and answer it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedHead {
    /// The request with an empty body.
    pub request: Request,
    /// Declared `content-length` (0 when absent). Not checked against
    /// [`MAX_BODY_BYTES`] here — the caller enforces its own budget.
    pub content_length: usize,
    /// Whether the client permits connection reuse: HTTP/1.1 defaults to
    /// keep-alive unless `connection: close`; HTTP/1.0 defaults to close
    /// unless `connection: keep-alive`.
    pub keep_alive: bool,
}

/// Parse a complete request head (start line + headers + terminating blank
/// line) from raw bytes.
///
/// Total: never panics.
pub fn parse_head_bytes(head: &[u8]) -> Result<ParsedHead, HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = text.split('\n');
    // ---- start line ----
    let start = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?
        .trim_end();
    if start.is_empty() {
        return Err(HttpError::Malformed("empty request".into()));
    }
    let mut parts = start.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(HttpError::Malformed(format!("bad method {method:?}")));
    }
    // ---- headers ----
    let mut headers = BTreeMap::new();
    for line in lines {
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((k, v)) = trimmed.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {trimmed:?}")));
        };
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }
    // ---- framing ----
    let content_length: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
    };
    let connection = headers
        .get("connection")
        .map(|v| v.to_ascii_lowercase())
        .unwrap_or_default();
    let keep_alive = if version == "HTTP/1.0" {
        connection == "keep-alive"
    } else {
        connection != "close"
    };
    // ---- target ----
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let mut query = BTreeMap::new();
    for pair in query_str.split('&').filter(|s| !s.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => query.insert(k.to_string(), v.to_string()),
            None => query.insert(pair.to_string(), String::new()),
        };
    }
    Ok(ParsedHead {
        request: Request {
            method,
            path,
            query,
            headers,
            body: Vec::new(),
        },
        content_length,
        keep_alive,
    })
}

/// Position one past the first `\r\n\r\n` (or bare `\n\n`) head
/// terminator. The scan stops there: a body behind it is never read.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = buf[from..].iter().position(|&b| b == b'\n') {
        let nl = from + i;
        match &buf[nl + 1..] {
            [b'\n', ..] => return Some(nl + 2),
            [b'\r', b'\n', ..] if nl > 0 && buf[nl - 1] == b'\r' => return Some(nl + 3),
            _ => from = nl + 1,
        }
    }
    None
}

/// Cut one complete request off the front of a connection's input buffer.
///
/// The server's one framing decision, total over `buf` (malformed input is
/// an `Err`, never a panic) and independent of how the bytes were segmented
/// on the way in. `pending` is the connection's framing state between
/// calls: a head already cut from `buf` whose body is still arriving.
///
/// * `Ok(Some(head))` — `head.request` is complete (body included); its
///   bytes are gone from `buf`, pipelined bytes behind it are left in place.
/// * `Ok(None)` — more bytes are needed. A body is cut only once all
///   `content-length` bytes are present.
/// * `Err` — the stream position is unrecoverable. [`HttpError::TooLarge`]
///   fires as soon as more than [`MAX_HEAD_BYTES`] are buffered without a
///   head terminator, or a head declares more than [`MAX_BODY_BYTES`].
pub fn extract_request(
    buf: &mut Vec<u8>,
    pending: &mut Option<ParsedHead>,
) -> Result<Option<ParsedHead>, HttpError> {
    if pending.is_none() && !buf.is_empty() {
        match find_head_end(buf) {
            Some(end) if end > MAX_HEAD_BYTES => return Err(HttpError::TooLarge),
            Some(end) => {
                let head = parse_head_bytes(&buf[..end])?;
                if head.content_length > MAX_BODY_BYTES {
                    return Err(HttpError::TooLarge);
                }
                buf.drain(..end);
                *pending = Some(head);
            }
            None if buf.len() > MAX_HEAD_BYTES => return Err(HttpError::TooLarge),
            None => {}
        }
    }
    let Some(mut head) = pending.take_if(|h| buf.len() >= h.content_length) else {
        return Ok(None);
    };
    head.request.body = buf.drain(..head.content_length).collect();
    Ok(Some(head))
}

/// The request handler type.
pub type Handler = std::sync::Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// A response framed by [`extract_response`]: views into the buffer,
/// nothing copied.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseHead<'a> {
    pub status: u16,
    /// The `content-type` value (empty when absent).
    pub content_type: &'a str,
    /// Bytes of the head, terminator included: the body starts here.
    pub head_len: usize,
    /// The declared `content-length` (0 when absent).
    pub body_len: usize,
    /// Whether the server announced `connection: close`.
    pub close: bool,
}

impl ResponseHead<'_> {
    /// One past the response's last byte: what to drain once it is used.
    pub fn end(&self) -> usize {
        self.head_len + self.body_len
    }
}

/// Frame one complete response at the front of a client's input buffer.
///
/// The client-side mirror of [`extract_request`], and as total: malformed
/// input is an `Err`, never a panic. It copies and allocates nothing and
/// leaves `buf` alone; the caller reads the response through the returned
/// head and drains [`ResponseHead::end`] bytes.
///
/// * `Ok(Some(head))` — the head and all `content-length` bytes of body are
///   in `buf`; pipelined bytes may follow.
/// * `Ok(None)` — more bytes are needed.
/// * `Err` — [`HttpError::TooLarge`] once more than [`MAX_HEAD_BYTES`] are
///   buffered without a head terminator, or as soon as a head declares more
///   than [`MAX_RESPONSE_BODY_BYTES`]; [`HttpError::Malformed`] for a bad
///   status line, header line or `content-length`.
pub fn extract_response(buf: &[u8]) -> Result<Option<ResponseHead<'_>>, HttpError> {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| HttpError::Malformed("response head is not UTF-8".into()))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1)?.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line {status_line:?}")))?;
    let mut framed = ResponseHead {
        status,
        content_type: "",
        head_len,
        body_len: 0,
        close: false,
    };
    for line in lines.take_while(|l| !l.trim().is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let digits = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
            framed.body_len = match value.parse() {
                Ok(n) if n <= MAX_RESPONSE_BODY_BYTES => n,
                // all digits, so too long to parse or past the cap
                _ if digits => return Err(HttpError::TooLarge),
                _ => return Err(HttpError::Malformed("bad content-length".into())),
            };
        } else if name.eq_ignore_ascii_case("content-type") {
            framed.content_type = value;
        } else if name.eq_ignore_ascii_case("connection") {
            framed.close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok((buf.len() >= framed.end()).then_some(framed))
}

/// One response as read off the wire, body untouched. `close` reports
/// whether the server announced `connection: close`.
#[derive(Debug, Clone, PartialEq)]
pub struct RawResponse {
    pub status: u16,
    /// The server's `content-type` header (empty when absent). Carried so
    /// the gateway can forward proxied bodies — JSON or binary — opaquely.
    pub content_type: String,
    pub body: Vec<u8>,
    pub close: bool,
}

/// The client's one connection and the bytes read from it not yet framed.
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Where each read lands before it joins `buf`: allocated (and zeroed)
    /// once per connection, not once per response.
    chunk: Box<[u8]>,
}

impl Connection {
    fn new(stream: TcpStream) -> Self {
        Connection {
            stream,
            buf: Vec::new(),
            chunk: vec![0; 16 << 10].into_boxed_slice(),
        }
    }

    /// Read until a response frames, and take it out of the buffer.
    fn read_response(&mut self) -> Result<RawResponse, HttpError> {
        loop {
            if let Some(head) = extract_response(&self.buf)? {
                let end = head.end();
                let raw = RawResponse {
                    status: head.status,
                    content_type: head.content_type.to_string(),
                    body: self.buf[head.head_len..end].to_vec(),
                    close: head.close,
                };
                self.buf.drain(..end);
                return Ok(raw);
            }
            match self.stream.read(&mut self.chunk).map_err(io_err)? {
                0 => return Err(HttpError::Io("connection closed before response".into())),
                n => self.buf.extend_from_slice(&self.chunk[..n]),
            }
        }
    }
}

fn serialize_request_head(
    method: &str,
    path: &str,
    content_type: &str,
    accept: Option<&str>,
    body_len: usize,
) -> String {
    let accept = match accept {
        Some(a) => format!("accept: {a}\r\n"),
        None => String::new(),
    };
    format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: {content_type}\r\n{accept}content-length: {body_len}\r\nconnection: keep-alive\r\n\r\n"
    )
}

/// Blocking keep-alive HTTP client.
///
/// Holds one TCP connection to the daemon and reuses it across requests
/// (HTTP/1.1 persistent connections); reconnects transparently when the
/// server closes it, retrying the request once if the failure happened on a
/// reused connection (the server may have idle-closed it between requests —
/// a race inherent to HTTP keep-alive, and safe to retry here because the
/// REST API's submit path is idempotent by design). Responses are framed by
/// [`extract_response`].
///
/// Thread-safe: concurrent requests serialize on the single connection.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    /// Bounds each connect and each read.
    timeout: Duration,
    conn: Mutex<Option<Connection>>,
}

impl Clone for HttpClient {
    /// Clones share the address but open their own connection lazily.
    fn clone(&self) -> Self {
        HttpClient::with_timeout(self.addr.clone(), self.timeout)
    }
}

impl HttpClient {
    pub fn new(addr: impl Into<String>) -> Self {
        Self::with_timeout(addr, Duration::from_secs(30))
    }

    pub(crate) fn with_timeout(addr: impl Into<String>, timeout: Duration) -> Self {
        HttpClient {
            addr: addr.into(),
            timeout,
            conn: Mutex::new(None),
        }
    }

    /// Connect to the first of the address's resolutions that answers.
    fn connect(&self) -> std::io::Result<TcpStream> {
        let mut last = std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address");
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Issue one JSON request, reusing the pooled connection when possible.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), HttpError> {
        let raw = self.request_bytes_accept(
            method,
            path,
            "application/json",
            None,
            body.map(str::as_bytes),
        )?;
        String::from_utf8(raw.body)
            .map(|b| (raw.status, b))
            .map_err(|_| HttpError::Malformed("response body not UTF-8".into()))
    }

    /// Issue one request with an explicit content type, an optional
    /// `Accept` header and a raw byte body; the response body comes back
    /// untouched. The SDK's codec-aware calls and the gateway's opaque
    /// forwarding are built on this.
    pub fn request_bytes_accept(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        accept: Option<&str>,
        body: Option<&[u8]>,
    ) -> Result<RawResponse, HttpError> {
        let mut guard = self.conn.lock().unwrap_or_else(|p| p.into_inner());
        let body = body.unwrap_or(b"");
        for attempt in 0..2 {
            let reused = guard.is_some();
            if guard.is_none() {
                let stream = self.connect().map_err(io_err)?;
                stream
                    .set_read_timeout(Some(self.timeout))
                    .map_err(io_err)?;
                let _ = stream.set_nodelay(true);
                *guard = Some(Connection::new(stream));
            }
            let conn = guard.as_mut().expect("connection just ensured");
            // head and body go out as one buffer: one write syscall/request
            let mut req =
                serialize_request_head(method, path, content_type, accept, body.len()).into_bytes();
            req.extend_from_slice(body);
            let result = conn
                .stream
                .write_all(&req)
                .map_err(io_err)
                .and_then(|()| conn.read_response());
            match result {
                Ok(raw) => {
                    if raw.close {
                        *guard = None;
                    }
                    return Ok(raw);
                }
                Err(e) => {
                    // A stale pooled connection fails on first use; retry
                    // once on a fresh one. First-use failures are real.
                    *guard = None;
                    if !reused || attempt == 1 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("request loop returns within two attempts")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::Arc;

    /// What a connection that received `segments` in that order ends up
    /// with, driving [`extract_request`] after every arrival the way the
    /// event loop does.
    #[derive(Debug, PartialEq)]
    struct Fed {
        /// The first framing outcome that was not "need more bytes".
        outcome: Result<Option<Request>, HttpError>,
        /// Bytes still buffered once every segment has arrived.
        rest: Vec<u8>,
        /// A head cut from the buffer whose body never completed.
        pending: Option<ParsedHead>,
    }

    /// Returns the [`Fed`] state and the longest buffer the parser was shown
    /// before it gave its outcome.
    fn feed<'a>(segments: impl IntoIterator<Item = &'a [u8]>) -> (Fed, usize) {
        let (mut buf, mut pending, mut peak) = (Vec::new(), None, 0);
        let mut outcome = Ok(None);
        for seg in segments {
            buf.extend_from_slice(seg);
            if outcome == Ok(None) {
                peak = peak.max(buf.len());
                outcome = extract_request(&mut buf, &mut pending).map(|h| h.map(|h| h.request));
            }
        }
        let fed = Fed {
            outcome,
            rest: buf,
            pending,
        };
        (fed, peak)
    }

    /// Feed `s` whole and split at every byte boundary — the event loop sees
    /// arbitrary segmentation — and require the same end state each time.
    fn feed_every_way(s: &str) -> Fed {
        let bytes = s.as_bytes();
        let (whole, _) = feed([bytes]);
        for cut in 0..=bytes.len() {
            let (split, _) = feed([&bytes[..cut], &bytes[cut..]]);
            assert_eq!(split, whole, "split at byte {cut} of {s:?}");
        }
        whole
    }

    fn parse(s: &str) -> Result<Option<Request>, HttpError> {
        feed_every_way(s).outcome
    }

    fn complete(s: &str) -> Request {
        parse(s).unwrap().expect("a complete request")
    }

    #[test]
    fn find_head_end_variants() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nrest"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn parses_get_with_query() {
        let r = complete("GET /v1/tasks/7?token=abc&verbose HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/tasks/7");
        assert_eq!(r.query["token"], "abc");
        assert_eq!(r.query["verbose"], "");
        assert_eq!(r.headers["host"], "x");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r =
            complete("POST /v1/sessions HTTP/1.1\r\nContent-Length: 15\r\n\r\n{\"user\":\"ada\"}x");
        assert_eq!(r.method, "POST");
        assert_eq!(r.body.len(), 15);
        assert_eq!(r.body_str().unwrap(), "{\"user\":\"ada\"}x");
    }

    #[test]
    fn leaves_pipelined_bytes_in_the_buffer() {
        let second = "GET /second HTTP/1.1\r\n\r\n";
        let fed = feed_every_way(&format!(
            "POST /first HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi{second}"
        ));
        let first = fed.outcome.unwrap().expect("first request");
        assert_eq!(
            (first.path.as_str(), first.body.as_slice()),
            ("/first", &b"hi"[..])
        );
        assert_eq!(fed.rest, second.as_bytes());
        assert_eq!(complete(second).path, "/second");
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert_eq!(parse(""), Ok(None), "nothing to frame yet");
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET /x\r\n\r\n").is_err(), "missing version");
        assert!(parse("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(
            parse("get /x HTTP/1.1\r\n\r\n").is_err(),
            "lowercase method"
        );
        assert!(parse("GET /x HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        assert!(parse("POST /x HTTP/1.1\r\nContent-Length: peanut\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let r = parse(&format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        ));
        assert_eq!(r, Err(HttpError::TooLarge));
    }

    /// A body is cut only when all `content-length` bytes are present: a
    /// short one stays buffered behind its parsed head (the event loop
    /// closes such a connection on EOF or at the request deadline).
    #[test]
    fn rejects_truncated_body() {
        let fed = feed_every_way("POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort");
        assert_eq!(fed.outcome, Ok(None));
        assert_eq!(fed.rest, b"short");
        assert_eq!(fed.pending.expect("head parsed").content_length, 50);
    }

    /// Regression: a 10 MB headerless line used to be buffered whole before
    /// the size check ran. The parser must give up at the first attempt
    /// that sees more than the head budget, however the bytes arrive.
    #[test]
    fn oversized_request_line_is_bounded_not_buffered() {
        const SEGMENT: usize = 4 << 10;
        let soup = vec![b'A'; 10 << 20]; // 10 MB, no newline anywhere
        let (fed, peak) = feed(soup.chunks(SEGMENT));
        assert_eq!(fed.outcome, Err(HttpError::TooLarge));
        assert!(
            peak > MAX_HEAD_BYTES && peak <= MAX_HEAD_BYTES + SEGMENT,
            "gave up with {peak} bytes buffered"
        );
        // Same for an endless header line after a valid request line.
        let mut buf = b"GET /x HTTP/1.1\r\n".to_vec();
        buf.extend(std::iter::repeat_n(b'h', 10 << 20));
        let (fed, peak) = feed(buf.chunks(SEGMENT));
        assert_eq!(fed.outcome, Err(HttpError::TooLarge));
        assert!(peak <= MAX_HEAD_BYTES + SEGMENT, "{peak} bytes buffered");
        // Arriving one byte at a time, the line is crossed exactly.
        let near = std::iter::once(&soup[..MAX_HEAD_BYTES - 8]);
        let (fed, peak) = feed(near.chain(soup[..16].chunks(1)));
        assert_eq!(fed.outcome, Err(HttpError::TooLarge));
        assert_eq!(peak, MAX_HEAD_BYTES + 1);
    }

    #[test]
    fn head_exactly_at_budget_is_accepted() {
        // A request whose head is close to (but under) MAX_HEAD_BYTES parses.
        let filler = "x".repeat(MAX_HEAD_BYTES - 100);
        let under = format!("GET /x HTTP/1.1\r\npad: {filler}\r\n\r\n");
        for segment in [under.len(), 4 << 10, 1000] {
            let (fed, _) = feed(under.as_bytes().chunks(segment));
            assert!(
                matches!(fed.outcome, Ok(Some(_))),
                "under-budget head must parse: {:?}",
                fed.outcome
            );
        }
        let filler = "x".repeat(MAX_HEAD_BYTES);
        let over = format!("GET /x HTTP/1.1\r\npad: {filler}\r\n\r\n");
        for segment in [over.len(), 4 << 10, 1000] {
            let (fed, _) = feed(over.as_bytes().chunks(segment));
            assert_eq!(fed.outcome, Err(HttpError::TooLarge));
        }
    }

    #[test]
    fn parse_head_bytes_reports_framing() {
        let h = parse_head_bytes(b"POST /v1/tasks HTTP/1.1\r\ncontent-length: 10\r\n\r\n").unwrap();
        assert_eq!(h.request.method, "POST");
        assert_eq!(h.content_length, 10);
        assert!(h.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let h = parse_head_bytes(b"GET /x HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(!h.keep_alive);
        let h = parse_head_bytes(b"GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(!h.keep_alive, "HTTP/1.0 defaults to close");
        let h = parse_head_bytes(b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(h.keep_alive);
        assert!(parse_head_bytes(&[0xff, 0xfe, b'\n', b'\n']).is_err());
    }

    /// One response as a client sees it: status, content type, body, close.
    type Framed = (u16, String, Vec<u8>, bool);

    /// Every response `segments` frame into, framing after each arrival
    /// the way [`HttpClient`] does after each read and draining what was
    /// framed; then the error that stopped the framing, if any, and the
    /// bytes left over once every segment has arrived.
    fn frame_responses<'a>(
        segments: impl IntoIterator<Item = &'a [u8]>,
    ) -> (Vec<Framed>, Option<HttpError>, Vec<u8>) {
        let (mut buf, mut framed, mut err) = (Vec::new(), Vec::new(), None);
        for seg in segments {
            buf.extend_from_slice(seg);
            while err.is_none() {
                match extract_response(&buf) {
                    Ok(Some(h)) => {
                        let end = h.end();
                        let body = buf[h.head_len..end].to_vec();
                        framed.push((h.status, h.content_type.to_string(), body, h.close));
                        buf.drain(..end);
                    }
                    Ok(None) => break,
                    Err(e) => err = Some(e),
                }
            }
        }
        (framed, err, buf)
    }

    /// [`frame_responses`] of `bytes` whole and split at every byte
    /// boundary, required to agree.
    fn frame_every_way(bytes: &[u8]) -> (Vec<Framed>, Option<HttpError>, Vec<u8>) {
        let whole = frame_responses([bytes]);
        for cut in 0..=bytes.len() {
            let split = frame_responses([&bytes[..cut], &bytes[cut..]]);
            assert_eq!(split, whole, "split at byte {cut}");
        }
        whole
    }

    #[test]
    fn frames_a_response_and_leaves_what_follows() {
        let (framed, err, rest) = frame_every_way(
            b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\n\
              content-length: 13\r\nconnection: keep-alive\r\n\r\n{\"task_id\":3}HTTP/1.1",
        );
        assert_eq!(
            framed,
            [(
                201,
                "application/json".into(),
                b"{\"task_id\":3}".to_vec(),
                false
            )]
        );
        assert_eq!((err, rest.as_slice()), (None, &b"HTTP/1.1"[..]));
    }

    #[test]
    fn frames_two_pipelined_responses_in_one_buffer() {
        let mut two = Response::bytes(200, "application/x-hpcqc-bin", b"HQ\x00\r\n\r\n".to_vec())
            .encode(true);
        Response::json(404, r#"{"error":"not found"}"#).encode_into(false, &mut two);
        let (framed, err, rest) = frame_every_way(&two);
        assert_eq!(
            framed,
            [
                (
                    200,
                    "application/x-hpcqc-bin".into(),
                    b"HQ\x00\r\n\r\n".to_vec(),
                    false
                ),
                (
                    404,
                    "application/json".into(),
                    br#"{"error":"not found"}"#.to_vec(),
                    true
                ),
            ]
        );
        assert_eq!((err, rest), (None, Vec::new()));
    }

    /// A body is framed only once all `content-length` bytes are present;
    /// a response without the header has an empty body.
    #[test]
    fn truncated_body_is_not_framed() {
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 50\r\n\r\nshort";
        assert_eq!(extract_response(short), Ok(None));
        let (framed, err, rest) = frame_every_way(short);
        assert_eq!((framed, err, rest.as_slice()), (vec![], None, &short[..]));
        let bare = b"HTTP/1.0 204 No Content\n\n";
        let (framed, _, _) = frame_every_way(bare);
        assert_eq!(framed, [(204, String::new(), Vec::new(), false)]);
    }

    #[test]
    fn head_past_the_budget_is_too_large() {
        let endless = vec![b'H'; MAX_HEAD_BYTES + 1];
        assert_eq!(extract_response(&endless), Err(HttpError::TooLarge));
        assert_eq!(extract_response(&endless[..MAX_HEAD_BYTES]), Ok(None));
        let pad = "x".repeat(MAX_HEAD_BYTES);
        let long = format!("HTTP/1.1 200 OK\r\npad: {pad}\r\n\r\n");
        let (framed, err, _) = frame_every_way(long.as_bytes());
        assert_eq!((framed, err), (vec![], Some(HttpError::TooLarge)));
    }

    /// A declared length past the cap is refused at the head, before any
    /// body arrives: no allocation is sized from the peer's number.
    #[test]
    fn hostile_content_length_is_too_large() {
        for len in [
            "18446744073709551615".to_string(),
            "99999999999999999999999".to_string(),
            (MAX_RESPONSE_BODY_BYTES + 1).to_string(),
        ] {
            let head = format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\n");
            let (framed, err, _) = frame_every_way(head.as_bytes());
            assert_eq!((framed, err), (vec![], Some(HttpError::TooLarge)), "{len}");
        }
        let at_cap =
            format!("HTTP/1.1 200 OK\r\ncontent-length: {MAX_RESPONSE_BODY_BYTES}\r\n\r\n");
        assert_eq!(
            extract_response(at_cap.as_bytes()),
            Ok(None),
            "waits for the body"
        );
    }

    #[test]
    fn malformed_responses_are_errors() {
        for bad in [
            &b"HTTP/1.1 abc OK\r\n\r\n"[..],
            b"SPDY/3 200 OK\r\n\r\n",
            b"\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: -1\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 1 2\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length:\r\n\r\n",
        ] {
            assert!(
                matches!(extract_response(bad), Err(HttpError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    /// Regression: the client sized its body buffer from the peer's
    /// `content-length` before reading a byte of body, so this header
    /// panicked it with a capacity overflow (and any large value was
    /// allocated up front). The SDK and the gateway's upstream calls read
    /// through this client.
    #[test]
    fn client_refuses_a_hostile_content_length_from_a_raw_server() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stub = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut req = Vec::new();
            let mut byte = [0u8; 1];
            while !req.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap() == 1 {
                req.push(byte[0]);
            }
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\n")
                .unwrap();
        });
        let got = HttpClient::new(addr).request("GET", "/v1/tasks/1", None);
        assert_eq!(got, Err(HttpError::TooLarge));
        stub.join().unwrap();
    }

    /// Regression: parse-error text used to be interpolated into the JSON
    /// body unescaped, so a quote in the client's input broke the body out
    /// of the JSON string.
    #[test]
    fn error_bodies_are_valid_json_for_hostile_input() {
        let hostile = [
            parse("GET /x \"quoted\"\r\n\r\n").unwrap_err(),
            parse("GET /x HTTP/9\\\"}{\r\n\r\n").unwrap_err(),
            parse("GET /x HTTP/1.1\r\nbad\"header\\line\r\n\r\n").unwrap_err(),
            HttpError::Malformed("quote \" backslash \\ control \x07 end".into()),
            HttpError::TooLarge,
            HttpError::Io("disk \"full\"".into()),
        ];
        for err in hostile {
            let resp = error_response(&err);
            let body = std::str::from_utf8(&resp.body).unwrap();
            let parsed: serde_json::Value = serde_json::from_str(body)
                .unwrap_or_else(|e| panic!("error body must be JSON, got {body:?}: {e}"));
            assert!(parsed.get("error").is_some(), "body: {body}");
        }
    }

    #[test]
    fn status_text_covers_backpressure_codes() {
        assert_eq!(
            Response::json(503, "{}").status_text(),
            "Service Unavailable"
        );
        assert_eq!(Response::json(429, "{}").status_text(), "Too Many Requests");
        assert_eq!(Response::json(408, "{}").status_text(), "Request Timeout");
        let wire = Response::json(503, "{}").encode(false);
        let text = String::from_utf8(wire).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "got: {text}"
        );
        assert!(text.contains("connection: close\r\n"));
    }

    #[test]
    fn encode_sets_connection_header() {
        let ka = String::from_utf8(Response::json(200, "{}").encode(true)).unwrap();
        assert!(ka.contains("connection: keep-alive\r\n"));
        assert!(ka.ends_with("\r\n\r\n{}"));
        let cl = String::from_utf8(Response::json(200, "{}").encode(false)).unwrap();
        assert!(cl.contains("connection: close\r\n"));
    }

    #[test]
    fn server_round_trip_over_real_socket() {
        let server = HttpServer::spawn(Arc::new(|req: Request| {
            if req.path == "/ping" {
                Response::json(200, r#"{"pong":true}"#)
            } else {
                Response::not_found()
            }
        }))
        .unwrap();
        let (status, body) = HttpClient::new(server.addr())
            .request("GET", "/ping", None)
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"pong":true}"#);
        let (status, _) = HttpClient::new(server.addr())
            .request("GET", "/nope", None)
            .unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn server_echoes_posted_body() {
        let server = HttpServer::spawn(Arc::new(|req: Request| {
            Response::json(200, req.body_str().unwrap_or("").to_string())
        }))
        .unwrap();
        let (status, body) = HttpClient::new(server.addr())
            .request("POST", "/echo", Some(r#"{"k":42}"#))
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"k":42}"#);
    }

    #[test]
    fn server_handles_concurrent_clients() {
        let server = HttpServer::spawn(Arc::new(|_req: Request| {
            Response::json(200, r#"{"ok":true}"#)
        }))
        .unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        let (status, _) = HttpClient::new(&addr).request("GET", "/", None).unwrap();
                        assert_eq!(status, 200);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn malformed_request_gets_400_over_socket() {
        let server =
            HttpServer::spawn(Arc::new(|_req: Request| Response::json(200, "{}"))).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        BufReader::new(stream).read_line(&mut buf).unwrap();
        assert!(buf.contains("400"), "got: {buf}");
    }

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        // Connection-level reuse is asserted via server telemetry in the
        // conformance suite; here assert the client-visible behavior.
        let server = HttpServer::spawn(Arc::new(|_req: Request| {
            Response::json(200, r#"{"ok":true}"#)
        }))
        .unwrap();
        let client = HttpClient::new(server.addr());
        for _ in 0..10 {
            let (status, body) = client.request("GET", "/ping", None).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, r#"{"ok":true}"#);
        }
    }

    #[test]
    fn keep_alive_client_survives_server_restart() {
        let handler: Handler = Arc::new(|_req: Request| Response::json(200, "{}"));
        let server = HttpServer::spawn(handler.clone()).unwrap();
        let port = server.port();
        let client = HttpClient::new(server.addr());
        assert_eq!(client.request("GET", "/", None).unwrap().0, 200);
        drop(server);
        // Pooled connection is now dead; a fresh server on the same port
        // must be reachable through the same client (reconnect-and-retry).
        let _server = HttpServer::spawn_on(port, handler).unwrap();
        assert_eq!(client.request("GET", "/", None).unwrap().0, 200);
    }
}
