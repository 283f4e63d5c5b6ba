//! Readiness-driven HTTP server: one event thread, a poller, and a small
//! handler pool.
//!
//! Replaces the thread-per-connection front end: a quantum access node
//! serves many interactive SDK sessions (paper §3.3), and a thread per
//! connection melts under thousands of keep-alive clients. Instead one
//! event thread multiplexes every connection through an epoll-backed
//! [`mio::Poll`]:
//!
//! * **non-blocking accept** with a bounded connection table — at the cap
//!   the next arrival is answered `503` and the listener leaves the poll
//!   set (accept pause) until the table drains below a low watermark;
//! * **incremental per-connection parsing** — bytes accumulate in a
//!   per-connection buffer and requests are cut out as they complete
//!   ([`crate::http::extract_request`] owns every framing decision; the
//!   event loop only moves bytes and tracks deadlines), so HTTP/1.1
//!   keep-alive and pipelined requests work; one request is in
//!   flight per connection, further pipelined bytes wait in the buffer
//!   (bounded — read interest is dropped past a cap, pushing backpressure
//!   into TCP);
//! * **buffered writes** — partial writes park the remainder and re-arm
//!   write interest;
//! * **deadlines** — a sweeper closes connections that dribble a request
//!   slower than `request_deadline` (slowloris defense) or idle past
//!   `idle_timeout` between requests;
//! * **handler offload** — requests run on a small worker pool so a slow
//!   handler cannot stall the wire. Jobs go out and completions come back
//!   over `std::sync::mpsc` channels; a worker rings the shard's
//!   [`mio::Waker`] after each send and the event loop drains the channel
//!   without blocking. With `workers = 0` (the default on a single-core
//!   node) handlers run inline on the event thread;
//! * **wakeup shutdown** — `Drop` stops the loop through the waker, not
//!   the old connect-to-self trick that raced the accept loop;
//! * **segmented `writev` output** — each connection queues response
//!   segments (head, then the body `Vec` moved without a copy) and flushes
//!   them with one vectored write, so a keep-alive burst of pipelined
//!   responses costs one syscall, not one per response;
//! * **`SO_REUSEPORT` shards** — with [`ServerConfig::shards`] > 1 the
//!   server binds N listeners to the same port and runs N independent
//!   event loops; the kernel hash-balances connections across them, so
//!   there is no shared accept queue, connection table, or poller between
//!   shards. On a single core this is ~1×; with a second core the extra
//!   loop takes the overloaded `rest_perf` rungs from hundreds of
//!   milliseconds of queueing to single digits (EXPERIMENTS.md RP-2), so
//!   multi-core access nodes scale the ingest path without a dispatcher
//!   thread.

use crate::http::{
    error_response, extract_request, Handler, HttpError, ParsedHead, Request, Response,
};
use hpcqc_telemetry::{catalog, labels, Labels, Registry};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LISTENER: Token = Token(usize::MAX);
const WAKER: Token = Token(usize::MAX - 1);
/// Pipelined input buffered per connection while a request is in flight
/// before read interest is paused (backpressure flows into TCP).
const PIPELINE_BUF_CAP: usize = 64 << 10;
/// Bytes read per connection per readiness event (fairness under load;
/// level-triggered polling re-arms leftovers immediately).
const READ_BUDGET: usize = 64 << 10;

/// Tuning knobs for [`HttpServer`]. `Default` suits tests and the daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-table hard cap; the arrival that finds the table full is
    /// answered `503` and accepting pauses.
    pub max_connections: usize,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// A connection that has started a request must deliver all of it
    /// within this window or be closed (slowloris defense).
    pub request_deadline: Duration,
    /// Handler threads *per shard*. `None` = spare cores (cores − 1,
    /// capped at 4); `Some(0)` = run handlers inline on the event thread.
    pub workers: Option<usize>,
    /// `SO_REUSEPORT` event-loop shards sharing the port. 0 or 1 = one
    /// event loop (the classic layout). Values > 1 require kernel
    /// `SO_REUSEPORT` (Linux); elsewhere the server degrades to 1 shard.
    pub shards: usize,
    /// Transport telemetry sink (connection lifecycle, backpressure,
    /// deadline closes). Shards share the sink; counters aggregate.
    pub metrics: Option<Registry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 4096,
            idle_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(10),
            workers: None,
            shards: 1,
            metrics: None,
        }
    }
}

impl ServerConfig {
    fn worker_count(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .saturating_sub(1)
                .min(4)
        })
    }

    fn shard_count(&self) -> usize {
        match self.shards {
            0 | 1 => 1,
            n if mio::net::reuseport_supported() => n.min(64),
            _ => 1, // no SO_REUSEPORT on this platform: single accept queue
        }
    }
}

/// A request handed to the worker pool: connection slot, generation (stale
/// completions for a recycled slot are dropped), and the parsed request.
type Job = (usize, u64, Request);
type Completion = (usize, u64, Response);

/// A running HTTP server bound to 127.0.0.1 — one event loop per shard.
pub struct HttpServer {
    port: u16,
    shards: usize,
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    event_threads: Vec<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind an ephemeral localhost port and serve `handler` until dropped.
    pub fn spawn(handler: Handler) -> std::io::Result<Self> {
        Self::spawn_on(0, handler)
    }

    /// Bind a specific localhost port (0 = ephemeral) and serve `handler`
    /// until dropped.
    pub fn spawn_on(port: u16, handler: Handler) -> std::io::Result<Self> {
        Self::spawn_with(port, handler, ServerConfig::default())
    }

    /// [`spawn_on`](Self::spawn_on) with explicit tuning.
    pub fn spawn_with(port: u16, handler: Handler, cfg: ServerConfig) -> std::io::Result<Self> {
        let shard_count = cfg.shard_count();
        // First listener resolves the port (0 = ephemeral); the rest bind
        // the resolved port with SO_REUSEPORT so the kernel splits the
        // accept load across shards.
        let first = if shard_count == 1 {
            TcpListener::bind(("127.0.0.1", port))?
        } else {
            mio::net::bind_reuseport(port)?
        };
        let port = first.local_addr()?.port();
        let mut listeners = vec![first];
        for _ in 1..shard_count {
            listeners.push(mio::net::bind_reuseport(port)?);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let mut wakers = Vec::with_capacity(shard_count);
        let mut event_threads = Vec::with_capacity(shard_count);
        let mut worker_threads = Vec::new();
        let worker_count = cfg.worker_count();

        for (shard, listener) in listeners.into_iter().enumerate() {
            listener.set_nonblocking(true)?;
            let poll = Poll::new()?;
            poll.registry()
                .register(&listener, LISTENER, Interest::READABLE)?;
            let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
            wakers.push(waker.clone());
            let (done_tx, completions) = std::sync::mpsc::channel::<Completion>();

            let handler = handler.clone();
            let jobs_tx = if worker_count == 0 {
                None
            } else {
                let (tx, rx) = std::sync::mpsc::channel::<Job>();
                let rx = Arc::new(Mutex::new(rx));
                for i in 0..worker_count {
                    let rx = rx.clone();
                    let handler = handler.clone();
                    let done_tx = done_tx.clone();
                    let waker = waker.clone();
                    worker_threads.push(
                        std::thread::Builder::new()
                            .name(format!("http-worker-{shard}-{i}"))
                            .spawn(move || worker_loop(&rx, &handler, &done_tx, &waker))
                            .expect("spawn http worker"),
                    );
                }
                Some(tx)
            };

            let stop2 = stop.clone();
            let metrics = cfg.metrics.clone();
            event_threads.push(
                std::thread::Builder::new()
                    .name(format!("http-event-loop-{shard}"))
                    .spawn(move || {
                        EventLoop {
                            poll,
                            listener,
                            handler,
                            max_connections: cfg.max_connections,
                            idle_timeout: cfg.idle_timeout,
                            request_deadline: cfg.request_deadline,
                            metrics,
                            conns: Vec::new(),
                            free: Vec::new(),
                            free_pending: Vec::new(),
                            active: 0,
                            accept_paused: false,
                            next_gen: 0,
                            jobs_tx,
                            completions,
                            stop: stop2,
                            scratch: vec![0u8; 16 << 10],
                        }
                        .run();
                    })
                    .expect("spawn http event loop"),
            );
        }

        Ok(HttpServer {
            port,
            shards: shard_count,
            stop,
            wakers,
            event_threads,
            worker_threads,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// How many event-loop shards are actually running (the configured
    /// count, clamped by platform support).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Base URL, e.g. `127.0.0.1:45123`.
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake every shard's poller through its waker eventfd — unlike the
        // old connect-to-self trick this cannot race the accept loop or
        // hang when a table is full and accepting is paused.
        for w in &self.wakers {
            let _ = w.wake();
        }
        for t in self.event_threads.drain(..) {
            let _ = t.join();
        }
        // Each event loop dropped its job sender on exit; workers finish
        // their in-flight handler and see the closed channel.
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    handler: &Handler,
    done: &Sender<Completion>,
    waker: &Waker,
) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv()
        };
        let Ok((idx, gen, req)) = job else { break };
        let resp = run_handler(handler, req);
        if done.send((idx, gen, resp)).is_err() {
            break; // the event loop has exited
        }
        let _ = waker.wake();
    }
}

/// A handler panic answers 500 and kills neither the worker nor the
/// connection's peer silently.
fn run_handler(handler: &Handler, req: Request) -> Response {
    catch_unwind(AssertUnwindSafe(|| handler(req)))
        .unwrap_or_else(|_| Response::json(500, r#"{"error":"handler panicked"}"#))
}

/// Per-connection state in the slab.
struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Accumulated unparsed input.
    rbuf: Vec<u8>,
    /// Pending output as a queue of segments flushed with `writev`: a
    /// response contributes its head and — without copying — its body
    /// `Vec`; pipelined responses stack further segments. `wpos` offsets
    /// into the front segment, `wlen` caches total unwritten bytes.
    wq: VecDeque<Vec<u8>>,
    wpos: usize,
    wlen: usize,
    /// Parsed head of the request currently being assembled (body pending).
    head: Option<ParsedHead>,
    /// A request from this connection is with a handler.
    busy: bool,
    /// Whether the in-flight request permits keep-alive.
    req_keep_alive: bool,
    close_after_write: bool,
    /// No further reads: the peer closed (EOF) or the server gave up on
    /// this connection's input after a parse error.
    reads_done: bool,
    /// Requests completed on this connection (≥ 1 ⇒ keep-alive reuse).
    served: u64,
    /// Interest bits currently registered with the poller (0 = none).
    registered: u8,
    last_activity: Instant,
    /// When the currently-incomplete request started arriving.
    request_started: Option<Instant>,
}

const REG_READ: u8 = 0b01;
const REG_WRITE: u8 = 0b10;
/// Segments gathered into one `writev` call (IOV_MAX is far higher, but a
/// keep-alive burst rarely stacks more than a few responses).
const MAX_IOVECS: usize = 64;

impl Conn {
    /// Queue a response for the wire: the head as one segment and the body
    /// `Vec` *moved* as a second — the flush gathers both (plus any
    /// pipelined successors) into a single `writev`.
    fn enqueue_response(&mut self, resp: Response, keep_alive: bool) {
        let mut head = Vec::new();
        resp.encode_head_into(keep_alive, &mut head);
        self.wlen += head.len() + resp.body.len();
        self.wq.push_back(head);
        if !resp.body.is_empty() {
            self.wq.push_back(resp.body);
        }
    }
}

enum Extract {
    /// Nothing further to do (need more bytes, or a request is in flight).
    Pending,
    /// A complete request was cut out of the buffer.
    Ready(Request),
    /// The connection was closed (error or clean EOF).
    Closed,
}

struct EventLoop {
    poll: Poll,
    listener: TcpListener,
    handler: Handler,
    max_connections: usize,
    idle_timeout: Duration,
    request_deadline: Duration,
    metrics: Option<Registry>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots freed during the current event batch; recycled only at the
    /// next loop turn so stale events in this batch cannot touch a new
    /// connection.
    free_pending: Vec<usize>,
    active: usize,
    accept_paused: bool,
    next_gen: u64,
    /// `None` ⇒ handlers run inline on the event thread.
    jobs_tx: Option<Sender<Job>>,
    /// Handler results from the worker pool.
    completions: Receiver<Completion>,
    stop: Arc<AtomicBool>,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) {
        let sweep_interval = (self.request_deadline / 4)
            .min(self.idle_timeout / 4)
            .clamp(Duration::from_millis(5), Duration::from_millis(100));
        let mut events = Events::with_capacity(1024);
        let mut next_sweep = Instant::now() + sweep_interval;
        while !self.stop.load(Ordering::SeqCst) {
            self.free.append(&mut self.free_pending);
            let timeout = next_sweep.saturating_duration_since(Instant::now());
            let _ = self.poll.poll(&mut events, Some(timeout));
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                match ev.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => {}
                    Token(idx) => self.conn_event(idx, ev.is_readable(), ev.is_writable()),
                }
            }
            self.drain_completions();
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + sweep_interval;
            }
        }
        // Shutdown: close every connection, then drop the job sender so
        // workers drain and exit.
        for idx in 0..self.conns.len() {
            self.close(idx);
        }
        let _ = self.poll.registry().deregister(&self.listener);
    }

    /// Add one to a transport counter (no-op without a sink).
    fn count(&self, c: &catalog::Counter, lbls: Labels) {
        if let Some(m) = &self.metrics {
            m.inc(c, lbls, 1.0);
        }
    }

    /// A response left the server; `status` is bucketed by class.
    fn count_request(&self, status: u16) {
        let class = match status {
            100..=199 => "1xx",
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        self.count(&catalog::HTTP_REQUESTS, labels(&[("code", class)]));
    }

    /// A connection entered (`delta` = 1) or left (−1) the table.
    fn count_connection(&self, c: &catalog::Counter, delta: f64) {
        if let Some(m) = &self.metrics {
            m.inc(c, Labels::new(), 1.0);
            m.add(&catalog::HTTP_CONNECTIONS_ACTIVE, Labels::new(), delta);
        }
    }

    // ---- accept path ----

    fn accept_ready(&mut self) {
        loop {
            if self.active >= self.max_connections {
                // Full table: the listener stays registered so the *next*
                // arrival is load-shed with a 503 — clients see
                // backpressure, not silence — and only then does accepting
                // pause; later arrivals queue in the kernel backlog until
                // the table drains below the watermark.
                match self.listener.accept() {
                    Ok((mut s, _)) => {
                        let resp = Response::json(503, r#"{"error":"connection table full"}"#);
                        let _ = s.write_all(&resp.encode(false));
                        self.count(&catalog::HTTP_CONNECTIONS_REJECTED, Labels::new());
                        self.count_request(503);
                        self.pause_accept();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    // Persistent accept errors with a pending connection
                    // would spin a level-triggered poller: pause, let the
                    // sweeper re-arm below the watermark.
                    Err(_) => self.pause_accept(),
                }
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.pause_accept();
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        self.next_gen += 1;
        let conn = Conn {
            stream,
            gen: self.next_gen,
            rbuf: Vec::new(),
            wq: VecDeque::new(),
            wpos: 0,
            wlen: 0,
            head: None,
            busy: false,
            req_keep_alive: true,
            close_after_write: false,
            reads_done: false,
            served: 0,
            registered: 0,
            last_activity: Instant::now(),
            request_started: None,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.active += 1;
        self.count_connection(&catalog::HTTP_CONNECTIONS_ACCEPTED, 1.0);
        self.update_interest(idx);
    }

    fn pause_accept(&mut self) {
        if !self.accept_paused {
            self.accept_paused = true;
            let _ = self.poll.registry().deregister(&self.listener);
            self.count(&catalog::HTTP_ACCEPT_PAUSES, Labels::new());
        }
    }

    fn maybe_resume_accept(&mut self) {
        let low_watermark = self
            .max_connections
            .saturating_sub((self.max_connections / 8).max(1));
        if self.accept_paused && self.active <= low_watermark {
            self.accept_paused = false;
            let _ = self
                .poll
                .registry()
                .register(&self.listener, LISTENER, Interest::READABLE);
            self.count(&catalog::HTTP_ACCEPT_RESUMES, Labels::new());
        }
    }

    // ---- connection I/O ----

    fn conn_event(&mut self, idx: usize, readable: bool, writable: bool) {
        if !matches!(self.conns.get(idx), Some(Some(_))) {
            return; // stale event for a slot closed earlier in this batch
        }
        if writable && !self.flush_write(idx) {
            return;
        }
        if readable {
            self.do_read(idx);
        }
    }

    /// Pull available bytes into the connection buffer (bounded per event),
    /// then advance the request state machine.
    fn do_read(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.reads_done {
            return;
        }
        let mut budget = READ_BUDGET;
        loop {
            if conn.busy && conn.rbuf.len() >= PIPELINE_BUF_CAP {
                break; // pipelined input parked until the handler returns
            }
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.reads_done = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.scratch[..n]);
                    conn.last_activity = Instant::now();
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        self.advance(idx);
    }

    /// Run the per-connection state machine until it needs more bytes, a
    /// request is in flight, or the connection closes. Inline mode loops
    /// here so a buffer of pipelined requests is served without recursion.
    fn advance(&mut self, idx: usize) {
        loop {
            match self.try_extract(idx) {
                Extract::Pending => break,
                Extract::Closed => return,
                Extract::Ready(req) => {
                    let gen = match self.conns[idx].as_mut() {
                        Some(c) => {
                            c.busy = true;
                            c.request_started = None;
                            c.gen
                        }
                        None => return,
                    };
                    match &self.jobs_tx {
                        Some(tx) => {
                            let _ = tx.send((idx, gen, req));
                            break;
                        }
                        None => {
                            let resp = run_handler(&self.handler, req);
                            if !self.finish(idx, gen, resp) {
                                return;
                            }
                        }
                    }
                }
            }
        }
        self.update_interest(idx);
    }

    /// Try to cut one complete request out of the connection buffer.
    fn try_extract(&mut self, idx: usize) -> Extract {
        let Some(conn) = self.conns[idx].as_mut() else {
            return Extract::Closed;
        };
        if conn.busy || conn.wlen > 0 {
            return Extract::Pending;
        }
        match extract_request(&mut conn.rbuf, &mut conn.head) {
            Ok(Some(head)) => {
                conn.req_keep_alive = head.keep_alive;
                conn.request_started = None;
                return Extract::Ready(head.request);
            }
            Ok(None) => {}
            Err(e) => return self.error_close(idx, &e),
        }
        // ---- partial request bookkeeping / EOF ----
        let partial = conn.head.is_some() || !conn.rbuf.is_empty();
        if partial {
            if conn.request_started.is_none() {
                conn.request_started = Some(Instant::now());
            }
        } else {
            conn.request_started = None;
        }
        if conn.reads_done {
            // EOF with nothing completable: clean close (empty buffer) or
            // truncated request (partial buffer) — either way, close.
            self.close(idx);
            return Extract::Closed;
        }
        Extract::Pending
    }

    /// Answer a protocol error and mark the connection for close; input is
    /// no longer read (the stream position is unrecoverable).
    fn error_close(&mut self, idx: usize, e: &HttpError) -> Extract {
        let resp = error_response(e);
        self.count_request(resp.status);
        let Some(conn) = self.conns[idx].as_mut() else {
            return Extract::Closed;
        };
        conn.rbuf.clear();
        conn.head = None;
        conn.reads_done = true;
        conn.close_after_write = true;
        conn.request_started = None;
        conn.enqueue_response(resp, false);
        if self.flush_write(idx) {
            self.update_interest(idx);
        }
        Extract::Closed
    }

    /// A handler produced `resp` for request `gen` on slot `idx`. Returns
    /// true when the connection is still open with an empty write buffer —
    /// i.e. the caller may continue extracting pipelined requests.
    fn finish(&mut self, idx: usize, gen: u64, resp: Response) -> bool {
        let stopping = self.stop.load(Ordering::SeqCst);
        let status = resp.status;
        let served;
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return false;
            };
            if conn.gen != gen {
                return false; // slot was recycled; response belongs to the past
            }
            conn.busy = false;
            conn.served += 1;
            served = conn.served;
            let close = conn.close_after_write || !conn.req_keep_alive || stopping;
            conn.close_after_write = close;
            conn.enqueue_response(resp, !close);
            conn.last_activity = Instant::now();
        }
        self.count_request(status);
        if served > 1 {
            self.count(&catalog::HTTP_KEEPALIVE_REUSE, Labels::new());
        }
        self.flush_write(idx)
            && self.conns[idx]
                .as_ref()
                .is_some_and(|c| c.wlen == 0 && !c.close_after_write)
    }

    /// Write as much pending output as the socket takes. Returns false when
    /// the connection was closed.
    fn flush_write(&mut self, idx: usize) -> bool {
        enum Outcome {
            Drained { close_after: bool },
            Blocked,
            Broken,
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return false;
            };
            loop {
                if conn.wlen == 0 {
                    conn.wq.clear();
                    conn.wpos = 0;
                    break Outcome::Drained {
                        close_after: conn.close_after_write,
                    };
                }
                // Gather the segment queue (front offset by wpos) into one
                // vectored write: head + body + pipelined successors go out
                // in a single syscall without ever being memcpy'd together.
                let mut iov = [IoSlice::new(&[]); MAX_IOVECS];
                let mut n_iov = 0;
                for (i, seg) in conn.wq.iter().enumerate().take(MAX_IOVECS) {
                    iov[n_iov] = IoSlice::new(if i == 0 { &seg[conn.wpos..] } else { seg });
                    n_iov += 1;
                }
                match conn.stream.write_vectored(&iov[..n_iov]) {
                    Ok(0) => break Outcome::Broken,
                    Ok(mut n) => {
                        conn.wlen -= n;
                        conn.last_activity = Instant::now();
                        // Consume written bytes across whole segments.
                        while n > 0 {
                            let front_left =
                                conn.wq.front().expect("bytes imply a segment").len() - conn.wpos;
                            if n >= front_left {
                                n -= front_left;
                                conn.wq.pop_front();
                                conn.wpos = 0;
                            } else {
                                conn.wpos += n;
                                n = 0;
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break Outcome::Blocked,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break Outcome::Broken,
                }
            }
        };
        match outcome {
            Outcome::Broken | Outcome::Drained { close_after: true } => {
                self.close(idx);
                false
            }
            Outcome::Drained { close_after: false } | Outcome::Blocked => {
                self.update_interest(idx);
                true
            }
        }
    }

    /// Reconcile the poller's interest set with the connection's state.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let want_read = !conn.reads_done && (!conn.busy || conn.rbuf.len() < PIPELINE_BUF_CAP);
        let want_write = conn.wlen > 0;
        let desired = (want_read as u8 * REG_READ) | (want_write as u8 * REG_WRITE);
        if desired == conn.registered {
            return;
        }
        let registry = self.poll.registry();
        let result = match desired {
            0 => registry.deregister(&conn.stream),
            _ => {
                let interest = match (want_read, want_write) {
                    (true, true) => Interest::READABLE.add(Interest::WRITABLE),
                    (true, false) => Interest::READABLE,
                    _ => Interest::WRITABLE,
                };
                if conn.registered == 0 {
                    registry.register(&conn.stream, Token(idx), interest)
                } else {
                    registry.reregister(&conn.stream, Token(idx), interest)
                }
            }
        };
        match result {
            Ok(()) => conn.registered = desired,
            Err(_) => self.close(idx),
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            if conn.registered != 0 {
                let _ = self.poll.registry().deregister(&conn.stream);
            }
            self.active -= 1;
            self.free_pending.push(idx);
            self.count_connection(&catalog::HTTP_CONNECTIONS_CLOSED, -1.0);
            self.maybe_resume_accept();
        }
    }

    // ---- deferred work ----

    fn drain_completions(&mut self) {
        // what has arrived by now; later completions wait for the next turn
        let done: Vec<Completion> = self.completions.try_iter().collect();
        for (idx, gen, resp) in done {
            if self.finish(idx, gen, resp) {
                self.advance(idx); // pipelined requests may be waiting
            }
        }
    }

    /// Enforce read and idle deadlines; also re-arms accept after fd-level
    /// accept errors once below the watermark.
    fn sweep(&mut self, now: Instant) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            if conn.busy {
                continue; // handler latency is not a wire deadline
            }
            if let Some(started) = conn.request_started {
                if now.duration_since(started) > self.request_deadline {
                    // slow/partial request: the slowloris defense
                    self.count(&catalog::HTTP_DEADLINE_CLOSES, labels(&[("kind", "read")]));
                    self.close(idx);
                }
            } else if now.duration_since(conn.last_activity) > self.idle_timeout {
                self.count(&catalog::HTTP_DEADLINE_CLOSES, labels(&[("kind", "idle")]));
                self.close(idx);
            }
        }
        self.maybe_resume_accept();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpClient;
    use std::io::{BufRead, BufReader};

    fn ok_handler() -> Handler {
        Arc::new(|req: Request| Response::json(200, format!(r#"{{"path":{:?}}}"#, req.path)))
    }

    #[test]
    fn inline_mode_round_trip() {
        let server = HttpServer::spawn_with(
            0,
            ok_handler(),
            ServerConfig {
                workers: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        let (status, body) = HttpClient::new(server.addr())
            .request("GET", "/inline", None)
            .unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("/inline"));
    }

    #[test]
    fn pooled_mode_round_trip() {
        let server = HttpServer::spawn_with(
            0,
            ok_handler(),
            ServerConfig {
                workers: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        let (status, body) = HttpClient::new(server.addr())
            .request("GET", "/pooled", None)
            .unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("/pooled"));
    }

    #[test]
    fn handler_panic_answers_500() {
        let server = HttpServer::spawn(Arc::new(|req: Request| {
            if req.path == "/boom" {
                panic!("handler exploded");
            }
            Response::json(200, "{}")
        }))
        .unwrap();
        let (status, body) = HttpClient::new(server.addr())
            .request("GET", "/boom", None)
            .unwrap();
        assert_eq!(status, 500);
        assert!(body.contains("panicked"), "body: {body}");
        // The server survives.
        let (status, _) = HttpClient::new(server.addr())
            .request("GET", "/fine", None)
            .unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn connection_cap_rejects_with_503_and_resumes() {
        let metrics = Registry::new();
        let server = HttpServer::spawn_with(
            0,
            ok_handler(),
            ServerConfig {
                max_connections: 2,
                metrics: Some(metrics.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        // Fill the table with two parked keep-alive connections.
        let hold1 = TcpStream::connect(server.addr()).unwrap();
        let hold2 = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // The third arrival is shed with a 503.
        let shed = TcpStream::connect(server.addr()).unwrap();
        let mut line = String::new();
        BufReader::new(shed).read_line(&mut line).unwrap();
        assert!(line.contains("503"), "got: {line}");
        drop(hold1);
        drop(hold2);
        // After the table drains, accepting resumes and requests succeed.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match HttpClient::new(server.addr()).request("GET", "/after", None) {
                Ok((200, _)) => break,
                _ if Instant::now() > deadline => panic!("accept never resumed"),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let value = |name| metrics.get_value(name, &Labels::new()).unwrap_or(0.0);
        assert!(value("http_connections_rejected_total") >= 1.0);
        assert!(value("http_accept_pauses_total") >= 1.0);
        assert!(value("http_accept_resumes_total") >= 1.0);
    }

    #[test]
    fn sharded_server_round_trip() {
        let server = HttpServer::spawn_with(
            0,
            ok_handler(),
            ServerConfig {
                shards: 2,
                workers: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        if mio::net::reuseport_supported() {
            assert_eq!(server.shards(), 2);
        } else {
            assert_eq!(server.shards(), 1, "no SO_REUSEPORT: degrade to one shard");
        }
        // Many short-lived connections: the kernel spreads them across the
        // shard listeners; every one must be answered regardless of shard.
        for i in 0..32 {
            let (status, body) = HttpClient::new(server.addr())
                .request("GET", &format!("/shard-{i}"), None)
                .unwrap();
            assert_eq!(status, 200);
            assert!(body.contains(&format!("/shard-{i}")));
        }
        // Keep-alive clients work against a sharded listener too.
        let client = HttpClient::new(server.addr());
        for _ in 0..8 {
            assert_eq!(client.request("GET", "/ka", None).unwrap().0, 200);
        }
    }

    #[test]
    fn pipelined_requests_coalesce_responses() {
        // Two pipelined requests arrive in one segment; both answers must
        // come back, in order, over the shared writev-backed queue.
        let server = HttpServer::spawn_with(
            0,
            ok_handler(),
            ServerConfig {
                workers: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                b"GET /first HTTP/1.1\r\nhost: x\r\n\r\nGET /second HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut all = Vec::new();
        reader.read_to_end(&mut all).unwrap();
        let text = String::from_utf8_lossy(&all);
        let first = text.find("/first").expect("first response present");
        let second = text.find("/second").expect("second response present");
        assert!(first < second, "responses out of order: {text}");
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
    }

    #[test]
    fn large_body_flushes_across_partial_writes() {
        // A body far larger than the socket buffer forces the Blocked path
        // and multi-round writev flushes; the client must still receive
        // every byte intact.
        let payload = "x".repeat(768 << 10);
        let expected = payload.clone();
        let server = HttpServer::spawn(Arc::new(move |_req: Request| {
            Response::json(200, payload.clone())
        }))
        .unwrap();
        let (status, body) = HttpClient::new(server.addr())
            .request("GET", "/big", None)
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.len(), expected.len());
        assert_eq!(body, expected);
    }

    #[test]
    fn drop_under_load_shuts_down_bounded() {
        let server = HttpServer::spawn(ok_handler()).unwrap();
        let addr = server.addr();
        // Park several idle keep-alive connections plus one mid-request
        // dribble, then drop the server under that load.
        let parked: Vec<TcpStream> = (0..16)
            .map(|_| TcpStream::connect(&addr).unwrap())
            .collect();
        let mut dribble = TcpStream::connect(&addr).unwrap();
        dribble.write_all(b"GET /slow HTTP/1.1\r\n").unwrap();
        let started = Instant::now();
        drop(server);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "drop must not hang on open connections: {:?}",
            started.elapsed()
        );
        drop(parked);
        drop(dribble);
    }
}
