//! REST client for the middleware daemon.
//!
//! The runtime side of the session protocol (paper §3.3): connect, receive a
//! session token, submit programs, poll, fetch results. In multi-user HPC
//! deployments application code talks to the daemon through this client
//! instead of holding the QPU resource directly — the daemon owns
//! prioritization and preemption.
//!
//! Every call goes through one private send path, and every codec-aware
//! message is encoded and decoded by [`hpcqc_middleware::protocol`], the
//! module the daemon's routes use too. Every session-scoped call carries
//! `?token=`: placement metadata for a gateway, ignored by a daemon
//! reached directly.
//!
//! # Wire codec
//!
//! The client speaks JSON by default. [`DaemonClient::prefer_binary`] opts
//! into the compact binary wire codec on the submit, status and result
//! paths; the first HTTP 415 from a daemon that does not speak it
//! downgrades the client (and every clone sharing its connection) back to
//! JSON permanently, so mixed fleets need no configuration. Replies are
//! decoded in whichever codec they arrive in.
//! [`DaemonSession::submit_batch`] sends N programs in one request/one
//! daemon lock acquisition, with per-program outcomes.

use crate::retry::{AttemptBudget, RetryPolicy};
use hpcqc_emulator::SampleResult;
use hpcqc_middleware::http::{HttpClient, HttpError};
use hpcqc_middleware::protocol::{Codec, Message, OpenSessionReq};
use hpcqc_middleware::{DaemonTaskStatus, PriorityClass};
use hpcqc_program::{DeviceSpec, ProgramIr};
use hpcqc_scheduler::PatternHint;
use hpcqc_wire::{BatchSlot, SubmitFrame};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Client-side errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    Transport(String),
    /// Non-2xx HTTP status with the server's error body.
    Api {
        status: u16,
        message: String,
    },
    Protocol(String),
    /// Task reached a terminal failure state.
    TaskFailed(String),
    /// Poll budget exhausted.
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport: {m}"),
            ClientError::Api { status, message } => write!(f, "api error {status}: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::TaskFailed(m) => write!(f, "task failed: {m}"),
            ClientError::Timeout => write!(f, "poll budget exhausted"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        ClientError::Transport(e.to_string())
    }
}

/// One program in a [`DaemonSession::submit_batch`] call.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    pub ir: &'a ProgramIr,
    pub hint: PatternHint,
    /// Per-frame dedup key (same semantics as [`DaemonSession::submit_keyed`]).
    pub idempotency_key: Option<&'a str>,
}

/// Steady-state sleep between the status polls of a [`DaemonSession::wait`].
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Sleep before status poll number `poll` (0-based) of a wait: 250 µs,
/// doubling per poll, capped at `interval`.
fn poll_delay(poll: usize, interval: Duration) -> Duration {
    const FIRST: Duration = Duration::from_micros(250);
    // 2^20 × 250 µs is minutes, past any interval worth configuring
    FIRST.saturating_mul(1 << poll.min(20)).min(interval)
}

fn json<T: serde::Deserialize>(body: &[u8]) -> Result<T, ClientError> {
    serde_json::from_slice(body).map_err(|e| ClientError::Protocol(e.to_string()))
}

/// A connection to one middleware daemon, which runs its own dispatcher:
/// the client submits and polls, it never drives the queue.
///
/// Holds a keep-alive [`HttpClient`]: every call reuses one persistent
/// connection to the daemon instead of paying a TCP connect per request
/// (clones of this client — including every [`DaemonSession`] opened from
/// it — share that connection; requests serialize on it).
#[derive(Debug, Clone)]
pub struct DaemonClient {
    /// `host:port` of the daemon.
    pub addr: String,
    /// Has no effect: the daemon dispatches on its own and the client only
    /// submits and polls. Kept because the end-to-end benchmark still
    /// assigns it; it leaves with that harness change (ROADMAP 11(h)).
    pub pump_on_poll: bool,
    http: std::sync::Arc<HttpClient>,
    /// Binary-codec preference, shared by clones (including every session
    /// opened from this client): `true` while the daemon is believed to
    /// speak the binary codec; the first 415 clears it for all.
    binary: std::sync::Arc<AtomicBool>,
}

/// An open session.
#[derive(Debug, Clone)]
pub struct DaemonSession {
    client: DaemonClient,
    /// The bearer token identifying this session.
    pub token: String,
}

impl DaemonClient {
    pub fn new(addr: impl Into<String>) -> Self {
        let addr = addr.into();
        DaemonClient {
            http: std::sync::Arc::new(HttpClient::new(addr.clone())),
            addr,
            pump_on_poll: false,
            binary: std::sync::Arc::new(AtomicBool::new(false)),
        }
    }

    /// Opt into the binary wire codec for submits, batch submits, status
    /// and result reads. Falls back to JSON automatically (and permanently,
    /// for this client and its clones) if the daemon answers HTTP 415.
    pub fn prefer_binary(self) -> Self {
        self.binary.store(true, Ordering::Relaxed);
        self
    }

    /// Whether the binary codec is currently in use (false after a 415
    /// downgrade or when never opted in).
    pub fn binary_active(&self) -> bool {
        self.binary.load(Ordering::Relaxed)
    }

    /// The one request path. `token` goes into `?token=`. With `binary`
    /// (a codec-aware call) the body is encoded, and the reply asked for,
    /// in the binary codec while it is active; a 415 to such a request
    /// downgrades the client (and its clones) to JSON and sends once more.
    /// A 2xx reply comes back with the codec it arrived in; any other is an
    /// [`ClientError::Api`] with its error decoded in that codec.
    fn send(
        &self,
        method: &str,
        path: &str,
        token: Option<&str>,
        binary: bool,
        body: impl Fn(Codec) -> Option<Vec<u8>>,
    ) -> Result<(Codec, Vec<u8>), ClientError> {
        let path = match token {
            Some(token) => format!("{path}?token={token}"),
            None => path.to_string(),
        };
        loop {
            let codec = if binary && self.binary_active() {
                Codec::Binary
            } else {
                Codec::Json
            };
            let ct = codec.content_type();
            let raw = self.http.request_bytes_accept(
                method,
                &path,
                ct,
                Some(ct),
                body(codec).as_deref(),
            )?;
            let reply = Codec::named(&raw.content_type).unwrap_or(Codec::Json);
            if (200..300).contains(&raw.status) {
                return Ok((reply, raw.body));
            }
            if raw.status == 415 && codec == Codec::Binary {
                self.binary.store(false, Ordering::Relaxed);
                continue;
            }
            return Err(ClientError::Api {
                status: raw.status,
                message: reply.error_message(&raw.body),
            });
        }
    }

    /// Open a session in `class` for `user`.
    pub fn open_session(
        &self,
        user: &str,
        class: PriorityClass,
    ) -> Result<DaemonSession, ClientError> {
        let open = OpenSessionReq {
            user: user.to_string(),
            class: class.as_str().to_string(),
        };
        let (_, reply) = self.send("POST", "/v1/sessions", None, false, |_| {
            serde_json::to_string(&open).ok().map(String::into_bytes)
        })?;
        let token = json::<serde_json::Value>(&reply)?["token"]
            .as_str()
            .ok_or_else(|| ClientError::Protocol("missing token".into()))?
            .to_string();
        Ok(DaemonSession {
            client: self.clone(),
            token,
        })
    }

    /// Fetch the daemon's current target device spec.
    pub fn target(&self) -> Result<DeviceSpec, ClientError> {
        json(&self.send("GET", "/v1/target", None, false, |_| None)?.1)
    }

    /// Fetch the Prometheus metrics exposition.
    pub fn metrics(&self) -> Result<String, ClientError> {
        let (_, body) = self.send("GET", "/metrics", None, false, |_| None)?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// Daemon readiness: `Ok("ok")` when serving; an [`ClientError::Api`]
    /// with status 503 while the daemon drains or after it stopped.
    pub fn healthz(&self) -> Result<String, ClientError> {
        let (_, body) = self.send("GET", "/v1/healthz", None, false, |_| None)?;
        json::<serde_json::Value>(&body)?["status"]
            .as_str()
            .map(String::from)
            .ok_or_else(|| ClientError::Protocol("missing status".into()))
    }
}

impl DaemonSession {
    /// One codec-aware call on this session, its reply decoded as `M`.
    fn call<M: Message>(
        &self,
        method: &str,
        path: &str,
        body: impl Fn(Codec) -> Option<Vec<u8>>,
    ) -> Result<M, ClientError> {
        let (codec, reply) = self
            .client
            .send(method, path, Some(&self.token), true, body)?;
        codec.decode(&reply).map_err(ClientError::Protocol)
    }

    fn frame(&self, ir: &ProgramIr, hint: PatternHint, key: Option<&str>) -> SubmitFrame {
        SubmitFrame {
            token: self.token.clone(),
            hint: (hint != PatternHint::None).then(|| hint.as_str().to_string()),
            idempotency_key: key.map(String::from),
            ir: ir.clone(),
        }
    }

    /// Submit a program; returns the daemon task id.
    pub fn submit(&self, ir: &ProgramIr, hint: PatternHint) -> Result<u64, ClientError> {
        self.submit_keyed(ir, hint, None)
    }

    /// [`Self::submit`] with an optional idempotency key. Submitting the
    /// same key twice — even across a daemon restart — returns the task id
    /// originally assigned, so retry loops never double-enqueue.
    pub fn submit_keyed(
        &self,
        ir: &ProgramIr,
        hint: PatternHint,
        idempotency_key: Option<&str>,
    ) -> Result<u64, ClientError> {
        let frame = self.frame(ir, hint, idempotency_key);
        self.call("POST", "/v1/tasks", |codec| Some(codec.encode(&frame)))
    }

    /// Submit `items` as one `POST /v1/tasks:batch` request: one HTTP round
    /// trip, one daemon lock acquisition and one journal group-commit for
    /// the whole batch. Returns one outcome per item, in submission order —
    /// a refused frame (validation, quota) fails its own slot without
    /// affecting the rest. Uses the binary codec when the client opted in
    /// ([`DaemonClient::prefer_binary`]), JSON otherwise, with the same
    /// automatic 415 fallback as single submits.
    pub fn submit_batch(
        &self,
        items: &[BatchItem<'_>],
    ) -> Result<Vec<Result<u64, ClientError>>, ClientError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let frames: Vec<SubmitFrame> = items
            .iter()
            .map(|it| self.frame(it.ir, it.hint, it.idempotency_key))
            .collect();
        let slots: Vec<BatchSlot> = self.call("POST", "/v1/tasks:batch", |codec| {
            Some(codec.encode(&frames))
        })?;
        Ok(slots
            .into_iter()
            .map(|slot| match slot {
                BatchSlot::Ok { task_id } => Ok(task_id),
                BatchSlot::Err { status, message } => Err(ClientError::Api { status, message }),
            })
            .collect())
    }

    /// Submit with `key`, retrying transient failures up to `max_attempts`
    /// times with decorrelated-jitter backoff. Safe against the classic
    /// at-most-once/at-least-once dilemma: the key makes every retry
    /// idempotent, so a submit whose response was lost is deduplicated
    /// server-side instead of enqueued twice.
    ///
    /// Transient means retryable-by-contract: transport failures (connection
    /// refused/reset — e.g. a leader dying mid-request) and HTTP 503 (a
    /// draining leader, an unpromoted follower, or a gateway shard between
    /// failovers). Anything else — 4xx validation, quota, auth — fails
    /// immediately. This is exactly the window a shard failover opens: the
    /// client rides through drain → promote → reroute without help.
    pub fn submit_reliable(
        &self,
        ir: &ProgramIr,
        hint: PatternHint,
        key: &str,
        max_attempts: usize,
    ) -> Result<u64, ClientError> {
        // Client-side pauses, not queue-side: short base, tight cap, and a
        // five-second wall-clock budget so callers are never parked behind
        // a shard that is not coming back.
        let policy = RetryPolicy {
            base_delay_secs: 0.01,
            max_delay_secs: 0.25,
            ..RetryPolicy::default()
        }
        .with_budget(
            PriorityClass::Test,
            AttemptBudget {
                max_attempts: max_attempts.max(1) as u32,
                max_backoff_secs: 5.0,
            },
        );
        self.submit_with_policy(ir, hint, key, &policy, PriorityClass::Test)
    }

    /// [`Self::submit_reliable`] with an explicit [`RetryPolicy`]: attempts
    /// and cumulative sleep are bounded by the policy's budget for `class`
    /// (the wall-clock ceiling is `max_backoff_secs` plus the requests
    /// themselves). The first non-transient error aborts the loop; when the
    /// budget runs out, the last transient error is returned.
    pub fn submit_with_policy(
        &self,
        ir: &ProgramIr,
        hint: PatternHint,
        key: &str,
        policy: &RetryPolicy,
        class: PriorityClass,
    ) -> Result<u64, ClientError> {
        let mut backoff = policy.backoff(class);
        loop {
            let last = match self.submit_keyed(ir, hint, Some(key)) {
                Ok(id) => return Ok(id),
                Err(e @ ClientError::Transport(_)) => e,
                Err(e @ ClientError::Api { status: 503, .. }) => e,
                Err(e) => return Err(e),
            };
            match backoff.next_delay() {
                Some(delay) => std::thread::sleep(Duration::from_secs_f64(delay)),
                None => return Err(last),
            }
        }
    }

    /// Current status of a task.
    pub fn status(&self, task: u64) -> Result<DaemonTaskStatus, ClientError> {
        self.call("GET", &format!("/v1/tasks/{task}"), |_| None)
    }

    /// Fetch the result of a completed task.
    pub fn result(&self, task: u64) -> Result<SampleResult, ClientError> {
        self.call("GET", &format!("/v1/tasks/{task}/result"), |_| None)
    }

    /// Cancel a queued task.
    pub fn cancel(&self, task: u64) -> Result<(), ClientError> {
        let path = format!("/v1/tasks/{task}");
        self.client
            .send("DELETE", &path, Some(&self.token), false, |_| None)
            .map(drop)
    }

    /// Poll until the task completes, then fetch the result; the daemon's
    /// dispatcher runs it. `max_polls` is a count, not a time: poll `n` is
    /// preceded by a sleep of 250 µs × 2ⁿ capped at 20 ms, so 10 000 polls
    /// give up after ≈ 200 s (seven ramp-up polls inside the first 32 ms,
    /// the rest 20 ms apart).
    pub fn wait(&self, task: u64, max_polls: usize) -> Result<SampleResult, ClientError> {
        for poll in 0..max_polls {
            std::thread::sleep(poll_delay(poll, POLL_INTERVAL));
            match self.status(task)? {
                DaemonTaskStatus::Completed => return self.result(task),
                DaemonTaskStatus::Failed(m) => return Err(ClientError::TaskFailed(m)),
                DaemonTaskStatus::Cancelled => {
                    return Err(ClientError::TaskFailed("cancelled".into()))
                }
                DaemonTaskStatus::Queued { .. } | DaemonTaskStatus::Running => {}
            }
        }
        Err(ClientError::Timeout)
    }

    /// Submit and wait in one call.
    pub fn run(&self, ir: &ProgramIr, hint: PatternHint) -> Result<SampleResult, ClientError> {
        let id = self.submit(ir, hint)?;
        self.wait(id, 10_000)
    }

    /// Close the session on the daemon.
    pub fn close(self) -> Result<(), ClientError> {
        let path = format!("/v1/sessions/{}", self.token);
        self.client
            .send("DELETE", &path, None, false, |_| None)
            .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_emulator::SvBackend;
    use hpcqc_middleware::rest::serve;
    use hpcqc_middleware::{DaemonConfig, DispatcherHandle, HttpServer, MiddlewareService};
    use hpcqc_program::{Pulse, Register, SequenceBuilder};
    use hpcqc_qrmi::LocalEmulatorResource;
    use std::sync::Arc;

    fn service() -> Arc<MiddlewareService> {
        let res = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        Arc::new(MiddlewareService::new(res, DaemonConfig::default()))
    }

    /// A daemon with no dispatcher: nothing runs what is submitted.
    fn daemon() -> HttpServer {
        serve(service()).unwrap()
    }

    /// A daemon with its dispatcher running beside the server, as `hpcqcd`
    /// runs it.
    fn dispatching_daemon() -> (HttpServer, DispatcherHandle) {
        let svc = service();
        let dispatcher = svc.spawn_dispatcher(Duration::from_millis(20));
        (serve(svc).unwrap(), dispatcher)
    }

    fn ir(shots: u32) -> ProgramIr {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "client-test")
    }

    #[test]
    fn end_to_end_session_over_sockets() {
        let (server, _dispatcher) = dispatching_daemon();
        let client = DaemonClient::new(server.addr());
        let spec = client.target().unwrap();
        assert!(spec.max_qubits >= 20);
        let session = client.open_session("ada", PriorityClass::Test).unwrap();
        let result = session.run(&ir(42), PatternHint::QcBalanced).unwrap();
        assert_eq!(result.shots, 42);
        assert!(client
            .metrics()
            .unwrap()
            .contains("daemon_tasks_completed_total"));
        session.close().unwrap();
    }

    #[test]
    fn cancel_through_client() {
        let server = daemon();
        let client = DaemonClient::new(server.addr());
        let session = client
            .open_session("u", PriorityClass::Development)
            .unwrap();
        let id = session.submit(&ir(5), PatternHint::None).unwrap();
        session.cancel(id).unwrap();
        match session.wait(id, 3) {
            Err(ClientError::TaskFailed(m)) => assert!(m.contains("cancelled")),
            other => panic!("expected cancelled, got {other:?}"),
        }
    }

    #[test]
    fn poll_delay_starts_at_250us_doubles_and_caps_at_the_interval() {
        let ms20 = Duration::from_millis(20);
        assert_eq!(poll_delay(0, ms20), Duration::from_micros(250));
        assert_eq!(poll_delay(1, ms20), Duration::from_micros(500));
        assert_eq!(poll_delay(6, ms20), Duration::from_millis(16));
        assert_eq!(poll_delay(7, ms20), ms20);
        assert_eq!(poll_delay(usize::MAX, ms20), ms20);
        // an interval below the first step is the delay from the first poll on
        let us100 = Duration::from_micros(100);
        assert_eq!(poll_delay(0, us100), us100);
        assert_eq!(poll_delay(3, us100), us100);
        assert_eq!(poll_delay(0, Duration::ZERO), Duration::ZERO);
    }

    /// The shipped CLI's path (`run`): the dispatcher's idle interval is no
    /// floor under the time to result. It is 5 s here, the task takes
    /// milliseconds.
    #[test]
    fn run_against_a_self_dispatching_daemon_does_not_wait_out_an_interval() {
        let svc = service();
        let _dispatcher = svc.spawn_dispatcher(Duration::from_secs(5));
        let server = serve(Arc::clone(&svc)).unwrap();
        let client = DaemonClient::new(server.addr());
        let session = client.open_session("ada", PriorityClass::Test).unwrap();
        // time for the dispatcher to find the queue empty and park (the
        // case a sleeping one fails); the bound holds if it has not yet
        std::thread::sleep(Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        let result = session.run(&ir(42), PatternHint::None).unwrap();
        let took = t0.elapsed();
        assert_eq!(result.shots, 42);
        assert!(took < Duration::from_secs(2), "run took {took:?}");
    }

    #[test]
    fn api_errors_carry_status() {
        let server = daemon();
        let client = DaemonClient::new(server.addr());
        let bogus = DaemonSession {
            client: client.clone(),
            token: "nope".into(),
        };
        match bogus.submit(&ir(5), PatternHint::None) {
            Err(ClientError::Api { status: 401, .. }) => {}
            other => panic!("expected 401, got {other:?}"),
        }
        match bogus.status(12345) {
            Err(ClientError::Api { status: 404, .. }) => {}
            other => panic!("expected 404, got {other:?}"),
        }
    }

    #[test]
    fn transport_error_on_dead_daemon() {
        let client = DaemonClient::new("127.0.0.1:1"); // nothing listens here
        assert!(matches!(client.target(), Err(ClientError::Transport(_))));
    }

    #[test]
    fn keyed_resubmit_returns_original_id() {
        let server = daemon();
        let client = DaemonClient::new(server.addr());
        let session = client.open_session("ada", PriorityClass::Test).unwrap();
        let first = session
            .submit_keyed(&ir(7), PatternHint::None, Some("job-1"))
            .unwrap();
        let second = session
            .submit_keyed(&ir(7), PatternHint::None, Some("job-1"))
            .unwrap();
        assert_eq!(first, second);
        let reliable = session
            .submit_reliable(&ir(7), PatternHint::None, "job-1", 3)
            .unwrap();
        assert_eq!(first, reliable);
        // a fresh key gets a fresh task
        let third = session
            .submit_keyed(&ir(7), PatternHint::None, Some("job-2"))
            .unwrap();
        assert_ne!(first, third);
    }

    /// The satellite regression for the replicated control plane: a keyed
    /// submit issued while its shard drains, dies, and fails over to a
    /// promoted follower must come back `Ok` — and must not enqueue twice.
    /// The old `submit_reliable` failed this two ways: it hot-looped without
    /// sleeping (burning its attempts before promotion finished) and it
    /// treated the drain's 503 as fatal.
    #[test]
    fn submit_reliable_rides_through_drain_and_promotion() {
        use hpcqc_middleware::journal::FollowerReplica;
        use hpcqc_middleware::rest::{serve, serve_on};
        use hpcqc_middleware::{Gateway, GatewayConfig, ShardConfig};
        use std::time::Duration;

        fn repl_dir(name: &str) -> std::path::PathBuf {
            let dir = std::env::temp_dir().join(format!(
                "hpcqc-client-failover-{name}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }
        let res = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        let (dir_a, dir_b) = (repl_dir("a"), repl_dir("b"));
        let svc_a = Arc::new(
            MiddlewareService::recover(&dir_a, res.clone() as _, DaemonConfig::default()).unwrap(),
        );
        svc_a.enable_shipping().unwrap();
        let _dispatcher_a = svc_a.spawn_dispatcher(Duration::from_millis(20));
        let replica = FollowerReplica::open(&dir_b).unwrap();
        let shipper = svc_a.spawn_shipper(replica, "b", Duration::from_millis(2));
        let server_a = serve(Arc::clone(&svc_a)).unwrap();

        // Reserve the follower's port up front so the gateway can be
        // configured before the follower exists.
        let reserved = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let follower_addr = reserved.local_addr().unwrap().to_string();
        let follower_port = reserved.local_addr().unwrap().port();
        let gw = Arc::new(Gateway::new(GatewayConfig {
            shards: vec![ShardConfig {
                name: "s0".into(),
                primary: server_a.addr().to_string(),
                follower: Some(follower_addr),
            }],
        }));
        let gw_server = gw.serve(0).unwrap();

        let client = DaemonClient::new(gw_server.addr());
        let session = client.open_session("ada", PriorityClass::Test).unwrap();
        let id1 = session
            .submit_reliable(&ir(5), PatternHint::None, "job-1", 3)
            .unwrap();
        session.wait(id1, 100).unwrap();

        // Kill the leader: drain (503s), final ship, then the socket dies.
        svc_a.shutdown(Duration::from_millis(100));
        shipper.stop();
        let last_acked = svc_a.last_acked();
        drop(server_a);
        // everything shipped was acked by the final pump: no lag left
        let text = svc_a.metrics_text();
        for series in [
            "replication_shipped_records_total ",
            "replication_shipped_bytes_total ",
            "replication_acked_records_total ",
            "replication_acked_bytes_total ",
            "replication_lag_records 0\n",
            "replication_lag_bytes 0\n",
        ] {
            assert!(text.contains(series), "{series:?} missing:\n{text}");
        }

        // A second submit starts while the shard has no serving replica; it
        // must retry-with-backoff through the whole failover window.
        let retry_session = DaemonSession {
            client: client.clone(),
            token: session.token.clone(),
        };
        let submitter = std::thread::spawn(move || {
            retry_session.submit_reliable(&ir(9), PatternHint::None, "job-2", 40)
        });
        std::thread::sleep(Duration::from_millis(30)); // let it fail a few times

        // Promote the follower onto the reserved port and repoint traffic.
        drop(reserved);
        let svc_b = Arc::new(
            MiddlewareService::promote(&dir_b, res as _, DaemonConfig::default(), last_acked)
                .unwrap(),
        );
        let text = svc_b.metrics_text();
        assert!(text.contains("replication_promotions_total 1\n"), "{text}");
        assert!(
            text.contains("replication_failover_seconds_count 1\n"),
            "{text}"
        );
        let _dispatcher_b = svc_b.spawn_dispatcher(Duration::from_millis(20));
        let _server_b = serve_on(Arc::clone(&svc_b), follower_port).unwrap();
        gw.probe_once();

        let id2 = submitter
            .join()
            .unwrap()
            .expect("submit must survive failover");
        session.wait(id2, 200).unwrap();
        // No duplicate enqueue: both keys dedup to their original ids on the
        // promoted follower, across the failover.
        let again1 = session
            .submit_reliable(&ir(5), PatternHint::None, "job-1", 3)
            .unwrap();
        let again2 = session
            .submit_reliable(&ir(9), PatternHint::None, "job-2", 3)
            .unwrap();
        assert_eq!(again1, id1, "idempotency map survives promotion");
        assert_eq!(again2, id2, "retried submit did not double-enqueue");
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    /// The binary wire codec end to end through the SDK: submit, batch
    /// submit, status and result all ride `application/x-hpcqc-bin`; slot
    /// errors stay per-frame; idempotency keys dedup across batches.
    #[test]
    fn binary_codec_submits_batches_and_reads_results() {
        let (server, _dispatcher) = dispatching_daemon();
        let client = DaemonClient::new(server.addr()).prefer_binary();
        let session = client.open_session("ada", PriorityClass::Test).unwrap();

        // single submit + wait: binary Submit/TaskId/Status/Result frames
        let result = session.run(&ir(42), PatternHint::QcBalanced).unwrap();
        assert_eq!(result.shots, 42);
        assert!(client.binary_active(), "no 415 — still binary");

        // batch: a bad frame fails its own slot, the rest land
        let bad_ir = {
            let reg = Register::linear(2, 6.0).unwrap();
            let mut b = SequenceBuilder::new(reg);
            b.add_global_pulse(Pulse::constant(0.5, 1e6, 0.0, 0.0).unwrap());
            ProgramIr::new(b.build().unwrap(), 10, "bad")
        };
        let (good_a, good_b) = (ir(7), ir(9));
        let items = [
            BatchItem {
                ir: &good_a,
                hint: PatternHint::None,
                idempotency_key: Some("batch-a"),
            },
            BatchItem {
                ir: &bad_ir,
                hint: PatternHint::None,
                idempotency_key: None,
            },
            BatchItem {
                ir: &good_b,
                hint: PatternHint::QcHeavy,
                idempotency_key: Some("batch-b"),
            },
        ];
        let outcomes = session.submit_batch(&items).unwrap();
        assert_eq!(outcomes.len(), 3);
        let id_a = *outcomes[0].as_ref().unwrap();
        let id_b = *outcomes[2].as_ref().unwrap();
        match &outcomes[1] {
            Err(ClientError::Api { status: 422, .. }) => {}
            other => panic!("bad frame must fail validation in its slot: {other:?}"),
        }
        // keys dedup across batches (and against single submits)
        let replay = session.submit_batch(&items).unwrap();
        assert_eq!(*replay[0].as_ref().unwrap(), id_a);
        assert_eq!(*replay[2].as_ref().unwrap(), id_b);
        assert_eq!(
            session
                .submit_keyed(&good_a, PatternHint::None, Some("batch-a"))
                .unwrap(),
            id_a
        );
        session.wait(id_a, 200).unwrap();
        session.wait(id_b, 200).unwrap();
    }

    /// A daemon that does not speak the binary codec answers 415; the
    /// client falls back to JSON on the same call and stays there.
    #[test]
    fn binary_client_downgrades_to_json_on_415() {
        use hpcqc_middleware::http::{Request, Response};
        use hpcqc_middleware::rest::route;

        let res = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        let svc = Arc::new(MiddlewareService::new(res, DaemonConfig::default()));
        let _dispatcher = svc.spawn_dispatcher(Duration::from_millis(20));
        // An "old" daemon: refuses the binary content type outright, serves
        // the JSON API otherwise.
        let server = hpcqc_middleware::HttpServer::spawn(Arc::new(move |req: Request| {
            let binary = req
                .headers
                .get("content-type")
                .is_some_and(|ct| ct.contains("x-hpcqc-bin"));
            if binary {
                Response::json(415, r#"{"error":"unsupported media type"}"#)
            } else {
                route(&svc, &req)
            }
        }))
        .unwrap();

        let client = DaemonClient::new(server.addr()).prefer_binary();
        let session = client.open_session("ada", PriorityClass::Test).unwrap();
        // The submit that hits the 415 retries as JSON within the same call.
        let id = session
            .submit_keyed(&ir(5), PatternHint::None, Some("fallback-1"))
            .unwrap();
        assert!(!client.binary_active(), "415 must downgrade the client");
        // Later calls (including batches) go straight to JSON and work.
        let good = ir(5);
        let outcomes = session
            .submit_batch(&[BatchItem {
                ir: &good,
                hint: PatternHint::None,
                idempotency_key: Some("fallback-1"),
            }])
            .unwrap();
        assert_eq!(*outcomes[0].as_ref().unwrap(), id, "JSON batch dedups");
        session.wait(id, 200).unwrap();
    }

    #[test]
    fn healthz_reports_serving() {
        let server = daemon();
        let client = DaemonClient::new(server.addr());
        assert_eq!(client.healthz().unwrap(), "ok");
    }

    /// The client pools its connection: several calls in a row ride one
    /// TCP connection, visible as keep-alive reuse in the daemon's own
    /// transport telemetry.
    #[test]
    fn client_calls_reuse_the_connection() {
        let server = daemon();
        let client = DaemonClient::new(server.addr());
        client.healthz().unwrap();
        client.target().unwrap();
        client.healthz().unwrap();
        // The reuse counter for a request increments after its handler ran,
        // so the exposition below reflects the first three calls.
        let metrics = client.metrics().unwrap();
        let reuse: f64 = metrics
            .lines()
            .find(|l| l.starts_with("http_keepalive_reuse_total"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        assert!(
            reuse >= 2.0,
            "three calls on one client must reuse the connection: {reuse}"
        );
    }
}
