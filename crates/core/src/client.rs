//! REST client for the middleware daemon.
//!
//! The runtime side of the session protocol (paper §3.3): connect, receive a
//! session token, submit programs, poll, fetch results. In multi-user HPC
//! deployments application code talks to the daemon through this client
//! instead of holding the QPU resource directly — the daemon owns
//! prioritization and preemption.
//!
//! # Wire codec
//!
//! The client speaks JSON by default. [`DaemonClient::prefer_binary`] opts
//! into the compact binary wire codec (`application/x-hpcqc-bin`) on the
//! submit, status and result paths; the first HTTP 415 from a daemon that
//! does not speak it downgrades the client (and every clone sharing its
//! connection) back to JSON permanently, so mixed fleets need no
//! configuration. [`DaemonSession::submit_batch`] sends N programs in one
//! request/one daemon lock acquisition, with per-program outcomes.

use crate::retry::{AttemptBudget, RetryPolicy};
use hpcqc_emulator::SampleResult;
use hpcqc_middleware::http::{HttpClient, HttpError, RawResponse};
use hpcqc_middleware::{DaemonTaskStatus, PriorityClass};
use hpcqc_program::{DeviceSpec, ProgramIr};
use hpcqc_scheduler::PatternHint;
use hpcqc_wire as wire;
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

fn expect_2xx(status: u16, body: String) -> Result<String, ClientError> {
    if (200..300).contains(&status) {
        Ok(body)
    } else {
        let message = serde_json::from_str::<serde_json::Value>(&body)
            .ok()
            .and_then(|v| v["error"].as_str().map(String::from))
            .unwrap_or(body);
        Err(ClientError::Api { status, message })
    }
}

/// The `PatternHint` wire spelling shared by the JSON and binary paths.
fn hint_str(hint: PatternHint) -> Option<&'static str> {
    match hint {
        PatternHint::QcHeavy => Some("qc-heavy"),
        PatternHint::CcHeavy => Some("cc-heavy"),
        PatternHint::QcBalanced => Some("qc-balanced"),
        PatternHint::None => None,
    }
}

/// Map a non-2xx raw response to [`ClientError::Api`], decoding the error
/// body whichever codec it arrived in.
fn api_error(raw: &RawResponse) -> ClientError {
    let message = if raw.content_type.starts_with(wire::CONTENT_TYPE_BIN) {
        wire::decode_error(&raw.body)
            .map(|e| e.message)
            .unwrap_or_else(|_| "undecodable binary error frame".into())
    } else {
        std::str::from_utf8(&raw.body)
            .ok()
            .and_then(|b| serde_json::from_str::<serde_json::Value>(b).ok())
            .and_then(|v| v["error"].as_str().map(String::from))
            .unwrap_or_else(|| String::from_utf8_lossy(&raw.body).into_owned())
    };
    ClientError::Api {
        status: raw.status,
        message,
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

fn slot_to_outcome(slot: wire::BatchSlot) -> Result<u64, ClientError> {
    match slot {
        wire::BatchSlot::Ok { task_id } => Ok(task_id),
        wire::BatchSlot::Err { status, message } => Err(ClientError::Api { status, message }),
    }
}

/// Sleep before status poll number `poll` (0-based) of a wait against a
/// self-dispatching daemon: 250 µs, doubling per poll, capped at `interval`.
fn poll_delay(poll: usize, interval: Duration) -> Duration {
    const FIRST: Duration = Duration::from_micros(250);
    // 2^20 × 250 µs is minutes, past any interval worth configuring
    FIRST.saturating_mul(1 << poll.min(20)).min(interval)
}

fn wire_status_to_daemon(s: wire::WireStatus) -> DaemonTaskStatus {
    match s {
        wire::WireStatus::Queued { position } => DaemonTaskStatus::Queued { position },
        wire::WireStatus::Running => DaemonTaskStatus::Running,
        wire::WireStatus::Completed => DaemonTaskStatus::Completed,
        wire::WireStatus::Failed(m) => DaemonTaskStatus::Failed(m),
        wire::WireStatus::Cancelled => DaemonTaskStatus::Cancelled,
    }
}

/// A connection to one middleware daemon.
///
/// Holds a keep-alive [`HttpClient`]: every call reuses one persistent
/// connection to the daemon instead of paying a TCP connect per request
/// (clones of this client — including every [`DaemonSession`] opened from
/// it — share that connection; requests serialize on it).
#[derive(Debug, Clone)]
pub struct DaemonClient {
    /// `host:port` of the daemon.
    pub addr: String,
    /// Whether polling should ask the daemon to pump its queue (simulation
    /// deployments; production daemons run their own dispatch thread).
    pub pump_on_poll: bool,
    /// Steady-state sleep between status polls when the daemon dispatches
    /// on its own (`pump_on_poll = false`); ignored otherwise. The first
    /// polls of a [`DaemonSession::wait`] come sooner — 250 µs, doubling per
    /// poll up to this interval — so a task the daemon finishes in a
    /// millisecond is not waited on for a whole interval.
    pub poll_interval: std::time::Duration,
    http: std::sync::Arc<HttpClient>,
    /// Binary-codec preference, shared by clones (including every session
    /// opened from this client): `true` while the daemon is believed to
    /// speak `application/x-hpcqc-bin`; the first 415 clears it for all.
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
            pump_on_poll: true,
            poll_interval: std::time::Duration::from_millis(20),
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

    /// Record a 415: the daemon does not speak the binary codec.
    fn downgrade_to_json(&self) {
        self.binary.store(false, Ordering::Relaxed);
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), HttpError> {
        self.http.request(method, path, body)
    }

    /// Open a session in `class` for `user`.
    pub fn open_session(
        &self,
        user: &str,
        class: PriorityClass,
    ) -> Result<DaemonSession, ClientError> {
        let body = serde_json::json!({ "user": user, "class": class.as_str() }).to_string();
        let (st, body) = self.request("POST", "/v1/sessions", Some(&body))?;
        let body = expect_2xx(st, body)?;
        let v: serde_json::Value =
            serde_json::from_str(&body).map_err(|e| ClientError::Protocol(e.to_string()))?;
        let token = v["token"]
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
        let (st, body) = self.request("GET", "/v1/target", None)?;
        let body = expect_2xx(st, body)?;
        serde_json::from_str(&body).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Fetch the Prometheus metrics exposition.
    pub fn metrics(&self) -> Result<String, ClientError> {
        let (st, body) = self.request("GET", "/metrics", None)?;
        expect_2xx(st, body)
    }

    /// Daemon readiness: `Ok("ok")` when serving; an [`ClientError::Api`]
    /// with status 503 while the daemon drains or after it stopped.
    pub fn healthz(&self) -> Result<String, ClientError> {
        let (st, body) = self.request("GET", "/v1/healthz", None)?;
        let body = expect_2xx(st, body)?;
        let v: serde_json::Value =
            serde_json::from_str(&body).map_err(|e| ClientError::Protocol(e.to_string()))?;
        v["status"]
            .as_str()
            .map(String::from)
            .ok_or_else(|| ClientError::Protocol("missing status".into()))
    }
}

impl DaemonSession {
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
        if self.client.binary_active() {
            match self.submit_keyed_binary(ir, hint, idempotency_key) {
                Err(ClientError::Api { status: 415, .. }) => self.client.downgrade_to_json(),
                other => return other,
            }
        }
        let body = serde_json::json!({
            "token": self.token,
            "ir": ir,
            "hint": hint_str(hint),
            "idempotency_key": idempotency_key,
        })
        .to_string();
        let (st, body) = self.client.request("POST", "/v1/tasks", Some(&body))?;
        let body = expect_2xx(st, body)?;
        let v: serde_json::Value =
            serde_json::from_str(&body).map_err(|e| ClientError::Protocol(e.to_string()))?;
        v["task_id"]
            .as_u64()
            .ok_or_else(|| ClientError::Protocol("missing task_id".into()))
    }

    /// One submit as a binary wire frame. The `?token=` query parameter is
    /// routing metadata for gateways (placement without parsing the body);
    /// a daemon reached directly ignores it.
    fn submit_keyed_binary(
        &self,
        ir: &ProgramIr,
        hint: PatternHint,
        idempotency_key: Option<&str>,
    ) -> Result<u64, ClientError> {
        let frame = wire::SubmitFrame {
            token: self.token.clone(),
            hint: hint_str(hint).map(String::from),
            idempotency_key: idempotency_key.map(String::from),
            ir: ir.clone(),
        };
        let raw = self.client.http.request_bytes(
            "POST",
            &format!("/v1/tasks?token={}", self.token),
            wire::CONTENT_TYPE_BIN,
            Some(&wire::encode_submit(&frame)),
        )?;
        if !(200..300).contains(&raw.status) {
            return Err(api_error(&raw));
        }
        wire::decode_task_id(&raw.body).map_err(|e| ClientError::Protocol(e.to_string()))
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
        if self.client.binary_active() {
            match self.submit_batch_binary(items) {
                Err(ClientError::Api { status: 415, .. }) => self.client.downgrade_to_json(),
                other => return other,
            }
        }
        self.submit_batch_json(items)
    }

    fn submit_batch_binary(
        &self,
        items: &[BatchItem<'_>],
    ) -> Result<Vec<Result<u64, ClientError>>, ClientError> {
        let frames: Vec<wire::SubmitFrame> = items
            .iter()
            .map(|it| wire::SubmitFrame {
                token: self.token.clone(),
                hint: hint_str(it.hint).map(String::from),
                idempotency_key: it.idempotency_key.map(String::from),
                ir: it.ir.clone(),
            })
            .collect();
        let raw = self.client.http.request_bytes(
            "POST",
            &format!("/v1/tasks:batch?token={}", self.token),
            wire::CONTENT_TYPE_BIN,
            Some(&wire::encode_submit_batch(&frames)),
        )?;
        if !(200..300).contains(&raw.status) {
            return Err(api_error(&raw));
        }
        let slots = wire::decode_batch_reply(&raw.body)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok(slots.into_iter().map(slot_to_outcome).collect())
    }

    fn submit_batch_json(
        &self,
        items: &[BatchItem<'_>],
    ) -> Result<Vec<Result<u64, ClientError>>, ClientError> {
        let body: Vec<serde_json::Value> = items
            .iter()
            .map(|it| {
                serde_json::json!({
                    "token": self.token,
                    "ir": it.ir,
                    "hint": hint_str(it.hint),
                    "idempotency_key": it.idempotency_key,
                })
            })
            .collect();
        let (st, body) = self.client.request(
            "POST",
            "/v1/tasks:batch",
            Some(&serde_json::Value::Array(body).to_string()),
        )?;
        let body = expect_2xx(st, body)?;
        let v: serde_json::Value =
            serde_json::from_str(&body).map_err(|e| ClientError::Protocol(e.to_string()))?;
        let slots = v
            .as_array()
            .ok_or_else(|| ClientError::Protocol("batch reply is not an array".into()))?;
        Ok(slots
            .iter()
            .map(|s| match s["task_id"].as_u64() {
                Some(id) => Ok(id),
                None => Err(ClientError::Api {
                    status: s["status"].as_u64().unwrap_or(500) as u16,
                    message: s["error"].as_str().unwrap_or("unknown error").to_string(),
                }),
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

    /// Current status of a task. The token query parameter is ignored by a
    /// daemon reached directly; through a gateway it is the placement key
    /// that routes the poll to the session's shard.
    pub fn status(&self, task: u64) -> Result<DaemonTaskStatus, ClientError> {
        let path = format!("/v1/tasks/{task}?token={}", self.token);
        self.get_decoded(&path, |body| {
            wire::decode_status(body).map(wire_status_to_daemon)
        })
    }

    /// Fetch the result of a completed task (token routes as in
    /// [`Self::status`]).
    pub fn result(&self, task: u64) -> Result<SampleResult, ClientError> {
        let path = format!("/v1/tasks/{task}/result?token={}", self.token);
        self.get_decoded(&path, wire::decode_result)
    }

    /// One GET, decoded from whichever codec the daemon answered in. With
    /// the binary codec active the request asks for a binary reply via
    /// `Accept`; a daemon that does not speak the codec ignores the header
    /// and answers JSON, so the decoder is picked by the response's
    /// content-type instead of expecting an error.
    fn get_decoded<T: serde::Deserialize>(
        &self,
        path: &str,
        decode_bin: impl FnOnce(&[u8]) -> Result<T, wire::WireError>,
    ) -> Result<T, ClientError> {
        let body = if self.client.binary_active() {
            let raw = self.client.http.request_bytes_accept(
                "GET",
                path,
                "application/json",
                Some(wire::CONTENT_TYPE_BIN),
                None,
            )?;
            // non-2xx is an Api error whichever codec the error body is in
            if !(200..300).contains(&raw.status) {
                return Err(api_error(&raw));
            }
            if raw.content_type.starts_with(wire::CONTENT_TYPE_BIN) {
                return decode_bin(&raw.body).map_err(|e| ClientError::Protocol(e.to_string()));
            }
            String::from_utf8_lossy(&raw.body).into_owned()
        } else {
            let (st, body) = self.client.request("GET", path, None)?;
            expect_2xx(st, body)?
        };
        serde_json::from_str(&body).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Cancel a queued task.
    pub fn cancel(&self, task: u64) -> Result<(), ClientError> {
        let (st, body) = self.client.request(
            "DELETE",
            &format!("/v1/tasks/{task}?token={}", self.token),
            None,
        )?;
        expect_2xx(st, body).map(|_| ())
    }

    /// Poll until the task completes (optionally pumping the daemon's queue
    /// each round), then fetch the result. `max_polls` is a count, not a
    /// time: without pumping, poll `n` is preceded by a sleep of 250 µs × 2ⁿ
    /// capped at [`DaemonClient::poll_interval`], so 10 000 polls at the
    /// default 20 ms interval give up after ≈ 200 s (seven ramp-up polls
    /// inside the first 32 ms, the rest 20 ms apart).
    pub fn wait(&self, task: u64, max_polls: usize) -> Result<SampleResult, ClientError> {
        for poll in 0..max_polls {
            if self.client.pump_on_poll {
                // the token body field is routing metadata for gateways;
                // the daemon's pump handler does not read it
                let body = format!(r#"{{"token":"{}"}}"#, self.token);
                let (st, body) = self.client.request("POST", "/v1/pump", Some(&body))?;
                expect_2xx(st, body)?;
            } else {
                std::thread::sleep(poll_delay(poll, self.client.poll_interval));
            }
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
        let (st, body) =
            self.client
                .request("DELETE", &format!("/v1/sessions/{}", self.token), None)?;
        expect_2xx(st, body).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_emulator::SvBackend;
    use hpcqc_middleware::rest::serve;
    use hpcqc_middleware::{DaemonConfig, MiddlewareService};
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

    fn daemon() -> hpcqc_middleware::HttpServer {
        serve(service()).unwrap()
    }

    fn ir(shots: u32) -> ProgramIr {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "client-test")
    }

    #[test]
    fn end_to_end_session_over_sockets() {
        let server = daemon();
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

    /// The shipped CLI's path (`pump_on_poll = false`, then `run`): neither
    /// the dispatcher's idle interval nor the client's poll interval is a
    /// floor under the time to result. Both are 5 s here, the task takes
    /// milliseconds.
    #[test]
    fn run_against_a_self_dispatching_daemon_does_not_wait_out_an_interval() {
        let interval = Duration::from_secs(5);
        let svc = service();
        let _dispatcher = svc.spawn_dispatcher(interval);
        let server = serve(Arc::clone(&svc)).unwrap();
        let mut client = DaemonClient::new(server.addr());
        client.pump_on_poll = false;
        client.poll_interval = interval;
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
            ..GatewayConfig::default()
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
        let server = daemon();
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
