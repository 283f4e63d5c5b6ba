//! REST client for the middleware daemon.
//!
//! The runtime side of the session protocol (paper §3.3): connect, receive a
//! session token, submit programs, poll, fetch results. In multi-user HPC
//! deployments programs reach the daemon, which owns prioritization and
//! preemption, as the QRMI resource [`DaemonResource`]: through the runtime's
//! `--qpu` switch and its one retry loop, like any other backend.
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

use hpcqc_emulator::SampleResult;
use hpcqc_middleware::http::{HttpClient, HttpError};
use hpcqc_middleware::protocol::{Codec, Message, OpenSessionReq};
use hpcqc_middleware::{DaemonTaskStatus, PriorityClass};
use hpcqc_program::{DeviceSpec, ProgramIr};
use hpcqc_qrmi::{
    AcquisitionToken, ConfigError, QrmiError, QuantumResource, ResourceConfig, ResourceType,
    TaskId, TaskStatus,
};
use hpcqc_scheduler::PatternHint;
use hpcqc_wire::{BatchSlot, SubmitFrame};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
            let codec = if binary && self.binary.load(Ordering::Relaxed) {
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
        Ok(self.session(token))
    }

    /// The session `token` names, on this client's connection.
    pub(crate) fn session(&self, token: impl Into<String>) -> DaemonSession {
        let (client, token) = (self.clone(), token.into());
        DaemonSession { client, token }
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

/// A daemon as a QRMI resource (`QRMI_RESOURCE_<ID>_TYPE=daemon`): a lease
/// is a session, a task id carries its session token (reads keep a gateway's
/// sticky placement). A retried start runs once: a lease holds its start's
/// idempotency key until the outcome (result, failure, cancel) is read, and a
/// release before that leaves it for the program's next start. A read outcome
/// leaves nothing: a second run, or a retry after a failure, runs anew.
pub struct DaemonResource {
    id: String,
    client: DaemonClient,
    user: String,
    class: PriorityClass,
    /// Program fingerprint → key of a start released before its outcome.
    unacked: Mutex<HashMap<u64, String>>,
    /// Lease token → its start's program fingerprint and key.
    held: Mutex<HashMap<String, (u64, String)>>,
    /// Polls since the last start (one task at a time): the ramp's index.
    polls: AtomicUsize,
    nonce: AtomicU64,
}

impl DaemonResource {
    /// From a `daemon` entry: `_ADDR`, then `_USER` (default `$USER`) and
    /// `_CLASS` (default `development`).
    pub fn from_config(rc: &ResourceConfig) -> Result<Self, ConfigError> {
        let param = |name: &str| rc.params.get(name).cloned();
        let addr = param("addr").ok_or(ConfigError::MissingKey(rc.key("addr")))?;
        let user = param("user").or_else(|| std::env::var("USER").ok());
        let class = param("class").unwrap_or_else(|| "development".into());
        Ok(DaemonResource {
            id: rc.id.clone(),
            client: DaemonClient::new(addr),
            user: user.unwrap_or_else(|| "anonymous".into()),
            class: PriorityClass::parse(&class).ok_or(ConfigError::BadValue {
                key: rc.key("class"),
                value: class.clone(),
                expected: "production | test | development",
            })?,
            unacked: Mutex::default(),
            held: Mutex::default(),
            polls: AtomicUsize::default(),
            nonce: AtomicU64::default(),
        })
    }

    /// The session and the daemon task id a [`TaskId`] names.
    fn task(&self, task: &TaskId) -> Result<(DaemonSession, u64), QrmiError> {
        let (token, id) = task.0.rsplit_once('/').ok_or(QrmiError::UnknownTask)?;
        let id = id.parse().map_err(|_| QrmiError::UnknownTask)?;
        Ok((self.client.session(token), id))
    }
}

/// Transport errors and 503s become `Backend`, which the runtime retries; a
/// bad token or task id does not.
fn qrmi_error(e: ClientError) -> QrmiError {
    match e {
        ClientError::Api { status: 401, .. } => QrmiError::InvalidToken,
        ClientError::Api { status: 404, .. } => QrmiError::UnknownTask,
        e => QrmiError::Backend(e.to_string()),
    }
}

impl QuantumResource for DaemonResource {
    fn resource_id(&self) -> &str {
        &self.id
    }

    fn resource_type(&self) -> ResourceType {
        ResourceType::Daemon
    }

    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        let opened = self.client.open_session(&self.user, self.class);
        let session = opened.map_err(|e| QrmiError::AcquisitionDenied(e.to_string()))?;
        Ok(AcquisitionToken(session.token))
    }

    /// Best effort: failing a run whose result is in hand over a close lost
    /// to a drain or a failover would make the runtime run it again.
    fn release(&self, token: &AcquisitionToken) -> Result<(), QrmiError> {
        if let Some((fingerprint, key)) = self.held.lock().remove(&token.0) {
            self.unacked.lock().insert(fingerprint, key);
        }
        let _ = self.client.session(&token.0).close();
        Ok(())
    }

    fn target(&self) -> Result<DeviceSpec, QrmiError> {
        self.client.target().map_err(qrmi_error)
    }

    fn task_start(&self, token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError> {
        let fingerprint = ir.fingerprint();
        let key = self.unacked.lock().remove(&fingerprint).unwrap_or_else(|| {
            format!("{}:{}", token.0, self.nonce.fetch_add(1, Ordering::Relaxed))
        });
        self.polls.store(0, Ordering::Relaxed);
        let session = self.client.session(&token.0);
        let id = session.submit_keyed(ir, PatternHint::None, Some(&key));
        // whatever the reply: a refused start admitted nothing under its key
        self.held.lock().insert(token.0.clone(), (fingerprint, key));
        Ok(TaskId(format!("{}/{}", token.0, id.map_err(qrmi_error)?)))
    }

    fn task_status(&self, task: &TaskId) -> Result<TaskStatus, QrmiError> {
        let (session, id) = self.task(task)?;
        let poll = self.polls.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(poll_delay(poll, POLL_INTERVAL));
        let status = match session.status(id).map_err(qrmi_error)? {
            DaemonTaskStatus::Queued { .. } => TaskStatus::Queued,
            DaemonTaskStatus::Running => TaskStatus::Running,
            DaemonTaskStatus::Completed => TaskStatus::Completed,
            DaemonTaskStatus::Failed(m) => TaskStatus::Failed(m),
            DaemonTaskStatus::Cancelled => TaskStatus::Cancelled,
        };
        if matches!(status, TaskStatus::Failed(_) | TaskStatus::Cancelled) {
            self.held.lock().remove(&session.token);
        }
        Ok(status)
    }

    fn task_stop(&self, task: &TaskId) -> Result<(), QrmiError> {
        let (session, id) = self.task(task)?;
        session.cancel(id).map_err(qrmi_error)
    }

    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        let (session, id) = self.task(task)?;
        let result = session.result(id).map_err(qrmi_error)?;
        self.held.lock().remove(&session.token);
        Ok(result)
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        let health = self.client.healthz().unwrap_or_else(|e| e.to_string());
        let addr = self.client.addr.clone();
        BTreeMap::from([("addr".into(), addr), ("health".into(), health)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{AttemptBudget, RetryPolicy};
    use hpcqc_emulator::SvBackend;
    use hpcqc_middleware::rest::serve_on;
    use hpcqc_middleware::{DaemonConfig, HttpServer, MiddlewareService, Site};
    use hpcqc_program::{Pulse, Register, SequenceBuilder};
    use hpcqc_qrmi::LocalEmulatorResource;
    use std::sync::Arc;

    fn service() -> MiddlewareService {
        let res = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        MiddlewareService::new(res, DaemonConfig::default())
    }

    /// A daemon with no dispatcher: nothing runs what is submitted.
    fn daemon() -> HttpServer {
        serve_on(Arc::new(service()), 0).unwrap()
    }

    fn ir(shots: u32) -> ProgramIr {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "client-test")
    }

    #[test]
    fn end_to_end_session_over_sockets() {
        let site = Site::spawn(service(), 0).unwrap();
        let client = DaemonClient::new(site.addr());
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

    /// The shipped CLI's path (`Runtime::run` over a `DaemonResource`): the
    /// dispatcher's idle interval is no floor under the time to result. It
    /// is 5 s here, the task takes milliseconds.
    #[test]
    fn run_against_a_self_dispatching_daemon_does_not_wait_out_an_interval() {
        let svc = Arc::new(service());
        let _dispatcher = svc.spawn_dispatcher(Duration::from_secs(5));
        let server = serve_on(Arc::clone(&svc), 0).unwrap();
        let rt = site_runtime(&server.addr().to_string());
        // time for the dispatcher to find the queue empty and park (the
        // case a sleeping one fails); the bound holds if it has not yet
        std::thread::sleep(Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        let report = rt.run(&ir(42)).unwrap();
        let took = t0.elapsed();
        assert_eq!(report.result.shots, 42);
        assert!(took < Duration::from_secs(2), "run took {took:?}");
    }

    #[test]
    fn api_errors_carry_status() {
        let server = daemon();
        let client = DaemonClient::new(server.addr());
        let bogus = client.session("nope");
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
        // a fresh key gets a fresh task
        let third = session
            .submit_keyed(&ir(7), PatternHint::None, Some("job-2"))
            .unwrap();
        assert_ne!(first, third);
    }

    /// The daemon (or gateway) at `addr` as the QRMI resource `site`, in the
    /// test class.
    fn site(addr: &str) -> DaemonResource {
        let params = [("addr", addr), ("class", "test")];
        let params = params.map(|(k, v)| (k.to_string(), v.to_string())).into();
        let (id, rtype) = ("site".to_string(), ResourceType::Daemon);
        DaemonResource::from_config(&ResourceConfig { id, rtype, params }).unwrap()
    }

    /// A runtime on [`site`], with a client-side retry budget.
    fn site_runtime(addr: &str) -> crate::Runtime {
        let mut registry = hpcqc_qrmi::ResourceRegistry::new();
        registry.register(Arc::new(site(addr)));
        let budget = AttemptBudget {
            max_attempts: 40,
            max_backoff_secs: 5.0,
        };
        let policy = RetryPolicy {
            base_delay_secs: 0.01,
            max_delay_secs: 0.25,
            ..RetryPolicy::default()
        };
        crate::Runtime::new(registry)
            .with_qpu("site")
            .with_retry_policy(policy.with_budget(PriorityClass::Test, budget))
            .with_priority_class(PriorityClass::Test)
    }

    /// The QRMI calls map onto one session: a task id carries the lease's
    /// token, `task_stop` cancels, `metadata` reads `healthz`.
    #[test]
    fn daemon_resource_maps_qrmi_calls_onto_a_session() {
        let server = daemon(); // no dispatcher: the task stays queued
        let res = site(&server.addr().to_string());
        let lease = res.acquire().unwrap();
        let task = res.task_start(&lease, &ir(5)).unwrap();
        assert!(task.0.starts_with(&format!("{}/", lease.0)), "{task:?}");
        assert_eq!(res.task_status(&task).unwrap(), TaskStatus::Queued);
        res.task_stop(&task).unwrap();
        assert_eq!(res.task_status(&task).unwrap(), TaskStatus::Cancelled);
        assert_eq!(res.metadata()["health"], "ok");
        res.release(&lease).unwrap();
    }

    /// The replicated control plane from the client's side: a run started
    /// while its shard drains, dies and fails over to a promoted follower
    /// comes back `Ok` from `Runtime::run_recovered` over a `DaemonResource`
    /// behind the gateway, and the promoted daemon holds each run's task
    /// once. A retry loop that does not sleep burns its attempts before the
    /// promotion finishes; one that treats the drain's 503 as fatal fails.
    #[test]
    fn run_recovered_rides_through_drain_and_promotion() {
        use hpcqc_middleware::journal::FollowerReplica;
        use hpcqc_middleware::{Gateway, GatewayConfig, ShardConfig};

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
        let leader =
            MiddlewareService::recover(&dir_a, res.clone() as _, DaemonConfig::default()).unwrap();
        leader.enable_shipping().unwrap();
        let site_a = Site::spawn(leader, 0).unwrap();
        let replica = FollowerReplica::open(&dir_b).unwrap();
        let shipper = site_a
            .service()
            .spawn_shipper(replica, "b", Duration::from_millis(2));

        // Reserve the follower's port up front so the gateway can be
        // configured before the follower exists.
        let reserved = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let follower_addr = reserved.local_addr().unwrap().to_string();
        let follower_port = reserved.local_addr().unwrap().port();
        let gw = Arc::new(Gateway::new(GatewayConfig {
            shards: vec![ShardConfig {
                name: "s0".into(),
                primary: site_a.addr(),
                follower: Some(follower_addr),
            }],
        }));
        let gw_server = gw.serve(0).unwrap();
        let site = gw_server.addr().to_string();
        assert_eq!(
            site_runtime(&site).run_recovered(&ir(5)).unwrap().attempts,
            1
        );

        // Kill the leader: drain (503s), final ship, then the socket dies.
        site_a.service().shutdown(Duration::from_millis(100));
        shipper.stop();
        let last_acked = site_a.service().last_acked();
        // everything shipped was acked by the final pump: no lag left
        let text = site_a.service().metrics_text();
        drop(site_a);
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

        // A second run starts while the shard has no serving replica; it
        // must retry with backoff through the whole failover window.
        let runner = std::thread::spawn(move || site_runtime(&site).run_recovered(&ir(9)));
        std::thread::sleep(Duration::from_millis(30)); // let it fail a few times

        // Promote the follower onto the reserved port and repoint traffic.
        drop(reserved);
        let promoted =
            MiddlewareService::promote(&dir_b, res as _, DaemonConfig::default(), last_acked)
                .unwrap();
        let text = promoted.metrics_text();
        assert!(text.contains("replication_promotions_total 1\n"), "{text}");
        assert!(
            text.contains("replication_failover_seconds_count 1\n"),
            "{text}"
        );
        let site_b = Site::spawn(promoted, follower_port).unwrap();
        gw.probe_once();

        let run = runner
            .join()
            .unwrap()
            .expect("the run must survive failover");
        assert_eq!(run.report.result.shots, 9);
        assert!(run.attempts > 1, "the run started inside the window");
        // one task per run on the promoted daemon, both completed
        let state = site_b.service().snapshot_state();
        assert_eq!((state.task_meta.len(), state.completed.len()), (2, 2));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    /// The binary wire codec end to end through the SDK: submit, batch
    /// submit, status and result all ride `application/x-hpcqc-bin`; slot
    /// errors stay per-frame; idempotency keys dedup across batches.
    #[test]
    fn binary_codec_submits_batches_and_reads_results() {
        let site = Site::spawn(service(), 0).unwrap();
        let client = DaemonClient::new(site.addr()).prefer_binary();
        let session = client.open_session("ada", PriorityClass::Test).unwrap();

        // single submit + wait: binary Submit/TaskId/Status/Result frames
        let result = session.run(&ir(42), PatternHint::QcBalanced).unwrap();
        assert_eq!(result.shots, 42);
        assert!(
            client.binary.load(Ordering::Relaxed),
            "no 415 — still binary"
        );

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
        assert!(!client.binary.load(Ordering::Relaxed), "415 must downgrade");
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
