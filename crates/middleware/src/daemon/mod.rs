//! The middleware daemon service (in-process core).
//!
//! This is the component Figure 2 places on the quantum access node: it owns
//! the QPU-side QRMI resource, manages sessions, validates programs against
//! the *current* device spec, queues tasks by priority class, runs them with
//! shot-batch preemption, and exposes admin + observability surfaces. The
//! REST layer in [`crate::http`] is a thin transport over this object, so
//! unit tests drive it directly while integration tests go over real sockets.

mod admission;
mod dispatch;
mod recovery;
mod replication;

pub use admission::SubmitItem;
pub use dispatch::DispatcherHandle;
pub use replication::{ReadinessReport, ReplicaRole, ShipperHandle};

use crate::journal::{JournalConfig, JournalRecord, SharedJournal};
use crate::session::{mint_token, PriorityClass, Session, SessionError};
use crate::taskqueue::{QueueConfig, QueueError, TaskQueue};
use crate::tasks::{Applied, IllegalTransition, TaskTable};
use hpcqc_analysis::Analyzer;
use hpcqc_program::DeviceSpec;
use hpcqc_qpu::{QpuStatus, VirtualQpu};
use hpcqc_qrmi::QuantumResource;
use hpcqc_sync::{rank, TrackedMutex as Mutex, TrackedRwLock};
use hpcqc_telemetry::{catalog, labels, Labels, Registry};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Daemon configuration (the site-tunable `slurm.conf` analogue of §3.4).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Queue behaviour.
    pub queue: QueueConfig,
    /// Concurrent session cap (0 = unlimited).
    pub max_sessions: usize,
    /// Shot cap applied to development tasks ("non-production jobs
    /// configured with a low number of shots", §3.3).
    pub dev_shot_cap: u32,
    /// Chunk size for unbatched (preemptible) execution: test/development
    /// tasks run in slices of this many shots, with preemption checks in
    /// between.
    pub preempt_chunk_shots: u32,
    /// Validate programs against the live device spec at submission.
    pub validate_on_submit: bool,
    /// Run the full static-analysis pipeline at submission: reject on
    /// Error-level diagnostics, record Warning-level ones in the job record,
    /// and cross-check the user's pattern hint against the inferred one.
    pub analyze_on_submit: bool,
    /// Sessions idle longer than this are expired by the clock (0 = never).
    pub session_ttl_secs: f64,
    /// Requeues allowed after an execution failure before a task is declared
    /// poisoned and failed permanently.
    pub max_task_retries: u32,
    /// Write-ahead journal tuning (only consulted when the daemon was opened
    /// with [`MiddlewareService::recover`]).
    pub journal: JournalConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            queue: QueueConfig::default(),
            max_sessions: 0,
            dev_shot_cap: 100,
            preempt_chunk_shots: 10,
            validate_on_submit: true,
            analyze_on_submit: true,
            session_ttl_secs: 0.0,
            max_task_retries: 2,
            journal: JournalConfig::default(),
        }
    }
}

/// Readiness of the daemon, exposed via `GET /v1/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DaemonHealth {
    /// Serving: sessions open, submissions admitted.
    Ok,
    /// Graceful drain in progress: no new admissions, queue still pumping.
    Draining,
    /// Drained and fsynced; the process is about to exit.
    Stopped,
}

impl DaemonHealth {
    /// Every state, indexed by the daemon's `lifecycle` word.
    const ALL: [DaemonHealth; 3] = [
        DaemonHealth::Ok,
        DaemonHealth::Draining,
        DaemonHealth::Stopped,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            DaemonHealth::Ok => "ok",
            DaemonHealth::Draining => "draining",
            DaemonHealth::Stopped => "stopped",
        }
    }
}

/// Outcome of a graceful [`MiddlewareService::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Tasks dispatched during the drain window.
    pub dispatched: usize,
    /// Tasks left queued — safely journaled for the next start.
    pub pending: usize,
}

/// Daemon-side task state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DaemonTaskStatus {
    /// Waiting; `position` is the current dispatch-order index.
    Queued { position: usize },
    /// On the device now.
    Running,
    /// Done; result available.
    Completed,
    /// Rejected or errored.
    Failed(String),
    /// Cancelled by the user.
    Cancelled,
}

/// Errors surfaced by the daemon API.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonError {
    Session(SessionError),
    Queue(String),
    /// Program failed validation; messages list the violations.
    Validation(Vec<String>),
    UnknownTask(u64),
    /// Operation not allowed for this session/class.
    Forbidden(String),
    /// The daemon is draining or recovering and admits no new work (REST
    /// maps this to 503 so load balancers take the node out of rotation).
    Unavailable(String),
    Internal(String),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Session(e) => write!(f, "session error: {e}"),
            DaemonError::Queue(m) => write!(f, "queue error: {m}"),
            DaemonError::Validation(v) => write!(f, "validation failed: {}", v.join("; ")),
            DaemonError::UnknownTask(id) => write!(f, "unknown task {id}"),
            DaemonError::Forbidden(m) => write!(f, "forbidden: {m}"),
            DaemonError::Unavailable(m) => write!(f, "unavailable: {m}"),
            DaemonError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<SessionError> for DaemonError {
    fn from(e: SessionError) -> Self {
        DaemonError::Session(e)
    }
}

/// A live path built a record the table refused: a daemon bug, never a
/// client's.
impl From<IllegalTransition> for DaemonError {
    fn from(e: IllegalTransition) -> Self {
        DaemonError::Internal(e.to_string())
    }
}

impl From<QueueError> for DaemonError {
    fn from(e: QueueError) -> Self {
        DaemonError::Queue(e.to_string())
    }
}

/// The middleware daemon.
pub struct MiddlewareService {
    /// The daemon's state: every task's lifecycle, the dispatch queue, the
    /// idempotency map, the open sessions, the admin-set device status and
    /// the replay floors — changed only by `TaskTable::apply` — plus the
    /// volatile fair-share usage and development-result cache, all behind
    /// one lock. Never held across a journal write, an fsync, analysis or a
    /// QRMI call.
    tasks: Mutex<TaskTable>,
    resource: Arc<dyn QuantumResource>,
    /// Direct handle to the device for the admin surface (None when the
    /// daemon fronts a cloud resource it cannot administer).
    qpu_admin: Option<VirtualQpu>,
    /// Alternate resources a requeued task may be dispatched to after
    /// failing on the primary (e.g. a local emulator for degraded service).
    alternates: Vec<Arc<dyn QuantumResource>>,
    next_task: AtomicU64,
    /// The simulated clock (seconds), an `f64` in an atomic word: the submit
    /// and status paths read it without a lock. It only moves forward.
    clock: AtomicU64,
    registry: Registry,
    cfg: DaemonConfig,
    /// Serializes dispatch: the QPU is a serial device, and concurrent REST
    /// clients all pump the queue — only one dispatch may hold the resource
    /// lease at a time.
    dispatch_lock: Mutex<()>,
    /// Raised by `submit_batch`, waited on by the idle background
    /// dispatcher in place of a sleep.
    wake: dispatch::WakeSignal,
    /// The static-analysis pipeline run at submission.
    analyzer: Analyzer,
    /// Write-ahead journal; `None` for a purely in-memory daemon.
    journal: Option<SharedJournal>,
    /// Compaction gate: appends hold it shared around their WAL write,
    /// compaction holds it exclusive across snapshot + compact. Closes the
    /// lost-record window where an append lands between `snapshot_state`
    /// and the WAL cut — journaled but absent from the snapshot, so gone
    /// after recovery.
    compact_gate: TrackedRwLock<()>,
    /// Serving → Draining → Stopped, as an index into `DaemonHealth::ALL`.
    lifecycle: AtomicU8,
    /// Whether this daemon is an unpromoted follower ([`ReplicaRole`]).
    follower: AtomicBool,
}

impl MiddlewareService {
    pub fn new(resource: Arc<dyn QuantumResource>, cfg: DaemonConfig) -> Self {
        MiddlewareService {
            tasks: Mutex::new(
                "middleware.daemon.tasks",
                rank::TASKS,
                TaskTable::new(TaskQueue::new(cfg.queue)),
            ),
            resource,
            qpu_admin: None,
            alternates: Vec::new(),
            next_task: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            registry: Registry::new(),
            cfg,
            dispatch_lock: Mutex::new("middleware.daemon.dispatch", rank::DISPATCH, ()),
            wake: dispatch::WakeSignal::default(),
            analyzer: Analyzer::standard(),
            journal: None,
            compact_gate: TrackedRwLock::new(
                "middleware.daemon.compact_gate",
                rank::COMPACT_GATE,
                (),
            ),
            lifecycle: AtomicU8::new(DaemonHealth::Ok as u8),
            follower: AtomicBool::new(false),
        }
    }

    /// Attach the device for admin operations (on-prem deployment). If the
    /// journal recorded an admin-set status before the restart, it is
    /// re-applied here.
    pub fn with_qpu_admin(mut self, qpu: VirtualQpu) -> Self {
        if let Some(s) = self.tasks.get_mut().qpu_status().and_then(QpuStatus::parse) {
            qpu.set_status(s);
        }
        self.qpu_admin = Some(qpu);
        self
    }

    /// Register an alternate resource that requeued tasks may run on after
    /// failing on the primary.
    pub fn with_alternate_resource(mut self, res: Arc<dyn QuantumResource>) -> Self {
        self.alternates.push(res);
        self
    }

    // ---- durability -----------------------------------------------------

    /// Append one record to the WAL (no-op for in-memory daemons) and run
    /// compaction when the policy asks for it.
    ///
    /// Call sites hold no daemon state lock ranked at or below
    /// [`rank::COMPACT_GATE`] other than `dispatch_lock`: compaction
    /// snapshots the whole service state and tracked mutexes are not
    /// reentrant.
    fn journal_append(&self, rec: &JournalRecord) {
        self.journal_append_inner(rec, false)
    }

    /// [`journal_append`](Self::journal_append) for client-visible request
    /// paths (submit/cancel/session): a batch this append trips is left
    /// for the dispatcher to write, so no client ever waits on an fsync —
    /// the lock audit traced the submit p99 tail to exactly that
    /// one-in-`group_max_records` write under `middleware.journal.file`
    /// (hold p99 ≈ 4 ms).
    fn journal_append_deferred(&self, rec: &JournalRecord) {
        self.journal_append_inner(rec, true)
    }

    fn journal_append_inner(&self, rec: &JournalRecord, defer: bool) {
        let Some(journal) = &self.journal else {
            return;
        };
        let wants_compaction = {
            // Shared gate around the append: compaction cannot cut the WAL
            // between a sibling thread's snapshot and this record landing.
            let _gate = self.compact_gate.read();
            let res = if defer {
                journal.append_deferred(rec)
            } else {
                journal.append(rec)
            };
            match res {
                Ok(out) => {
                    self.count(&catalog::JOURNAL_APPENDS, 1);
                    self.count(&catalog::JOURNAL_BYTES, out.bytes);
                    if out.fsynced {
                        self.count(&catalog::JOURNAL_FSYNCS, 1);
                    }
                    out.wants_compaction
                }
                Err(e) => {
                    self.journal_error("append", &e);
                    false
                }
            }
        };
        if wants_compaction {
            let _ = self.compact_journal(false);
        }
    }

    /// The one compaction (append path, `recover`, `shutdown`): when forced
    /// or the policy still asks, snapshot and compact under the exclusive
    /// gate, so no append lands between the snapshot and the WAL cut (the
    /// lost-record window the lock audit surfaced); counts the outcome.
    fn compact_journal(&self, force: bool) -> std::io::Result<()> {
        let _gate = self.compact_gate.write();
        let journal = self.journal.as_ref();
        let Some(journal) = journal.filter(|j| force || j.wants_compaction()) else {
            return Ok(());
        };
        let res = journal.compact(&self.snapshot_state());
        match &res {
            Ok(()) => self.count(&catalog::JOURNAL_SNAPSHOTS, 1),
            Err(e) => self.journal_error("compact", e),
        }
        res
    }

    /// Flush and fsync any buffered group-commit batch. Called by the
    /// background dispatcher when the queue runs dry and then once per idle
    /// interval, so a lull in traffic never strands an unflushed batch;
    /// no-op when nothing is pending.
    pub fn sync_journal(&self) {
        let Some(journal) = &self.journal else {
            return;
        };
        // buffered records count as unsynced, so this one question covers both
        if journal.unsynced_appends() == 0 {
            return;
        }
        let _gate = self.compact_gate.read();
        match journal.sync() {
            Ok(()) => self.count(&catalog::JOURNAL_FSYNCS, 1),
            Err(e) => self.journal_error("fsync", &e),
        }
    }

    /// A journal IO failure: counted, never fatal — the daemon keeps serving
    /// from memory (durability degrades, availability does not).
    fn journal_error(&self, op: &str, e: &std::io::Error) {
        let _ = e;
        self.registry
            .inc(&catalog::JOURNAL_ERRORS, labels(&[("op", op)]), 1.0);
    }

    /// Add `n` to one of the daemon's unlabelled counters.
    fn count(&self, c: &catalog::Counter, n: usize) {
        self.registry.inc(c, Labels::new(), n as f64);
    }

    /// Add one to one of the daemon's per-class counters.
    fn count_class(&self, c: &catalog::Counter, class: PriorityClass) {
        self.registry
            .inc(c, labels(&[("class", class.as_str())]), 1.0);
    }

    /// Current liveness (the `GET /v1/healthz` answer).
    pub fn health(&self) -> DaemonHealth {
        DaemonHealth::ALL[self.lifecycle.load(Ordering::SeqCst) as usize]
    }

    fn set_health(&self, h: DaemonHealth) {
        self.lifecycle.store(h as u8, Ordering::SeqCst);
    }

    /// The daemon's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Daemon clock (seconds).
    pub fn now(&self) -> f64 {
        f64::from_bits(self.clock.load(Ordering::Relaxed))
    }

    /// Move the clock `dt` forward; returns the new time.
    fn advance_clock(&self, dt: f64) -> f64 {
        let add = |t| Some((f64::from_bits(t) + dt).to_bits());
        let before = self
            .clock
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
        f64::from_bits(before.expect("the update always answers")) + dt
    }

    /// Advance the daemon clock (simulated idle time). Expires idle
    /// sessions past their TTL.
    pub fn advance_time(&self, dt: f64) {
        let rec = JournalRecord::ClockAdvanced {
            to: self.advance_clock(dt),
        };
        if let Some(q) = &self.qpu_admin {
            q.advance_time(dt);
        }
        self.tasks
            .lock()
            .apply(&rec)
            .expect("the clock record is legal");
        self.journal_append(&rec);
        self.gc_sessions();
    }

    /// Expire sessions idle past the TTL (no-op when the TTL is disabled).
    fn gc_sessions(&self) {
        if self.cfg.session_ttl_secs <= 0.0 {
            return;
        }
        let cutoff = self.now() - self.cfg.session_ttl_secs;
        let (expired, rec) = {
            let mut tasks = self.tasks.lock();
            let tokens = tasks.idle_since(cutoff);
            if tokens.is_empty() {
                return;
            }
            let (n, rec) = (tokens.len(), JournalRecord::SessionsExpired { tokens });
            tasks.apply(&rec).expect("session records are legal");
            (n, rec)
        };
        self.count(&catalog::DAEMON_SESSIONS_EXPIRED, expired);
        self.journal_append(&rec);
    }

    /// TTL-aware session lookup under the caller's table hold, for every
    /// client-facing call: an idle-expired session is removed by applying
    /// `SessionsExpired` ([`Self::after_check`] journals it once the hold is
    /// released) and reported as [`SessionError::Expired`]; an active one
    /// has its idle clock touched.
    fn check_session(&self, tasks: &mut TaskTable, token: &str) -> Result<Session, SessionError> {
        let (now, ttl) = (self.now(), self.cfg.session_ttl_secs);
        let s = tasks.session(token).ok_or(SessionError::UnknownToken)?;
        if ttl > 0.0 && now - s.last_active >= ttl {
            let rec = JournalRecord::SessionsExpired {
                tokens: vec![token.to_string()],
            };
            tasks.apply(&rec).expect("session records are legal");
            return Err(SessionError::Expired);
        }
        Ok(tasks
            .touch(token, now)
            .expect("the session was just looked up"))
    }

    /// The part of a [`Self::check_session`] that waits for the table hold
    /// to be released: count and journal the expiry it applied.
    fn after_check(
        &self,
        token: &str,
        checked: Result<Session, SessionError>,
    ) -> Result<Session, DaemonError> {
        if checked == Err(SessionError::Expired) {
            self.count(&catalog::DAEMON_SESSIONS_EXPIRED, 1);
            self.journal_append(&JournalRecord::SessionsExpired {
                tokens: vec![token.to_string()],
            });
        }
        Ok(checked?)
    }

    fn validate_session(&self, token: &str) -> Result<Session, DaemonError> {
        let checked = self.check_session(&mut self.tasks.lock(), token);
        self.after_check(token, checked)
    }

    /// Reject client calls once draining/stopped — or while this daemon is
    /// an unpromoted follower (warm standbys never admit client work; the
    /// gateway routes around them via `readyz`).
    fn check_admitting(&self) -> Result<(), DaemonError> {
        if self.role() == ReplicaRole::Follower {
            return Err(DaemonError::Unavailable("daemon is a follower".into()));
        }
        match self.health() {
            DaemonHealth::Ok => Ok(()),
            h => Err(DaemonError::Unavailable(format!(
                "daemon is {}",
                h.as_str()
            ))),
        }
    }

    // ---- session API -------------------------------------------------

    /// Open a session for `user` in `class`; returns the token. The site's
    /// session cap is checked, and the token minted, in the hold that
    /// applies the `SessionOpened`.
    pub fn open_session(&self, user: &str, class: PriorityClass) -> Result<String, DaemonError> {
        self.check_admitting()?;
        let (token, rec) = {
            let mut tasks = self.tasks.lock();
            let max = self.cfg.max_sessions;
            if max > 0 && tasks.session_count() >= max {
                return Err(SessionError::TooManySessions(max).into());
            }
            // applying the `SessionOpened` raises the floor past `n`
            let n = tasks.floors().session_counter.max(1);
            let now = self.now();
            let session = Session {
                token: mint_token(n, user),
                user: user.into(),
                class,
                created_at: now,
                last_active: now,
                task_count: 0,
            };
            let token = session.token.clone();
            let rec = JournalRecord::SessionOpened { session };
            tasks.apply(&rec)?;
            (token, rec)
        };
        self.count_class(&catalog::DAEMON_SESSIONS_OPENED, class);
        self.journal_append_deferred(&rec);
        Ok(token)
    }

    /// Close a session.
    pub fn close_session(&self, token: &str) -> Result<(), DaemonError> {
        let rec = JournalRecord::SessionClosed {
            token: token.to_string(),
        };
        if self.tasks.lock().apply(&rec)? == Applied::NoOp {
            return Err(SessionError::UnknownToken.into());
        }
        self.journal_append_deferred(&rec);
        Ok(())
    }

    /// List sessions (admin), oldest first.
    pub fn list_sessions(&self) -> Vec<Session> {
        self.tasks.lock().sessions()
    }

    /// The current device spec, fetched through QRMI — what clients validate
    /// against before submitting (§2.1 drift safety).
    pub fn device_spec(&self) -> Result<DeviceSpec, DaemonError> {
        self.resource
            .target()
            .map_err(|e| DaemonError::Internal(e.to_string()))
    }

    // ---- admin / observability surface ---------------------------------

    /// Combined Prometheus exposition: daemon metrics + device metrics.
    pub fn metrics_text(&self) -> String {
        // refresh per-lock contention/hold-time gauges on every scrape
        hpcqc_telemetry::export_lock_metrics(&self.registry);
        if let Some((records, bytes)) = self.journal.as_ref().and_then(|j| j.ship_lag()) {
            for (gauge, v) in [
                (&catalog::REPLICATION_LAG_RECORDS, records),
                (&catalog::REPLICATION_LAG_BYTES, bytes),
            ] {
                self.registry.set(gauge, Labels::new(), v as f64);
            }
        }
        let mut out = self.registry.expose();
        if let Some(q) = &self.qpu_admin {
            out.push_str(&q.registry().expose());
        }
        out
    }

    /// Device status (admin).
    pub fn qpu_status(&self) -> Option<QpuStatus> {
        self.qpu_admin.as_ref().map(|q| q.status())
    }

    /// Set device status (admin; e.g. maintenance window).
    pub fn set_qpu_status(&self, s: QpuStatus) -> Result<(), DaemonError> {
        match &self.qpu_admin {
            Some(q) => {
                q.set_status(s);
                let rec = JournalRecord::QpuStatusChanged {
                    status: s.as_str().to_string(),
                };
                self.tasks.lock().apply(&rec)?;
                self.journal_append(&rec);
                Ok(())
            }
            None => Err(DaemonError::Forbidden(
                "no admin access to this resource".into(),
            )),
        }
    }

    /// Trigger a recalibration (admin).
    pub fn recalibrate(&self, duration_secs: f64) -> Result<(), DaemonError> {
        match &self.qpu_admin {
            Some(q) => {
                q.recalibrate(duration_secs);
                Ok(())
            }
            None => Err(DaemonError::Forbidden(
                "no admin access to this resource".into(),
            )),
        }
    }

    /// Query device telemetry history (admin/user observability).
    pub fn telemetry_range(&self, series: &str, from: f64, to: f64) -> Vec<hpcqc_telemetry::Point> {
        match &self.qpu_admin {
            Some(q) => q.tsdb().range(series, from, to),
            None => Vec::new(),
        }
    }

    /// Queue depth (monitoring).
    pub fn queue_depth(&self) -> usize {
        self.tasks.lock().queue().len()
    }

    /// Resources task `id` has failed on so far (advisory dispatch
    /// exclusion; empty for tasks with no failure history). Sorted.
    pub fn excluded_resources(&self, id: u64) -> Vec<String> {
        let tasks = self.tasks.lock();
        let excluded = tasks
            .entry(id)
            .map(|e| e.excluded.iter().cloned().collect());
        excluded.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests;
