//! The middleware daemon service (in-process core).
//!
//! This is the component Figure 2 places on the quantum access node: it owns
//! the QPU-side QRMI resource, manages sessions, validates programs against
//! the *current* device spec, queues tasks by priority class, runs them with
//! shot-batch preemption, and exposes admin + observability surfaces. The
//! REST layer in [`crate::http`] is a thin transport over this object, so
//! unit tests drive it directly while integration tests go over real sockets.

use crate::journal::{
    DaemonSnapshot, FollowerReplica, Journal, JournalConfig, JournalRecord, ReplicaAck,
    SharedJournal, ShipError,
};
use crate::session::{PriorityClass, Session, SessionError, SessionManager};
use crate::taskqueue::{QuantumTask, QueueConfig, QueueError, TaskQueue};
use crate::tasks::{Applied, TaskState, TaskTable};
use hpcqc_analysis::Analyzer;
use hpcqc_emulator::SampleResult;
use hpcqc_program::{DeviceSpec, ProgramIr};
use hpcqc_qpu::{QpuStatus, VirtualQpu};
use hpcqc_qrmi::QuantumResource;
use hpcqc_scheduler::PatternHint;
use hpcqc_sync::{rank, TrackedMutex as Mutex, TrackedRwLock};
use hpcqc_telemetry::{
    labels, DurabilityMetrics, FaultMetrics, LintMetrics, Registry, ReplicationMetrics,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Fair-share usage half-life in seconds (0 disables fair-share).
    pub fairshare_half_life_secs: f64,
    /// Serve repeated *development* programs from a fingerprint-keyed result
    /// cache instead of re-running them on the device (dev results are for
    /// debugging, not statistics — a cache hit saves scarce QPU seconds).
    pub cache_dev_results: bool,
    /// Sessions idle longer than this are expired by the clock (0 = never).
    pub session_ttl_secs: f64,
    /// Requeues allowed after an execution failure before a task is declared
    /// poisoned and failed permanently.
    pub max_task_retries: u32,
    /// Tasks run per `dispatch_lock` hold by [`pump`] and the background
    /// dispatcher (≥ 1).
    ///
    /// [`pump`]: MiddlewareService::pump
    pub pump_batch: usize,
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
            fairshare_half_life_secs: 3600.0,
            cache_dev_results: true,
            session_ttl_secs: 0.0,
            max_task_retries: 2,
            pump_batch: 16,
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

/// Replication role of a daemon in a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaRole {
    /// Serving reads and writes; ships its journal to followers.
    Leader,
    /// Warm standby: admits no client work until promoted.
    Follower,
}

impl ReplicaRole {
    pub fn as_str(&self) -> &'static str {
        match self {
            ReplicaRole::Leader => "leader",
            ReplicaRole::Follower => "follower",
        }
    }
}

/// Role + shipping lag, guarded together under [`rank::REPLICATION`].
#[derive(Debug, Clone, Copy)]
struct ReplicationState {
    role: ReplicaRole,
    lag_records: u64,
    lag_bytes: u64,
}

/// The `GET /v1/readyz` answer: whether this daemon should receive traffic,
/// and why not if not. Liveness (`/v1/healthz`) stays green on a healthy
/// follower; readiness does not — the gateway routes on *this*.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadinessReport {
    /// Route traffic here?
    pub ready: bool,
    /// `leader` / `follower` / `draining` / `stopped`.
    pub role: String,
    /// Liveness state (the `healthz` answer).
    pub status: String,
    /// Journal records shipped but not yet follower-acked.
    pub lag_records: u64,
    /// Journal bytes shipped but not yet follower-acked.
    pub lag_bytes: u64,
}

/// Handle to a background shipping pump
/// ([`MiddlewareService::spawn_shipper`]).
pub struct ShipperHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<FollowerReplica>,
}

impl ShipperHandle {
    /// Stop the pump after one final catch-up pass and hand the replica
    /// back (ready to be promoted).
    pub fn stop(self) -> FollowerReplica {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("shipper thread panicked")
    }
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

impl From<QueueError> for DaemonError {
    fn from(e: QueueError) -> Self {
        DaemonError::Queue(e.to_string())
    }
}

/// One frame of a [`MiddlewareService::submit_batch`] call.
#[derive(Debug, Clone)]
pub struct SubmitItem {
    pub token: String,
    pub ir: ProgramIr,
    pub hint: PatternHint,
    pub idempotency_key: Option<String>,
}

/// What [`MiddlewareService::prepare_submit`] decided about one frame:
/// already satisfied (idempotent replay) or ready for the task table.
enum Prepared {
    Done(u64),
    Admit {
        task: QuantumTask,
        warnings: Vec<String>,
        idempotency_key: Option<String>,
        /// A development-cache hit: the task is admitted already completed.
        cached: Option<SampleResult>,
    },
}

/// The middleware daemon.
pub struct MiddlewareService {
    sessions: SessionManager,
    /// Every task's lifecycle state, the dispatch queue and the idempotency
    /// map: one table behind one lock, changed only by `TaskTable::apply`.
    /// Never held across a journal write, an fsync, analysis or a QRMI call.
    tasks: Mutex<TaskTable>,
    resource: Arc<dyn QuantumResource>,
    /// Direct handle to the device for the admin surface (None when the
    /// daemon fronts a cloud resource it cannot administer).
    qpu_admin: Option<VirtualQpu>,
    /// Alternate resources a requeued task may be dispatched to after
    /// failing on the primary (e.g. a local emulator for degraded service).
    alternates: Vec<Arc<dyn QuantumResource>>,
    next_task: AtomicU64,
    clock: Mutex<f64>,
    registry: Registry,
    cfg: DaemonConfig,
    /// Serializes dispatch: the QPU is a serial device, and concurrent REST
    /// clients all pump the queue — only one dispatch may hold the resource
    /// lease at a time.
    dispatch_lock: Mutex<()>,
    fairshare: Option<crate::fairshare::FairshareTracker>,
    /// Development-result cache keyed by program fingerprint.
    dev_cache: Mutex<HashMap<u64, SampleResult>>,
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
    /// Serving → Draining → Stopped.
    lifecycle: Mutex<DaemonHealth>,
    /// Last admin-set device status (string form): persisted in snapshots,
    /// recovered from the journal (which outlives the `VirtualQpu` instance)
    /// and re-applied when the admin handle is attached.
    last_qpu_status: Mutex<Option<String>>,
    /// Replication role and shipping lag (readiness reporting).
    replication: Mutex<ReplicationState>,
}

impl MiddlewareService {
    pub fn new(resource: Arc<dyn QuantumResource>, cfg: DaemonConfig) -> Self {
        let fairshare = if cfg.fairshare_half_life_secs > 0.0 {
            Some(crate::fairshare::FairshareTracker::new(
                cfg.fairshare_half_life_secs,
            ))
        } else {
            None
        };
        let queue = match &fairshare {
            Some(f) => TaskQueue::new(cfg.queue).with_fairshare(f.clone()),
            None => TaskQueue::new(cfg.queue),
        };
        MiddlewareService {
            sessions: SessionManager::new(cfg.max_sessions),
            tasks: Mutex::new(
                "middleware.daemon.tasks",
                rank::TASKS,
                TaskTable::new(queue),
            ),
            resource,
            qpu_admin: None,
            alternates: Vec::new(),
            next_task: AtomicU64::new(1),
            clock: Mutex::new("middleware.daemon.clock", rank::CLOCK, 0.0),
            registry: Registry::new(),
            cfg,
            dispatch_lock: Mutex::new("middleware.daemon.dispatch", rank::DISPATCH, ()),
            fairshare,
            dev_cache: Mutex::new(
                "middleware.daemon.dev_cache",
                rank::DEV_CACHE,
                HashMap::new(),
            ),
            analyzer: Analyzer::standard(),
            journal: None,
            compact_gate: TrackedRwLock::new(
                "middleware.daemon.compact_gate",
                rank::COMPACT_GATE,
                (),
            ),
            lifecycle: Mutex::new(
                "middleware.daemon.lifecycle",
                rank::LIFECYCLE,
                DaemonHealth::Ok,
            ),
            last_qpu_status: Mutex::new(
                "middleware.daemon.last_qpu_status",
                rank::QPU_STATUS,
                None,
            ),
            replication: Mutex::new(
                "middleware.daemon.replication",
                rank::REPLICATION,
                ReplicationState {
                    role: ReplicaRole::Leader,
                    lag_records: 0,
                    lag_bytes: 0,
                },
            ),
        }
    }

    /// Attach the device for admin operations (on-prem deployment). If the
    /// journal recorded an admin-set status before the restart, it is
    /// re-applied here.
    pub fn with_qpu_admin(mut self, qpu: VirtualQpu) -> Self {
        if let Some(status) = self.last_qpu_status.get_mut().as_deref() {
            if let Some(s) = parse_qpu_status(status) {
                qpu.set_status(s);
            }
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

    /// Typed facade over this daemon's registry for recovery counters.
    fn fault_metrics(&self) -> FaultMetrics {
        FaultMetrics::new(self.registry.clone())
    }

    /// Typed facade over this daemon's registry for analyzer counters.
    fn lint_metrics(&self) -> LintMetrics {
        LintMetrics::new(self.registry.clone())
    }

    /// Typed facade over this daemon's registry for durability counters.
    fn durability_metrics(&self) -> DurabilityMetrics {
        DurabilityMetrics::new(self.registry.clone())
    }

    /// Typed facade over this daemon's registry for replication counters.
    fn replication_metrics(&self) -> ReplicationMetrics {
        ReplicationMetrics::new(self.registry.clone())
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
    /// paths (submit/cancel/session): a batch this append trips is parked
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
        let m = self.durability_metrics();
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
                    m.append(out.bytes, out.fsynced);
                    out.wants_compaction
                }
                Err(e) => {
                    self.journal_error("append", &e);
                    false
                }
            }
        };
        if wants_compaction {
            // Exclusive gate across snapshot + compact: no append can land
            // after the snapshot is taken and before the WAL is cut, so a
            // record is never dropped from the log while missing from the
            // snapshot (the lost-record window the lock audit surfaced).
            let _gate = self.compact_gate.write();
            if journal.wants_compaction() {
                let snap = self.snapshot_state();
                match journal.compact(&snap) {
                    Ok(()) => m.snapshot(),
                    Err(e) => self.journal_error("compact", &e),
                }
            }
        }
    }

    /// Flush and fsync any buffered group-commit batch. Called by the
    /// background dispatcher when the queue runs dry, so a lull in traffic
    /// never strands an unflushed batch; no-op when nothing is pending.
    pub fn sync_journal(&self) {
        let Some(journal) = &self.journal else {
            return;
        };
        if journal.pending_records() == 0
            && journal.unsynced_appends() == 0
            && journal.deferred_batches() == 0
        {
            return;
        }
        let _gate = self.compact_gate.read();
        match journal.sync() {
            Ok(()) => self.durability_metrics().fsync(),
            Err(e) => self.journal_error("fsync", &e),
        }
    }

    /// A journal IO failure: counted, never fatal — the daemon keeps serving
    /// from memory (durability degrades, availability does not).
    fn journal_error(&self, op: &str, e: &std::io::Error) {
        let _ = e;
        self.registry.counter_add(
            "journal_errors_total",
            "Write-ahead journal IO failures (durability degraded)",
            labels(&[("op", op)]),
            1.0,
        );
    }

    /// Capture the full daemon state (what compaction persists). Running
    /// tasks are folded back into the queued set: a snapshot never claims
    /// work that has not produced a durable result.
    pub fn snapshot_state(&self) -> DaemonSnapshot {
        let mut snap = DaemonSnapshot {
            clock: self.now(),
            next_task: self.next_task.load(Ordering::Relaxed),
            session_counter: self.sessions.counter_watermark(),
            sessions: self.sessions.list(),
            qpu_status: self.last_qpu_status.lock().clone(),
            ..DaemonSnapshot::default()
        };
        self.tasks.lock().snapshot_into(&mut snap);
        snap
    }

    /// Open a durable daemon from `path`: replay the snapshot + WAL tail
    /// into a warm service (queued tasks restored in priority/arrival order,
    /// mid-dispatch tasks requeued with their excluded resources intact, the
    /// task-id high-water mark preserved), then keep journaling to the same
    /// directory. A missing or empty journal directory yields a fresh
    /// durable daemon, so this is also the constructor for first boot.
    pub fn recover(
        path: impl AsRef<Path>,
        resource: Arc<dyn QuantumResource>,
        cfg: DaemonConfig,
    ) -> Result<Self, DaemonError> {
        let path = path.as_ref();
        let t0 = std::time::Instant::now();
        let replay =
            Journal::load(path).map_err(|e| DaemonError::Internal(format!("journal load: {e}")))?;
        let n_records = replay.records.len();
        let truncated = replay.truncated_bytes;
        let had_snapshot = replay.snapshot.is_some();
        let journal_cfg = cfg.journal;
        let mut svc = Self::new(resource, cfg);

        // snapshot + `apply` over the WAL tail + "every Running goes back
        // to Queued": recovery runs the live state machine
        let mut snap = replay.snapshot.unwrap_or_default();
        let mut table = std::mem::take(svc.tasks.get_mut())
            .with_snapshot(&mut snap)
            .map_err(|e| DaemonError::Internal(format!("restore task: {e}")))?;
        svc.sessions.restore(snap.sessions, snap.session_counter);
        svc.next_task
            .store(snap.next_task.max(1), Ordering::Relaxed);
        *svc.clock.get_mut() = snap.clock;
        *svc.last_qpu_status.get_mut() = snap.qpu_status;
        let mut illegal = 0usize;
        for rec in &replay.records {
            // the session a cancel refunds is only known while it is queued
            let owner = match rec {
                JournalRecord::TaskCancelled { id } => {
                    table.queue().get(*id).map(|t| t.session.clone())
                }
                _ => None,
            };
            let applied = table.apply(rec);
            illegal += applied.is_err() as usize;
            svc.replay_rest(rec, applied == Ok(Applied::Changed), owner);
        }
        let (table, requeued_inflight) = table.into_recovered();
        let recovered_tasks = table.queue().len();
        *svc.tasks.get_mut() = table;

        let metrics = svc.durability_metrics();
        metrics.replay(t0.elapsed().as_secs_f64(), n_records, truncated, illegal);
        metrics.recovered_tasks(recovered_tasks);
        metrics.requeued_on_recovery(requeued_inflight);
        metrics.recovered_sessions(svc.sessions.count());

        let journal = SharedJournal::open(path, journal_cfg)
            .map_err(|e| DaemonError::Internal(format!("journal open: {e}")))?;
        // compact immediately: the fresh snapshot becomes the replay base,
        // so WAL growth — and therefore restart time — stays bounded no
        // matter how the previous process died.
        if n_records > 0 || had_snapshot {
            journal
                .compact(&svc.snapshot_state())
                .map_err(|e| DaemonError::Internal(format!("journal compact: {e}")))?;
            metrics.snapshot();
        }
        svc.journal = Some(journal);
        Ok(svc)
    }

    /// The non-task remainder of replaying one WAL record: sessions, clock,
    /// device status and the id watermarks (the task half went through
    /// `TaskTable::apply`). `changed` says whether the table took the record
    /// as a transition — a submit or cancel the snapshot already reflects
    /// must not move its session's task count a second time — and
    /// `cancelled_owner` is the session a `TaskCancelled` refunds.
    fn replay_rest(&mut self, rec: &JournalRecord, changed: bool, cancelled_owner: Option<String>) {
        let mut clock = *self.clock.get_mut();
        match rec {
            JournalRecord::SessionOpened { session } => {
                // the token embeds the counter value ("sess-{n}-…"): keep
                // the mint watermark ahead of every replayed token
                let minted = session.token.split('-').nth(1);
                let next = minted
                    .and_then(|n| n.parse::<u64>().ok())
                    .map_or(0, |n| n + 1);
                self.sessions.restore(vec![session.clone()], next);
            }
            JournalRecord::SessionClosed { token } => drop(self.sessions.close(token)),
            JournalRecord::SessionsExpired { tokens } => {
                tokens.iter().for_each(|t| drop(self.sessions.close(t)))
            }
            JournalRecord::TaskSubmitted { task, .. } => {
                clock = clock.max(task.submitted_at);
                self.next_task.fetch_max(task.id + 1, Ordering::Relaxed);
                if changed {
                    let _ = self.sessions.record_task(&task.session);
                }
            }
            JournalRecord::TaskDispatched { at, .. } | JournalRecord::TaskCompleted { at, .. } => {
                clock = clock.max(*at);
            }
            JournalRecord::TaskCancelled { .. } => {
                if let (true, Some(owner)) = (changed, cancelled_owner) {
                    let _ = self.sessions.release_task(&owner);
                }
            }
            JournalRecord::QpuStatusChanged { status } => {
                *self.last_qpu_status.get_mut() = Some(status.clone());
            }
            JournalRecord::ClockAdvanced { to } => clock = clock.max(*to),
            JournalRecord::TaskRequeued { .. }
            | JournalRecord::TaskAttemptFailed { .. }
            | JournalRecord::TaskFailed { .. } => {}
        }
        *self.clock.get_mut() = clock;
    }

    /// Current liveness (the `GET /v1/healthz` answer).
    pub fn health(&self) -> DaemonHealth {
        *self.lifecycle.lock()
    }

    // ---- replication ----------------------------------------------------

    /// This daemon's replication role.
    pub fn role(&self) -> ReplicaRole {
        self.replication.lock().role
    }

    /// Set the replication role. A daemon demoted to [`ReplicaRole::Follower`]
    /// stops admitting client work immediately (existing queue state is kept —
    /// it is the promoted leader's job now, via the shipped journal).
    pub fn set_role(&self, role: ReplicaRole) {
        self.replication.lock().role = role;
    }

    /// Readiness for traffic (the `GET /v1/readyz` answer): leader role
    /// *and* serving lifecycle. Liveness can be green while this is not —
    /// a healthy follower is alive but must not receive client traffic.
    pub fn readiness(&self) -> ReadinessReport {
        let (role, lag_records, lag_bytes) = {
            let r = self.replication.lock();
            (r.role, r.lag_records, r.lag_bytes)
        };
        let health = self.health();
        let role_str = match (role, health) {
            (ReplicaRole::Leader, DaemonHealth::Ok) => "leader",
            (ReplicaRole::Follower, _) => "follower",
            (_, DaemonHealth::Draining) => "draining",
            (_, DaemonHealth::Stopped) => "stopped",
        };
        ReadinessReport {
            ready: role == ReplicaRole::Leader && health == DaemonHealth::Ok,
            role: role_str.to_string(),
            status: health.as_str().to_string(),
            lag_records,
            lag_bytes,
        }
    }

    /// Turn on leader→follower journal shipping (durable daemons only).
    /// Call right after [`recover`](Self::recover), before traffic starts.
    pub fn enable_shipping(&self) -> Result<(), DaemonError> {
        let Some(journal) = &self.journal else {
            return Err(DaemonError::Internal(
                "in-memory daemon has no journal to ship".into(),
            ));
        };
        journal
            .enable_shipping()
            .map_err(|e| DaemonError::Internal(format!("enable shipping: {e}")))
    }

    /// The most advanced follower acknowledgement this leader has seen — the
    /// bar [`promote`](Self::promote) holds candidates to. Survivors of a
    /// leader crash (the gateway, the test harness) must capture this while
    /// the leader is alive.
    pub fn last_acked(&self) -> ReplicaAck {
        self.journal
            .as_ref()
            .and_then(|j| j.ship_last_acked())
            .unwrap_or_default()
    }

    /// Ship every pending journal event to `replica`, acking as `name`.
    /// Returns the number of events applied. A validation failure stops the
    /// pump (the replica is untouched by the bad event) and the same events
    /// retransmit on the next call.
    pub fn ship_pending(
        &self,
        replica: &mut FollowerReplica,
        name: &str,
    ) -> Result<usize, ShipError> {
        let Some(journal) = &self.journal else {
            return Ok(0);
        };
        // Register this follower's retention slot before fetching: trimming
        // only drops events below the slowest *registered* cursor, so the
        // events this replica still needs stay retained even while other,
        // faster followers ack past them.
        journal.ship_ack(name, replica.ack());
        let m = self.replication_metrics();
        let events = journal.ship_fetch(replica.ack().applied_seq);
        for ev in &events {
            m.shipped(ev.records() as usize, ev.payload_len());
        }
        // One durability point per round (the follower's group commit): the
        // ack covers everything the round fsynced.
        let (applied, rejection) = replica.apply_all(&events);
        for ev in events.iter().take(applied) {
            m.acked(ev.records() as usize, ev.payload_len());
        }
        journal.ship_ack(name, replica.ack());
        self.update_replication_lag();
        match rejection {
            Some(e) => {
                m.rejected(e.reason());
                Err(e)
            }
            None => Ok(applied),
        }
    }

    /// Raw shipping-stream access: the retained events at or after
    /// `from_seq`. [`ship_pending`](Self::ship_pending) is the normal pump;
    /// this is for transports that move events themselves (and for chaos
    /// harnesses that drop, tear, and reorder them on purpose).
    pub fn ship_events(&self, from_seq: u64) -> Vec<crate::journal::ShipEvent> {
        self.journal
            .as_ref()
            .map(|j| j.ship_fetch(from_seq))
            .unwrap_or_default()
    }

    /// Record a follower acknowledgement (normally done by
    /// [`ship_pending`](Self::ship_pending)) and refresh the lag view.
    pub fn record_ack(&self, follower: &str, ack: ReplicaAck) {
        if let Some(j) = &self.journal {
            j.ship_ack(follower, ack);
        }
        self.update_replication_lag();
    }

    /// Refresh the cached lag (readiness report + gauges) from the journal.
    fn update_replication_lag(&self) {
        let Some(journal) = &self.journal else {
            return;
        };
        let (records, bytes) = journal.ship_lag();
        {
            let mut r = self.replication.lock();
            r.lag_records = records;
            r.lag_bytes = bytes;
        }
        self.replication_metrics().lag(records, bytes);
    }

    /// Promote the follower journal at `path` to a serving leader.
    ///
    /// `last_acked` is the highest acknowledgement the old leader had seen
    /// (from [`last_acked`](Self::last_acked), captured before the crash): a
    /// replica whose durable cursor is behind it is missing work some client
    /// was told is safe, so its promotion is refused. A granted promotion
    /// replays the shipped prefix through the ordinary [`recover`] path —
    /// mid-dispatch tasks are requeued with their `excluded_resources`
    /// intact, the task-id/session high-water marks and the idempotency map
    /// all survive — and the daemon starts serving as leader.
    ///
    /// [`recover`]: Self::recover
    pub fn promote(
        path: impl AsRef<Path>,
        resource: Arc<dyn QuantumResource>,
        cfg: DaemonConfig,
        last_acked: ReplicaAck,
    ) -> Result<Self, DaemonError> {
        let path = path.as_ref();
        let t0 = std::time::Instant::now();
        let applied = FollowerReplica::peek_ack(path).unwrap_or_default();
        if !applied.at_least(&last_acked) {
            return Err(DaemonError::Unavailable(format!(
                "refusing promotion: replica applied seq {} (wal {} B) is behind \
                 the last-acked seq {} (wal {} B)",
                applied.applied_seq, applied.wal_len, last_acked.applied_seq, last_acked.wal_len
            )));
        }
        let svc = Self::recover(path, resource, cfg)?;
        let m = svc.replication_metrics();
        m.promotion();
        m.failover_duration(t0.elapsed().as_secs_f64());
        Ok(svc)
    }

    /// Run a background shipping pump: every `interval`, ship pending
    /// journal events to `replica` (acking as `name`). Returns a handle
    /// whose [`stop`](ShipperHandle::stop) hands the replica back — e.g. to
    /// promote it.
    pub fn spawn_shipper(
        self: &Arc<Self>,
        replica: FollowerReplica,
        name: &str,
        interval: std::time::Duration,
    ) -> ShipperHandle {
        let svc = Arc::clone(self);
        let name = name.to_string();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut replica = replica;
            while !stop2.load(Ordering::Relaxed) {
                // Rejections retransmit next tick; the replica stays clean.
                let _ = svc.ship_pending(&mut replica, &name);
                std::thread::sleep(interval);
            }
            let _ = svc.ship_pending(&mut replica, &name);
            replica
        });
        ShipperHandle { stop, thread }
    }

    /// Graceful drain: stop admitting sessions and tasks, keep dispatching
    /// until the queue is empty or `drain_timeout` (wall clock) elapses,
    /// compact + fsync the journal, and go `Stopped`. Anything still queued
    /// is durable and will be restored by the next
    /// [`MiddlewareService::recover`].
    pub fn shutdown(&self, drain_timeout: std::time::Duration) -> DrainReport {
        *self.lifecycle.lock() = DaemonHealth::Draining;
        let deadline = std::time::Instant::now() + drain_timeout;
        let mut dispatched = 0;
        while std::time::Instant::now() < deadline {
            match self.pump_once() {
                Some(_) => dispatched += 1,
                None => break,
            }
        }
        let pending = self.queue_depth();
        let m = self.durability_metrics();
        if let Some(journal) = &self.journal {
            let _gate = self.compact_gate.write();
            let snap = self.snapshot_state();
            match journal.compact(&snap) {
                Ok(()) => m.snapshot(),
                Err(e) => self.journal_error("compact", &e),
            }
            match journal.sync() {
                Ok(()) => m.fsync(),
                Err(e) => self.journal_error("fsync", &e),
            }
        }
        m.drained(dispatched, pending);
        *self.lifecycle.lock() = DaemonHealth::Stopped;
        DrainReport {
            dispatched,
            pending,
        }
    }

    /// The daemon's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Daemon clock (seconds).
    pub fn now(&self) -> f64 {
        *self.clock.lock()
    }

    /// Advance the daemon clock (simulated idle time). Expires idle
    /// sessions past their TTL.
    pub fn advance_time(&self, dt: f64) {
        *self.clock.lock() += dt;
        if let Some(q) = &self.qpu_admin {
            q.advance_time(dt);
        }
        self.journal_append(&JournalRecord::ClockAdvanced { to: self.now() });
        self.gc_sessions();
    }

    /// Expire sessions idle past the TTL (no-op when the TTL is disabled).
    fn gc_sessions(&self) {
        if self.cfg.session_ttl_secs <= 0.0 {
            return;
        }
        let cutoff = self.now() - self.cfg.session_ttl_secs;
        let expired = self.sessions.gc(cutoff);
        if !expired.is_empty() {
            self.registry.counter_add(
                "daemon_sessions_expired_total",
                "Sessions expired by TTL",
                hpcqc_telemetry::Labels::new(),
                expired.len() as f64,
            );
            self.journal_append(&JournalRecord::SessionsExpired {
                tokens: expired.into_iter().map(|s| s.token).collect(),
            });
        }
    }

    /// TTL-aware session validation used by every client-facing call: an
    /// idle-expired session is removed, journaled, and reported as
    /// [`SessionError::Expired`]; an active one has its idle clock touched.
    fn validate_session(&self, token: &str) -> Result<Session, DaemonError> {
        match self
            .sessions
            .validate_active(token, self.now(), self.cfg.session_ttl_secs)
        {
            Ok(s) => Ok(s),
            Err(SessionError::Expired) => {
                self.registry.counter_add(
                    "daemon_sessions_expired_total",
                    "Sessions expired by TTL",
                    hpcqc_telemetry::Labels::new(),
                    1.0,
                );
                self.journal_append(&JournalRecord::SessionsExpired {
                    tokens: vec![token.to_string()],
                });
                Err(SessionError::Expired.into())
            }
            Err(e) => Err(e.into()),
        }
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

    /// Open a session for `user` in `class`; returns the token.
    pub fn open_session(&self, user: &str, class: PriorityClass) -> Result<String, DaemonError> {
        self.check_admitting()?;
        let s = self.sessions.open(user, class, self.now())?;
        self.registry.counter_add(
            "daemon_sessions_opened_total",
            "Sessions opened",
            labels(&[("class", class.as_str())]),
            1.0,
        );
        let token = s.token.clone();
        self.journal_append_deferred(&JournalRecord::SessionOpened { session: s });
        Ok(token)
    }

    /// Close a session.
    pub fn close_session(&self, token: &str) -> Result<(), DaemonError> {
        self.sessions.close(token)?;
        self.journal_append_deferred(&JournalRecord::SessionClosed {
            token: token.to_string(),
        });
        Ok(())
    }

    /// List sessions (admin).
    pub fn list_sessions(&self) -> Vec<crate::session::Session> {
        self.sessions.list()
    }

    // ---- task API ------------------------------------------------------

    /// The current device spec, fetched through QRMI — what clients validate
    /// against before submitting (§2.1 drift safety).
    pub fn device_spec(&self) -> Result<DeviceSpec, DaemonError> {
        self.resource
            .target()
            .map_err(|e| DaemonError::Internal(e.to_string()))
    }

    /// Submit a program under a session. Applies class policies (dev shot
    /// cap), validates against the live spec, runs the static-analysis
    /// pipeline, and queues. Error-level diagnostics reject; Warning-level
    /// ones are kept in the job record (see [`Self::task_warnings`]).
    pub fn submit(
        &self,
        token: &str,
        ir: ProgramIr,
        hint: PatternHint,
    ) -> Result<u64, DaemonError> {
        self.submit_with_key(token, ir, hint, None)
    }

    /// [`Self::submit`] with an optional client idempotency key. A key that
    /// was already accepted — including before a daemon restart, the map is
    /// journaled — returns the original task id without enqueueing anything,
    /// making client retry loops safe end-to-end. This is
    /// [`submit_batch`](Self::submit_batch) of one frame.
    pub fn submit_with_key(
        &self,
        token: &str,
        ir: ProgramIr,
        hint: PatternHint,
        idempotency_key: Option<&str>,
    ) -> Result<u64, DaemonError> {
        self.submit_batch(vec![SubmitItem {
            token: token.to_string(),
            ir,
            hint,
            idempotency_key: idempotency_key.map(str::to_string),
        }])
        .pop()
        .expect("submit_batch answers every frame")
    }

    /// Submit N programs as one unit: per-frame validation runs outside any
    /// shared lock, then every accepted task enters the task table under a
    /// *single* hold, and the journal records go out as deferred appends
    /// that the group-commit machinery flushes with one fsync for the whole
    /// batch. Outcomes are per-frame and order-preserving: one frame failing
    /// validation (or hitting a session quota) does not poison its
    /// neighbours. Idempotency keys keep their per-frame semantics.
    pub fn submit_batch(&self, items: Vec<SubmitItem>) -> Vec<Result<u64, DaemonError>> {
        if let Err(e) = self.check_admitting() {
            return items.iter().map(|_| Err(e.clone())).collect();
        }
        // Phase 1: validation/analysis per frame — CPU work, no table lock.
        let prepared: Vec<Result<Prepared, DaemonError>> = items
            .into_iter()
            .map(|it| self.prepare_submit(it))
            .collect();
        // Phase 2: one table hold admits every surviving frame by applying
        // the records phase 3 journals. A task is visible to the dispatcher
        // only once it is fully in the table, so nothing can finish it first.
        let mut journal: Vec<JournalRecord> = Vec::new();
        let outcomes: Vec<Result<u64, DaemonError>> = {
            let mut tasks = self.tasks.lock();
            prepared
                .into_iter()
                .map(|p| Self::admit(&mut tasks, p?, &mut journal))
                .collect()
        };
        // Phase 3: accounting, then deferred journal appends; the dispatcher
        // flushes the parked batch with a single write + fsync (group commit).
        let mut records = journal.iter().peekable();
        while let Some(rec) = records.next() {
            let JournalRecord::TaskSubmitted { task, .. } = rec else {
                continue;
            };
            // The session may have closed or expired since prepare validated
            // it; the task is admitted all the same, so that is not an error.
            let _ = self.sessions.record_task(&task.session);
            // the only completions journaled here are dev-cache hits
            let (name, help) = match records.peek() {
                Some(JournalRecord::TaskCompleted { .. }) => (
                    "daemon_dev_cache_hits_total",
                    "Development tasks served from the result cache",
                ),
                _ => (
                    "daemon_tasks_submitted_total",
                    "Tasks accepted into the queue",
                ),
            };
            self.registry
                .counter_add(name, help, labels(&[("class", task.class.as_str())]), 1.0);
        }
        for rec in &journal {
            self.journal_append_deferred(rec);
        }
        outcomes
    }

    /// Admit one prepared frame under the caller's table hold, pushing the
    /// records it applied onto `journal`.
    fn admit(
        tasks: &mut TaskTable,
        prepared: Prepared,
        journal: &mut Vec<JournalRecord>,
    ) -> Result<u64, DaemonError> {
        let (task, warnings, idempotency_key, cached) = match prepared {
            Prepared::Done(id) => return Ok(id),
            Prepared::Admit {
                task,
                warnings,
                idempotency_key,
                cached,
            } => (task, warnings, idempotency_key, cached),
        };
        // a retry racing the original may have been admitted since prepare
        // looked the key up
        if let Some(original) = idempotency_key.as_deref().and_then(|k| tasks.idempotent(k)) {
            return Ok(original);
        }
        if cached.is_none() {
            tasks.queue().check_quota(&task.session)?;
        }
        let (id, at) = (task.id, task.submitted_at);
        let mut apply = |rec: JournalRecord| {
            tasks
                .apply(&rec)
                .map_err(|e| DaemonError::Internal(e.to_string()))?;
            journal.push(rec);
            Ok::<(), DaemonError>(())
        };
        apply(JournalRecord::TaskSubmitted {
            task,
            idempotency_key,
            warnings,
        })?;
        if let Some(result) = cached {
            // journaled as submit + complete so replay lands on the same
            // terminal state (the cache itself is volatile)
            apply(JournalRecord::TaskCompleted { id, result, at })?;
        }
        Ok(id)
    }

    /// Everything submit does *before* the task table: session + idempotency
    /// checks, dev shot capping, validation/analysis, task construction,
    /// and the dev result cache lookup.
    fn prepare_submit(&self, item: SubmitItem) -> Result<Prepared, DaemonError> {
        let SubmitItem {
            token,
            mut ir,
            mut hint,
            idempotency_key,
        } = item;
        let session = self.validate_session(&token)?;
        if let Some(key) = &idempotency_key {
            let original = self.tasks.lock().idempotent(key);
            if let Some(original) = original {
                self.durability_metrics().deduped(session.class.as_str());
                return Ok(Prepared::Done(original));
            }
        }
        if session.class == PriorityClass::Development && ir.shots > self.cfg.dev_shot_cap {
            ir.shots = self.cfg.dev_shot_cap;
        }
        let mut pending_warnings: Vec<String> = Vec::new();
        let rejected = |violations: Vec<String>| {
            self.registry.counter_add(
                "daemon_tasks_rejected_total",
                "Tasks rejected at validation",
                labels(&[("class", session.class.as_str())]),
                1.0,
            );
            DaemonError::Validation(violations)
        };
        if self.cfg.validate_on_submit || self.cfg.analyze_on_submit {
            let spec = self.device_spec()?;
            // Stale-validation detection: the client validated against an
            // older spec revision (or never validated). Either way the spec
            // checks below re-establish safety server-side.
            match ir.validated_against_revision {
                Some(rev) if rev != spec.revision => {
                    self.lint_metrics().stale_validation();
                    if !self.cfg.analyze_on_submit {
                        pending_warnings.push(format!(
                            "client validated against stale spec revision {rev} (current {})",
                            spec.revision
                        ));
                    }
                }
                _ => {}
            }
            if self.cfg.validate_on_submit {
                let violations = hpcqc_program::validate(&ir.sequence, &spec);
                if !violations.is_empty() {
                    return Err(rejected(violations.iter().map(|v| v.to_string()).collect()));
                }
            }
            if self.cfg.analyze_on_submit {
                let report = self.analyzer.analyze(&ir, Some(&spec));
                let lm = self.lint_metrics();
                for d in &report.diagnostics {
                    lm.diagnostic(d.code.as_str(), d.severity.as_str());
                }
                if report.has_errors() {
                    lm.rejection(session.class.as_str());
                    return Err(rejected(
                        report.errors().iter().map(|d| d.render()).collect(),
                    ));
                }
                // Cross-check the user's pattern hint against the inferred
                // one; adopt the inference when the user declared nothing.
                if let Some(inferred) = report.facts.inferred_hint {
                    if hint == PatternHint::None {
                        lm.hint_adopted(inferred.as_str());
                        hint = inferred;
                    } else if hint != inferred {
                        lm.hint_mismatch(hint.as_str(), inferred.as_str());
                        pending_warnings.push(format!(
                            "declared pattern hint '{}' contradicts inferred '{}' \
                             (keeping the declared hint)",
                            hint.as_str(),
                            inferred.as_str()
                        ));
                    }
                }
                pending_warnings.extend(report.warnings().iter().map(|d| d.render()));
            }
            // Accepted: server-side checks just ran against this revision.
            ir = ir.with_validation_revision(spec.revision);
        }
        let task = QuantumTask {
            id: self.next_task.fetch_add(1, Ordering::Relaxed),
            session: token,
            user: session.user,
            class: session.class,
            ir: Arc::new(ir),
            hint,
            submitted_at: self.now(),
        };
        let cached = if self.cfg.cache_dev_results && task.class == PriorityClass::Development {
            self.dev_cache.lock().get(&task.ir.fingerprint()).cloned()
        } else {
            None
        };
        Ok(Prepared::Admit {
            task,
            warnings: pending_warnings,
            idempotency_key,
            cached,
        })
    }

    /// Task status.
    pub fn task_status(&self, id: u64) -> Result<DaemonTaskStatus, DaemonError> {
        let now = self.now();
        self.tasks
            .lock()
            .status(id, now)
            .ok_or(DaemonError::UnknownTask(id))
    }

    /// Warning-level analyzer findings recorded for a task at submission
    /// (empty when the analyzer found nothing or is disabled).
    pub fn task_warnings(&self, id: u64) -> Vec<String> {
        self.tasks
            .lock()
            .entry(id)
            .map(|e| e.warnings.clone())
            .unwrap_or_default()
    }

    /// Fetch the result of a completed task.
    pub fn task_result(&self, id: u64) -> Result<SampleResult, DaemonError> {
        match self.tasks.lock().entry(id).map(|e| &e.state) {
            None => Err(DaemonError::UnknownTask(id)),
            Some(TaskState::Completed(r)) => Ok(r.clone()),
            Some(TaskState::Failed(m)) => Err(DaemonError::Internal(m.clone())),
            Some(_) => Err(DaemonError::Queue("task not completed".into())),
        }
    }

    /// Cancel a queued task (the owner's session token must match). The
    /// session's live-task count is refunded so a cancelled task does not
    /// consume quota forever.
    pub fn cancel(&self, token: &str, id: u64) -> Result<(), DaemonError> {
        self.validate_session(token)?;
        let rec = JournalRecord::TaskCancelled { id };
        {
            let mut tasks = self.tasks.lock();
            match tasks.queue().get(id) {
                Some(task) if task.session == token => {}
                Some(_) => {
                    return Err(DaemonError::Forbidden(
                        "task belongs to another session".into(),
                    ));
                }
                None if tasks.entry(id).is_some() => {
                    return Err(DaemonError::Queue("task is not queued".into()));
                }
                None => return Err(DaemonError::UnknownTask(id)),
            }
            tasks
                .apply(&rec)
                .map_err(|e| DaemonError::Internal(e.to_string()))?;
        }
        // refund the quota slot the task was holding
        let _ = self.sessions.release_task(token);
        self.journal_append_deferred(&rec);
        Ok(())
    }

    // ---- execution loop ------------------------------------------------

    /// Dispatch and run the next task, honoring preemption. Returns the id
    /// of the task that made progress, or `None` when the queue is empty.
    ///
    /// Production tasks run as one batch. Lower classes run one
    /// `preempt_chunk_shots` slice; if a production task is waiting
    /// afterwards, the remainder is requeued (preemption at shot-batch
    /// boundaries, §3.3).
    pub fn pump_once(&self) -> Option<u64> {
        let mut last = None;
        self.pump_while(|id| {
            last = Some(id);
            false
        });
        last
    }

    /// Run up to `max` tasks back-to-back under one `dispatch_lock` hold.
    /// Returns the number of tasks that made progress (0 = queue empty or
    /// daemon stopped). Each task is claimed as it starts, so the order is
    /// the queue's order at that moment: a production task submitted while
    /// the batch runs goes ahead of the lower classes still waiting.
    pub fn pump_batch(&self, max: usize) -> usize {
        let mut n = 0;
        self.pump_while(|_| {
            n += 1;
            n < max
        });
        n
    }

    /// Dispatch tasks under one `dispatch_lock` hold until the queue is
    /// empty or `more` — told each dispatched id — says stop.
    fn pump_while(&self, mut more: impl FnMut(u64) -> bool) {
        if self.health() == DaemonHealth::Stopped {
            return;
        }
        let _dispatch = self.dispatch_lock.lock();
        self.gc_sessions();
        while self.dispatch_next().is_some_and(&mut more) {}
    }

    /// Claim the head of the queue — one table hold takes it from `Queued`
    /// to `Running`, so cancel and snapshots see it exactly once — run it to
    /// the end of its batch or slice, and apply the outcome. Every step is
    /// the same three moves: build the record, apply it under one hold,
    /// journal it. The table lock is never held across the journal append
    /// or the QPU execution.
    fn dispatch_next(&self) -> Option<u64> {
        let now = self.now();
        // While the task is Running only this thread touches its entry, so
        // what the claim reads (slice progress, retry history) holds until
        // the outcome is applied.
        let mut tasks = self.tasks.lock();
        let task = tasks.queue().peek(now)?.clone();
        let entry = tasks.entry(task.id).expect("queued tasks have entries");
        let (id, done, attempts) = (task.id, entry.shots_done, entry.attempts);
        let res = self.pick_resource(&entry.excluded);
        let resource = res.resource_id().to_string();
        let dispatched = JournalRecord::TaskDispatched {
            id,
            resource: resource.clone(),
            at: now,
        };
        let applied = tasks.apply(&dispatched);
        drop(tasks);
        applied.expect("the head of the queue is Queued");
        let class = task.class.as_str();
        if done == 0 {
            // first time this task runs: record wait
            self.registry.histogram_observe(
                "daemon_task_wait_seconds",
                "Queue wait before first execution",
                labels(&[("class", class)]),
                &[1.0, 10.0, 60.0, 600.0, 3600.0],
                now - task.submitted_at,
            );
        }
        self.journal_append(&dispatched);
        let shots = if task.batched() {
            task.ir.shots
        } else {
            (task.ir.shots - done).min(self.cfg.preempt_chunk_shots)
        };

        let (rec, slice) = match self.run_shots(&task, shots, &res) {
            // poison cap: stop burning device time on this task
            Err(error) if attempts >= self.cfg.max_task_retries => {
                (JournalRecord::TaskFailed { id, error }, None)
            }
            // requeue for another attempt; partial progress is kept, and
            // dispatch will avoid the resource that just failed
            Err(error) => {
                let rec = JournalRecord::TaskAttemptFailed {
                    id,
                    resource,
                    error,
                };
                (rec, None)
            }
            Ok(last) if done + last.shots >= task.ir.shots => {
                let result = self.tasks.lock().merged_result(id, last);
                let at = self.now();
                (JournalRecord::TaskCompleted { id, result, at }, None)
            }
            // Sliced, maybe preempted: the remainder queues again and
            // priority order decides who goes next. Shot-level progress is
            // deliberately not journaled: a crash between slices replays the
            // whole task (at-least-once per shot, exactly-once per task).
            Ok(slice) => (JournalRecord::TaskRequeued { id }, Some(slice)),
        };
        let (applied, preempted) = {
            let mut tasks = self.tasks.lock();
            let preempted = slice.is_some() && tasks.queue().should_preempt(task.class, now);
            let applied = match slice {
                Some(slice) => tasks.apply_slice(id, slice),
                None => tasks.apply(&rec),
            };
            (applied, preempted)
        };
        applied.expect("a running task accepts its outcome");
        match &rec {
            JournalRecord::TaskFailed { .. } => self.fault_metrics().poisoned(class),
            JournalRecord::TaskAttemptFailed { .. } => self.fault_metrics().requeue(class),
            JournalRecord::TaskCompleted { result, .. } => {
                if self.cfg.cache_dev_results && task.class == PriorityClass::Development {
                    self.dev_cache
                        .lock()
                        .insert(task.ir.fingerprint(), result.clone());
                }
                self.registry.counter_add(
                    "daemon_tasks_completed_total",
                    "Tasks completed",
                    labels(&[("class", class)]),
                    1.0,
                );
            }
            _ if preempted => self.registry.counter_add(
                "daemon_preemptions_total",
                "Shot-boundary preemptions",
                labels(&[("class", class)]),
                1.0,
            ),
            _ => {}
        }
        self.journal_append(&rec);
        Some(id)
    }

    /// The resource a dispatch should use for a task that has failed on
    /// `excluded`: the primary unless the task has already failed on it and
    /// an untried alternate exists. Exclusion is advisory — when every
    /// resource has failed once, the primary is used anyway rather than
    /// starving the task.
    fn pick_resource(&self, excluded: &BTreeSet<String>) -> Arc<dyn QuantumResource> {
        if excluded.contains(self.resource.resource_id()) {
            if let Some(alt) = self
                .alternates
                .iter()
                .find(|a| !excluded.contains(a.resource_id()))
            {
                return Arc::clone(alt);
            }
        }
        Arc::clone(&self.resource)
    }

    /// Run `shots` shots of `task` through the QRMI resource `res`,
    /// advancing the daemon clock by the execution time.
    fn run_shots(
        &self,
        task: &QuantumTask,
        shots: u32,
        res: &Arc<dyn QuantumResource>,
    ) -> Result<SampleResult, String> {
        let ir = ProgramIr {
            shots,
            ..(*task.ir).clone()
        };
        let lease = res.acquire().map_err(|e| e.to_string())?;
        let out = hpcqc_qrmi::run_to_completion(res.as_ref(), &lease, &ir, 10_000)
            .map_err(|e| e.to_string());
        res.release(&lease).map_err(|e| e.to_string())?;
        if let Ok(r) = &out {
            *self.clock.lock() += r.execution_secs;
            if let Some(f) = &self.fairshare {
                f.charge(&task.user, r.execution_secs, self.now());
            }
            self.registry.counter_add(
                "daemon_qpu_busy_seconds_total",
                "Device seconds consumed through the daemon",
                labels(&[("class", task.class.as_str())]),
                r.execution_secs,
            );
        }
        out
    }

    /// Drain the queue completely in batches of `pump_batch`. Returns the
    /// number of dispatches.
    pub fn pump(&self) -> usize {
        let mut n = 0;
        loop {
            let k = self.pump_batch(self.cfg.pump_batch);
            if k == 0 {
                break;
            }
            n += k;
            assert!(n < 1_000_000, "runaway pump loop");
        }
        n
    }

    /// Start a background dispatcher thread: the production deployment mode,
    /// where the daemon drains its queue continuously and clients only poll
    /// task status. Returns a handle that stops the thread when dropped.
    pub fn spawn_dispatcher(self: &Arc<Self>, idle_poll: std::time::Duration) -> DispatcherHandle {
        let svc = Arc::clone(self);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::SeqCst) {
                // A panicking handler (bad task, injected fault, poisoned
                // shim state) must not kill the dispatcher: the queue would
                // silently stop draining while submissions kept succeeding.
                let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    svc.pump_batch(svc.cfg.pump_batch)
                }));
                match pumped {
                    Ok(0) => {
                        // quiescent: make any buffered group-commit batch
                        // durable before going to sleep
                        svc.sync_journal();
                        std::thread::sleep(idle_poll);
                    }
                    Ok(_) => {}
                    Err(_) => {
                        svc.registry.counter_add(
                            "daemon_dispatcher_panics_total",
                            "Dispatcher pump panics survived (task skipped)",
                            hpcqc_telemetry::Labels::new(),
                            1.0,
                        );
                        // back off briefly: a deterministic panic loop must
                        // not spin a core
                        std::thread::sleep(idle_poll);
                    }
                }
            }
        });
        DispatcherHandle {
            stop,
            thread: Some(thread),
        }
    }

    // ---- admin / observability surface ---------------------------------

    /// Combined Prometheus exposition: daemon metrics + device metrics.
    pub fn metrics_text(&self) -> String {
        // refresh per-lock contention/hold-time gauges on every scrape
        hpcqc_telemetry::export_lock_metrics(&self.registry);
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
                let status = qpu_status_str(s).to_string();
                *self.last_qpu_status.lock() = Some(status.clone());
                self.journal_append(&JournalRecord::QpuStatusChanged { status });
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

/// Stops the background dispatcher thread when dropped.
pub struct DispatcherHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for DispatcherHandle {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// String forms of [`QpuStatus`] used in journal records.
fn qpu_status_str(s: QpuStatus) -> &'static str {
    match s {
        QpuStatus::Operational => "operational",
        QpuStatus::Calibrating => "calibrating",
        QpuStatus::Maintenance => "maintenance",
        QpuStatus::Down => "down",
    }
}

fn parse_qpu_status(s: &str) -> Option<QpuStatus> {
    match s {
        "operational" => Some(QpuStatus::Operational),
        "calibrating" => Some(QpuStatus::Calibrating),
        "maintenance" => Some(QpuStatus::Maintenance),
        "down" => Some(QpuStatus::Down),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_emulator::SvBackend;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};
    use hpcqc_qrmi::{LocalEmulatorResource, QpuDirectResource};

    fn ir(shots: u32) -> ProgramIr {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "test")
    }

    fn emu_daemon(cfg: DaemonConfig) -> MiddlewareService {
        let res = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        MiddlewareService::new(res, cfg)
    }

    fn qpu_daemon(cfg: DaemonConfig) -> (MiddlewareService, VirtualQpu) {
        let qpu = VirtualQpu::new("fresnel-1", 7);
        let res = Arc::new(QpuDirectResource::new("fresnel-1", qpu.clone(), 1));
        (
            MiddlewareService::new(res, cfg).with_qpu_admin(qpu.clone()),
            qpu,
        )
    }

    #[test]
    fn submit_run_fetch_happy_path() {
        let d = emu_daemon(DaemonConfig::default());
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        let id = d.submit(&tok, ir(50), PatternHint::None).unwrap();
        assert!(matches!(
            d.task_status(id).unwrap(),
            DaemonTaskStatus::Queued { .. }
        ));
        d.pump();
        assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Completed);
        let r = d.task_result(id).unwrap();
        assert_eq!(r.shots, 50);
    }

    #[test]
    fn submission_requires_valid_session() {
        let d = emu_daemon(DaemonConfig::default());
        assert!(matches!(
            d.submit("bogus", ir(10), PatternHint::None),
            Err(DaemonError::Session(SessionError::UnknownToken))
        ));
    }

    #[test]
    fn dev_shot_cap_applied() {
        let d = emu_daemon(DaemonConfig {
            dev_shot_cap: 20,
            ..DaemonConfig::default()
        });
        let tok = d.open_session("dev", PriorityClass::Development).unwrap();
        let id = d.submit(&tok, ir(1000), PatternHint::None).unwrap();
        d.pump();
        assert_eq!(
            d.task_result(id).unwrap().shots,
            20,
            "dev capped at 20 shots"
        );
        // production is not capped
        let ptok = d.open_session("prod", PriorityClass::Production).unwrap();
        let pid = d.submit(&ptok, ir(1000), PatternHint::None).unwrap();
        d.pump();
        assert_eq!(d.task_result(pid).unwrap().shots, 1000);
    }

    #[test]
    fn server_side_validation_rejects_bad_program() {
        let (d, _) = qpu_daemon(DaemonConfig::default());
        let tok = d.open_session("u", PriorityClass::Test).unwrap();
        let reg = Register::linear(2, 1.0).unwrap(); // violates 5 µm min distance
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        let bad = ProgramIr::new(b.build().unwrap(), 10, "test");
        match d.submit(&tok, bad, PatternHint::None) {
            Err(DaemonError::Validation(v)) => assert!(!v.is_empty()),
            other => panic!("expected validation error, got {other:?}"),
        }
    }

    #[test]
    fn analyzer_rejects_error_diagnostics() {
        // shots exceed the production envelope: `validate()` alone would let
        // this through (it only checks the sequence), but the analyzer's
        // HQ0108 shot-range lint is Error-level and must reject.
        let (d, _) = qpu_daemon(DaemonConfig::default());
        let tok = d.open_session("u", PriorityClass::Production).unwrap();
        match d.submit(&tok, ir(5000), PatternHint::None) {
            Err(DaemonError::Validation(v)) => {
                assert!(v.iter().any(|m| m.contains("HQ0108")), "{v:?}");
            }
            other => panic!("expected validation error, got {other:?}"),
        }
        let text = d.metrics_text();
        assert!(text.contains("daemon_lint_rejections_total{class=\"production\"} 1"));
        assert!(text.contains("analysis_diagnostics_total{code=\"HQ0108\",severity=\"error\"} 1"));
    }

    #[test]
    fn hint_mismatch_recorded_for_mislabeled_pattern() {
        // ~50 s of QPU time vs 1 ms classical: clearly QC-heavy, yet the
        // user declared CC-heavy. The daemon keeps the declared hint but
        // flags the contradiction in metrics and the job record.
        let (d, _) = qpu_daemon(DaemonConfig::default());
        let tok = d.open_session("u", PriorityClass::Production).unwrap();
        let id = d
            .submit(
                &tok,
                ir(50).with_classical_estimate(0.001),
                PatternHint::CcHeavy,
            )
            .unwrap();
        assert!(d
            .metrics_text()
            .contains("daemon_hint_mismatch_total{declared=\"cc-heavy\",inferred=\"qc-heavy\"} 1"));
        let warnings = d.task_warnings(id);
        assert!(
            warnings
                .iter()
                .any(|w| w.contains("contradicts inferred 'qc-heavy'")),
            "{warnings:?}"
        );
    }

    #[test]
    fn inferred_hint_adopted_when_undeclared() {
        let (d, _) = qpu_daemon(DaemonConfig::default());
        let tok = d.open_session("u", PriorityClass::Production).unwrap();
        let id = d
            .submit(
                &tok,
                ir(50).with_classical_estimate(1.0e6),
                PatternHint::None,
            )
            .unwrap();
        assert!(d
            .metrics_text()
            .contains("daemon_hint_adopted_total{hint=\"cc-heavy\"} 1"));
        // adoption is silent: no warning recorded for it
        assert!(d.task_warnings(id).is_empty(), "{:?}", d.task_warnings(id));
    }

    #[test]
    fn stale_validation_surfaces_warning_and_counter() {
        let (d, _) = qpu_daemon(DaemonConfig::default());
        let tok = d.open_session("u", PriorityClass::Production).unwrap();
        let current = d.device_spec().unwrap().revision;
        let id = d
            .submit(
                &tok,
                ir(50).with_validation_revision(current + 7),
                PatternHint::None,
            )
            .unwrap();
        assert!(d.metrics_text().contains("daemon_stale_validation_total 1"));
        let warnings = d.task_warnings(id);
        assert!(
            warnings.iter().any(|w| w.contains("HQ0701")),
            "{warnings:?}"
        );
        // a fresh revision stays quiet
        let id2 = d
            .submit(
                &tok,
                ir(50).with_validation_revision(current),
                PatternHint::None,
            )
            .unwrap();
        assert!(d.task_warnings(id2).is_empty());
        assert!(d.metrics_text().contains("daemon_stale_validation_total 1"));
    }

    #[test]
    fn priority_order_respected_across_sessions() {
        let d = emu_daemon(DaemonConfig::default());
        let dev = d.open_session("dev", PriorityClass::Development).unwrap();
        let prod = d.open_session("prod", PriorityClass::Production).unwrap();
        let d1 = d.submit(&dev, ir(10), PatternHint::None).unwrap();
        let p1 = d.submit(&prod, ir(10), PatternHint::None).unwrap();
        // production dispatches first even though it queued second
        let first = d.pump_once().unwrap();
        assert_eq!(first, p1);
        let _ = d1;
    }

    #[test]
    fn production_preempts_development_at_shot_boundary() {
        let (d, qpu) = qpu_daemon(DaemonConfig {
            preempt_chunk_shots: 5,
            dev_shot_cap: 50,
            ..DaemonConfig::default()
        });
        let dev = d.open_session("dev", PriorityClass::Development).unwrap();
        let prod = d.open_session("prod", PriorityClass::Production).unwrap();
        let dev_id = d.submit(&dev, ir(50), PatternHint::None).unwrap();
        // dev starts: one 5-shot slice runs
        assert_eq!(d.pump_once().unwrap(), dev_id);
        assert!(matches!(
            d.task_status(dev_id).unwrap(),
            DaemonTaskStatus::Queued { .. }
        ));
        // production arrives mid-flight
        let prod_id = d.submit(&prod, ir(20), PatternHint::None).unwrap();
        // next dispatch must be the production task, not dev's remainder
        assert_eq!(d.pump_once().unwrap(), prod_id);
        assert_eq!(d.task_status(prod_id).unwrap(), DaemonTaskStatus::Completed);
        // dev remainder completes afterwards with all 50 shots accounted
        d.pump();
        assert_eq!(d.task_status(dev_id).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.task_result(dev_id).unwrap().shots, 50);
        let (jobs, shots) = qpu.stats();
        assert!(jobs >= 11, "10 dev slices + 1 prod batch, got {jobs}");
        assert_eq!(shots, 70);
    }

    #[test]
    fn cancel_queued_task_requires_ownership() {
        let d = emu_daemon(DaemonConfig::default());
        let a = d.open_session("a", PriorityClass::Test).unwrap();
        let b = d.open_session("b", PriorityClass::Test).unwrap();
        let id = d.submit(&a, ir(10), PatternHint::None).unwrap();
        assert!(matches!(d.cancel(&b, id), Err(DaemonError::Forbidden(_))));
        d.cancel(&a, id).unwrap();
        assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Cancelled);
        // cancelled task no longer runs
        assert_eq!(d.pump(), 0);
    }

    #[test]
    fn queue_position_reported() {
        let d = emu_daemon(DaemonConfig::default());
        let tok = d.open_session("u", PriorityClass::Test).unwrap();
        let a = d.submit(&tok, ir(10), PatternHint::None).unwrap();
        let b = d.submit(&tok, ir(10), PatternHint::None).unwrap();
        assert_eq!(
            d.task_status(a).unwrap(),
            DaemonTaskStatus::Queued { position: 0 }
        );
        assert_eq!(
            d.task_status(b).unwrap(),
            DaemonTaskStatus::Queued { position: 1 }
        );
        assert_eq!(d.queue_depth(), 2);
    }

    #[test]
    fn admin_surface_requires_device() {
        let d = emu_daemon(DaemonConfig::default());
        assert!(d.qpu_status().is_none());
        assert!(matches!(
            d.recalibrate(60.0),
            Err(DaemonError::Forbidden(_))
        ));
        let (d2, _) = qpu_daemon(DaemonConfig::default());
        assert_eq!(d2.qpu_status(), Some(QpuStatus::Operational));
        d2.set_qpu_status(QpuStatus::Maintenance).unwrap();
        assert_eq!(d2.qpu_status(), Some(QpuStatus::Maintenance));
        d2.recalibrate(60.0).unwrap();
    }

    #[test]
    fn metrics_text_covers_daemon_and_device() {
        let (d, _) = qpu_daemon(DaemonConfig::default());
        let tok = d.open_session("u", PriorityClass::Production).unwrap();
        let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        d.pump();
        let _ = d.task_result(id).unwrap();
        let text = d.metrics_text();
        assert!(text.contains("daemon_tasks_submitted_total{class=\"production\"} 1"));
        assert!(text.contains("daemon_tasks_completed_total"));
        assert!(text.contains("qpu_jobs_total"), "device metrics merged in");
    }

    #[test]
    fn telemetry_range_exposes_calibration_history() {
        let (d, _) = qpu_daemon(DaemonConfig::default());
        d.advance_time(100.0);
        d.advance_time(100.0);
        let pts = d.telemetry_range("qpu_rabi_scale", 0.0, 1e9);
        assert!(pts.len() >= 2, "calibration history recorded");
    }

    #[test]
    fn background_dispatcher_drains_queue_without_pumping() {
        let d = Arc::new(emu_daemon(DaemonConfig::default()));
        let _dispatcher = d.spawn_dispatcher(std::time::Duration::from_millis(5));
        let tok = d.open_session("bg", PriorityClass::Test).unwrap();
        let id = d.submit(&tok, ir(30), PatternHint::None).unwrap();
        // no pump() calls: the dispatcher thread must complete the task
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match d.task_status(id).unwrap() {
                DaemonTaskStatus::Completed => break,
                DaemonTaskStatus::Failed(m) => panic!("task failed: {m}"),
                _ => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "dispatcher did not finish the task in time"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
        }
        assert_eq!(d.task_result(id).unwrap().shots, 30);
    }

    #[test]
    fn dispatcher_handle_drop_stops_thread() {
        let d = Arc::new(emu_daemon(DaemonConfig::default()));
        let dispatcher = d.spawn_dispatcher(std::time::Duration::from_millis(5));
        drop(dispatcher); // joins the thread; must not hang or panic
                          // after the dispatcher is gone, tasks stay queued until pumped
        let tok = d.open_session("x", PriorityClass::Test).unwrap();
        let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(matches!(
            d.task_status(id).unwrap(),
            DaemonTaskStatus::Queued { .. }
        ));
    }

    #[test]
    fn fairshare_demotes_heavy_user_within_class() {
        let (d, _) = qpu_daemon(DaemonConfig {
            queue: QueueConfig {
                aging_secs: 0.0,
                fairshare_weight: 0.9,
                fairshare_scale_secs: 10.0,
                ..QueueConfig::default()
            },
            ..DaemonConfig::default()
        });
        let hog = d.open_session("hog", PriorityClass::Test).unwrap();
        let light = d.open_session("light", PriorityClass::Test).unwrap();
        // the hog burns device time first (1 Hz QPU: 60 shots ≈ 63 s usage)
        let warm = d.submit(&hog, ir(60), PatternHint::None).unwrap();
        d.pump();
        assert_eq!(d.task_status(warm).unwrap(), DaemonTaskStatus::Completed);
        // now both queue a task; the hog submitted FIRST but the light user
        // dispatches first thanks to fair-share
        let hog_task = d.submit(&hog, ir(5), PatternHint::None).unwrap();
        let light_task = d.submit(&light, ir(5), PatternHint::None).unwrap();
        assert_eq!(
            d.pump_once().unwrap(),
            light_task,
            "light user overtakes the hog"
        );
        assert_eq!(d.pump_once().unwrap(), hog_task);
    }

    #[test]
    fn dev_cache_serves_repeated_programs_without_device_time() {
        let (d, qpu) = qpu_daemon(DaemonConfig::default());
        let tok = d.open_session("dev", PriorityClass::Development).unwrap();
        let a = d.submit(&tok, ir(20), PatternHint::None).unwrap();
        d.pump();
        let first = d.task_result(a).unwrap();
        let (jobs_before, shots_before) = qpu.stats();
        // identical program again: served from cache, no new device job
        let b = d.submit(&tok, ir(20), PatternHint::None).unwrap();
        assert_eq!(d.task_status(b).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.task_result(b).unwrap(), first);
        assert_eq!(
            qpu.stats(),
            (jobs_before, shots_before),
            "no extra QPU work"
        );
        assert!(d
            .metrics_text()
            .contains("daemon_dev_cache_hits_total{class=\"development\"} 1"));
        // a different program misses the cache
        let c = d.submit(&tok, ir(21), PatternHint::None).unwrap();
        assert!(matches!(
            d.task_status(c).unwrap(),
            DaemonTaskStatus::Queued { .. }
        ));
    }

    #[test]
    fn production_results_are_never_cached() {
        let (d, qpu) = qpu_daemon(DaemonConfig::default());
        let tok = d.open_session("prod", PriorityClass::Production).unwrap();
        d.submit(&tok, ir(10), PatternHint::None).unwrap();
        d.pump();
        let (jobs1, _) = qpu.stats();
        d.submit(&tok, ir(10), PatternHint::None).unwrap();
        d.pump();
        let (jobs2, _) = qpu.stats();
        assert_eq!(jobs2, jobs1 + 1, "production always re-executes");
    }

    #[test]
    fn sessions_expire_after_ttl() {
        let d = emu_daemon(DaemonConfig {
            session_ttl_secs: 100.0,
            ..DaemonConfig::default()
        });
        let tok = d.open_session("idle", PriorityClass::Test).unwrap();
        d.advance_time(50.0);
        assert!(
            d.submit(&tok, ir(5), PatternHint::None).is_ok(),
            "still fresh"
        );
        d.advance_time(100.0);
        assert!(matches!(
            d.submit(&tok, ir(5), PatternHint::None),
            Err(DaemonError::Session(SessionError::UnknownToken))
        ));
        assert!(d.metrics_text().contains("daemon_sessions_expired_total 1"));
    }

    mod requeue {
        use super::*;
        use hpcqc_qrmi::{FaultInjector, FaultProfile};

        fn flaky_daemon(profile: FaultProfile, cfg: DaemonConfig) -> MiddlewareService {
            let inner = Arc::new(LocalEmulatorResource::new(
                "emu",
                Arc::new(SvBackend::default()),
                1,
            ));
            MiddlewareService::new(Arc::new(FaultInjector::new(inner, profile, 23)), cfg)
        }

        #[test]
        fn transient_failures_requeue_until_completion() {
            let d = flaky_daemon(
                FaultProfile {
                    task_failure_rate: 0.3,
                    ..FaultProfile::none()
                },
                DaemonConfig {
                    max_task_retries: 20,
                    ..DaemonConfig::default()
                },
            );
            let tok = d.open_session("alice", PriorityClass::Production).unwrap();
            let ids: Vec<u64> = (0..10)
                .map(|_| d.submit(&tok, ir(20), PatternHint::None).unwrap())
                .collect();
            d.pump();
            for id in &ids {
                assert_eq!(d.task_status(*id).unwrap(), DaemonTaskStatus::Completed);
                assert_eq!(d.task_result(*id).unwrap().shots, 20);
            }
            assert!(
                d.metrics_text()
                    .contains("daemon_task_requeues_total{class=\"production\"}"),
                "a 30%-failure resource must cost requeues"
            );
        }

        #[test]
        fn poison_cap_fails_task_permanently() {
            let d = flaky_daemon(
                FaultProfile {
                    task_failure_rate: 1.0,
                    ..FaultProfile::none()
                },
                DaemonConfig {
                    max_task_retries: 2,
                    ..DaemonConfig::default()
                },
            );
            let tok = d.open_session("bob", PriorityClass::Production).unwrap();
            let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
            assert_eq!(d.pump(), 3, "initial attempt + 2 requeues");
            assert!(matches!(
                d.task_status(id).unwrap(),
                DaemonTaskStatus::Failed(_)
            ));
            let text = d.metrics_text();
            assert!(text.contains("daemon_task_requeues_total{class=\"production\"} 2"));
            assert!(text.contains("daemon_tasks_poisoned_total{class=\"production\"} 1"));
        }

        #[test]
        fn requeued_task_moves_to_alternate_resource() {
            let dead = FaultProfile {
                task_failure_rate: 1.0,
                ..FaultProfile::none()
            };
            let d = flaky_daemon(dead, DaemonConfig::default()).with_alternate_resource(Arc::new(
                LocalEmulatorResource::new("emu-backup", Arc::new(SvBackend::default()), 2),
            ));
            let tok = d.open_session("carol", PriorityClass::Production).unwrap();
            let id = d.submit(&tok, ir(15), PatternHint::None).unwrap();
            d.pump();
            // the primary always fails, so completion proves the second
            // dispatch excluded it and ran on the backup emulator
            assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Completed);
            assert_eq!(d.task_result(id).unwrap().shots, 15);
            assert!(d.metrics_text().contains("daemon_task_requeues_total"));
        }

        #[test]
        fn exclusion_is_advisory_without_alternates() {
            // every resource (there is only one) has failed once: dispatch
            // must still try the primary instead of starving the task
            let d = flaky_daemon(
                FaultProfile {
                    task_failure_rate: 0.6,
                    ..FaultProfile::none()
                },
                DaemonConfig {
                    max_task_retries: 50,
                    ..DaemonConfig::default()
                },
            );
            let tok = d.open_session("dave", PriorityClass::Test).unwrap();
            let id = d.submit(&tok, ir(10), PatternHint::None).unwrap();
            d.pump();
            assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Completed);
        }

        /// Delegates to a real emulator, but the first `task_start` fires a
        /// one-shot hook *while the task is in flight* and then fails,
        /// forcing the daemon down the requeue path with whatever state the
        /// hook set up. `execute` holds no queue/session lock across the
        /// resource call, so the hook may call back into the daemon.
        struct MidFlightHookResource {
            inner: LocalEmulatorResource,
            hook: std::sync::Mutex<Option<Box<dyn FnOnce() + Send>>>,
        }

        impl hpcqc_qrmi::QuantumResource for MidFlightHookResource {
            fn resource_id(&self) -> &str {
                self.inner.resource_id()
            }
            fn resource_type(&self) -> hpcqc_qrmi::ResourceType {
                self.inner.resource_type()
            }
            fn acquire(&self) -> Result<hpcqc_qrmi::AcquisitionToken, hpcqc_qrmi::QrmiError> {
                self.inner.acquire()
            }
            fn release(
                &self,
                token: &hpcqc_qrmi::AcquisitionToken,
            ) -> Result<(), hpcqc_qrmi::QrmiError> {
                self.inner.release(token)
            }
            fn target(&self) -> Result<DeviceSpec, hpcqc_qrmi::QrmiError> {
                self.inner.target()
            }
            fn task_start(
                &self,
                token: &hpcqc_qrmi::AcquisitionToken,
                ir: &ProgramIr,
            ) -> Result<hpcqc_qrmi::TaskId, hpcqc_qrmi::QrmiError> {
                // take the hook in its own statement: `if let` would hold
                // the guard across `hook()`, and a panicking hook must
                // poison nothing (the hazard this file's tests are about)
                let hook = self.hook.lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(hook) = hook {
                    hook();
                    return Err(hpcqc_qrmi::QrmiError::Backend(
                        "injected mid-flight failure".into(),
                    ));
                }
                self.inner.task_start(token, ir)
            }
            fn task_status(
                &self,
                task: &hpcqc_qrmi::TaskId,
            ) -> Result<hpcqc_qrmi::TaskStatus, hpcqc_qrmi::QrmiError> {
                self.inner.task_status(task)
            }
            fn task_stop(&self, task: &hpcqc_qrmi::TaskId) -> Result<(), hpcqc_qrmi::QrmiError> {
                self.inner.task_stop(task)
            }
            fn task_result(
                &self,
                task: &hpcqc_qrmi::TaskId,
            ) -> Result<SampleResult, hpcqc_qrmi::QrmiError> {
                self.inner.task_result(task)
            }
            fn metadata(&self) -> std::collections::BTreeMap<String, String> {
                self.inner.metadata()
            }
        }

        /// Regression test for the requeue/quota panic hazard: a task that
        /// fails mid-flight must be requeued even when other submissions
        /// have exhausted the session quota since it was admitted. The old
        /// path used `queue.push(task).expect(..)` — push re-checks the
        /// quota, so this exact schedule returned `SessionQuotaExceeded`
        /// and panicked the dispatcher. `restore` skips the re-check (the
        /// task was already admitted once).
        #[test]
        fn requeue_of_failed_task_survives_exhausted_session_quota() {
            let res = Arc::new(MidFlightHookResource {
                inner: LocalEmulatorResource::new("emu", Arc::new(SvBackend::default()), 1),
                hook: std::sync::Mutex::new(None),
            });
            let d = Arc::new(MiddlewareService::new(
                res.clone() as Arc<dyn QuantumResource>,
                DaemonConfig {
                    queue: QueueConfig {
                        max_tasks_per_session: 1,
                        ..QueueConfig::default()
                    },
                    ..DaemonConfig::default()
                },
            ));
            let tok = d.open_session("erin", PriorityClass::Production).unwrap();
            let first = d.submit(&tok, ir(5), PatternHint::None).unwrap();
            // While `first` is claimed (in flight, not counted against the
            // quota), a second submission fills the session quota.
            let second = Arc::new(std::sync::Mutex::new(None));
            {
                let (d2, tok2, second) = (Arc::clone(&d), tok.clone(), Arc::clone(&second));
                *res.hook.lock().unwrap() = Some(Box::new(move || {
                    *second.lock().unwrap() =
                        Some(d2.submit(&tok2, ir(5), PatternHint::None).unwrap());
                }));
            }
            d.pump(); // must not panic requeuing `first`
            let second = second.lock().unwrap().take().expect("hook ran");
            assert_eq!(d.task_status(first).unwrap(), DaemonTaskStatus::Completed);
            assert_eq!(d.task_status(second).unwrap(), DaemonTaskStatus::Completed);
            assert!(
                d.metrics_text().contains("daemon_task_requeues_total"),
                "the injected failure must have cost a requeue"
            );
        }

        /// What a client sees in every state of a task: status, result and
        /// cancel. `Running` is observed from inside the device call.
        #[test]
        fn client_visible_answers_in_every_state() {
            let res = Arc::new(MidFlightHookResource {
                inner: LocalEmulatorResource::new("emu", Arc::new(SvBackend::default()), 1),
                hook: std::sync::Mutex::new(None),
            });
            let d = Arc::new(MiddlewareService::new(
                res.clone() as Arc<dyn QuantumResource>,
                DaemonConfig {
                    max_task_retries: 0,
                    ..DaemonConfig::default()
                },
            ));
            let tok = d.open_session("gina", PriorityClass::Production).unwrap();
            let other = d.open_session("hank", PriorityClass::Production).unwrap();
            let not_done = Err(DaemonError::Queue("task not completed".into()));
            let not_queued = Err(DaemonError::Queue("task is not queued".into()));

            // unknown
            assert_eq!(d.task_status(99), Err(DaemonError::UnknownTask(99)));
            assert_eq!(d.task_result(99), Err(DaemonError::UnknownTask(99)));
            assert_eq!(d.cancel(&tok, 99), Err(DaemonError::UnknownTask(99)));

            // Queued: position reported, only the owner may cancel
            let cancelled = d.submit(&tok, ir(5), PatternHint::None).unwrap();
            let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
            assert_eq!(
                d.task_status(id),
                Ok(DaemonTaskStatus::Queued { position: 1 })
            );
            assert_eq!(d.task_result(id), not_done);
            assert!(matches!(
                d.cancel(&other, id),
                Err(DaemonError::Forbidden(_))
            ));

            // Cancelled
            assert_eq!(d.cancel(&tok, cancelled), Ok(()));
            assert_eq!(d.task_status(cancelled), Ok(DaemonTaskStatus::Cancelled));
            assert_eq!(d.task_result(cancelled), not_done);
            assert_eq!(d.cancel(&tok, cancelled), not_queued);

            // Running (then Failed: the hook fails the run, zero retries)
            let seen = Arc::new(std::sync::Mutex::new(None));
            {
                let (d, tok, seen) = (Arc::clone(&d), tok.clone(), Arc::clone(&seen));
                *res.hook.lock().unwrap() = Some(Box::new(move || {
                    *seen.lock().unwrap() =
                        Some((d.task_status(id), d.task_result(id), d.cancel(&tok, id)));
                }));
            }
            assert_eq!(d.pump_once(), Some(id));
            let running = (
                Ok(DaemonTaskStatus::Running),
                not_done.clone(),
                not_queued.clone(),
            );
            assert_eq!(seen.lock().unwrap().take(), Some(running));
            assert!(matches!(d.task_status(id), Ok(DaemonTaskStatus::Failed(_))));
            assert!(matches!(d.task_result(id), Err(DaemonError::Internal(_))));
            assert_eq!(d.cancel(&tok, id), not_queued);

            // Completed
            let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
            assert_eq!(d.pump_once(), Some(id));
            assert_eq!(d.task_status(id), Ok(DaemonTaskStatus::Completed));
            assert_eq!(d.task_result(id).unwrap().shots, 5);
            assert_eq!(d.cancel(&tok, id), not_queued);
        }

        /// A handler that panics mid-task (with the emulator lease held and
        /// the dispatch lock poisoned) must not kill the dispatcher thread
        /// or wedge the daemon: the panic is counted, and later tasks still
        /// run to completion.
        #[test]
        fn dispatcher_survives_panicking_handler() {
            let res = Arc::new(MidFlightHookResource {
                // capacity 2: the panic leaks one lease (unwinding skips the
                // release), later tasks use the second slot
                inner: LocalEmulatorResource::new("emu", Arc::new(SvBackend::default()), 2),
                hook: std::sync::Mutex::new(Some(Box::new(|| panic!("injected handler panic")))),
            });
            let d = Arc::new(MiddlewareService::new(
                res as Arc<dyn QuantumResource>,
                DaemonConfig::default(),
            ));
            let tok = d.open_session("frank", PriorityClass::Production).unwrap();
            d.submit(&tok, ir(5), PatternHint::None).unwrap();
            let dispatcher = d.spawn_dispatcher(std::time::Duration::from_millis(1));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !d
                .metrics_text()
                .contains("daemon_dispatcher_panics_total 1")
            {
                assert!(
                    std::time::Instant::now() < deadline,
                    "dispatcher never reported the survived panic"
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            // the daemon is still alive: a fresh task completes normally
            let second = d.submit(&tok, ir(5), PatternHint::None).unwrap();
            while d.task_status(second).unwrap() != DaemonTaskStatus::Completed {
                assert!(
                    std::time::Instant::now() < deadline,
                    "daemon wedged after handler panic; status {:?}",
                    d.task_status(second).unwrap()
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            drop(dispatcher);
        }
    }

    #[test]
    fn snapshot_of_large_queue_shares_program_bodies() {
        // snapshotting must clone task *handles*, never program bodies: the
        // snapshot's `ir` and the queued task's `ir` are the same allocation
        let d = emu_daemon(DaemonConfig {
            validate_on_submit: false,
            analyze_on_submit: false,
            ..DaemonConfig::default()
        });
        let tok = d.open_session("bulk", PriorityClass::Production).unwrap();
        for _ in 0..1000 {
            d.submit(&tok, ir(10), PatternHint::None).unwrap();
        }
        let snap = d.snapshot_state();
        assert_eq!(snap.queued.len(), 1000);
        // two snapshots of the same queue hold the same allocations, so
        // neither copied a body out of the table
        let again = d.snapshot_state();
        for (t, u) in snap.queued.iter().zip(&again.queued) {
            assert_eq!(t.id, u.id);
            assert!(
                Arc::ptr_eq(&t.ir, &u.ir),
                "snapshot deep-copied the program body of task {}",
                t.id
            );
        }
    }

    #[test]
    fn pump_batch_drains_in_dispatch_order() {
        let d = emu_daemon(DaemonConfig::default());
        let dev = d.open_session("dev", PriorityClass::Development).unwrap();
        let prod = d.open_session("prod", PriorityClass::Production).unwrap();
        let dev_id = d.submit(&dev, ir(5), PatternHint::None).unwrap();
        let prod_id = d.submit(&prod, ir(5), PatternHint::None).unwrap();
        assert_eq!(d.pump_batch(16), 2, "one batch claims both tasks");
        assert_eq!(d.task_status(prod_id).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.task_status(dev_id).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.pump_batch(16), 0, "queue drained");
    }

    #[test]
    fn merge_results_accumulates_counts() {
        let a = SampleResult::from_shots(2, &[0b00, 0b01], "x");
        let b = SampleResult::from_shots(2, &[0b01, 0b11], "x");
        let m = crate::tasks::merge_results(a, b);
        assert_eq!(m.shots, 4);
        assert_eq!(m.counts[&0b01], 2);
        assert_eq!(m.counts[&0b00], 1);
        assert_eq!(m.counts[&0b11], 1);
    }

    // ---- durability ----------------------------------------------------

    fn journal_dir(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/daemon-journal-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn emu_resource() -> Arc<dyn QuantumResource> {
        Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ))
    }

    #[test]
    fn recover_restores_queue_sessions_and_id_watermark() {
        let dir = journal_dir("restore-basic");
        let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        let done = d.submit(&tok, ir(10), PatternHint::None).unwrap();
        d.pump();
        let queued_a = d.submit(&tok, ir(20), PatternHint::None).unwrap();
        let queued_b = d.submit(&tok, ir(30), PatternHint::None).unwrap();
        let done_result = d.task_result(done).unwrap();
        drop(d); // crash: no drain, no final snapshot

        let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        // completed work survived with its result intact
        assert_eq!(d2.task_result(done).unwrap().counts, done_result.counts);
        // queued work survived as queued
        assert!(matches!(
            d2.task_status(queued_a).unwrap(),
            DaemonTaskStatus::Queued { .. }
        ));
        assert!(matches!(
            d2.task_status(queued_b).unwrap(),
            DaemonTaskStatus::Queued { .. }
        ));
        // the session is alive and the token still valid
        let next = d2.submit(&tok, ir(5), PatternHint::None).unwrap();
        // the id high-water mark survived: no reuse of pre-crash ids
        assert!(next > queued_b, "task id watermark must survive recovery");
        d2.pump();
        assert_eq!(
            d2.task_status(queued_a).unwrap(),
            DaemonTaskStatus::Completed
        );
        assert_eq!(
            d2.task_status(queued_b).unwrap(),
            DaemonTaskStatus::Completed
        );
        assert_eq!(d2.task_status(next).unwrap(), DaemonTaskStatus::Completed);
    }

    #[test]
    fn idempotency_keys_survive_restart() {
        let dir = journal_dir("idempotency");
        let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        let tok = d.open_session("alice", PriorityClass::Test).unwrap();
        let id = d
            .submit_with_key(&tok, ir(10), PatternHint::None, Some("vqe-step-1"))
            .unwrap();
        // same key, same daemon → same id, nothing new queued
        let again = d
            .submit_with_key(&tok, ir(10), PatternHint::None, Some("vqe-step-1"))
            .unwrap();
        assert_eq!(id, again);
        assert_eq!(d.queue_depth(), 1);
        drop(d);

        let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        let after_crash = d2
            .submit_with_key(&tok, ir(10), PatternHint::None, Some("vqe-step-1"))
            .unwrap();
        assert_eq!(id, after_crash, "journaled key must return the original id");
        assert_eq!(d2.queue_depth(), 1, "dedup must not enqueue a duplicate");
        assert!(d2
            .metrics_text()
            .contains("daemon_idempotent_hits_total{class=\"test\"} 1"));
    }

    /// Batch submit: per-frame outcomes in order, bad frames isolated, the
    /// group-committed journal records replaying identically after a crash.
    #[test]
    fn submit_batch_isolates_frames_and_survives_restart() {
        let dir = journal_dir("batch-submit");
        let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        let bad_ir = {
            let reg = Register::linear(2, 6.0).unwrap();
            let mut b = SequenceBuilder::new(reg);
            b.add_global_pulse(Pulse::constant(0.5, 1e6, 0.0, 0.0).unwrap());
            ProgramIr::new(b.build().unwrap(), 10, "t")
        };
        let item = |key: Option<&str>| SubmitItem {
            token: tok.clone(),
            ir: ir(10),
            hint: PatternHint::None,
            idempotency_key: key.map(str::to_string),
        };
        let out = d.submit_batch(vec![
            item(Some("batch-key-1")),
            SubmitItem {
                token: "bogus".into(),
                ..item(None)
            },
            SubmitItem {
                ir: bad_ir,
                ..item(None)
            },
            item(Some("batch-key-2")),
        ]);
        assert_eq!(out.len(), 4);
        let a = *out[0].as_ref().unwrap();
        assert!(matches!(out[1], Err(DaemonError::Session(_))), "{out:?}");
        assert!(matches!(out[2], Err(DaemonError::Validation(_))), "{out:?}");
        let b = *out[3].as_ref().unwrap();
        assert!(b > a, "ids follow submission order");
        assert_eq!(d.queue_depth(), 2, "only the two good frames queued");
        // a later batch replaying a key dedups per-frame, same as singles
        let replay = d.submit_batch(vec![item(Some("batch-key-1"))]);
        assert_eq!(*replay[0].as_ref().unwrap(), a);
        assert_eq!(d.queue_depth(), 2);
        drop(d); // crash: no drain

        let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        assert!(matches!(
            d2.task_status(a).unwrap(),
            DaemonTaskStatus::Queued { .. }
        ));
        assert!(matches!(
            d2.task_status(b).unwrap(),
            DaemonTaskStatus::Queued { .. }
        ));
        let replay = d2.submit_batch(vec![item(Some("batch-key-2"))]);
        assert_eq!(
            *replay[0].as_ref().unwrap(),
            b,
            "batch idempotency keys survive restart"
        );
        d2.pump();
        assert_eq!(d2.task_status(a).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d2.task_status(b).unwrap(), DaemonTaskStatus::Completed);

        // N = 1: a single submit is a batch of one frame, down to the
        // records it journals
        let journaled = |name: &str, batch: bool| {
            let dir = journal_dir(name);
            let d =
                MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
            let tok = d.open_session("alice", PriorityClass::Production).unwrap();
            let id = if batch {
                d.submit_batch(vec![SubmitItem {
                    token: tok,
                    ir: ir(10),
                    hint: PatternHint::None,
                    idempotency_key: Some("one".into()),
                }])
                .remove(0)
            } else {
                d.submit_with_key(&tok, ir(10), PatternHint::None, Some("one"))
            };
            drop(d);
            (id, Journal::load(&dir).unwrap().records)
        };
        let single = journaled("batch-submit-single", false);
        assert_eq!(single.1.len(), 2, "session + submit");
        assert_eq!(single, journaled("batch-submit-of-one", true));
    }

    #[test]
    fn shutdown_drains_then_rejects() {
        let dir = journal_dir("drain");
        let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        let a = d.submit(&tok, ir(10), PatternHint::None).unwrap();
        let b = d.submit(&tok, ir(10), PatternHint::None).unwrap();
        assert_eq!(d.health(), DaemonHealth::Ok);
        let report = d.shutdown(std::time::Duration::from_secs(5));
        assert_eq!(report.dispatched, 2);
        assert_eq!(report.pending, 0);
        assert_eq!(d.health(), DaemonHealth::Stopped);
        assert_eq!(d.task_status(a).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.task_status(b).unwrap(), DaemonTaskStatus::Completed);
        // stopped daemons admit nothing
        assert!(matches!(
            d.open_session("bob", PriorityClass::Test),
            Err(DaemonError::Unavailable(_))
        ));
        assert!(matches!(
            d.submit(&tok, ir(5), PatternHint::None),
            Err(DaemonError::Unavailable(_))
        ));
        assert!(d.pump_once().is_none());
    }

    #[test]
    fn drain_timeout_leaves_pending_work_journaled() {
        let dir = journal_dir("drain-timeout");
        let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        for _ in 0..3 {
            d.submit(&tok, ir(10), PatternHint::None).unwrap();
        }
        // zero budget: nothing dispatches, everything stays journaled
        let report = d.shutdown(std::time::Duration::ZERO);
        assert_eq!(report.dispatched, 0);
        assert_eq!(report.pending, 3);
        drop(d);
        let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        assert_eq!(d2.queue_depth(), 3, "pending tasks survive the stop");
        d2.pump();
    }

    #[test]
    fn expired_session_rejected_at_validate_time() {
        // the clock can outrun the TTL between gc sweeps (execution time
        // advances it with no advance_time call); validate itself must then
        // catch the expiry
        let d = emu_daemon(DaemonConfig {
            session_ttl_secs: 100.0,
            ..DaemonConfig::default()
        });
        let idle = d.open_session("idle", PriorityClass::Production).unwrap();
        let busy = d.open_session("busy", PriorityClass::Production).unwrap();
        *d.clock.lock() += 50.0; // execution time, not advance_time: no gc
        d.submit(&busy, ir(5), PatternHint::None).unwrap(); // touches busy
        *d.clock.lock() += 70.0; // idle now 120 s stale, busy only 70 s
        assert!(matches!(
            d.submit(&idle, ir(5), PatternHint::None),
            Err(DaemonError::Session(SessionError::Expired))
        ));
        d.submit(&busy, ir(5), PatternHint::None).unwrap();
        assert!(d.metrics_text().contains("daemon_sessions_expired_total 1"));
    }

    #[test]
    fn stale_sessions_gced_on_pump() {
        let d = emu_daemon(DaemonConfig {
            session_ttl_secs: 100.0,
            ..DaemonConfig::default()
        });
        d.open_session("alice", PriorityClass::Production).unwrap();
        *d.clock.lock() += 150.0; // past the TTL with no gc sweep yet
        assert_eq!(d.list_sessions().len(), 1);
        assert!(d.pump_once().is_none()); // idle pump still sweeps sessions
        assert!(d.list_sessions().is_empty(), "gc runs on pump_once");
        assert!(d.metrics_text().contains("daemon_sessions_expired_total 1"));
    }

    /// A clean run records zero lock-order violations for production locks.
    /// Drives a journaled daemon through concurrent submitters, cancels,
    /// snapshots, compaction and shutdown — the lock-heavy paths — then
    /// asserts the global violation log holds nothing from a production
    /// lock (tests elsewhere deliberately seed violations, but only under
    /// `test.` / `prop.` / `tracked.test` names).
    #[test]
    fn clean_workload_records_no_production_lock_order_violations() {
        let dir = journal_dir("lock-order-clean");
        let d = Arc::new(
            MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap(),
        );
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let tok = d
                        .open_session(&format!("user{i}"), PriorityClass::Production)
                        .unwrap();
                    let ids: Vec<u64> = (0..5)
                        .map(|_| d.submit(&tok, ir(10), PatternHint::None).unwrap())
                        .collect();
                    // best-effort: a peer's pump may have claimed it already
                    let _ = d.cancel(&tok, ids[0]);
                    d.pump();
                    let _ = d.metrics_text();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        d.shutdown(std::time::Duration::from_secs(5));
        let production: Vec<String> = hpcqc_sync::violations()
            .iter()
            .filter(|v| {
                ["middleware.", "telemetry.", "qrmi.", "qpu."]
                    .iter()
                    .any(|p| v.lock.starts_with(p) || v.held_lock.starts_with(p))
            })
            .map(|v| v.to_string())
            .collect();
        assert!(
            production.is_empty(),
            "production lock hierarchy violated:\n{}",
            production.join("\n")
        );
    }

    /// Submitters against a hot dispatcher, one of them on a session that is
    /// closed under it: every acked task finishes, nothing unacked exists,
    /// and the recovered daemon agrees — no task stuck, none run twice.
    #[test]
    fn submitters_racing_the_dispatcher_leave_every_acked_task_finished_once() {
        let dir = journal_dir("submit-vs-dispatch");
        let cfg = DaemonConfig {
            journal: JournalConfig {
                fsync_every: 0,
                compact_every: 48,
                group_max_records: 8,
                ..JournalConfig::default()
            },
            ..DaemonConfig::default()
        };
        let d = Arc::new(MiddlewareService::recover(&dir, emu_resource(), cfg.clone()).unwrap());
        let doomed = d.open_session("doomed", PriorityClass::Test).unwrap();
        let start = Arc::new(std::sync::Barrier::new(6));
        let submitters: Vec<_> = (0..4)
            .map(|i| {
                let (d, start, doomed) = (Arc::clone(&d), Arc::clone(&start), doomed.clone());
                std::thread::spawn(move || {
                    let own = d
                        .open_session(&format!("user{i}"), PriorityClass::Production)
                        .unwrap();
                    start.wait();
                    let mut acked = Vec::new();
                    for k in 0..40 {
                        // thread 0 alternates onto the session being closed
                        let tok = if i == 0 && k % 2 == 1 { &doomed } else { &own };
                        let key = format!("k-{i}-{k}");
                        match d.submit_with_key(tok, ir(5), PatternHint::None, Some(&key)) {
                            Ok(id) => acked.push(id),
                            Err(e) => {
                                assert_eq!(e, DaemonError::Session(SessionError::UnknownToken))
                            }
                        }
                    }
                    acked
                })
            })
            .collect();
        let closer = {
            let (d, start) = (Arc::clone(&d), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                d.close_session(&doomed).unwrap();
            })
        };
        start.wait();
        while submitters.iter().any(|t| !t.is_finished()) {
            d.pump_batch(16);
        }
        closer.join().unwrap();
        let mut acked: Vec<u64> = submitters
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        acked.sort_unstable();
        d.pump();

        for &id in &acked {
            assert_eq!(
                d.task_status(id),
                Ok(DaemonTaskStatus::Completed),
                "task {id}"
            );
        }
        let live = d.snapshot_state();
        let completed =
            |s: &DaemonSnapshot| s.completed.iter().map(|(id, _)| *id).collect::<Vec<_>>();
        assert_eq!(
            completed(&live),
            acked,
            "a task exists that no submit acked"
        );
        assert!(live.queued.is_empty() && live.failed.is_empty());
        d.sync_journal();
        drop(d);

        let d2 = MiddlewareService::recover(&dir, emu_resource(), cfg).unwrap();
        let recovered = d2.snapshot_state();
        assert_eq!(completed(&recovered), acked);
        assert_eq!(
            recovered.completed, live.completed,
            "same results: nothing re-ran"
        );
        assert!(recovered.queued.is_empty());
        assert_eq!(d2.pump(), 0);
        assert!(!d2
            .metrics_text()
            .contains("daemon_recovery_requeued_total 1"));
    }

    #[test]
    fn cancel_refunds_session_task_quota() {
        let d = emu_daemon(DaemonConfig {
            queue: crate::taskqueue::QueueConfig {
                max_tasks_per_session: 2,
                ..crate::taskqueue::QueueConfig::default()
            },
            ..DaemonConfig::default()
        });
        let tok = d.open_session("alice", PriorityClass::Test).unwrap();
        let a = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        let _b = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        // quota full
        assert!(d.submit(&tok, ir(5), PatternHint::None).is_err());
        d.cancel(&tok, a).unwrap();
        // the cancelled slot is free again
        d.submit(&tok, ir(5), PatternHint::None).unwrap();
        let s = d
            .list_sessions()
            .into_iter()
            .find(|s| s.token == tok)
            .unwrap();
        assert_eq!(s.task_count, 2, "cancel must refund the session's count");
    }

    /// A session and one of its tasks, for hand-written journals.
    fn session_and_task(d: &MiddlewareService) -> (Session, QuantumTask) {
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        let session = d.list_sessions().into_iter().next().unwrap();
        let task = QuantumTask {
            id: 1,
            session: tok,
            user: "alice".into(),
            class: PriorityClass::Production,
            ir: Arc::new(ir(10)),
            hint: PatternHint::None,
            submitted_at: 1.0,
        };
        (session, task)
    }

    /// The exactly-once regression: the submitter was descheduled between
    /// admitting the task and journaling it, so the WAL reads `Dispatched,
    /// Completed, Submitted`. The late submit must not re-queue — and so
    /// re-run — the finished task.
    #[test]
    fn late_task_submitted_in_the_wal_does_not_rerun_a_completed_task() {
        let dir = journal_dir("late-submit");
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        let (session, task) = session_and_task(&emu_daemon(DaemonConfig::default()));
        let result = SampleResult::from_shots(2, &[0b00, 0b11], "emu");
        for rec in [
            JournalRecord::SessionOpened { session },
            JournalRecord::TaskDispatched {
                id: 1,
                resource: "emu".into(),
                at: 1.0,
            },
            JournalRecord::TaskCompleted {
                id: 1,
                result: result.clone(),
                at: 1.5,
            },
            JournalRecord::TaskSubmitted {
                task,
                idempotency_key: Some("once".into()),
                warnings: Vec::new(),
            },
            // and one record no history can explain: counted and skipped
            JournalRecord::TaskCancelled { id: 1 },
        ] {
            j.append(&rec).unwrap();
        }
        drop(j);

        let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        assert_eq!(d.task_status(1).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.task_result(1).unwrap(), result);
        assert_eq!(d.queue_depth(), 0);
        assert_eq!(d.pump(), 0, "nothing left to run a second time");
        let tok = d.list_sessions()[0].token.clone();
        assert_eq!(
            d.submit_with_key(&tok, ir(10), PatternHint::None, Some("once")),
            Ok(1),
            "the key of the overtaken submit still deduplicates"
        );
        // the overtaken submit is an expected order; only the cancel of a
        // completed task is a record the state machine refused
        let text = d.metrics_text();
        assert!(text.contains("journal_replay_illegal_total 1"), "{text}");
    }

    /// A compaction can snapshot the effect of a record that then lands in
    /// the fresh WAL behind it. Replaying such a record must change nothing:
    /// the task stays queued once and its session is charged once.
    #[test]
    fn record_the_snapshot_already_reflects_replays_as_a_no_op() {
        let dir = journal_dir("snapshot-overlap");
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        let (mut session, task) = session_and_task(&emu_daemon(DaemonConfig::default()));
        session.task_count = 1;
        j.compact(&DaemonSnapshot {
            clock: 1.0,
            next_task: 2,
            session_counter: 2,
            sessions: vec![session],
            queued: vec![task.clone()],
            task_meta: vec![(1, task.class, task.submitted_at)],
            ..DaemonSnapshot::default()
        })
        .unwrap();
        j.append(&JournalRecord::TaskSubmitted {
            task,
            idempotency_key: None,
            warnings: Vec::new(),
        })
        .unwrap();
        drop(j);

        let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        assert_eq!(d.queue_depth(), 1);
        assert_eq!(d.list_sessions()[0].task_count, 1, "charged once");
        assert_eq!(d.pump(), 1);
        assert_eq!(d.task_status(1).unwrap(), DaemonTaskStatus::Completed);
    }

    #[test]
    fn recovery_requeues_mid_dispatch_task_with_exclusions() {
        let dir = journal_dir("mid-dispatch");
        // hand-craft a journal whose last records leave task 1 mid-dispatch
        let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
        let d = emu_daemon(DaemonConfig::default());
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        let session = d.list_sessions().into_iter().next().unwrap();
        let task = QuantumTask {
            id: 1,
            session: tok.clone(),
            user: "alice".into(),
            class: PriorityClass::Production,
            ir: Arc::new(ir(10)),
            hint: PatternHint::None,
            submitted_at: 1.0,
        };
        j.append(&JournalRecord::SessionOpened { session }).unwrap();
        j.append(&JournalRecord::TaskSubmitted {
            task: task.clone(),
            idempotency_key: None,
            warnings: Vec::new(),
        })
        .unwrap();
        j.append(&JournalRecord::TaskAttemptFailed {
            id: 1,
            resource: "flaky-qpu".into(),
            error: "lease lost".into(),
        })
        .unwrap();
        j.append(&JournalRecord::TaskDispatched {
            id: 1,
            resource: "emu".into(),
            at: 2.0,
        })
        .unwrap();
        drop(j); // crash mid-dispatch: no terminal record for task 1

        let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        assert!(matches!(
            d2.task_status(1).unwrap(),
            DaemonTaskStatus::Queued { .. }
        ));
        let text = d2.metrics_text();
        assert!(text.contains("daemon_recovery_requeued_total 1"), "{text}");
        // the failure history (excluded resource) survived the crash
        assert_eq!(d2.excluded_resources(1), vec!["flaky-qpu".to_string()]);
        d2.pump();
        assert_eq!(d2.task_status(1).unwrap(), DaemonTaskStatus::Completed);
    }

    #[test]
    fn qpu_status_survives_restart() {
        let dir = journal_dir("qpu-status");
        let qpu = VirtualQpu::new("fresnel-1", 7);
        let res = Arc::new(QpuDirectResource::new("fresnel-1", qpu.clone(), 1));
        let d = MiddlewareService::recover(&dir, res, DaemonConfig::default())
            .unwrap()
            .with_qpu_admin(qpu);
        d.set_qpu_status(QpuStatus::Maintenance).unwrap();
        drop(d);

        let qpu2 = VirtualQpu::new("fresnel-1", 7);
        let res2 = Arc::new(QpuDirectResource::new("fresnel-1", qpu2.clone(), 1));
        let d2 = MiddlewareService::recover(&dir, res2, DaemonConfig::default())
            .unwrap()
            .with_qpu_admin(qpu2);
        assert_eq!(d2.qpu_status(), Some(QpuStatus::Maintenance));
    }
}
