//! Snapshots, crash recovery (snapshot + `TaskTable::apply` over the WAL
//! tail) and graceful drain.

use super::{DaemonConfig, DaemonError, DaemonHealth, DrainReport, MiddlewareService};
use crate::journal::{DaemonSnapshot, Journal, JournalRecord, SharedJournal};
use crate::tasks::Applied;
use hpcqc_qrmi::QuantumResource;
use hpcqc_telemetry::{catalog, Labels};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl MiddlewareService {
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

        svc.registry.set(
            &catalog::JOURNAL_REPLAY_SECONDS,
            Labels::new(),
            t0.elapsed().as_secs_f64(),
        );
        svc.count(&catalog::JOURNAL_REPLAYED_RECORDS, n_records);
        // a clean replay leaves these two families out of the exposition
        if truncated > 0 {
            svc.count(&catalog::JOURNAL_TRUNCATED_BYTES, truncated);
        }
        if illegal > 0 {
            svc.count(&catalog::JOURNAL_REPLAY_ILLEGAL, illegal);
        }
        svc.count(&catalog::DAEMON_RECOVERED_TASKS, recovered_tasks);
        svc.count(&catalog::DAEMON_RECOVERY_REQUEUED, requeued_inflight);
        svc.count(&catalog::DAEMON_RECOVERED_SESSIONS, svc.sessions.count());

        let journal = SharedJournal::open(path, journal_cfg)
            .map_err(|e| DaemonError::Internal(format!("journal open: {e}")))?;
        // compact immediately: the fresh snapshot becomes the replay base,
        // so WAL growth — and therefore restart time — stays bounded no
        // matter how the previous process died.
        if n_records > 0 || had_snapshot {
            journal
                .compact(&svc.snapshot_state())
                .map_err(|e| DaemonError::Internal(format!("journal compact: {e}")))?;
            svc.count(&catalog::JOURNAL_SNAPSHOTS, 1);
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
        if let Some(journal) = &self.journal {
            let _gate = self.compact_gate.write();
            let snap = self.snapshot_state();
            match journal.compact(&snap) {
                Ok(()) => self.count(&catalog::JOURNAL_SNAPSHOTS, 1),
                Err(e) => self.journal_error("compact", &e),
            }
            match journal.sync() {
                Ok(()) => self.count(&catalog::JOURNAL_FSYNCS, 1),
                Err(e) => self.journal_error("fsync", &e),
            }
        }
        self.count(&catalog::DAEMON_DRAIN_DISPATCHED, dispatched);
        self.count(&catalog::DAEMON_DRAIN_PENDING, pending);
        *self.lifecycle.lock() = DaemonHealth::Stopped;
        DrainReport {
            dispatched,
            pending,
        }
    }
}
