//! Snapshots, crash recovery (snapshot + `TaskTable::apply` over every WAL
//! record) and graceful drain.

use super::{DaemonConfig, DaemonError, DaemonHealth, DrainReport, MiddlewareService};
use crate::journal::{DaemonSnapshot, Journal, SharedJournal};
use hpcqc_qrmi::QuantumResource;
use hpcqc_telemetry::{catalog, Labels};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl MiddlewareService {
    /// Capture the full daemon state (what compaction persists): every
    /// replicated field in one table hold, so a task and its session's
    /// charge are seen together. Running tasks are folded back into the
    /// queued set: a snapshot never claims work that has not produced a
    /// durable result.
    pub fn snapshot_state(&self) -> DaemonSnapshot {
        let tasks = self.tasks.lock();
        let mut snap = DaemonSnapshot {
            clock: self.now(),
            next_task: self.next_task.load(Ordering::Relaxed),
            // token counters start at 1; `snapshot_into` raises it to the floor
            session_counter: 1,
            ..DaemonSnapshot::default()
        };
        tasks.snapshot_into(&mut snap);
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

        // snapshot + `apply` over every record + "every Running goes back
        // to Queued": recovery runs the live state machine and nothing else
        let mut snap = replay.snapshot.unwrap_or_default();
        let mut table = std::mem::take(svc.tasks.get_mut())
            .with_snapshot(&mut snap)
            .map_err(|e| DaemonError::Internal(format!("restore task: {e}")))?;
        let illegal = replay
            .records
            .iter()
            .filter(|rec| table.apply(rec).is_err());
        let illegal = illegal.count();
        let (table, requeued_inflight) = table.into_recovered();
        // the live counters start from the floors the records left
        let floors = table.floors();
        svc.next_task
            .store(floors.next_task.max(1), Ordering::Relaxed);
        svc.clock.store(floors.clock.to_bits(), Ordering::Relaxed);
        let recovered_tasks = table.queue().len();
        let recovered_sessions = table.session_count();
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
        svc.count(&catalog::DAEMON_RECOVERED_SESSIONS, recovered_sessions);

        let journal = SharedJournal::open(path, journal_cfg)
            .map_err(|e| DaemonError::Internal(format!("journal open: {e}")))?;
        svc.journal = Some(journal);
        // compact immediately: the fresh snapshot becomes the replay base,
        // so WAL growth — and therefore restart time — stays bounded no
        // matter how the previous process died.
        if n_records > 0 || had_snapshot {
            svc.compact_journal(true)
                .map_err(|e| DaemonError::Internal(format!("journal compact: {e}")))?;
        }
        Ok(svc)
    }

    /// Graceful drain: stop admitting sessions and tasks, keep dispatching
    /// until the queue is empty or `drain_timeout` (wall clock) elapses,
    /// compact + fsync the journal, and go `Stopped`. Anything still queued
    /// is durable and will be restored by the next
    /// [`MiddlewareService::recover`].
    pub fn shutdown(&self, drain_timeout: std::time::Duration) -> DrainReport {
        self.set_health(DaemonHealth::Draining);
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
            let _ = self.compact_journal(true);
            match journal.sync() {
                Ok(()) => self.count(&catalog::JOURNAL_FSYNCS, 1),
                Err(e) => self.journal_error("fsync", &e),
            }
        }
        self.count(&catalog::DAEMON_DRAIN_DISPATCHED, dispatched);
        self.count(&catalog::DAEMON_DRAIN_PENDING, pending);
        self.set_health(DaemonHealth::Stopped);
        DrainReport {
            dispatched,
            pending,
        }
    }
}
