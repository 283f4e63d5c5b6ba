//! Typed metrics for the daemon's durability layer.
//!
//! The write-ahead journal, snapshot compaction, crash recovery and
//! idempotent-submission machinery (middleware) all report through this one
//! facade, mirroring how [`FaultMetrics`](crate::FaultMetrics) unifies the
//! recovery path: one registry handle, consistent metric names, and the
//! whole durability story visible from `/metrics`.

use crate::metrics::{labels, Labels, Registry};

/// Shared-handle facade over a [`Registry`] for durability counters.
#[derive(Debug, Clone, Default)]
pub struct DurabilityMetrics {
    registry: Registry,
}

impl DurabilityMetrics {
    /// Wrap an existing registry (shared by handle).
    pub fn new(registry: Registry) -> Self {
        DurabilityMetrics { registry }
    }

    /// The underlying registry (for exposition or further instrumentation).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// One WAL record appended (`bytes` framed bytes; `fsynced` whether this
    /// append hit stable storage).
    pub fn append(&self, bytes: usize, fsynced: bool) {
        self.registry.counter_add(
            "journal_appends_total",
            "Write-ahead journal records appended",
            Labels::new(),
            1.0,
        );
        self.registry.counter_add(
            "journal_bytes_total",
            "Write-ahead journal bytes written",
            Labels::new(),
            bytes as f64,
        );
        if fsynced {
            self.fsync();
        }
    }

    /// An explicit WAL fsync.
    pub fn fsync(&self) {
        self.registry.counter_add(
            "journal_fsyncs_total",
            "Write-ahead journal fsyncs",
            Labels::new(),
            1.0,
        );
    }

    /// A compaction snapshot was written and the WAL truncated.
    pub fn snapshot(&self) {
        self.registry.counter_add(
            "journal_snapshots_total",
            "Compaction snapshots written",
            Labels::new(),
            1.0,
        );
    }

    /// Recovery replay finished: wall-clock duration, records replayed,
    /// torn-tail bytes discarded, and records the task state machine refused
    /// (skipped, never fatal).
    pub fn replay(
        &self,
        duration_secs: f64,
        records: usize,
        truncated_bytes: usize,
        illegal: usize,
    ) {
        self.registry.gauge_set(
            "journal_replay_seconds",
            "Wall-clock duration of the last journal replay",
            Labels::new(),
            duration_secs,
        );
        self.registry.counter_add(
            "journal_replayed_records_total",
            "Journal records replayed during recovery",
            Labels::new(),
            records as f64,
        );
        if truncated_bytes > 0 {
            self.registry.counter_add(
                "journal_truncated_bytes_total",
                "Torn/corrupt WAL tail bytes discarded at recovery",
                Labels::new(),
                truncated_bytes as f64,
            );
        }
        if illegal > 0 {
            self.registry.counter_add(
                "journal_replay_illegal_total",
                "Journal records skipped at recovery as illegal task transitions",
                Labels::new(),
                illegal as f64,
            );
        }
    }

    /// Tasks restored into the queue by recovery.
    pub fn recovered_tasks(&self, n: usize) {
        self.registry.counter_add(
            "daemon_recovered_tasks_total",
            "Queued tasks restored by journal recovery",
            Labels::new(),
            n as f64,
        );
    }

    /// Tasks that were mid-dispatch at crash time and were requeued.
    pub fn requeued_on_recovery(&self, n: usize) {
        self.registry.counter_add(
            "daemon_recovery_requeued_total",
            "Mid-dispatch tasks requeued by journal recovery",
            Labels::new(),
            n as f64,
        );
    }

    /// Sessions restored by recovery.
    pub fn recovered_sessions(&self, n: usize) {
        self.registry.counter_add(
            "daemon_recovered_sessions_total",
            "Sessions restored by journal recovery",
            Labels::new(),
            n as f64,
        );
    }

    /// A submission was deduplicated against a journaled idempotency key.
    pub fn deduped(&self, class: &str) {
        self.registry.counter_add(
            "daemon_idempotent_hits_total",
            "Submissions deduplicated by idempotency key",
            labels(&[("class", class)]),
            1.0,
        );
    }

    /// A graceful drain finished: tasks dispatched during the drain window
    /// and tasks left safely journaled for the next start.
    pub fn drained(&self, dispatched: usize, pending: usize) {
        self.registry.counter_add(
            "daemon_drain_dispatched_total",
            "Tasks dispatched during graceful drain",
            Labels::new(),
            dispatched as f64,
        );
        self.registry.counter_add(
            "daemon_drain_pending_total",
            "Tasks left journaled at the end of graceful drain",
            Labels::new(),
            pending as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_one_registry() {
        let m = DurabilityMetrics::new(Registry::new());
        m.append(64, true);
        m.append(32, false);
        m.snapshot();
        m.replay(0.25, 7, 3, 0);
        m.recovered_tasks(4);
        m.requeued_on_recovery(1);
        m.recovered_sessions(2);
        m.deduped("production");
        m.drained(3, 2);
        let text = m.registry().expose();
        assert!(text.contains("journal_appends_total 2"));
        assert!(text.contains("journal_bytes_total 96"));
        assert!(text.contains("journal_fsyncs_total 1"));
        assert!(text.contains("journal_snapshots_total 1"));
        assert!(text.contains("journal_replayed_records_total 7"));
        assert!(text.contains("journal_truncated_bytes_total 3"));
        assert!(text.contains("daemon_recovered_tasks_total 4"));
        assert!(text.contains("daemon_recovery_requeued_total 1"));
        assert!(text.contains("daemon_recovered_sessions_total 2"));
        assert!(text.contains("daemon_idempotent_hits_total{class=\"production\"} 1"));
        assert!(text.contains("daemon_drain_dispatched_total 3"));
        assert!(text.contains("daemon_drain_pending_total 2"));
    }

    #[test]
    fn zero_truncation_emits_no_truncated_counter() {
        let m = DurabilityMetrics::default();
        m.replay(0.1, 2, 0, 0);
        assert!(!m
            .registry()
            .expose()
            .contains("journal_truncated_bytes_total"));
    }
}
