//! The metric catalog: the one place a metric's name, help text and kind
//! are declared.
//!
//! Every series the stack exposes on `GET /metrics` is a `const` descriptor
//! below, and [`Registry`](crate::Registry) only emits through a descriptor:
//! [`inc`](crate::Registry::inc) takes a [`Counter`],
//! [`set`](crate::Registry::set)/[`add`](crate::Registry::add) a [`Gauge`],
//! [`observe`](crate::Registry::observe) a [`Histogram`]. The constructors
//! are private to this crate, so a name cannot be declared twice with two
//! kinds or two help texts anywhere else, and the unit test below holds the
//! catalog itself to unique names.
//!
//! To add a metric: add one `pub const` inside `catalog!` next to its
//! subsystem's others, then emit it where the event happens —
//! `registry.inc(&catalog::MY_EVENTS, labels(&[("class", c)]), 1.0)`. Label
//! keys are the emit site's; keep them the same at every site of one metric.

/// A monotonically increasing count.
#[derive(Debug)]
pub struct Counter {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
}

/// A value that is set or moved up and down.
#[derive(Debug)]
pub struct Gauge {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
}

/// A distribution over fixed bucket upper bounds (ascending; `+Inf` is
/// implicit).
#[derive(Debug)]
pub struct Histogram {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) bounds: &'static [f64],
}

impl Counter {
    pub(crate) const fn new(name: &'static str, help: &'static str) -> Self {
        Counter { name, help }
    }
}

impl Gauge {
    pub(crate) const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge { name, help }
    }
}

impl Histogram {
    pub(crate) const fn new(
        name: &'static str,
        help: &'static str,
        bounds: &'static [f64],
    ) -> Self {
        Histogram { name, help, bounds }
    }
}

/// Declares the descriptors as ordinary `pub const` items and lists every
/// one of them for the unit test, so nothing can be declared and left out
/// of the uniqueness check.
macro_rules! catalog {
    ($(pub const $id:ident: $kind:ident = $init:expr;)*) => {
        $(pub const $id: $kind = $init;)*
        #[cfg(test)]
        const ALL: &[tests::Metric] = &[$(tests::Metric::$kind(&$id)),*];
    };
}

catalog! {
    // ---- write-ahead journal, recovery, drain (middleware daemon) ----
    pub const JOURNAL_APPENDS: Counter = Counter::new(
        "journal_appends_total",
        "Write-ahead journal records appended",
    );
    pub const JOURNAL_BYTES: Counter =
        Counter::new("journal_bytes_total", "Write-ahead journal bytes written");
    pub const JOURNAL_FSYNCS: Counter =
        Counter::new("journal_fsyncs_total", "Write-ahead journal fsyncs");
    pub const JOURNAL_SNAPSHOTS: Counter =
        Counter::new("journal_snapshots_total", "Compaction snapshots written");
    pub const JOURNAL_ERRORS: Counter = Counter::new(
        "journal_errors_total",
        "Write-ahead journal IO failures (durability degraded)",
    );
    pub const JOURNAL_REPLAY_SECONDS: Gauge = Gauge::new(
        "journal_replay_seconds",
        "Wall-clock duration of the last journal replay",
    );
    pub const JOURNAL_REPLAYED_RECORDS: Counter = Counter::new(
        "journal_replayed_records_total",
        "Journal records replayed during recovery",
    );
    pub const JOURNAL_TRUNCATED_BYTES: Counter = Counter::new(
        "journal_truncated_bytes_total",
        "Torn/corrupt WAL tail bytes discarded at recovery",
    );
    pub const JOURNAL_REPLAY_ILLEGAL: Counter = Counter::new(
        "journal_replay_illegal_total",
        "Journal records skipped at recovery as illegal task transitions",
    );
    pub const DAEMON_RECOVERED_TASKS: Counter = Counter::new(
        "daemon_recovered_tasks_total",
        "Queued tasks restored by journal recovery",
    );
    pub const DAEMON_RECOVERY_REQUEUED: Counter = Counter::new(
        "daemon_recovery_requeued_total",
        "Mid-dispatch tasks requeued by journal recovery",
    );
    pub const DAEMON_RECOVERED_SESSIONS: Counter = Counter::new(
        "daemon_recovered_sessions_total",
        "Sessions restored by journal recovery",
    );
    pub const DAEMON_IDEMPOTENT_HITS: Counter = Counter::new(
        "daemon_idempotent_hits_total",
        "Submissions deduplicated by idempotency key",
    );
    pub const DAEMON_DRAIN_DISPATCHED: Counter = Counter::new(
        "daemon_drain_dispatched_total",
        "Tasks dispatched during graceful drain",
    );
    pub const DAEMON_DRAIN_PENDING: Counter = Counter::new(
        "daemon_drain_pending_total",
        "Tasks left journaled at the end of graceful drain",
    );

    // ---- sessions, admission, dispatch (middleware daemon) ----
    pub const DAEMON_SESSIONS_OPENED: Counter =
        Counter::new("daemon_sessions_opened_total", "Sessions opened");
    pub const DAEMON_SESSIONS_EXPIRED: Counter =
        Counter::new("daemon_sessions_expired_total", "Sessions expired by TTL");
    pub const DAEMON_TASKS_SUBMITTED: Counter = Counter::new(
        "daemon_tasks_submitted_total",
        "Tasks accepted into the queue",
    );
    pub const DAEMON_DEV_CACHE_HITS: Counter = Counter::new(
        "daemon_dev_cache_hits_total",
        "Development tasks served from the result cache",
    );
    pub const DAEMON_TASKS_REJECTED: Counter = Counter::new(
        "daemon_tasks_rejected_total",
        "Tasks rejected at validation",
    );
    pub const DAEMON_TASK_WAIT_SECONDS: Histogram = Histogram::new(
        "daemon_task_wait_seconds",
        "Queue wait before first execution",
        &[1.0, 10.0, 60.0, 600.0, 3600.0],
    );
    pub const DAEMON_TASKS_COMPLETED: Counter =
        Counter::new("daemon_tasks_completed_total", "Tasks completed");
    pub const DAEMON_PREEMPTIONS: Counter =
        Counter::new("daemon_preemptions_total", "Shot-boundary preemptions");
    pub const DAEMON_QPU_BUSY_SECONDS: Counter = Counter::new(
        "daemon_qpu_busy_seconds_total",
        "Device seconds consumed through the daemon",
    );
    pub const DAEMON_DISPATCHER_PANICS: Counter = Counter::new(
        "daemon_dispatcher_panics_total",
        "Dispatcher panics survived (a QRMI panic fails the attempt)",
    );
    pub const DAEMON_TASK_REQUEUES: Counter = Counter::new(
        "daemon_task_requeues_total",
        "Tasks requeued after an execution failure",
    );
    pub const DAEMON_TASKS_POISONED: Counter = Counter::new(
        "daemon_tasks_poisoned_total",
        "Tasks failed permanently after exhausting requeue attempts",
    );

    // ---- static analysis at admission ----
    pub const ANALYSIS_DIAGNOSTICS: Counter = Counter::new(
        "analysis_diagnostics_total",
        "Diagnostics emitted by the static analyzer, by lint code",
    );
    pub const DAEMON_LINT_REJECTIONS: Counter = Counter::new(
        "daemon_lint_rejections_total",
        "Submissions rejected on Error-level diagnostics",
    );
    pub const DAEMON_STALE_VALIDATION: Counter = Counter::new(
        "daemon_stale_validation_total",
        "Submissions whose client-side validation was stale",
    );
    pub const DAEMON_HINT_MISMATCH: Counter = Counter::new(
        "daemon_hint_mismatch_total",
        "User pattern hints contradicted by static inference",
    );
    pub const DAEMON_HINT_ADOPTED: Counter = Counter::new(
        "daemon_hint_adopted_total",
        "Inferred pattern hints adopted for unhinted submissions",
    );

    // ---- replication and gateway failover ----
    pub const REPLICATION_SHIPPED_RECORDS: Counter = Counter::new(
        "replication_shipped_records_total",
        "Journal records shipped to followers",
    );
    pub const REPLICATION_SHIPPED_BYTES: Counter = Counter::new(
        "replication_shipped_bytes_total",
        "Journal bytes shipped to followers",
    );
    pub const REPLICATION_ACKED_RECORDS: Counter = Counter::new(
        "replication_acked_records_total",
        "Journal records acked by followers",
    );
    pub const REPLICATION_ACKED_BYTES: Counter = Counter::new(
        "replication_acked_bytes_total",
        "Journal bytes acked by followers",
    );
    pub const REPLICATION_LAG_RECORDS: Gauge = Gauge::new(
        "replication_lag_records",
        "Journal records shipped but not yet acked",
    );
    pub const REPLICATION_LAG_BYTES: Gauge = Gauge::new(
        "replication_lag_bytes",
        "Journal bytes shipped but not yet acked",
    );
    pub const REPLICATION_REJECTED_EVENTS: Counter = Counter::new(
        "replication_rejected_events_total",
        "Shipped events rejected by follower validation",
    );
    pub const REPLICATION_PROMOTIONS: Counter = Counter::new(
        "replication_promotions_total",
        "Followers promoted to leader",
    );
    // promote + first successful serve; the quick-profile target is < 0.5 s
    pub const REPLICATION_FAILOVER_SECONDS: Histogram = Histogram::new(
        "replication_failover_seconds",
        "Failover duration: promotion through first successful serve",
        &[0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0],
    );
    pub const GATEWAY_SHARD_FAILOVERS: Counter = Counter::new(
        "gateway_shard_failovers_total",
        "Shard traffic failovers performed by the gateway",
    );
    pub const GATEWAY_PROBES: Counter = Counter::new(
        "gateway_probes_total",
        "Gateway readiness probes, by shard and outcome",
    );
    pub const GATEWAY_REQUESTS: Counter =
        Counter::new("gateway_requests_total", "Requests routed, by shard");

    // ---- REST transport (event-loop HTTP server) ----
    pub const HTTP_CONNECTIONS_ACCEPTED: Counter = Counter::new(
        "http_connections_accepted_total",
        "TCP connections accepted by the REST front end",
    );
    pub const HTTP_CONNECTIONS_ACTIVE: Gauge =
        Gauge::new("http_connections_active", "Currently open REST connections");
    pub const HTTP_CONNECTIONS_CLOSED: Counter =
        Counter::new("http_connections_closed_total", "REST connections closed");
    pub const HTTP_CONNECTIONS_REJECTED: Counter = Counter::new(
        "http_connections_rejected_total",
        "Connections rejected with 503 at the accept gate",
    );
    pub const HTTP_ACCEPT_PAUSES: Counter = Counter::new(
        "http_accept_pauses_total",
        "Times the listener was paused under connection backpressure",
    );
    pub const HTTP_ACCEPT_RESUMES: Counter = Counter::new(
        "http_accept_resumes_total",
        "Times the listener resumed after backpressure released",
    );
    pub const HTTP_KEEPALIVE_REUSE: Counter = Counter::new(
        "http_keepalive_reuse_total",
        "Requests served over a reused keep-alive connection",
    );
    pub const HTTP_DEADLINE_CLOSES: Counter = Counter::new(
        "http_deadline_closes_total",
        "Connections closed by the read/idle deadline sweeper",
    );
    pub const HTTP_REQUESTS: Counter = Counter::new(
        "http_requests_total",
        "HTTP responses sent, by status class",
    );

    // ---- fault injection and recovery (qrmi, core runtime) ----
    pub const QRMI_FAULTS_INJECTED: Counter = Counter::new(
        "qrmi_faults_injected_total",
        "Faults injected at the QRMI boundary",
    );
    pub const RUNTIME_RETRIES: Counter = Counter::new(
        "runtime_retries_total",
        "Retries after transient QRMI failures",
    );
    pub const RUNTIME_BACKOFF_SECONDS: Counter = Counter::new(
        "runtime_backoff_seconds_total",
        "Cumulative backoff delay before retries",
    );
    pub const RUNTIME_RETRY_BUDGET_EXHAUSTED: Counter = Counter::new(
        "runtime_retry_budget_exhausted_total",
        "Attempt/backoff budgets exhausted without success",
    );
    pub const RUNTIME_FALLBACKS: Counter = Counter::new(
        "runtime_fallbacks_total",
        "Graceful-degradation fallbacks to an alternate resource",
    );

    // ---- virtual QPU ----
    pub const QPU_UP: Gauge = Gauge::new("qpu_up", "1 when the QPU is operational");
    pub const QPU_RECALIBRATIONS: Counter =
        Counter::new("qpu_recalibrations_total", "Number of recalibration cycles");
    pub const QPU_RABI_SCALE: Gauge = Gauge::new(
        "qpu_rabi_scale",
        "Calibrated Rabi-frequency scale factor (nominal 1.0)",
    );
    pub const QPU_DETUNING_OFFSET: Gauge = Gauge::new(
        "qpu_detuning_offset_radus",
        "Calibrated detuning offset (rad/us, nominal 0)",
    );
    pub const QPU_DETECTION_ERROR: Gauge =
        Gauge::new("qpu_detection_error", "Readout false-positive probability");
    pub const QPU_SPEC_REVISION: Gauge =
        Gauge::new("qpu_spec_revision", "Current device-spec revision");
    pub const QPU_JOBS_REJECTED: Counter = Counter::new(
        "qpu_jobs_rejected_total",
        "Jobs rejected by device-side validation",
    );
    pub const QPU_JOBS: Counter = Counter::new("qpu_jobs_total", "Completed jobs");
    pub const QPU_SHOTS: Counter = Counter::new("qpu_shots_total", "Total shots executed");
    pub const QPU_BUSY_SECONDS: Counter = Counter::new(
        "qpu_busy_seconds_total",
        "Cumulative seconds the device was executing",
    );
    pub const QPU_QA_HEALTH: Gauge =
        Gauge::new("qpu_qa_health", "Latest QA health score (1 = nominal)");

    // ---- tracked locks (republished as absolute snapshots on scrape) ----
    pub const LOCK_ACQUISITIONS: Gauge = Gauge::new(
        "lock_acquisitions",
        "Total acquisitions of each tracked lock",
    );
    pub const LOCK_CONTENDED_ACQUISITIONS: Gauge = Gauge::new(
        "lock_contended_acquisitions",
        "Acquisitions that had to wait for another holder",
    );
    pub const LOCK_RANK: Gauge = Gauge::new(
        "lock_rank",
        "Declared lock-hierarchy rank (see DESIGN.md §14)",
    );
    pub const LOCK_WAIT_SECONDS: Gauge = Gauge::new(
        "lock_wait_seconds",
        "Lock acquisition wait time (log2-histogram quantile)",
    );
    pub const LOCK_HOLD_SECONDS: Gauge = Gauge::new(
        "lock_hold_seconds",
        "Lock hold time (log2-histogram quantile)",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Labels, Registry};
    use std::collections::BTreeSet;

    pub(super) enum Metric {
        Counter(&'static Counter),
        Gauge(&'static Gauge),
        Histogram(&'static Histogram),
    }

    #[test]
    fn names_are_unique_and_every_descriptor_renders_help_and_type() {
        let reg = Registry::new();
        let mut names = BTreeSet::new();
        for m in ALL {
            let (name, help, kind) = match m {
                Metric::Counter(c) => {
                    reg.inc(c, Labels::new(), 1.0);
                    (c.name, c.help, "counter")
                }
                Metric::Gauge(g) => {
                    reg.set(g, Labels::new(), 1.0);
                    (g.name, g.help, "gauge")
                }
                Metric::Histogram(h) => {
                    assert!(!h.bounds.is_empty(), "{}: no buckets", h.name);
                    assert!(
                        h.bounds.windows(2).all(|w| w[0] < w[1]),
                        "{}: bucket bounds must ascend",
                        h.name
                    );
                    reg.observe(h, Labels::new(), 1.0);
                    (h.name, h.help, "histogram")
                }
            };
            assert!(names.insert(name), "{name} is declared twice");
            assert!(
                !name.is_empty()
                    && !name.starts_with(|c: char| c.is_ascii_digit())
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{name:?} is not a Prometheus metric name"
            );
            assert!(!help.is_empty() && !help.contains('\n'), "{name}: help");
            let text = reg.expose();
            let pair = format!("# HELP {name} {help}\n# TYPE {name} {kind}\n");
            assert_eq!(text.matches(&pair).count(), 1, "{name}: HELP/TYPE pair");
        }
        assert_eq!(names.len(), ALL.len());
    }
}
