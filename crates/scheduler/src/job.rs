//! Batch jobs and their resource requests.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Unique job identifier assigned by the scheduler.
pub type JobId = u64;

/// Table-1 workload-pattern hint a job may carry (paper §3.5: `--hint=`).
/// Consumed by the middleware's pattern-aware interleaver, transparently
/// forwarded by the batch layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternHint {
    /// Pattern A: QPU-dominant, minor classical pre/post processing.
    QcHeavy,
    /// Pattern B: sparse quantum, heavy classical load.
    CcHeavy,
    /// Pattern C: comparable quantum and classical load.
    QcBalanced,
    /// No hint supplied.
    None,
}

impl PatternHint {
    /// Parse the `--hint=` string form. Tolerant of surrounding whitespace
    /// and letter case — REST clients send `"QC-Heavy"`, `" qc-heavy\n"` and
    /// friends, and silently dropping their hint to `None` mis-schedules the
    /// job.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "qc-heavy" => Some(PatternHint::QcHeavy),
            "cc-heavy" => Some(PatternHint::CcHeavy),
            "qc-balanced" => Some(PatternHint::QcBalanced),
            "none" => Some(PatternHint::None),
            _ => None,
        }
    }

    /// The canonical `--hint=` string form (inverse of [`PatternHint::parse`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            PatternHint::QcHeavy => "qc-heavy",
            PatternHint::CcHeavy => "cc-heavy",
            PatternHint::QcBalanced => "qc-balanced",
            PatternHint::None => "none",
        }
    }
}

/// The three job classes of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PriorityClass {
    /// Top priority; may preempt lower classes.
    Production,
    /// Test runs / scalability tests.
    Test,
    /// Development runs; lowest priority, shot-limited.
    Development,
}

impl PriorityClass {
    /// Numeric rank: lower = more important.
    pub fn rank(&self) -> u8 {
        match self {
            PriorityClass::Production => 0,
            PriorityClass::Test => 1,
            PriorityClass::Development => 2,
        }
    }

    /// Parse the REST string form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "production" => Some(PriorityClass::Production),
            "test" => Some(PriorityClass::Test),
            "development" => Some(PriorityClass::Development),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            PriorityClass::Production => "production",
            PriorityClass::Test => "test",
            PriorityClass::Development => "development",
        }
    }

    /// The matching Slurm partition name (§3.3: classes correspond to
    /// partitions).
    pub fn partition(&self) -> &'static str {
        self.as_str()
    }
}

/// What a job asks the batch scheduler for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Human-readable name.
    pub name: String,
    /// Submitting user.
    pub user: String,
    /// Target partition (must exist).
    pub partition: String,
    /// Whole nodes requested.
    pub nodes: u32,
    /// Generic resources from global pools, e.g. `{"qpu": 2}` for 2 of the
    /// 10 QPU timeshare units of §3.5.
    pub gres: BTreeMap<String, u32>,
    /// License counts, same pool semantics as GRES.
    pub licenses: BTreeMap<String, u32>,
    /// Wall-time limit (s); the job is killed at `start + time_limit`.
    pub time_limit_secs: f64,
    /// The job's *actual* runtime (s) — known to the simulator, not to the
    /// scheduler (which only sees the limit, as in real Slurm).
    pub actual_runtime_secs: f64,
    /// Workload-pattern scheduler hint.
    pub hint: PatternHint,
    /// Expected QPU busy seconds (optional richer hint from §3.5).
    pub expected_qpu_secs: Option<f64>,
}

impl JobSpec {
    /// A minimal classical job.
    pub fn classical(name: &str, user: &str, partition: &str, nodes: u32, runtime: f64) -> Self {
        JobSpec {
            name: name.into(),
            user: user.into(),
            partition: partition.into(),
            nodes,
            gres: BTreeMap::new(),
            licenses: BTreeMap::new(),
            time_limit_secs: runtime * 2.0,
            actual_runtime_secs: runtime,
            hint: PatternHint::None,
            expected_qpu_secs: None,
        }
    }

    /// Add a GRES request.
    pub fn with_gres(mut self, name: &str, count: u32) -> Self {
        self.gres.insert(name.into(), count);
        self
    }

    /// Add a license request.
    pub fn with_license(mut self, name: &str, count: u32) -> Self {
        self.licenses.insert(name.into(), count);
        self
    }

    /// Set the pattern hint.
    pub fn with_hint(mut self, hint: PatternHint) -> Self {
        self.hint = hint;
        self
    }

    /// Set an explicit time limit.
    pub fn with_time_limit(mut self, secs: f64) -> Self {
        self.time_limit_secs = secs;
        self
    }
}

/// Lifecycle state of a job in the batch system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Allocated and executing.
    Running,
    /// Finished within its limit.
    Completed,
    /// Killed at its time limit.
    Timeout,
    /// Removed by the user or an operator while pending or running.
    Cancelled,
    /// Preempted by a higher-priority partition; returned to the queue.
    Preempted,
}

impl JobState {
    /// Terminal states never transition again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Timeout | JobState::Cancelled
        )
    }
}

/// A job record inside the scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    pub id: JobId,
    pub spec: JobSpec,
    pub state: JobState,
    pub submit_time: f64,
    /// Set when the job (last) started.
    pub start_time: Option<f64>,
    /// Set when the job reached a terminal state.
    pub end_time: Option<f64>,
    /// How many times the job was preempted and requeued.
    pub preemptions: u32,
}

impl Job {
    pub fn new(id: JobId, spec: JobSpec, submit_time: f64) -> Self {
        Job {
            id,
            spec,
            state: JobState::Pending,
            submit_time,
            start_time: None,
            end_time: None,
            preemptions: 0,
        }
    }

    /// Queue wait: from submission to (last) start.
    pub fn wait_secs(&self) -> Option<f64> {
        self.start_time.map(|s| s - self.submit_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let s = JobSpec::classical("vqe", "alice", "prod", 4, 100.0)
            .with_gres("qpu", 2)
            .with_license("qpu_share", 1)
            .with_hint(PatternHint::QcBalanced)
            .with_time_limit(500.0);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.gres["qpu"], 2);
        assert_eq!(s.licenses["qpu_share"], 1);
        assert_eq!(s.hint, PatternHint::QcBalanced);
        assert_eq!(s.time_limit_secs, 500.0);
    }

    #[test]
    fn hint_parse_roundtrip() {
        assert_eq!(PatternHint::parse("qc-heavy"), Some(PatternHint::QcHeavy));
        assert_eq!(PatternHint::parse("cc-heavy"), Some(PatternHint::CcHeavy));
        assert_eq!(
            PatternHint::parse("qc-balanced"),
            Some(PatternHint::QcBalanced)
        );
        assert_eq!(PatternHint::parse("none"), Some(PatternHint::None));
        assert_eq!(PatternHint::parse("gpu-heavy"), None);
    }

    #[test]
    fn hint_parse_is_case_and_whitespace_tolerant() {
        assert_eq!(PatternHint::parse("QC-Heavy"), Some(PatternHint::QcHeavy));
        assert_eq!(
            PatternHint::parse("  cc-heavy\n"),
            Some(PatternHint::CcHeavy)
        );
        assert_eq!(
            PatternHint::parse("\tQC-BALANCED "),
            Some(PatternHint::QcBalanced)
        );
        assert_eq!(PatternHint::parse("NONE"), Some(PatternHint::None));
        assert_eq!(
            PatternHint::parse("qc heavy"),
            None,
            "separator still matters"
        );
    }

    #[test]
    fn hint_as_str_roundtrips() {
        for h in [
            PatternHint::QcHeavy,
            PatternHint::CcHeavy,
            PatternHint::QcBalanced,
            PatternHint::None,
        ] {
            assert_eq!(PatternHint::parse(h.as_str()), Some(h));
        }
    }

    #[test]
    fn terminal_states() {
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Timeout.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(!JobState::Pending.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Preempted.is_terminal());
    }

    #[test]
    fn wait_time_computed_from_start() {
        let mut j = Job::new(1, JobSpec::classical("x", "u", "p", 1, 10.0), 100.0);
        assert_eq!(j.wait_secs(), None);
        j.start_time = Some(130.0);
        assert_eq!(j.wait_secs(), Some(30.0));
    }

    #[test]
    fn default_time_limit_covers_runtime() {
        let s = JobSpec::classical("x", "u", "p", 1, 50.0);
        assert!(s.time_limit_secs >= s.actual_runtime_secs);
    }
}
