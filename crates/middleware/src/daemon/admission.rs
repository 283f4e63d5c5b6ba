//! The task API clients see: submission (one path, `submit_batch`), status,
//! result and cancel.

use super::{DaemonError, DaemonTaskStatus, MiddlewareService};
use crate::journal::JournalRecord;
use crate::session::PriorityClass;
use crate::taskqueue::QuantumTask;
use crate::tasks::{TaskState, TaskTable};
use hpcqc_emulator::SampleResult;
use hpcqc_program::{ProgramIr, Violation, ViolationKind};
use hpcqc_scheduler::PatternHint;
use hpcqc_telemetry::{catalog, labels};
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

impl MiddlewareService {
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
    /// shared lock, then every accepted task enters the task table — and is
    /// charged to its session — under a *single* hold, and the journal
    /// records go out as deferred appends
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
        // Phase 3: counters, then deferred journal appends; the dispatcher
        // flushes the buffered batch with a single write + fsync (group commit).
        let mut records = journal.iter().peekable();
        while let Some(rec) = records.next() {
            let JournalRecord::TaskSubmitted { task, .. } = rec else {
                continue;
            };
            // the only completions journaled here are dev-cache hits
            let counter = match records.peek() {
                Some(JournalRecord::TaskCompleted { .. }) => &catalog::DAEMON_DEV_CACHE_HITS,
                _ => &catalog::DAEMON_TASKS_SUBMITTED,
            };
            self.count_class(counter, task.class);
        }
        for rec in &journal {
            self.journal_append_deferred(rec);
        }
        // Once per batch, and only after the appends: the dispatcher is
        // never told about a task the journal does not hold yet.
        if !journal.is_empty() {
            self.wake.raise();
        }
        outcomes
    }

    /// Admit one prepared frame under the caller's table hold, pushing the
    /// records it applied onto `journal`. Applying the `TaskSubmitted`
    /// charges the task's session, if it is still open: one closed since
    /// prepare validated it does not stop the task.
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
        let submitted = JournalRecord::TaskSubmitted {
            task,
            idempotency_key,
            warnings,
        };
        // a cache hit is journaled as submit + complete so replay lands on
        // the same terminal state (the cache itself is volatile)
        let completed = cached.map(|result| JournalRecord::TaskCompleted { id, result, at });
        for rec in [Some(submitted), completed].into_iter().flatten() {
            tasks.apply(&rec)?;
            journal.push(rec);
        }
        Ok(id)
    }

    /// Everything submit does *before* admission: the session and
    /// idempotency checks (one table hold), dev shot capping,
    /// validation/analysis, task construction, and the dev result cache
    /// lookup.
    fn prepare_submit(&self, item: SubmitItem) -> Result<Prepared, DaemonError> {
        let SubmitItem {
            token,
            mut ir,
            mut hint,
            idempotency_key,
        } = item;
        let (checked, original) = {
            let mut tasks = self.tasks.lock();
            let checked = self.check_session(&mut tasks, &token);
            let key = idempotency_key.as_deref();
            (checked, key.and_then(|k| tasks.idempotent(k)))
        };
        let session = self.after_check(&token, checked)?;
        if let Some(original) = original {
            self.count_class(&catalog::DAEMON_IDEMPOTENT_HITS, session.class);
            return Ok(Prepared::Done(original));
        }
        if session.class == PriorityClass::Development && ir.shots > self.cfg.dev_shot_cap {
            ir.shots = self.cfg.dev_shot_cap;
        }
        let mut pending_warnings: Vec<String> = Vec::new();
        let rejected = |violations: Vec<String>| {
            self.count_class(&catalog::DAEMON_TASKS_REJECTED, session.class);
            DaemonError::Validation(violations)
        };
        if self.cfg.validate_on_submit || self.cfg.analyze_on_submit {
            let spec = self.device_spec()?;
            // Stale-validation detection: the client validated against an
            // older spec revision (or never validated). Either way the spec
            // checks below re-establish safety server-side.
            match ir.validated_against_revision {
                Some(rev) if rev != spec.revision => {
                    self.count(&catalog::DAEMON_STALE_VALIDATION, 1);
                    if !self.cfg.analyze_on_submit {
                        pending_warnings.push(format!(
                            "client validated against stale spec revision {rev} (current {})",
                            spec.revision
                        ));
                    }
                }
                _ => {}
            }
            // With analysis on, its hard-constraint pass runs `validate`
            // itself: validate once per submit.
            if self.cfg.validate_on_submit && !self.cfg.analyze_on_submit {
                let violations = hpcqc_program::validate(&ir.sequence, &spec);
                if !violations.is_empty() {
                    return Err(rejected(violations.iter().map(|v| v.to_string()).collect()));
                }
            }
            if self.cfg.analyze_on_submit {
                let report = self.analyzer.analyze(&ir, Some(&spec));
                for d in &report.diagnostics {
                    let l = labels(&[("code", d.code.as_str()), ("severity", d.severity.as_str())]);
                    self.registry.inc(&catalog::ANALYSIS_DIAGNOSTICS, l, 1.0);
                }
                if report.has_errors() {
                    self.count_class(&catalog::DAEMON_LINT_REJECTIONS, session.class);
                    // What `validate` found is reported alone and in its
                    // words — the answer clients get with analysis off;
                    // anything else keeps the analyzer's rendering.
                    let errors = report.errors();
                    let violations: Vec<String> = errors
                        .iter()
                        .filter_map(|d| match &d.violation {
                            Some(ViolationKind::ShotsOutOfRange) | None => None,
                            Some(kind) => Some(
                                Violation {
                                    kind: kind.clone(),
                                    message: d.message.clone(),
                                }
                                .to_string(),
                            ),
                        })
                        .collect();
                    return Err(rejected(if violations.is_empty() {
                        errors.iter().map(|d| d.render()).collect()
                    } else {
                        violations
                    }));
                }
                // Cross-check the user's pattern hint against the inferred
                // one; adopt the inference when the user declared nothing.
                if let Some(inferred) = report.facts.inferred_hint {
                    if hint == PatternHint::None {
                        let l = labels(&[("hint", inferred.as_str())]);
                        self.registry.inc(&catalog::DAEMON_HINT_ADOPTED, l, 1.0);
                        hint = inferred;
                    } else if hint != inferred {
                        let l =
                            labels(&[("declared", hint.as_str()), ("inferred", inferred.as_str())]);
                        self.registry.inc(&catalog::DAEMON_HINT_MISMATCH, l, 1.0);
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
        let tasks = self.tasks.lock();
        let entry = tasks.entry(id).ok_or(DaemonError::UnknownTask(id))?;
        Ok(match &entry.state {
            TaskState::Queued => DaemonTaskStatus::Queued {
                position: tasks.queue().position(id, now).unwrap_or(0),
            },
            TaskState::Running(_) => DaemonTaskStatus::Running,
            TaskState::Completed(_) => DaemonTaskStatus::Completed,
            TaskState::Failed(m) => DaemonTaskStatus::Failed(m.clone()),
            TaskState::Cancelled => DaemonTaskStatus::Cancelled,
        })
    }

    /// Warning-level analyzer findings recorded for a task at submission
    /// (empty when the analyzer found nothing or is disabled).
    pub fn task_warnings(&self, id: u64) -> Result<Vec<String>, DaemonError> {
        let tasks = self.tasks.lock();
        let entry = tasks.entry(id).ok_or(DaemonError::UnknownTask(id))?;
        Ok(entry.warnings.clone())
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

    /// Cancel a queued task (the owner's session token must match). Applying
    /// the `TaskCancelled` refunds the session's live-task count in the same
    /// hold, so a cancelled task does not consume quota forever.
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
            tasks.apply(&rec)?;
        }
        self.journal_append_deferred(&rec);
        Ok(())
    }
}
