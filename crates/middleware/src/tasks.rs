//! The daemon's task table: every task's lifecycle state behind one lock,
//! changed by one function.
//!
//! A task is written down once — as a [`TaskEntry`] whose [`TaskState`] is
//! `Queued | Running | Completed | Failed | Cancelled` — and moves only
//! through [`TaskTable::apply`], which takes the same [`JournalRecord`] the
//! WAL stores. The live daemon builds a record, applies it under one short
//! hold of [`rank::TASKS`](hpcqc_sync::rank::TASKS) and then appends it;
//! recovery is [`TaskTable::with_snapshot`] plus `apply` over the WAL tail,
//! so the two cannot disagree. DESIGN.md §9 has the (state × record) table;
//! its two rules:
//!
//! * **A record never un-finishes a task.** The WAL is appended after the
//!   table hold is released, so a task's records can reach disk out of order
//!   (`Dispatched, Completed, Submitted` when the submitter is descheduled),
//!   and a compaction snapshot can already hold the effect of a record that
//!   lands in the fresh WAL behind it. A `TaskSubmitted` for a known task
//!   and anything arriving for a finished one are no-ops; so is the run
//!   progress of a task not submitted yet, and a run outcome that overtook
//!   its `TaskSubmitted` creates the finished entry, which the late submit
//!   then only annotates.
//! * **`Queued` accepts run outcomes.** A snapshot folds running tasks back
//!   to queued, so the outcome of a run that straddled a compaction finds
//!   its task `Queued`.
//!
//! Everything else is an [`IllegalTransition`], which replay counts and
//! skips and which the live paths cannot produce.

use crate::journal::{DaemonSnapshot, JournalRecord};
use crate::session::PriorityClass;
use crate::taskqueue::{QuantumTask, QueueError, TaskQueue};
use hpcqc_emulator::SampleResult;
use std::collections::{BTreeSet, HashMap};

/// Where a task is in its life. `Queued` keeps the body in the
/// [`TaskQueue`]; `Running` holds it while it is off the queue so a snapshot
/// still sees it.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) enum TaskState {
    #[default]
    Queued,
    Running(QuantumTask),
    Completed(SampleResult),
    Failed(String),
    Cancelled,
}

/// Everything the daemon knows about one task. Readable through
/// [`TaskTable::entry`]; only [`TaskTable::apply`] writes it.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct TaskEntry {
    pub state: TaskState,
    /// `(class, submitted_at)` from the task's `TaskSubmitted`; `None` only
    /// until that record arrives for an entry a terminal record created.
    pub meta: Option<(PriorityClass, f64)>,
    /// Warning-level analyzer findings recorded at submission.
    pub warnings: Vec<String>,
    /// Execution failures since the last successful run.
    pub attempts: u32,
    /// Resources this task has failed on (advisory dispatch exclusion).
    pub excluded: BTreeSet<String>,
    /// Volatile slice progress of a preempted task — never journaled: a
    /// crash between slices replays the whole task.
    pub shots_done: u32,
    pub partial: Option<SampleResult>,
}

impl TaskEntry {
    fn new(state: TaskState) -> Self {
        TaskEntry {
            state,
            ..TaskEntry::default()
        }
    }
}

/// What [`TaskTable::apply`] did with a legal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Applied {
    /// The transition landed.
    Changed,
    /// The table already reflects the record (or it is not a task record).
    NoOp,
}

/// A record the state machine refuses: the task it names is not in a state
/// the record can follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IllegalTransition {
    pub id: u64,
    pub record: &'static str,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "illegal {} for task {}", self.record, self.id)
    }
}

/// Task entries + the dispatch queue + the idempotency map, kept consistent
/// by living behind one lock and changing only in [`apply`](Self::apply).
#[derive(Default)]
pub(crate) struct TaskTable {
    entries: HashMap<u64, TaskEntry>,
    /// Bodies of the `Queued` entries, in dispatch order.
    queue: TaskQueue,
    /// Idempotency key → the task id originally assigned for it.
    idempotency: HashMap<String, u64>,
}

impl TaskTable {
    pub(crate) fn new(queue: TaskQueue) -> Self {
        TaskTable {
            queue,
            ..TaskTable::default()
        }
    }

    /// Fill a new table with what a snapshot describes, taking the task
    /// lists out of `snap`. Metadata for ids the snapshot lists in no state
    /// is dropped.
    pub(crate) fn with_snapshot(mut self, snap: &mut DaemonSnapshot) -> Result<Self, QueueError> {
        use std::mem::take;
        for task in take(&mut snap.queued) {
            self.entries
                .entry(task.id)
                .or_insert_with(|| TaskEntry::new(TaskState::Queued));
            self.queue.restore(task)?;
        }
        let completed = take(&mut snap.completed).into_iter();
        let failed = take(&mut snap.failed).into_iter();
        let cancelled = take(&mut snap.cancelled).into_iter();
        let terminal = completed
            .map(|(id, r)| (id, TaskState::Completed(r)))
            .chain(failed.map(|(id, m)| (id, TaskState::Failed(m))))
            .chain(cancelled.map(|id| (id, TaskState::Cancelled)));
        for (id, state) in terminal {
            // a snapshot listing an id twice: the finished state wins
            self.queue.remove(id);
            self.entries.insert(id, TaskEntry::new(state));
        }
        for (id, class, at) in take(&mut snap.task_meta) {
            if let Some(e) = self.entries.get_mut(&id) {
                e.meta = Some((class, at));
            }
        }
        for (id, attempts, excluded) in take(&mut snap.failures) {
            if let Some(e) = self.entries.get_mut(&id) {
                if e.state == TaskState::Queued {
                    e.attempts = attempts;
                    e.excluded = excluded.into_iter().collect();
                }
            }
        }
        for (id, warnings) in take(&mut snap.warnings) {
            if let Some(e) = self.entries.get_mut(&id) {
                e.warnings = warnings;
            }
        }
        self.idempotency = take(&mut snap.idempotency).into_iter().collect();
        Ok(self)
    }

    /// Last step of recovery: a task still `Running` when the WAL ends was
    /// mid-dispatch at crash time and no durable result exists, so the work
    /// never happened — it goes back to the queue with its retry history.
    /// Returns the table and how many tasks that was.
    pub(crate) fn into_recovered(mut self) -> (Self, usize) {
        let mut requeued = 0;
        for e in self.entries.values_mut() {
            if let TaskState::Running(task) = &e.state {
                self.queue
                    .restore(task.clone())
                    .expect("a task that was queued once has a finite timestamp");
                e.state = TaskState::Queued;
                requeued += 1;
            }
        }
        (self, requeued)
    }

    /// The one function that changes a task's state (see the module table).
    /// Non-task records are none of the table's business: `NoOp`.
    pub(crate) fn apply(&mut self, rec: &JournalRecord) -> Result<Applied, IllegalTransition> {
        self.step(rec, None)
    }

    /// [`apply`](Self::apply) of `TaskRequeued` for a slice that ran but did
    /// not finish the task, carrying the one thing the record does not: the
    /// slice's result, merged into the entry's volatile progress.
    pub(crate) fn apply_slice(
        &mut self,
        id: u64,
        slice: SampleResult,
    ) -> Result<Applied, IllegalTransition> {
        self.step(&JournalRecord::TaskRequeued { id }, Some(slice))
    }

    fn step(
        &mut self,
        rec: &JournalRecord,
        slice: Option<SampleResult>,
    ) -> Result<Applied, IllegalTransition> {
        use {JournalRecord as R, TaskState as S};
        let (id, record) = match rec {
            R::TaskSubmitted { task, .. } => (task.id, "TaskSubmitted"),
            R::TaskDispatched { id, .. } => (*id, "TaskDispatched"),
            R::TaskRequeued { id } => (*id, "TaskRequeued"),
            R::TaskAttemptFailed { id, .. } => (*id, "TaskAttemptFailed"),
            R::TaskCompleted { id, .. } => (*id, "TaskCompleted"),
            R::TaskFailed { id, .. } => (*id, "TaskFailed"),
            R::TaskCancelled { id } => (*id, "TaskCancelled"),
            _ => return Ok(Applied::NoOp),
        };
        let illegal = Err(IllegalTransition { id, record });
        // the state the record ends the task in, if it ends it
        let end = match rec {
            R::TaskCompleted { result, .. } => Some(S::Completed(result.clone())),
            R::TaskFailed { error, .. } => Some(S::Failed(error.clone())),
            R::TaskCancelled { .. } => Some(S::Cancelled),
            _ => None,
        };
        let Some(e) = self.entries.get_mut(&id) else {
            // unknown id: a submit, or the dispatcher's records of a task
            // whose TaskSubmitted they overtook on the way to the WAL — its
            // progress is moot, its outcome is the task
            let mut e = match (rec, end) {
                (R::TaskSubmitted { task, .. }, _) => {
                    if self.queue.restore(task.clone()).is_err() {
                        return illegal;
                    }
                    TaskEntry::new(S::Queued)
                }
                (R::TaskCancelled { .. }, _) => return illegal,
                (_, Some(end)) => TaskEntry::new(end),
                (_, None) => return Ok(Applied::NoOp),
            };
            annotate(&mut e, &mut self.idempotency, rec);
            self.entries.insert(id, e);
            return Ok(Applied::Changed);
        };
        if let R::TaskSubmitted { .. } = rec {
            // never un-finish (or re-queue) a known task; only fill in what
            // a run outcome that got here first could not know
            if e.meta.is_none() {
                annotate(e, &mut self.idempotency, rec);
            }
            return Ok(Applied::NoOp);
        }
        let running = matches!(e.state, S::Running(_));
        if !running && e.state != S::Queued {
            // finished: a straggler is a no-op unless it claims a different end
            return match end {
                Some(end) if std::mem::discriminant(&end) != std::mem::discriminant(&e.state) => {
                    illegal
                }
                _ => Ok(Applied::NoOp),
            };
        }
        match rec {
            R::TaskDispatched { .. } | R::TaskCancelled { .. } if running => return illegal,
            R::TaskDispatched { .. } => match self.queue.remove(id) {
                Some(task) => e.state = S::Running(task),
                None => return illegal,
            },
            R::TaskRequeued { .. } | R::TaskAttemptFailed { .. } => {
                if let S::Running(task) = std::mem::replace(&mut e.state, S::Queued) {
                    // `restore`, not `push`: the quota may have filled since
                    // admission and an admitted task is never dropped for it
                    self.queue
                        .restore(task)
                        .expect("a task that was queued once has a finite timestamp");
                }
            }
            _ => {
                if !running {
                    self.queue.remove(id);
                }
                e.state = end.expect("the remaining records end the task");
                e.shots_done = 0;
                e.partial = None;
            }
        }
        match rec {
            R::TaskDispatched { .. } => {}
            R::TaskAttemptFailed { resource, .. } => {
                e.attempts += 1;
                e.excluded.insert(resource.clone());
            }
            // a successful run, or the end of the task, wipes the retry history
            _ => {
                e.attempts = 0;
                e.excluded.clear();
            }
        }
        if let Some(slice) = slice {
            e.shots_done += slice.shots;
            e.partial = Some(match e.partial.take() {
                None => slice,
                Some(prev) => merge_results(prev, slice),
            });
        }
        Ok(Applied::Changed)
    }

    // ---- reads -----------------------------------------------------------

    pub(crate) fn entry(&self, id: u64) -> Option<&TaskEntry> {
        self.entries.get(&id)
    }

    /// The dispatch queue, read-only: the bodies of the `Queued` entries.
    pub(crate) fn queue(&self) -> &TaskQueue {
        &self.queue
    }

    /// The task id `key` was first accepted as.
    pub(crate) fn idempotent(&self, key: &str) -> Option<u64> {
        self.idempotency.get(key).copied()
    }

    /// `last` merged with the earlier slices of task `id`: the task's full
    /// result once `last` brings it to its shot count.
    pub(crate) fn merged_result(&self, id: u64, last: SampleResult) -> SampleResult {
        match self.entries.get(&id).and_then(|e| e.partial.as_ref()) {
            None => last,
            Some(prev) => merge_results(prev.clone(), last),
        }
    }

    /// Write the table into `snap`'s task fields, one pass, every list in
    /// its on-disk order. Running tasks are folded back into `queued`: a
    /// snapshot never claims work that has not produced a durable result.
    pub(crate) fn snapshot_into(&self, snap: &mut DaemonSnapshot) {
        snap.queued = self.queue.iter().cloned().collect();
        let mut entries: Vec<(u64, &TaskEntry)> =
            self.entries.iter().map(|(&id, e)| (id, e)).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        for (id, e) in entries {
            match &e.state {
                TaskState::Queued => {}
                TaskState::Running(task) => snap.queued.push(task.clone()),
                TaskState::Completed(r) => snap.completed.push((id, r.clone())),
                TaskState::Failed(m) => snap.failed.push((id, m.clone())),
                TaskState::Cancelled => snap.cancelled.push(id),
            }
            if let Some((class, at)) = e.meta {
                snap.task_meta.push((id, class, at));
            }
            if e.attempts > 0 {
                snap.failures
                    .push((id, e.attempts, e.excluded.iter().cloned().collect()));
            }
            if !e.warnings.is_empty() {
                snap.warnings.push((id, e.warnings.clone()));
            }
        }
        snap.queued.sort_by(|a, b| {
            a.submitted_at
                .total_cmp(&b.submitted_at)
                .then(a.id.cmp(&b.id))
        });
        snap.idempotency = self
            .idempotency
            .iter()
            .map(|(k, &id)| (k.clone(), id))
            .collect();
        snap.idempotency.sort();
    }
}

/// Copy what only a `TaskSubmitted` knows into its task's entry.
fn annotate(e: &mut TaskEntry, idempotency: &mut HashMap<String, u64>, rec: &JournalRecord) {
    if let JournalRecord::TaskSubmitted {
        task,
        idempotency_key,
        warnings,
    } = rec
    {
        e.meta = Some((task.class, task.submitted_at));
        e.warnings = warnings.clone();
        if let Some(key) = idempotency_key {
            idempotency.entry(key.clone()).or_insert(task.id);
        }
    }
}

/// Merge two sample results of the same program (chunked execution).
pub(crate) fn merge_results(mut a: SampleResult, b: SampleResult) -> SampleResult {
    assert_eq!(
        a.n_qubits, b.n_qubits,
        "merging results of different registers"
    );
    for (bits, count) in b.counts {
        *a.counts.entry(bits).or_insert(0) += count;
    }
    a.shots += b.shots;
    a.execution_secs += b.execution_secs;
    a.truncation_error = a.truncation_error.max(b.truncation_error);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskqueue::QueueConfig;
    use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
    use hpcqc_scheduler::PatternHint;
    use std::sync::Arc;
    use JournalRecord as R;

    const ID: u64 = 7;

    fn task() -> QuantumTask {
        let mut b = SequenceBuilder::new(Register::linear(2, 6.0).unwrap());
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        QuantumTask {
            id: ID,
            session: "sess-1".into(),
            user: "alice".into(),
            class: PriorityClass::Test,
            ir: Arc::new(ProgramIr::new(b.build().unwrap(), 10, "test")),
            hint: PatternHint::None,
            submitted_at: 1.0,
        }
    }

    fn result() -> SampleResult {
        SampleResult::from_shots(2, &[0b01, 0b11], "x")
    }

    fn records() -> Vec<R> {
        vec![
            R::TaskSubmitted {
                task: task(),
                idempotency_key: Some("key".into()),
                warnings: vec!["careful".into()],
            },
            R::TaskDispatched {
                id: ID,
                resource: "emu".into(),
                at: 2.0,
            },
            R::TaskRequeued { id: ID },
            R::TaskAttemptFailed {
                id: ID,
                resource: "emu".into(),
                error: "boom".into(),
            },
            R::TaskCompleted {
                id: ID,
                result: result(),
                at: 3.0,
            },
            R::TaskFailed {
                id: ID,
                error: "poisoned".into(),
            },
            R::TaskCancelled { id: ID },
        ]
    }

    /// A table whose task 7 is in `state` (`None`: absent), built only by
    /// legal transitions.
    fn table_in(state: &str) -> TaskTable {
        let mut t = TaskTable::new(TaskQueue::new(QueueConfig::default()));
        let r = records();
        let path: &[usize] = match state {
            "absent" => &[],
            "Queued" => &[0],
            "Running" => &[0, 1],
            "Completed" => &[0, 1, 4],
            "Failed" => &[0, 1, 5],
            "Cancelled" => &[0, 6],
            other => panic!("no such state {other}"),
        };
        for &i in path {
            assert_eq!(t.apply(&r[i]), Ok(Applied::Changed));
        }
        t
    }

    fn state_name(t: &TaskTable) -> &'static str {
        t.entry(ID).map_or("absent", |e| match e.state {
            TaskState::Queued => "Queued",
            TaskState::Running(_) => "Running",
            TaskState::Completed(_) => "Completed",
            TaskState::Failed(_) => "Failed",
            TaskState::Cancelled => "Cancelled",
        })
    }

    /// The specification: for every (state, record) pair, the state the
    /// task lands in, or `ILLEGAL` for an [`IllegalTransition`]. A record
    /// that leaves a finished, or an absent, task as it was is a no-op; so
    /// is a `TaskSubmitted` for any known task.
    #[test]
    fn every_state_record_pair_lands_where_the_table_says() {
        const A: &str = "absent";
        const Q: &str = "Queued";
        const R_: &str = "Running";
        const C: &str = "Completed";
        const F: &str = "Failed";
        const X: &str = "Cancelled";
        const ILLEGAL: &str = "illegal";
        // columns: Submitted Dispatched Requeued AttemptFailed Completed Failed Cancelled
        let spec: [(&str, [&str; 7]); 6] = [
            (A, [Q, A, A, A, C, F, ILLEGAL]),
            (Q, [Q, R_, Q, Q, C, F, X]),
            (R_, [R_, ILLEGAL, Q, Q, C, F, ILLEGAL]),
            (C, [C, C, C, C, C, ILLEGAL, ILLEGAL]),
            (F, [F, F, F, F, ILLEGAL, F, ILLEGAL]),
            (X, [X, X, X, X, ILLEGAL, ILLEGAL, X]),
        ];
        for (from, row) in spec {
            for (rec, to) in records().iter().zip(row) {
                let mut t = table_in(from);
                let before = t.entry(ID).cloned();
                let applied = t.apply(rec);
                let case = format!("{from} + {rec:?}");
                let untouched = t.entry(ID).cloned() == before;
                if to == ILLEGAL {
                    assert_eq!(applied.unwrap_err().id, ID, "{case}");
                    assert!(untouched, "{case}: refused, so untouched");
                } else {
                    assert_eq!(state_name(&t), to, "{case}: {applied:?}");
                    let submitted_again = matches!(rec, R::TaskSubmitted { .. }) && from != A;
                    if matches!(from, C | F | X) || to == A || submitted_again {
                        assert_eq!(applied, Ok(Applied::NoOp), "{case}");
                        assert!(untouched, "{case}: no-op, so untouched");
                    } else {
                        assert_eq!(applied, Ok(Applied::Changed), "{case}");
                    }
                }
                // the body is in the queue exactly while the task is Queued
                let queued = state_name(&t) == Q;
                assert_eq!(t.queue().get(ID).is_some(), queued, "{case}");
                assert_eq!(t.queue().len(), queued as usize, "{case}");
            }
        }
    }

    #[test]
    fn retry_history_and_slice_progress_follow_the_run_outcomes() {
        let mut t = table_in("Running");
        let r = records();
        t.apply(&r[3]).unwrap(); // attempt failed
        let e = t.entry(ID).unwrap();
        assert_eq!((e.attempts, e.excluded.len()), (1, 1));
        t.apply(&r[1]).unwrap();
        t.apply_slice(ID, result()).unwrap(); // a slice ran: history wiped
        let e = t.entry(ID).unwrap();
        assert_eq!((e.attempts, e.excluded.len(), e.shots_done), (0, 0, 2));
        t.apply(&r[1]).unwrap();
        assert_eq!(t.merged_result(ID, result()).shots, 4);
        t.apply(&r[4]).unwrap();
        let e = t.entry(ID).unwrap();
        assert_eq!((e.shots_done, e.partial.is_none()), (0, true));
        assert_eq!(t.idempotent("key"), Some(ID));
        assert_eq!(e.warnings, vec!["careful".to_string()]);
    }

    /// A run outcome that reached the WAL before its `TaskSubmitted` creates
    /// the finished entry; the late submit annotates it and changes nothing.
    #[test]
    fn late_submit_annotates_a_finished_task_without_requeueing_it() {
        let mut t = table_in("absent");
        let r = records();
        assert_eq!(t.apply(&r[1]), Ok(Applied::NoOp), "its dispatch is moot");
        assert_eq!(t.apply(&r[4]), Ok(Applied::Changed));
        assert_eq!(t.idempotent("key"), None);
        assert_eq!(t.apply(&r[0]), Ok(Applied::NoOp));
        assert_eq!(state_name(&t), "Completed");
        assert_eq!(t.queue().len(), 0);
        assert_eq!(t.idempotent("key"), Some(ID), "retries still deduplicate");
        assert_eq!(t.entry(ID).unwrap().meta, Some((PriorityClass::Test, 1.0)));
    }

    #[test]
    fn snapshot_round_trips_through_the_table() {
        let mut t = table_in("Running");
        t.apply(&records()[3]).unwrap();
        let mut snap = DaemonSnapshot::default();
        t.snapshot_into(&mut snap);
        let expected = snap.clone();
        let (back, requeued) = TaskTable::new(TaskQueue::new(QueueConfig::default()))
            .with_snapshot(&mut snap)
            .unwrap()
            .into_recovered();
        assert_eq!(requeued, 0, "a snapshot holds no running task");
        let mut again = DaemonSnapshot::default();
        back.snapshot_into(&mut again);
        assert_eq!(again, expected);
        assert_eq!(again.failures, vec![(ID, 1, vec!["emu".to_string()])]);
    }
}
