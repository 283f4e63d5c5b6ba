//! The daemon's replicated state — every task's lifecycle, the open
//! sessions, the admin-set device status and the replay floors — behind one
//! lock, changed by one function.
//!
//! A task is written down once — as a [`TaskEntry`] whose [`TaskState`] is
//! `Queued | Running | Completed | Failed | Cancelled` — and moves only
//! through [`TaskTable::apply`], which takes the same [`JournalRecord`] the
//! WAL stores. So does everything else the journal carries: sessions
//! (`SessionOpened` inserts, `SessionClosed` and `SessionsExpired` remove),
//! each session's `task_count` (charged by a task's first `TaskSubmitted`,
//! refunded by its `TaskCancelled`, in the same step that admits or cancels
//! the task), the device status (`QpuStatusChanged`) and the [`Floors`] the
//! next task id, session token and clock must not fall below. The live
//! daemon builds a record, applies it under one short hold of
//! [`rank::TASKS`](hpcqc_sync::rank::TASKS) and then appends it; recovery
//! is [`TaskTable::with_snapshot`] plus `apply` over every WAL record, so
//! the two cannot disagree. DESIGN.md §9 has the (state × record) table;
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
//!   then only annotates (and charges). A `SessionOpened` for a known token
//!   is a no-op for the same reason: the snapshot holds that session, charge
//!   and all. One late record is not a no-op: a `TaskAttemptFailed` that
//!   finds its task `Queued` counts the attempt again. `dispatch_next`
//!   applies the outcome and drops the hold before it takes the compaction
//!   gate to append, so a compaction in between snapshots the counted
//!   attempt, and after a crash the task reaches its poison cap one attempt
//!   early. Holding the gate from the `apply` through the append would
//!   close that window.
//! * **`Queued` accepts run outcomes.** A snapshot folds running tasks back
//!   to queued, so the outcome of a run that straddled a compaction finds
//!   its task `Queued`.
//!
//! Four writes bypass `apply`, and none is journaled: a preempted task's
//! slice progress ([`TaskTable::apply_slice`]), a session's `last_active`
//! ([`TaskTable::touch`]), a run's fair-share charge ([`TaskTable::charge`])
//! and the development-result cache ([`TaskTable::cache_dev_result`]). Like
//! slice progress, the charge and the cache are volatile: never in a
//! snapshot, empty after recovery. The live-only checks — the session cap,
//! idle expiry and token minting — stay with the daemon, which builds the
//! record they decide on and applies it in the same hold.
//!
//! Everything else is an [`IllegalTransition`], which replay counts and
//! skips and which the live paths cannot produce.

use crate::journal::{DaemonSnapshot, JournalRecord};
use crate::session::{token_counter, PriorityClass, Session};
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
    /// The table already reflects the record; only the floors may rise.
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

/// The watermarks the records carry, which replay must not fall below:
/// raised by [`TaskTable::apply`], never lowered. Recovery starts the
/// daemon's id and clock counters from them; session tokens are minted from
/// the token floor itself.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Floors {
    /// One past every task id a record names.
    pub next_task: u64,
    /// One past every token counter a `SessionOpened` minted (`sess-{n}-…`).
    pub session_counter: u64,
    /// The latest `submitted_at`, `at` and `to` seen.
    pub clock: f64,
}

/// Task entries, the dispatch queue, the idempotency map, the open sessions,
/// the device status and the floors, kept consistent by living behind one
/// lock and changing only in [`apply`](Self::apply).
#[derive(Default)]
pub(crate) struct TaskTable {
    entries: HashMap<u64, TaskEntry>,
    /// Bodies of the `Queued` entries, in dispatch order.
    queue: TaskQueue,
    /// Idempotency key → the task id originally assigned for it.
    idempotency: HashMap<String, u64>,
    /// Open sessions by token, each carrying its task charge.
    sessions: HashMap<String, Session>,
    /// Last admin-set device status, in `QpuStatus::as_str` form.
    qpu_status: Option<String>,
    floors: Floors,
    /// Development results by program fingerprint: a repeated development
    /// program is served from here instead of re-running on the device.
    dev_cache: HashMap<u64, SampleResult>,
}

impl TaskTable {
    pub(crate) fn new(queue: TaskQueue) -> Self {
        TaskTable {
            queue,
            ..TaskTable::default()
        }
    }

    /// Fill a new table with what a snapshot describes, taking the task and
    /// session lists out of `snap`. Metadata for ids the snapshot lists in no
    /// state is dropped.
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
        let sessions = take(&mut snap.sessions).into_iter();
        self.sessions = sessions.map(|s| (s.token.clone(), s)).collect();
        self.qpu_status = snap.qpu_status.take();
        self.floors = Floors {
            next_task: snap.next_task,
            session_counter: snap.session_counter,
            clock: snap.clock,
        };
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

    /// The one function that changes the table (see the module docs).
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
        let at = match rec {
            R::TaskSubmitted { task, .. } => Some(task.submitted_at),
            R::TaskDispatched { at, .. } | R::TaskCompleted { at, .. } => Some(*at),
            R::ClockAdvanced { to } => Some(*to),
            _ => None,
        };
        if let Some(at) = at {
            self.floors.clock = self.floors.clock.max(at);
        }
        let (id, record) = match rec {
            R::TaskSubmitted { task, .. } => (task.id, "TaskSubmitted"),
            R::TaskDispatched { id, .. } => (*id, "TaskDispatched"),
            R::TaskRequeued { id } => (*id, "TaskRequeued"),
            R::TaskAttemptFailed { id, .. } => (*id, "TaskAttemptFailed"),
            R::TaskCompleted { id, .. } => (*id, "TaskCompleted"),
            R::TaskFailed { id, .. } => (*id, "TaskFailed"),
            R::TaskCancelled { id } => (*id, "TaskCancelled"),
            _ => return Ok(self.step_untasked(rec)),
        };
        self.floors.next_task = self.floors.next_task.max(id + 1);
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
            annotate(&mut e, &mut self.idempotency, &mut self.sessions, rec);
            self.entries.insert(id, e);
            return Ok(Applied::Changed);
        };
        if let R::TaskSubmitted { .. } = rec {
            // never un-finish (or re-queue) a known task; only fill in what
            // a run outcome that got here first could not know
            if e.meta.is_none() {
                annotate(e, &mut self.idempotency, &mut self.sessions, rec);
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
                let body = if running { None } else { self.queue.remove(id) };
                // a cancel refunds the charge its task's submit took
                if let (R::TaskCancelled { .. }, Some(task)) = (rec, body) {
                    if let Some(s) = self.sessions.get_mut(&task.session) {
                        s.task_count = s.task_count.saturating_sub(1);
                    }
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

    /// The records that name no task: sessions, the device status and the
    /// clock (whose floor `step` has already raised).
    fn step_untasked(&mut self, rec: &JournalRecord) -> Applied {
        use JournalRecord as R;
        let changed = match rec {
            R::SessionOpened { session } => {
                let minted = token_counter(&session.token).map_or(0, |n| n + 1);
                self.floors.session_counter = self.floors.session_counter.max(minted);
                let known = self.sessions.contains_key(&session.token);
                if !known {
                    self.sessions.insert(session.token.clone(), session.clone());
                }
                !known
            }
            R::SessionClosed { token } => self.sessions.remove(token).is_some(),
            R::SessionsExpired { tokens } => {
                let sessions = &mut self.sessions;
                tokens
                    .iter()
                    .fold(false, |any, t| sessions.remove(t).is_some() | any)
            }
            R::QpuStatusChanged { status } => {
                self.qpu_status = Some(status.clone());
                true
            }
            _ => false,
        };
        if changed {
            Applied::Changed
        } else {
            Applied::NoOp
        }
    }

    // ---- reads, and the writes that bypass `apply` ----------------------

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

    pub(crate) fn session(&self, token: &str) -> Option<&Session> {
        self.sessions.get(token)
    }

    pub(crate) fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Open sessions, oldest first (creation time, then token).
    pub(crate) fn sessions(&self) -> Vec<Session> {
        let mut v: Vec<Session> = self.sessions.values().cloned().collect();
        v.sort_by(|a, b| {
            a.created_at
                .total_cmp(&b.created_at)
                .then(a.token.cmp(&b.token))
        });
        v
    }

    /// Tokens of the sessions idle since `cutoff` or earlier, sorted.
    pub(crate) fn idle_since(&self, cutoff: f64) -> Vec<String> {
        let idle = self.sessions.values().filter(|s| s.last_active <= cutoff);
        let mut tokens: Vec<String> = idle.map(|s| s.token.clone()).collect();
        tokens.sort();
        tokens
    }

    /// Activity at `now` keeps session `token` alive: its idle clock moves
    /// forward. The one session write outside [`apply`](Self::apply), and
    /// never journaled.
    pub(crate) fn touch(&mut self, token: &str, now: f64) -> Option<Session> {
        let s = self.sessions.get_mut(token)?;
        s.last_active = s.last_active.max(now);
        Some(s.clone())
    }

    /// Record a run's device time against `user`'s fair share (volatile).
    pub(crate) fn charge(&mut self, user: &str, secs: f64, now: f64) {
        self.queue.charge(user, secs, now);
    }

    /// The cached result of the development program with `fingerprint`.
    pub(crate) fn dev_cached(&self, fingerprint: u64) -> Option<&SampleResult> {
        self.dev_cache.get(&fingerprint)
    }

    /// Serve later submits of the development program with `fingerprint`
    /// from `result` (volatile).
    pub(crate) fn cache_dev_result(&mut self, fingerprint: u64, result: SampleResult) {
        self.dev_cache.insert(fingerprint, result);
    }

    pub(crate) fn qpu_status(&self) -> Option<&str> {
        self.qpu_status.as_deref()
    }

    pub(crate) fn floors(&self) -> Floors {
        self.floors
    }

    /// `last` merged with the earlier slices of task `id`: the task's full
    /// result once `last` brings it to its shot count.
    pub(crate) fn merged_result(&self, id: u64, last: SampleResult) -> SampleResult {
        match self.entries.get(&id).and_then(|e| e.partial.as_ref()) {
            None => last,
            Some(prev) => merge_results(prev.clone(), last),
        }
    }

    /// Write the table into `snap`, one pass, every list in its on-disk
    /// order. Running tasks are folded back into `queued`: a snapshot never
    /// claims work that has not produced a durable result. The watermarks
    /// `snap` already holds (the daemon's live counters, which run ahead of
    /// the records) are raised to the floors.
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
        snap.sessions = self.sessions();
        snap.qpu_status = self.qpu_status.clone();
        snap.next_task = snap.next_task.max(self.floors.next_task);
        snap.session_counter = snap.session_counter.max(self.floors.session_counter);
        snap.clock = snap.clock.max(self.floors.clock);
    }
}

/// Copy what only a `TaskSubmitted` knows into its task's entry, and charge
/// the task to its session if that is still open. Runs once per task: for
/// the first `TaskSubmitted` the table sees of it.
fn annotate(
    e: &mut TaskEntry,
    idempotency: &mut HashMap<String, u64>,
    sessions: &mut HashMap<String, Session>,
    rec: &JournalRecord,
) {
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
        if let Some(s) = sessions.get_mut(&task.session) {
            s.task_count += 1;
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
    use crate::session::mint_token;
    use crate::taskqueue::QueueConfig;
    use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
    use hpcqc_scheduler::PatternHint;
    use std::sync::Arc;
    use JournalRecord as R;

    const ID: u64 = 7;

    fn session(n: u64) -> Session {
        Session {
            token: mint_token(n, "alice"),
            user: "alice".into(),
            class: PriorityClass::Test,
            created_at: 0.5,
            last_active: 0.5,
            task_count: 0,
        }
    }

    fn task() -> QuantumTask {
        let mut b = SequenceBuilder::new(Register::linear(2, 6.0).unwrap());
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        QuantumTask {
            id: ID,
            session: session(1).token,
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

    /// A table with task 7's session open and the task in `state` (`None`:
    /// absent), built only by legal transitions.
    fn table_in(state: &str) -> TaskTable {
        let mut t = TaskTable::new(TaskQueue::new(QueueConfig::default()));
        let opened = R::SessionOpened {
            session: session(1),
        };
        assert_eq!(t.apply(&opened), Ok(Applied::Changed));
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

    fn charge(t: &TaskTable) -> u64 {
        t.session(&session(1).token).unwrap().task_count
    }

    /// The specification: for every (state, record) pair, the state the
    /// task lands in, or `ILLEGAL` for an [`IllegalTransition`]. A record
    /// that leaves a finished, or an absent, task as it was is a no-op; so
    /// is a `TaskSubmitted` for any known task. In every cell the session is
    /// charged exactly for a task that was submitted and not cancelled.
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
                let e = t.entry(ID);
                let charged =
                    e.is_some_and(|e| e.meta.is_some() && e.state != TaskState::Cancelled);
                assert_eq!(charge(&t), charged as u64, "{case}: the session's charge");
                assert_eq!(t.floors().next_task, ID + 1, "{case}: the id floor");
            }
        }
    }

    /// The session records × a known and an unknown token, and the device
    /// status: what `apply` answers and whether the session is open after.
    #[test]
    fn session_and_status_records_land_where_the_table_says() {
        let open = |n| R::SessionOpened {
            session: session(n),
        };
        let known = session(1).token;
        let unknown = session(2).token;
        let closed = |t: &str| R::SessionClosed { token: t.into() };
        let expired = |t: &str| R::SessionsExpired {
            tokens: vec![t.into()],
        };
        use Applied::{Changed, NoOp};
        // (record, what apply answers, is the known session open after)
        let spec: [(R, Applied, bool); 6] = [
            (open(1), NoOp, true),
            (open(2), Changed, true),
            (closed(&known), Changed, false),
            (closed(&unknown), NoOp, true),
            (expired(&known), Changed, false),
            (expired(&unknown), NoOp, true),
        ];
        for (rec, applied, open_after) in spec {
            let mut t = table_in("Queued");
            assert_eq!(t.apply(&rec), Ok(applied), "{rec:?}");
            assert_eq!(t.session(&known).is_some(), open_after, "{rec:?}");
            if open_after {
                assert_eq!(charge(&t), 1, "{rec:?}: a known session keeps its charge");
            }
        }
        let mut t = table_in("absent");
        let status = R::QpuStatusChanged {
            status: "maintenance".into(),
        };
        assert_eq!(t.apply(&status), Ok(Changed));
        assert_eq!(t.qpu_status(), Some("maintenance"));
    }

    /// The charge lands once per task and the refund once per cancel, in
    /// the step that admits or cancels the task; a record the table already
    /// reflects moves neither.
    #[test]
    fn the_charge_follows_the_first_submit_and_the_cancel() {
        let r = records();
        let mut t = table_in("absent");
        assert_eq!((t.apply(&r[0]), charge(&t)), (Ok(Applied::Changed), 1));
        assert_eq!((t.apply(&r[0]), charge(&t)), (Ok(Applied::NoOp), 1));
        assert_eq!((t.apply(&r[6]), charge(&t)), (Ok(Applied::Changed), 0));
        assert_eq!((t.apply(&r[6]), charge(&t)), (Ok(Applied::NoOp), 0));
        // a completion that overtook its submit: the late submit charges
        let mut t = table_in("absent");
        t.apply(&r[4]).unwrap();
        assert_eq!((t.apply(&r[0]), charge(&t)), (Ok(Applied::NoOp), 1));
        // a task whose session closed before admission charges no one
        let mut t = table_in("absent");
        t.apply(&R::SessionClosed {
            token: session(1).token,
        })
        .unwrap();
        assert_eq!(t.apply(&r[0]), Ok(Applied::Changed));
        assert_eq!(t.session_count(), 0);
    }

    /// Each floor rises with the records that carry it and never falls.
    #[test]
    fn the_floors_rise_with_the_records_and_never_fall() {
        let r = records();
        let mut t = table_in("absent");
        let floors = |t: &TaskTable| {
            let f = t.floors();
            (f.next_task, f.session_counter, f.clock)
        };
        assert_eq!(floors(&t), (0, 2, 0.0), "sess-1 was minted");
        t.apply(&r[4]).unwrap(); // a completion names the id and its time
        assert_eq!(floors(&t), (ID + 1, 2, 3.0));
        t.apply(&r[0]).unwrap(); // submitted_at 1.0 is behind the clock
        assert_eq!(floors(&t), (ID + 1, 2, 3.0));
        t.apply(&R::ClockAdvanced { to: 9.5 }).unwrap();
        t.apply(&R::SessionOpened {
            session: session(41),
        })
        .unwrap();
        assert_eq!(floors(&t), (ID + 1, 42, 9.5));
        t.apply(&R::SessionOpened {
            session: session(3),
        })
        .unwrap();
        t.apply(&R::ClockAdvanced { to: 4.0 }).unwrap();
        assert_eq!(floors(&t), (ID + 1, 42, 9.5), "never lowered");
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
        t.apply(&R::QpuStatusChanged {
            status: "down".into(),
        })
        .unwrap();
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
        assert_eq!((again.sessions.len(), again.sessions[0].task_count), (1, 1));
        assert_eq!(back.floors(), t.floors());
    }
}
