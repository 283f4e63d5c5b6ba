//! The execution loop: claim the head of the queue, run it through QRMI,
//! apply the outcome — and the background dispatcher thread around it.

use super::{DaemonHealth, MiddlewareService};
use crate::journal::JournalRecord;
use crate::session::PriorityClass;
use crate::taskqueue::QuantumTask;
use hpcqc_emulator::SampleResult;
use hpcqc_program::ProgramIr;
use hpcqc_qrmi::QuantumResource;
use hpcqc_telemetry::{catalog, labels};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Tasks run per `dispatch_lock` hold by [`MiddlewareService::pump`] and the
/// background dispatcher.
const PUMP_BATCH: usize = 16;

impl MiddlewareService {
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
            self.registry.observe(
                &catalog::DAEMON_TASK_WAIT_SECONDS,
                labels(&[("class", class)]),
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
                // only a sliced task has earlier slices to merge with
                let result = match done {
                    0 => last,
                    _ => self.tasks.lock().merged_result(id, last),
                };
                // cached before the task reads Completed, so a resubmit
                // that saw it complete is a hit
                if self.cfg.cache_dev_results && task.class == PriorityClass::Development {
                    let key = task.ir.fingerprint();
                    self.dev_cache.lock().insert(key, result.clone());
                }
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
        let outcome = match &rec {
            JournalRecord::TaskFailed { .. } => Some(&catalog::DAEMON_TASKS_POISONED),
            JournalRecord::TaskAttemptFailed { .. } => Some(&catalog::DAEMON_TASK_REQUEUES),
            JournalRecord::TaskCompleted { .. } => Some(&catalog::DAEMON_TASKS_COMPLETED),
            _ if preempted => Some(&catalog::DAEMON_PREEMPTIONS),
            _ => None,
        };
        if let Some(counter) = outcome {
            self.count_class(counter, task.class);
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
    /// advancing the daemon clock by the execution time. A panicking
    /// resource fails the attempt; its lease is still released.
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
        let run = || hpcqc_qrmi::run_to_completion(res.as_ref(), &lease, &ir, 10_000);
        let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(out) => out.map_err(|e| e.to_string()),
            Err(_) => {
                self.count(&catalog::DAEMON_DISPATCHER_PANICS, 1);
                Err(format!("resource {} panicked", res.resource_id()))
            }
        };
        res.release(&lease).map_err(|e| e.to_string())?;
        if let Ok(r) = &out {
            self.advance_clock(r.execution_secs);
            if let Some(f) = &self.fairshare {
                f.charge(&task.user, r.execution_secs, self.now());
            }
            self.registry.inc(
                &catalog::DAEMON_QPU_BUSY_SECONDS,
                labels(&[("class", task.class.as_str())]),
                r.execution_secs,
            );
        }
        out
    }

    /// Drain the queue completely in batches of [`PUMP_BATCH`]. Returns the
    /// number of dispatches.
    pub fn pump(&self) -> usize {
        let mut n = 0;
        loop {
            let k = self.pump_batch(PUMP_BATCH);
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
    ///
    /// The thread does not poll: a submit wakes it (see [`WakeSignal`]), so
    /// `idle_poll` is no latency floor. It is the idle housekeeping interval
    /// — how often a quiescent daemon makes a buffered group-commit batch
    /// durable ([`sync_journal`](Self::sync_journal)) and expires idle
    /// sessions — and the upper bound on a wake-up nothing signalled.
    pub fn spawn_dispatcher(self: &Arc<Self>, idle_poll: std::time::Duration) -> DispatcherHandle {
        let svc = Arc::clone(self);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            loop {
                // Read before the stop check and the pump, never after:
                // a stop, or a submit landing once the pump has seen an
                // empty queue, has then already moved the epoch past
                // `seen`, so the wait below returns at once.
                let seen = svc.wake.epoch();
                if stop2.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                // A panic outside `run_shots`' QRMI call must not kill the
                // dispatcher: the queue would silently stop draining while
                // submissions kept succeeding.
                let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    svc.pump_batch(PUMP_BATCH)
                }));
                match pumped {
                    Ok(0) => {
                        // quiescent: make any buffered group-commit batch
                        // durable before parking
                        svc.sync_journal();
                        svc.wake.wait_past(seen, idle_poll);
                    }
                    Ok(_) => {}
                    Err(_) => {
                        svc.count(&catalog::DAEMON_DISPATCHER_PANICS, 1);
                        // back off briefly, and not on the signal: a
                        // deterministic panic loop fed by a busy submitter
                        // must not spin a core
                        std::thread::sleep(idle_poll);
                    }
                }
            }
        });
        DispatcherHandle {
            svc: Arc::clone(self),
            stop,
            thread: Some(thread),
        }
    }
}

/// The admit → dispatch hand-off: `submit_batch` raises it once its records
/// are journaled, the idle dispatcher waits on it instead of sleeping.
///
/// A plain `std` mutex, deliberately outside the ranked lock hierarchy like
/// `SharedJournal::seq`: it guards only these two words, nothing is acquired
/// under it, and the waiter holds no tracked lock while blocked.
#[derive(Default)]
pub(super) struct WakeSignal {
    state: std::sync::Mutex<WakeState>,
    cv: std::sync::Condvar,
}

#[derive(Default)]
struct WakeState {
    /// Bumped by every [`WakeSignal::raise`].
    epoch: u64,
    /// Dispatcher threads blocked in [`WakeSignal::wait_past`].
    parked: usize,
}

impl WakeSignal {
    fn lock(&self) -> std::sync::MutexGuard<'_, WakeState> {
        // both fields are valid after any partial update
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Dispatchers blocked right now: lets a test order itself after the
    /// park instead of sleeping and hoping.
    #[cfg(test)]
    pub(super) fn parked(&self) -> usize {
        self.lock().parked
    }

    /// Tell the dispatcher there may be work. The notify (a futex syscall)
    /// is paid only when a dispatcher is parked, so a saturated daemon's
    /// submit path pays one uncontended lock and nothing else.
    pub(super) fn raise(&self) {
        let mut s = self.lock();
        s.epoch += 1;
        if s.parked > 0 {
            self.cv.notify_all();
        }
    }

    /// Block until the epoch has moved past `seen` or `timeout` has elapsed.
    fn wait_past(&self, seen: u64, timeout: std::time::Duration) {
        let mut s = self.lock();
        s.parked += 1;
        let (mut s, _) = self
            .cv
            .wait_timeout_while(s, timeout, |s| s.epoch == seen)
            .unwrap_or_else(|e| e.into_inner());
        s.parked -= 1;
    }
}

/// Stops the background dispatcher thread when dropped.
pub struct DispatcherHandle {
    svc: Arc<MiddlewareService>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for DispatcherHandle {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        // a parked dispatcher re-reads `stop` now, not an interval from now
        self.svc.wake.raise();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
