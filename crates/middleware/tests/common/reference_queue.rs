//! The original linear-scan queue, kept verbatim as the semantic oracle for
//! the differential property test (`properties.rs`): the indexed
//! [`TaskQueue`](hpcqc_middleware::TaskQueue) must produce identical pop
//! order, quota errors, and fair-share demotions over arbitrary
//! interleavings and clocks.

use hpcqc_middleware::{FairshareTracker, PriorityClass, QuantumTask, QueueConfig, QueueError};

/// Linear-scan priority queue with aging and optional fair-share.
#[derive(Default)]
pub struct ReferenceTaskQueue {
    tasks: Vec<QuantumTask>,
    cfg: QueueConfig,
    fairshare: Option<FairshareTracker>,
}

impl ReferenceTaskQueue {
    pub fn new(cfg: QueueConfig) -> Self {
        ReferenceTaskQueue {
            tasks: Vec::new(),
            cfg,
            fairshare: None,
        }
    }

    pub fn with_fairshare(mut self, tracker: FairshareTracker) -> Self {
        self.fairshare = Some(tracker);
        self
    }

    /// Charge `user`'s fair share, as `TaskQueue::charge` does.
    pub fn charge(&mut self, user: &str, secs: f64, now: f64) {
        if let Some(f) = &mut self.fairshare {
            f.charge(user, secs, now);
        }
    }

    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn push(&mut self, task: QuantumTask) -> Result<(), QueueError> {
        if !task.submitted_at.is_finite() {
            return Err(QueueError::NonFiniteTimestamp { id: task.id });
        }
        if self.cfg.max_tasks_per_session > 0 {
            let held = self
                .tasks
                .iter()
                .filter(|t| t.session == task.session)
                .count();
            if held >= self.cfg.max_tasks_per_session {
                return Err(QueueError::SessionQuotaExceeded {
                    session: task.session.clone(),
                    limit: self.cfg.max_tasks_per_session,
                });
            }
        }
        self.tasks.push(task);
        Ok(())
    }

    fn effective_rank(&self, t: &QuantumTask, now: f64) -> f64 {
        let mut rank = t.class.rank() as f64;
        if self.cfg.aging_secs > 0.0 {
            let aged = (now - t.submitted_at) / self.cfg.aging_secs;
            rank = (rank - aged).max(0.0);
        }
        if let Some(f) = &self.fairshare {
            if self.cfg.fairshare_weight > 0.0 {
                rank += self.cfg.fairshare_weight
                    * f.normalized_usage(&t.user, self.cfg.fairshare_scale_secs, now);
            }
        }
        rank
    }

    pub fn peek(&self, now: f64) -> Option<&QuantumTask> {
        self.tasks.iter().min_by(|a, b| {
            self.effective_rank(a, now)
                .total_cmp(&self.effective_rank(b, now))
                .then(a.submitted_at.total_cmp(&b.submitted_at))
                .then(a.id.cmp(&b.id))
        })
    }

    pub fn pop(&mut self, now: f64) -> Option<QuantumTask> {
        let id = self.peek(now)?.id;
        let idx = self
            .tasks
            .iter()
            .position(|t| t.id == id)
            .expect("peeked task exists");
        Some(self.tasks.remove(idx))
    }

    pub fn remove(&mut self, id: u64) -> Option<QuantumTask> {
        let idx = self.tasks.iter().position(|t| t.id == id)?;
        Some(self.tasks.remove(idx))
    }

    pub fn should_preempt(&self, running: PriorityClass, _now: f64) -> bool {
        running != PriorityClass::Production
            && self
                .tasks
                .iter()
                .any(|t| t.class == PriorityClass::Production)
    }

    pub fn snapshot(&self, now: f64) -> Vec<&QuantumTask> {
        let mut v: Vec<&QuantumTask> = self.tasks.iter().collect();
        v.sort_by(|a, b| {
            self.effective_rank(a, now)
                .total_cmp(&self.effective_rank(b, now))
                .then(a.submitted_at.total_cmp(&b.submitted_at))
                .then(a.id.cmp(&b.id))
        });
        v
    }
}
