//! The daemon's priority queue of quantum tasks.
//!
//! The second level of scheduling (paper §3.3): tasks from many sessions
//! queue here for the single QPU behind the daemon. Ordering is by priority
//! class with **aging** (long-waiting low-class tasks eventually overtake)
//! so development jobs are never starved, and the paper's preemption model
//! is encoded per task: production tasks are batched (non-divisible);
//! test/development tasks run shot-by-shot and can be preempted at any shot
//! boundary ("non-production jobs configured with a low number of shots and
//! without batched submission").
//!
//! # Data structure
//!
//! The queue is indexed for control-plane throughput: a `HashMap` of task
//! bodies by id, per-`(class, user)` arrival buckets (`BTreeSet` ordered by
//! `(submitted_at, id)`), and a per-session counter. This makes `push`,
//! `remove`/cancel, and the session-quota check O(1)/O(log n), and
//! `peek`/`pop` O(buckets · log n) instead of a full O(n) rank scan.
//!
//! The indexed structure is *bit-for-bit* equivalent to a linear scan with
//! the effective-rank comparator (kept in [`reference`] as the oracle for
//! the differential property test). The argument: within one
//! `(class, user)` bucket, every task shares the same class rank and — at
//! any fixed `now` — the same fair-share penalty, so the effective rank is
//! monotone non-decreasing in `submitted_at` (aging subtracts
//! `(now − submitted_at)/aging_secs`, and the `max(0.0)` floor preserves
//! monotonicity; a NaN/±∞ `now` collapses every member of the bucket to the
//! *same* rank, which is even easier). Ties in rank break by
//! `(submitted_at, id)` — exactly the bucket's ordering key — so the bucket
//! head dominates its whole bucket under the full dispatch comparator, and
//! the global minimum is the best of the bucket heads. The comparator is a
//! strict total order (ids are unique), so the answer is independent of
//! scan order and identical to the reference implementation's `min_by`.

use crate::fairshare::FairshareTracker;
use crate::session::PriorityClass;
use hpcqc_program::ProgramIr;
use hpcqc_scheduler::PatternHint;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A quantum task queued at the daemon.
///
/// The program body lives behind an [`Arc`]: queue snapshots, journal
/// compaction, and dispatch clone task *handles*, never program bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantumTask {
    /// Daemon-assigned id.
    pub id: u64,
    /// Owning session token.
    pub session: String,
    /// Submitting user (denormalized for accounting).
    pub user: String,
    /// Priority class inherited from the session.
    pub class: PriorityClass,
    /// The program (shared, immutable — clones are pointer copies).
    pub ir: Arc<ProgramIr>,
    /// Table-1 pattern hint forwarded from the batch layer (§3.5).
    pub hint: PatternHint,
    /// Submission time on the daemon clock (s).
    pub submitted_at: f64,
}

impl QuantumTask {
    /// Whether this task runs as one indivisible batch on the QPU.
    /// Production batches; lower classes submit shot-by-shot and are
    /// preemptible at shot boundaries.
    pub fn batched(&self) -> bool {
        self.class == PriorityClass::Production
    }
}

/// Queue configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// A waiting task's effective rank improves by one class per
    /// `aging_secs` of waiting (0 disables aging).
    pub aging_secs: f64,
    /// Cap on queued tasks per session (0 = unlimited).
    pub max_tasks_per_session: usize,
    /// Fair-share penalty weight: a user at saturated recent usage is
    /// demoted by up to this many class steps within their class
    /// (0 disables; keep < 1 so fair-share never overrides class priority).
    pub fairshare_weight: f64,
    /// Usage scale (device seconds) at which the fair-share penalty reaches
    /// half its weight.
    pub fairshare_scale_secs: f64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            aging_secs: 3600.0,
            max_tasks_per_session: 0,
            fairshare_weight: 0.9,
            fairshare_scale_secs: 600.0,
        }
    }
}

/// Reasons a push can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    SessionQuotaExceeded {
        session: String,
        limit: usize,
    },
    /// `submitted_at` is NaN or infinite; admitting it would corrupt the
    /// dispatch order for every other queued task.
    NonFiniteTimestamp {
        id: u64,
    },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::SessionQuotaExceeded { session, limit } => {
                write!(f, "session {session} exceeds its queue quota of {limit}")
            }
            QueueError::NonFiniteTimestamp { id } => {
                write!(f, "task {id} has a non-finite submission timestamp")
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// Arrival order within one `(class, user)` bucket: `(submitted_at, id)`
/// under `total_cmp` — the same tie-break the dispatch comparator uses.
/// `Eq`/`Ord` are consistent by construction (`eq` delegates to `cmp`), and
/// `submitted_at` is always finite here (push/restore validate it).
#[derive(Debug, Clone, Copy)]
struct ArrivalKey {
    at: f64,
    id: u64,
}

impl PartialEq for ArrivalKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ArrivalKey {}
impl PartialOrd for ArrivalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ArrivalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.total_cmp(&other.at).then(self.id.cmp(&other.id))
    }
}

/// Memoized dispatch order for [`TaskQueue::position`]: valid for one
/// (epoch, `now`) pair, so a burst of status polls between mutations and
/// charges costs one sort total instead of one sort each.
#[derive(Debug, Default)]
struct OrderCache {
    epoch: u64,
    now_bits: u64,
    position: HashMap<u64, usize>,
}

/// Priority queue with aging and fair-share, indexed by task id, session,
/// and `(class, user)` arrival bucket.
#[derive(Default)]
pub struct TaskQueue {
    /// Task bodies by id.
    tasks: HashMap<u64, QuantumTask>,
    /// Arrival-ordered ids per `(class, user)`.
    buckets: HashMap<(PriorityClass, String), BTreeSet<ArrivalKey>>,
    /// Queued-task count per session (quota checks are O(1)).
    session_counts: HashMap<String, usize>,
    /// Queued production tasks (preemption checks are O(1)).
    production_count: usize,
    /// Bumped on every mutation and every fair-share charge; invalidates
    /// `order_cache`.
    epoch: u64,
    /// Interior mutability because the read-only `position` fills the memo;
    /// the queue lives under the daemon's task-table mutex, so there is no
    /// concurrent borrow to conflict with.
    order_cache: std::cell::RefCell<OrderCache>,
    cfg: QueueConfig,
    /// Recent device usage per user, read by every rank comparison.
    fairshare: FairshareTracker,
}

impl TaskQueue {
    pub fn new(cfg: QueueConfig) -> Self {
        TaskQueue {
            cfg,
            ..TaskQueue::default()
        }
    }

    /// Start from `tracker`'s usage instead of an empty tracker at
    /// [`FAIRSHARE_HALF_LIFE_SECS`](crate::fairshare::FAIRSHARE_HALF_LIFE_SECS).
    pub fn with_fairshare(mut self, tracker: FairshareTracker) -> Self {
        self.fairshare = tracker;
        self
    }

    /// Charge `secs` of device usage to `user` at `now`. The dispatch order
    /// moves with it, so the memoized order is invalidated.
    pub fn charge(&mut self, user: &str, secs: f64, now: f64) {
        self.fairshare.charge(user, secs, now);
        self.epoch += 1;
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Queued tasks held by `session` (the quota counter).
    pub fn session_depth(&self, session: &str) -> usize {
        self.session_counts.get(session).copied().unwrap_or(0)
    }

    fn insert_indexed(&mut self, task: QuantumTask) {
        self.epoch += 1;
        let key = ArrivalKey {
            at: task.submitted_at,
            id: task.id,
        };
        self.buckets
            .entry((task.class, task.user.clone()))
            .or_default()
            .insert(key);
        *self.session_counts.entry(task.session.clone()).or_insert(0) += 1;
        if task.class == PriorityClass::Production {
            self.production_count += 1;
        }
        self.tasks.insert(task.id, task);
    }

    /// Queue a task.
    pub fn push(&mut self, task: QuantumTask) -> Result<(), QueueError> {
        if !task.submitted_at.is_finite() {
            return Err(QueueError::NonFiniteTimestamp { id: task.id });
        }
        self.check_quota(&task.session)?;
        self.insert_indexed(task);
        Ok(())
    }

    /// The admission check [`push`](Self::push) applies and
    /// [`restore`](Self::restore) skips: would one more queued task put
    /// `session` over its quota?
    pub fn check_quota(&self, session: &str) -> Result<(), QueueError> {
        if self.cfg.max_tasks_per_session > 0
            && self.session_depth(session) >= self.cfg.max_tasks_per_session
        {
            return Err(QueueError::SessionQuotaExceeded {
                session: session.to_string(),
                limit: self.cfg.max_tasks_per_session,
            });
        }
        Ok(())
    }

    /// Reinsert a task restored from the journal. The per-session quota is
    /// *not* re-checked — the task was admitted before the restart and
    /// dropping it now would violate durability — but timestamps are still
    /// validated so a corrupt journal cannot poison the dispatch order.
    pub fn restore(&mut self, task: QuantumTask) -> Result<(), QueueError> {
        if !task.submitted_at.is_finite() {
            return Err(QueueError::NonFiniteTimestamp { id: task.id });
        }
        if self.tasks.contains_key(&task.id) {
            return Ok(()); // duplicate snapshot/WAL entry: already queued
        }
        self.insert_indexed(task);
        Ok(())
    }

    /// Effective rank at time `now`: class rank, minus one unit per
    /// `aging_secs` waited (floored at the production rank), plus the
    /// fair-share penalty of the submitting user. Lower is better.
    fn effective_rank(&self, t: &QuantumTask, now: f64) -> f64 {
        let mut rank = t.class.rank() as f64;
        if self.cfg.aging_secs > 0.0 {
            let aged = (now - t.submitted_at) / self.cfg.aging_secs;
            rank = (rank - aged).max(0.0);
        }
        if self.cfg.fairshare_weight > 0.0 {
            let scale = self.cfg.fairshare_scale_secs;
            rank +=
                self.cfg.fairshare_weight * self.fairshare.normalized_usage(&t.user, scale, now);
        }
        rank
    }

    /// The full dispatch comparator: effective rank, then submission time,
    /// then id. A strict total order — ids are unique and `total_cmp` never
    /// panics, so even a corrupted clock merely mis-orders, never crashes.
    fn dispatch_cmp(&self, a: &QuantumTask, b: &QuantumTask, now: f64) -> Ordering {
        self.effective_rank(a, now)
            .total_cmp(&self.effective_rank(b, now))
            .then(a.submitted_at.total_cmp(&b.submitted_at))
            .then(a.id.cmp(&b.id))
    }

    /// Id of the task that would dispatch next at `now`: the best bucket
    /// head (each head dominates its bucket — see the module docs).
    fn best_id(&self, now: f64) -> Option<u64> {
        let mut best: Option<&QuantumTask> = None;
        for heads in self.buckets.values() {
            let Some(head) = heads.first() else { continue };
            let t = &self.tasks[&head.id];
            best = match best {
                None => Some(t),
                Some(b) if self.dispatch_cmp(t, b, now) == Ordering::Less => Some(t),
                keep => keep,
            };
        }
        best.map(|t| t.id)
    }

    /// Peek the task that would run next at time `now`.
    pub fn peek(&self, now: f64) -> Option<&QuantumTask> {
        self.best_id(now).map(|id| &self.tasks[&id])
    }

    /// Remove a task from every index and return its body.
    fn take(&mut self, id: u64) -> Option<QuantumTask> {
        let task = self.tasks.remove(&id)?;
        self.epoch += 1;
        let bucket_key = (task.class, task.user.clone());
        if let Some(heads) = self.buckets.get_mut(&bucket_key) {
            heads.remove(&ArrivalKey {
                at: task.submitted_at,
                id,
            });
            if heads.is_empty() {
                self.buckets.remove(&bucket_key);
            }
        }
        if let Some(n) = self.session_counts.get_mut(&task.session) {
            *n -= 1;
            if *n == 0 {
                self.session_counts.remove(&task.session);
            }
        }
        if task.class == PriorityClass::Production {
            self.production_count -= 1;
        }
        Some(task)
    }

    /// Pop the next task at time `now`.
    pub fn pop(&mut self, now: f64) -> Option<QuantumTask> {
        let id = self.best_id(now)?;
        self.take(id)
    }

    /// Remove a specific queued task (cancellation). O(log n).
    pub fn remove(&mut self, id: u64) -> Option<QuantumTask> {
        self.take(id)
    }

    /// A queued task by id (O(1)).
    pub fn get(&self, id: u64) -> Option<&QuantumTask> {
        self.tasks.get(&id)
    }

    /// Dispatch-order position of task `id` at `now`, or `None` when it is
    /// not queued. The order is memoized per (epoch, `now`) pair, so a burst
    /// of status polls costs one O(n log n) sort, not one each.
    pub fn position(&self, id: u64, now: f64) -> Option<usize> {
        if !self.tasks.contains_key(&id) {
            return None;
        }
        let mut cache = self.order_cache.borrow_mut();
        if cache.epoch != self.epoch || cache.now_bits != now.to_bits() {
            let mut order: Vec<u64> = self.tasks.keys().copied().collect();
            order.sort_by(|&a, &b| self.dispatch_cmp(&self.tasks[&a], &self.tasks[&b], now));
            *cache = OrderCache {
                epoch: self.epoch,
                now_bits: now.to_bits(),
                position: order.into_iter().zip(0usize..).collect(),
            };
        }
        cache.position.get(&id).copied()
    }

    /// Queued tasks in **arbitrary** order — used by snapshot compaction,
    /// which persists the raw set and sorts by arrival itself.
    pub fn iter(&self) -> impl Iterator<Item = &QuantumTask> {
        self.tasks.values()
    }

    /// Does the queue hold a production task that should preempt a running
    /// task of class `running`? True only when a production task is queued
    /// and the running class is lower (the paper's initial implementation:
    /// only production preempts).
    ///
    /// The production count covers the whole queue, not just the dispatch
    /// head: aging can float an old development task to the head while a
    /// production task waits behind it, and that production task must still
    /// preempt.
    pub fn should_preempt(&self, running: PriorityClass, _now: f64) -> bool {
        running != PriorityClass::Production && self.production_count > 0
    }

    /// Snapshot of queued tasks in dispatch order at `now`.
    pub fn snapshot(&self, now: f64) -> Vec<&QuantumTask> {
        let mut v: Vec<&QuantumTask> = self.tasks.values().collect();
        v.sort_by(|a, b| self.dispatch_cmp(a, b, now));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};

    fn ir() -> Arc<ProgramIr> {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        Arc::new(ProgramIr::new(b.build().unwrap(), 100, "test"))
    }

    fn task(id: u64, class: PriorityClass, at: f64) -> QuantumTask {
        QuantumTask {
            id,
            session: format!("sess-{id}"),
            user: "u".into(),
            class,
            ir: ir(),
            hint: PatternHint::None,
            submitted_at: at,
        }
    }

    #[test]
    fn class_order_dominates_fresh_queue() {
        let mut q = TaskQueue::new(QueueConfig::default());
        q.push(task(1, PriorityClass::Development, 0.0)).unwrap();
        q.push(task(2, PriorityClass::Test, 1.0)).unwrap();
        q.push(task(3, PriorityClass::Production, 2.0)).unwrap();
        assert_eq!(q.pop(3.0).unwrap().id, 3);
        assert_eq!(q.pop(3.0).unwrap().id, 2);
        assert_eq!(q.pop(3.0).unwrap().id, 1);
        assert!(q.pop(3.0).is_none());
    }

    #[test]
    fn fifo_within_class() {
        let mut q = TaskQueue::new(QueueConfig::default());
        q.push(task(1, PriorityClass::Test, 5.0)).unwrap();
        q.push(task(2, PriorityClass::Test, 1.0)).unwrap();
        assert_eq!(q.pop(6.0).unwrap().id, 2, "earlier submission first");
    }

    #[test]
    fn aging_promotes_starved_dev_task() {
        let cfg = QueueConfig {
            aging_secs: 100.0,
            max_tasks_per_session: 0,
            ..QueueConfig::default()
        };
        let mut q = TaskQueue::new(cfg);
        q.push(task(1, PriorityClass::Development, 0.0)).unwrap();
        q.push(task(2, PriorityClass::Production, 199.0)).unwrap();
        // at t=199: dev rank = 2 - 1.99 = 0.01, prod = 0 → prod first
        assert_eq!(q.peek(199.0).unwrap().id, 2);
        // at t=250: dev rank = max(0, 2-2.5)=0 ties prod, earlier submit wins
        assert_eq!(q.peek(250.0).unwrap().id, 1, "aged dev task overtakes");
    }

    #[test]
    fn aging_disabled_keeps_strict_classes() {
        let cfg = QueueConfig {
            aging_secs: 0.0,
            max_tasks_per_session: 0,
            ..QueueConfig::default()
        };
        let mut q = TaskQueue::new(cfg);
        q.push(task(1, PriorityClass::Development, 0.0)).unwrap();
        q.push(task(2, PriorityClass::Production, 1e9)).unwrap();
        assert_eq!(q.peek(1e9).unwrap().id, 2);
    }

    #[test]
    fn session_quota_enforced() {
        let cfg = QueueConfig {
            aging_secs: 0.0,
            max_tasks_per_session: 2,
            ..QueueConfig::default()
        };
        let mut q = TaskQueue::new(cfg);
        let mut t1 = task(1, PriorityClass::Test, 0.0);
        let mut t2 = task(2, PriorityClass::Test, 0.0);
        let mut t3 = task(3, PriorityClass::Test, 0.0);
        t1.session = "s".into();
        t2.session = "s".into();
        t3.session = "s".into();
        q.push(t1).unwrap();
        q.push(t2).unwrap();
        assert!(matches!(
            q.push(t3),
            Err(QueueError::SessionQuotaExceeded { limit: 2, .. })
        ));
    }

    #[test]
    fn quota_slot_freed_by_pop_and_remove() {
        let cfg = QueueConfig {
            max_tasks_per_session: 1,
            ..QueueConfig::default()
        };
        let mut q = TaskQueue::new(cfg);
        let mut a = task(1, PriorityClass::Test, 0.0);
        let mut b = task(2, PriorityClass::Test, 1.0);
        a.session = "s".into();
        b.session = "s".into();
        q.push(a.clone()).unwrap();
        assert!(q.push(b.clone()).is_err());
        assert_eq!(q.session_depth("s"), 1);
        q.remove(1).unwrap();
        assert_eq!(q.session_depth("s"), 0);
        q.push(b).unwrap();
        q.pop(2.0).unwrap();
        q.push(a).unwrap();
    }

    #[test]
    fn remove_cancels_queued_task() {
        let mut q = TaskQueue::new(QueueConfig::default());
        q.push(task(1, PriorityClass::Test, 0.0)).unwrap();
        q.push(task(2, PriorityClass::Test, 0.0)).unwrap();
        assert_eq!(q.remove(1).unwrap().id, 1);
        assert!(q.remove(1).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn preemption_only_for_production_over_lower() {
        let mut q = TaskQueue::new(QueueConfig::default());
        q.push(task(1, PriorityClass::Production, 0.0)).unwrap();
        assert!(q.should_preempt(PriorityClass::Development, 1.0));
        assert!(q.should_preempt(PriorityClass::Test, 1.0));
        assert!(!q.should_preempt(PriorityClass::Production, 1.0));
        let mut q2 = TaskQueue::new(QueueConfig::default());
        q2.push(task(1, PriorityClass::Test, 0.0)).unwrap();
        assert!(
            !q2.should_preempt(PriorityClass::Development, 1.0),
            "test does not preempt"
        );
        let q3 = TaskQueue::new(QueueConfig::default());
        assert!(
            !q3.should_preempt(PriorityClass::Development, 1.0),
            "empty queue"
        );
    }

    #[test]
    fn preemption_seen_past_aged_dev_task_at_head() {
        // Regression: aging floats an old development task to the dispatch
        // head (rank floored at 0 ties production, earlier submission wins).
        // A head-only check then reports "nothing to preempt for" even
        // though a production task is waiting right behind it.
        let cfg = QueueConfig {
            aging_secs: 100.0,
            ..QueueConfig::default()
        };
        let mut q = TaskQueue::new(cfg);
        q.push(task(1, PriorityClass::Development, 0.0)).unwrap();
        q.push(task(2, PriorityClass::Production, 250.0)).unwrap();
        assert_eq!(q.peek(250.0).unwrap().id, 1, "aged dev task holds the head");
        assert!(
            q.should_preempt(PriorityClass::Test, 250.0),
            "queued production task must preempt even when masked by an aged dev head"
        );
        assert!(!q.should_preempt(PriorityClass::Production, 250.0));
    }

    #[test]
    fn non_finite_timestamps_rejected_at_push() {
        let mut q = TaskQueue::new(QueueConfig::default());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                q.push(task(1, PriorityClass::Test, bad)),
                Err(QueueError::NonFiniteTimestamp { id: 1 })
            );
        }
        assert!(q.is_empty());
    }

    #[test]
    fn queue_ops_survive_non_finite_now() {
        // even with a corrupted clock, ordering queries must not panic
        let mut q = TaskQueue::new(QueueConfig::default());
        q.push(task(1, PriorityClass::Development, 0.0)).unwrap();
        q.push(task(2, PriorityClass::Production, 1.0)).unwrap();
        for now in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(q.peek(now).is_some());
            assert_eq!(q.snapshot(now).len(), 2);
            assert!(q.position(1, now).is_some());
        }
        assert!(q.pop(f64::NAN).is_some());
    }

    #[test]
    fn batching_follows_class() {
        assert!(task(1, PriorityClass::Production, 0.0).batched());
        assert!(!task(1, PriorityClass::Test, 0.0).batched());
        assert!(!task(1, PriorityClass::Development, 0.0).batched());
    }

    #[test]
    fn snapshot_is_dispatch_order() {
        let mut q = TaskQueue::new(QueueConfig::default());
        q.push(task(1, PriorityClass::Development, 0.0)).unwrap();
        q.push(task(2, PriorityClass::Production, 0.0)).unwrap();
        q.push(task(3, PriorityClass::Test, 0.0)).unwrap();
        let snap: Vec<u64> = q.snapshot(1.0).iter().map(|t| t.id).collect();
        assert_eq!(snap, vec![2, 3, 1]);
    }

    #[test]
    fn position_tracks_dispatch_order_and_mutations() {
        let mut q = TaskQueue::new(QueueConfig::default());
        q.push(task(1, PriorityClass::Development, 0.0)).unwrap();
        q.push(task(2, PriorityClass::Production, 0.0)).unwrap();
        q.push(task(3, PriorityClass::Test, 0.0)).unwrap();
        assert_eq!(q.position(2, 1.0), Some(0));
        assert_eq!(q.position(3, 1.0), Some(1));
        assert_eq!(q.position(1, 1.0), Some(2));
        assert_eq!(q.position(99, 1.0), None);
        // cached order is invalidated by a mutation
        q.remove(2).unwrap();
        assert_eq!(q.position(3, 1.0), Some(0));
        assert_eq!(q.position(1, 1.0), Some(1));
        assert_eq!(q.position(2, 1.0), None);
    }

    #[test]
    fn position_follows_a_fairshare_charge() {
        let mut q = TaskQueue::new(QueueConfig {
            fairshare_weight: 0.9,
            ..QueueConfig::default()
        });
        let (mut a, mut b) = (
            task(1, PriorityClass::Test, 0.0),
            task(2, PriorityClass::Test, 1.0),
        );
        a.user = "a".into();
        b.user = "b".into();
        q.push(a).unwrap();
        q.push(b).unwrap();
        assert_eq!(q.position(1, 5.0), Some(0));
        q.charge("a", 1000.0, 5.0);
        assert_eq!(q.peek(5.0).unwrap().id, 2, "the charge demotes a");
        assert_eq!(q.position(1, 5.0), Some(1), "and position agrees with peek");
    }

    #[test]
    fn restore_is_idempotent_per_id() {
        let mut q = TaskQueue::new(QueueConfig::default());
        let t = task(7, PriorityClass::Test, 1.0);
        q.restore(t.clone()).unwrap();
        q.restore(t).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.session_depth("sess-7"), 1, "no double count");
    }
}
