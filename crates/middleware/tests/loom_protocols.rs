//! Loom models of the middleware's core concurrency protocols.
//!
//! Each protocol is modeled twice: the shipped design (explored exhaustively
//! under the preemption bound — must hold on every schedule) and a
//! deliberately buggy variant that drops one ordering guarantee (the checker
//! must find a failing schedule and print a replayable seed). The buggy
//! variants are the regression teeth: if the shim's exploration ever stops
//! finding these injected bugs, these tests fail.
//!
//! The six models mirror `daemon/` / `tasks.rs` / `journal.rs` / `server.rs` shapes but use
//! loom's types directly — the production `TrackedMutex` wraps parking_lot,
//! which the model checker cannot schedule. Keeping the protocol skeletons
//! in sync with the real code is the point of DESIGN.md §14's table.

use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run a model expected to fail; return the checker's panic message.
fn failure_message(f: impl Fn() + Send + Sync + 'static) -> String {
    let err = catch_unwind(AssertUnwindSafe(move || loom::model(f)))
        .expect_err("model should have failed");
    err.downcast_ref::<String>()
        .cloned()
        .expect("string panic payload")
}

// ---------------------------------------------------------------------------
// Protocol 1: group-commit lock coupling (journal.rs `SharedJournal::commit`
// and `compact`).
//
// The thread that takes a batch out of the buffer locks the WAL file *before*
// it unlocks the buffer, and only then does the (slow, fsyncing) write under
// the file lock alone. Whoever takes the next batch — or compacts, which
// clears the buffer and then cuts the file — queues on the file lock behind
// it, so file order equals buffer order and a batch taken before a cut is
// written before that cut. The buggy variant unlocks the buffer first.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct CoupledBuf {
    /// Appends so far; a record's number is its place in append order.
    next: u64,
    /// Records buffered, not yet taken.
    records: Vec<u64>,
    /// First append number the last compaction's snapshot does *not* cover.
    cut_at: u64,
}

struct CoupledJournal {
    /// `BufState`.
    buf: Mutex<CoupledBuf>,
    /// `FileState`: the records in the WAL, in byte order.
    wal: Mutex<Vec<u64>>,
}

impl CoupledJournal {
    /// `append` tripping a batch, then `commit`.
    fn append(&self, coupled: bool) {
        let mut b = self.buf.lock().unwrap();
        let n = b.next;
        b.next += 1;
        b.records.push(n);
        let batch = std::mem::take(&mut b.records);
        if coupled {
            let mut f = self.wal.lock().unwrap();
            drop(b);
            f.extend(batch);
        } else {
            // Injected bug: the buffer lock is gone before the file lock is
            // held, so a later batch — or a compaction — can get in between.
            drop(b);
            self.wal.lock().unwrap().extend(batch);
        }
    }

    /// `compact`: clear the buffer, then cut the file, holding both.
    fn compact(&self) {
        let mut b = self.buf.lock().unwrap();
        b.records.clear();
        b.cut_at = b.next;
        self.wal.lock().unwrap().clear();
    }
}

fn coupling_model(
    writers: usize,
    compactor: bool,
    coupled: bool,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let j = Arc::new(CoupledJournal {
            buf: Mutex::new(CoupledBuf::default()),
            wal: Mutex::new(Vec::new()),
        });
        let handles: Vec<_> = (0..writers)
            .map(|_| {
                let j = Arc::clone(&j);
                thread::spawn(move || j.append(coupled))
            })
            .collect();
        if compactor {
            j.compact();
        }
        for h in handles {
            h.join().unwrap();
        }
        let wal = j.wal.lock().unwrap().clone();
        assert!(
            wal.windows(2).all(|w| w[0] < w[1]),
            "WAL byte order must equal append order: {wal:?}"
        );
        let cut_at = j.buf.lock().unwrap().cut_at;
        assert!(
            wal.iter().all(|&n| n >= cut_at),
            "a batch taken before the cut resurfaced in the fresh WAL: {wal:?}"
        );
    }
}

#[test]
fn lock_coupling_keeps_wal_in_append_order_across_a_compaction() {
    // Three threads: at the default bound of 3 this model alone takes about
    // a second. Both ways to break it (the twins below) need one preemption.
    let mut bounded = loom::model::Builder::new();
    bounded.preemption_bound = Some(2);
    bounded.check(coupling_model(2, true, true));
}

#[test]
fn unlocking_buf_before_locking_file_reorders_the_wal() {
    let msg = failure_message(coupling_model(2, false, false));
    assert!(msg.contains("WAL byte order"), "unexpected failure: {msg}");
    assert!(msg.contains("LOOM_REPLAY"), "missing replay seed: {msg}");
}

#[test]
fn unlocking_buf_before_locking_file_lets_a_cut_batch_resurface() {
    let msg = failure_message(coupling_model(1, true, false));
    assert!(msg.contains("resurfaced"), "unexpected failure: {msg}");
    assert!(msg.contains("LOOM_REPLAY"), "missing replay seed: {msg}");
}

// ---------------------------------------------------------------------------
// Protocol 2: the dispatcher's claim vs cancel + snapshot (daemon/dispatch.rs,
// tasks.rs).
//
// A claim is `TaskTable::apply(TaskDispatched)`: one hold of the task-table
// lock takes the task out of the queue *and* records it as running, and the
// requeue after a slice or a failed attempt is one hold the other way. No
// observer — cancel or the journal snapshot — can see the task in neither
// place or in both. The buggy variant moves the task in two holds, which is
// what any claim written outside `apply` would do.
// ---------------------------------------------------------------------------

struct Table {
    queue: Vec<u64>,
    running: Vec<u64>,
}

struct MiniTable {
    tasks: Mutex<Table>,
}

impl MiniTable {
    fn new(task: u64) -> Self {
        MiniTable {
            tasks: Mutex::new(Table {
                queue: vec![task],
                running: Vec::new(),
            }),
        }
    }

    /// Claim then immediately requeue (a slice/transient-failure round trip),
    /// each move under one hold, as the daemon does.
    fn claim_and_requeue_atomic(&self) {
        {
            let mut t = self.tasks.lock().unwrap();
            match t.queue.pop() {
                Some(task) => t.running.push(task),
                None => return, // cancelled before we claimed it
            }
        }
        let mut t = self.tasks.lock().unwrap();
        if let Some(task) = t.running.pop() {
            t.queue.push(task);
        }
    }

    /// Injected bug: take the task out of the queue in one hold and record
    /// it as running in the next — a window where it is in *neither* place.
    fn claim_and_requeue_windowed(&self) {
        let taken = self.tasks.lock().unwrap().queue.pop();
        let Some(task) = taken else { return };
        self.tasks.lock().unwrap().running.push(task);
        let taken = self.tasks.lock().unwrap().running.pop();
        if let Some(task) = taken {
            self.tasks.lock().unwrap().queue.push(task);
        }
    }

    /// Cancel: remove from the queue if still queued (running tasks report
    /// "not queued" to the caller — they cannot be yanked mid-run).
    fn cancel(&self, task: u64) -> bool {
        let mut t = self.tasks.lock().unwrap();
        match t.queue.iter().position(|&q| q == task) {
            Some(i) => {
                t.queue.remove(i);
                true
            }
            None => false,
        }
    }

    /// Snapshot: queued plus running, one hold, like `snapshot_state`.
    fn snapshot_count(&self, task: u64) -> usize {
        let t = self.tasks.lock().unwrap();
        t.queue
            .iter()
            .chain(&t.running)
            .filter(|&&q| q == task)
            .count()
    }
}

fn claim_model(atomic: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let q = Arc::new(MiniTable::new(1));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || {
            if atomic {
                q2.claim_and_requeue_atomic()
            } else {
                q2.claim_and_requeue_windowed()
            }
        });
        let cancelled = q.cancel(1);
        let seen = q.snapshot_count(1);
        h.join().unwrap();
        if cancelled {
            // the claim thread found an empty queue and backed off; gone
            assert_eq!(
                q.snapshot_count(1),
                0,
                "cancelled task resurfaced after requeue"
            );
        } else {
            assert_eq!(seen, 1, "uncancelled task invisible to the snapshot");
        }
    }
}

#[test]
fn claimed_task_is_always_visible_to_cancel_and_snapshot() {
    loom::model(claim_model(true));
}

#[test]
fn claim_window_losing_the_task_is_caught() {
    let msg = failure_message(claim_model(false));
    assert!(
        msg.contains("invisible to the snapshot") || msg.contains("resurfaced"),
        "unexpected failure: {msg}"
    );
    assert!(msg.contains("LOOM_REPLAY"), "missing replay seed: {msg}");
}

// ---------------------------------------------------------------------------
// Protocol 3: server slab generation tokens vs connection shutdown
// (server.rs event loop).
//
// Worker completions carry (slot index, generation). The event loop only
// delivers a completion if the slot's current generation matches — a slot
// freed by shutdown and reused by a new connection must never receive a
// stale response. The buggy variant skips the generation check.
// ---------------------------------------------------------------------------

struct Slab {
    /// One slot: (current generation, responses delivered to that conn).
    slot: Mutex<(u64, Vec<&'static str>)>,
}

fn slab_model(check_generation: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let s = Arc::new(Slab {
            slot: Mutex::new((1, Vec::new())), // conn A lives at generation 1
        });
        let s2 = Arc::clone(&s);
        // Worker finishes conn A's request and posts completion (slot 0, gen 1).
        let h = thread::spawn(move || {
            let mut slot = s2.slot.lock().unwrap();
            if !check_generation || slot.0 == 1 {
                slot.1.push("response-for-A");
            }
        });
        // Event loop: conn A hangs up; slot is reused by conn B (gen 2).
        {
            let mut slot = s.slot.lock().unwrap();
            slot.0 = 2;
            slot.1.clear();
        }
        h.join().unwrap();
        let slot = s.slot.lock().unwrap();
        assert!(
            !slot.1.contains(&"response-for-A"),
            "stale completion delivered to the connection that reused the slot"
        );
    }
}

#[test]
fn slab_generation_tokens_drop_stale_completions() {
    loom::model(slab_model(true));
}

#[test]
fn missing_generation_check_is_caught() {
    let msg = failure_message(slab_model(false));
    assert!(
        msg.contains("stale completion"),
        "unexpected failure: {msg}"
    );
    assert!(msg.contains("LOOM_REPLAY"), "missing replay seed: {msg}");
}

// ---------------------------------------------------------------------------
// Protocol 4: ship → ack → promote (journal.rs `FollowerReplica` + daemon.rs
// `promote`).
//
// The follower applies a shipped event to durable storage *before* the ack
// is published: an acknowledgement is a durability promise, and promotion
// trusts it — `promote` reads the last-acked bar and refuses any replica
// whose applied cursor is behind it. If acks could be published before the
// apply landed, a leader crash in that window would lose an event every
// survivor believes is safe.
// ---------------------------------------------------------------------------

struct ShipState {
    /// The follower's durable WAL cursor (`FollowerReplica::apply` has
    /// written and fsynced up to here).
    applied: Mutex<u64>,
    /// The acknowledgement bar visible to the coordinator
    /// (`SharedJournal::ship_ack` → `MiddlewareService::last_acked`).
    acked: Mutex<u64>,
}

fn ship_ack_model(apply_before_ack: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let s = Arc::new(ShipState {
            applied: Mutex::new(0),
            acked: Mutex::new(0),
        });
        let shipper = Arc::clone(&s);
        let h = thread::spawn(move || {
            for seq in 1..=2u64 {
                if apply_before_ack {
                    *shipper.applied.lock().unwrap() = seq;
                    *shipper.acked.lock().unwrap() = seq;
                } else {
                    // Injected bug: the ack races ahead of the durable
                    // apply — the coordinator can now believe in an event
                    // no replica holds.
                    *shipper.acked.lock().unwrap() = seq;
                    *shipper.applied.lock().unwrap() = seq;
                }
            }
        });
        // The promoter races the shipping pump: capture the bar, then read
        // the candidate's cursor — exactly `promote`'s refusal check.
        let bar = *s.acked.lock().unwrap();
        let cursor = *s.applied.lock().unwrap();
        assert!(
            cursor >= bar,
            "acked event must already be durable on the follower"
        );
        h.join().unwrap();
    }
}

#[test]
fn ack_implies_durable_apply_under_promotion_race() {
    loom::model(ship_ack_model(true));
}

#[test]
fn ack_racing_ahead_of_apply_is_caught() {
    let msg = failure_message(ship_ack_model(false));
    assert!(
        msg.contains("durable on the follower"),
        "unexpected failure: {msg}"
    );
    assert!(msg.contains("LOOM_REPLAY"), "missing replay seed: {msg}");
}

// ---------------------------------------------------------------------------
// Protocol 5: admit → dispatch wake-up (daemon/dispatch.rs `WakeSignal`,
// raised by daemon/admission.rs `submit_batch`).
//
// A submit that races the dispatcher going idle is never slept on. The
// submitter makes the task visible first (push under the table lock), then
// bumps the epoch and — only if a dispatcher is parked — notifies, in one
// hold of the signal mutex. The dispatcher reads the epoch *before* it looks
// at the queue and parks only while the epoch is still the one it read. The
// real wait is timed; the model's is not, so a lost wake-up is the checker's
// deadlock report instead of an `idle_poll` of latency nobody would notice.
// ---------------------------------------------------------------------------

struct WakeModel {
    /// The task table's queue.
    queue: Mutex<Vec<u64>>,
    /// `WakeState`: (epoch, a dispatcher is parked).
    wake: Mutex<(u64, bool)>,
    cv: Condvar,
}

#[derive(Clone, Copy, PartialEq)]
enum WakeBug {
    None,
    /// The dispatcher reads the epoch after the pump came back empty: a
    /// submit landing between the two is already part of the epoch it then
    /// waits on.
    EpochReadAfterPump,
    /// "Notify only when parked" done wrong: the submitter looks at the
    /// parked flag in one hold and bumps the epoch in the next, and the
    /// dispatcher parks in between.
    ParkedReadOutsideTheBump,
}

impl WakeModel {
    /// `submit_batch`: admit under the table lock, then `WakeSignal::raise`.
    fn submit(&self, bug: WakeBug) {
        self.queue.lock().unwrap().push(1);
        if bug == WakeBug::ParkedReadOutsideTheBump {
            let parked = self.wake.lock().unwrap().1;
            self.wake.lock().unwrap().0 += 1;
            if parked {
                self.cv.notify_all();
            }
            return;
        }
        let mut w = self.wake.lock().unwrap();
        w.0 += 1;
        if w.1 {
            self.cv.notify_all();
        }
    }

    /// One turn of the `spawn_dispatcher` loop whose pump may come back
    /// empty, then the pump after the wake-up.
    fn dispatch(&self, bug: WakeBug) -> Option<u64> {
        let mut seen = self.wake.lock().unwrap().0;
        if let Some(task) = self.queue.lock().unwrap().pop() {
            return Some(task);
        }
        if bug == WakeBug::EpochReadAfterPump {
            seen = self.wake.lock().unwrap().0;
        }
        let mut w = self.wake.lock().unwrap();
        w.1 = true;
        while w.0 == seen {
            w = self.cv.wait(w).unwrap();
        }
        w.1 = false;
        drop(w);
        self.queue.lock().unwrap().pop()
    }
}

fn wake_model(bug: WakeBug) -> impl Fn() + Send + Sync + 'static {
    move || {
        let m = Arc::new(WakeModel {
            queue: Mutex::new(Vec::new()),
            wake: Mutex::new((0, false)),
            cv: Condvar::new(),
        });
        let m2 = Arc::clone(&m);
        let submitter = thread::spawn(move || m2.submit(bug));
        assert_eq!(
            m.dispatch(bug),
            Some(1),
            "woken dispatcher must find the submitted task"
        );
        submitter.join().unwrap();
    }
}

#[test]
fn submit_racing_the_dispatcher_going_idle_is_never_slept_on() {
    loom::model(wake_model(WakeBug::None));
}

/// The dispatcher parked for good with the task in the queue.
fn assert_lost_wake_up_is_caught(bug: WakeBug) {
    let msg = failure_message(wake_model(bug));
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
    assert!(msg.contains("LOOM_REPLAY"), "missing replay seed: {msg}");
}

#[test]
fn epoch_read_after_the_empty_pump_is_caught() {
    assert_lost_wake_up_is_caught(WakeBug::EpochReadAfterPump);
}

#[test]
fn parked_flag_read_outside_the_epoch_bump_is_caught() {
    assert_lost_wake_up_is_caught(WakeBug::ParkedReadOutsideTheBump);
}

// ---------------------------------------------------------------------------
// Protocol 6: a task and its session charge move together (tasks.rs
// `TaskTable::apply`, daemon/admission.rs `submit_batch`,
// daemon/recovery.rs `snapshot_state`).
//
// Admission applies `TaskSubmitted` under one hold of the table, and that
// same `apply` charges the task to its session; the compaction snapshot
// reads tasks and sessions in one hold too. So a snapshot never holds a
// task without its charge — a loss replay could not repair, because a
// `TaskSubmitted` the snapshot already holds is a no-op. The buggy twin
// charges the session after the table hold, under a lock of its own, and
// the snapshot reads the two locks one after the other.
// ---------------------------------------------------------------------------

struct ChargeModel {
    /// The task table's ids and, in the shipped design, the session's
    /// charge beside them.
    table: Mutex<(Vec<u64>, u64)>,
    /// The twin's session lock, holding the charge.
    sessions: Mutex<u64>,
}

fn charge_model(one_hold: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let m = Arc::new(ChargeModel {
            table: Mutex::new((Vec::new(), 0)),
            sessions: Mutex::new(0),
        });
        let m2 = Arc::clone(&m);
        let submitter = thread::spawn(move || {
            if one_hold {
                let mut t = m2.table.lock().unwrap();
                t.0.push(1);
                t.1 += 1;
            } else {
                // Injected bug: the charge lands after the table hold.
                m2.table.lock().unwrap().0.push(1);
                *m2.sessions.lock().unwrap() += 1;
            }
        });
        let (tasks, charge) = if one_hold {
            let t = m.table.lock().unwrap();
            (t.0.len() as u64, t.1)
        } else {
            let charge = *m.sessions.lock().unwrap();
            (m.table.lock().unwrap().0.len() as u64, charge)
        };
        assert_eq!(
            tasks, charge,
            "a snapshot holds a task without its session charge"
        );
        submitter.join().unwrap();
    }
}

#[test]
fn snapshot_sees_a_task_and_its_session_charge_together() {
    loom::model(charge_model(true));
}

#[test]
fn charging_the_session_after_the_table_hold_is_caught() {
    let msg = failure_message(charge_model(false));
    assert!(
        msg.contains("without its session charge"),
        "unexpected failure: {msg}"
    );
    assert!(msg.contains("LOOM_REPLAY"), "missing replay seed: {msg}");
}
