//! On-disk compatibility of the journal, both ways.
//!
//! `golden_journal/` holds a journal directory (`wal.log` + `snapshot.json`)
//! that the code **before** the task-table refactor (commit 9bca607) wrote
//! by running [`write_history`], plus `recovered_snapshot.json`, the
//! snapshot that same code compacted to when it recovered the directory.
//! The history is deterministic — seeded emulator, simulated clock, scripted
//! failures, single thread — so:
//!
//! * running it again must reproduce the golden files byte for byte (the
//!   `JournalRecord` / `DaemonSnapshot` serde output did not move), and
//! * recovering the golden directory must land on the table the old code
//!   landed on.
//!
//! `cargo test -p hpcqc-middleware --test golden_journal -- --ignored`
//! rewrites the fixture; only ever do that from the parent of a format
//! change.

mod common;

use common::{program, scratch_dir, ScriptedResource};
use hpcqc_middleware::journal::SharedJournal;
use hpcqc_middleware::{
    DaemonConfig, DaemonTaskStatus, JournalConfig, JournalRecord, MiddlewareService, PriorityClass,
};
use hpcqc_qpu::{QpuStatus, VirtualQpu};
use hpcqc_scheduler::PatternHint;
use std::path::{Path, PathBuf};

fn config() -> DaemonConfig {
    DaemonConfig {
        preempt_chunk_shots: 5,
        max_task_retries: 1,
        journal: JournalConfig {
            compact_every: 22,
            ..JournalConfig::default()
        },
        ..DaemonConfig::default()
    }
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_journal")
}

/// Task ids the history hands out, in submission order.
struct Ids {
    a1: u64,
    b1: u64,
    c1: u64,
    c2: u64,
    a2: u64,
    a3: u64,
    b2: u64,
    b3: u64,
    a4: u64,
    a5: u64,
}

/// One run of a journaled daemon that touches every record type, compacts
/// several times, and dies with work queued, sliced, retried and — by a
/// hand-appended `TaskDispatched` — mid-dispatch.
fn write_history(dir: &Path) -> Ids {
    let res = ScriptedResource::new();
    let d = MiddlewareService::recover(dir, res.clone(), config())
        .unwrap()
        .with_qpu_admin(VirtualQpu::new("fresnel-1", 7));
    let alice = d.open_session("alice", PriorityClass::Production).unwrap();
    let bob = d.open_session("bob", PriorityClass::Test).unwrap();
    let carol = d.open_session("carol", PriorityClass::Development).unwrap();
    d.advance_time(5.0);
    let drain = || while d.pump_once().is_some() {};
    let submit = |tok: &str, shots: u32, omega: f64| {
        d.submit(tok, program(shots, omega), PatternHint::None)
            .unwrap()
    };

    // keyed, with an analyzer warning (stale client-side validation)
    let stale = d.device_spec().unwrap().revision + 7;
    let a1 = d
        .submit_with_key(
            &alice,
            program(20, 4.0).with_validation_revision(stale),
            PatternHint::None,
            Some("k-a1"),
        )
        .unwrap();
    // a test-class task runs in slices of 5: two requeues, then completion
    let b1 = submit(&bob, 12, 4.0);
    drain();
    // a development result, then the same program again from the cache
    let c1 = submit(&carol, 10, 3.0);
    drain();
    let c2 = submit(&carol, 10, 3.0);
    // one failed attempt, then success
    let a2 = submit(&alice, 8, 4.0);
    res.fail_next(1);
    drain();
    // two failed attempts: poisoned
    let a3 = submit(&alice, 9, 4.0);
    res.fail_next(2);
    drain();
    let b2 = submit(&bob, 7, 4.0);
    d.cancel(&bob, b2).unwrap();
    d.set_qpu_status(QpuStatus::Maintenance).unwrap();
    d.close_session(&carol).unwrap();
    d.advance_time(2.5);
    // what the crash leaves behind: b3 sliced once, a4 retried once and —
    // by the record appended below — mid-dispatch again, a5 just queued
    let b3 = submit(&bob, 11, 4.0);
    assert_eq!(d.pump_once(), Some(b3));
    let a4 = submit(&alice, 6, 4.0);
    res.fail_next(1);
    assert_eq!(d.pump_once(), Some(a4));
    let a5 = submit(&alice, 5, 4.0);
    let at = d.now();
    drop(d); // crash: no drain, no final snapshot
    SharedJournal::open(dir, JournalConfig::default())
        .unwrap()
        .append(&JournalRecord::TaskDispatched {
            id: a4,
            resource: "emu".into(),
            at,
        })
        .unwrap();
    Ids {
        a1,
        b1,
        c1,
        c2,
        a2,
        a3,
        b2,
        b3,
        a4,
        a5,
    }
}

fn copy_journal(from: &Path, to: &Path) {
    for f in ["wal.log", "snapshot.json"] {
        std::fs::copy(from.join(f), to.join(f)).unwrap();
    }
}

/// Regenerates the fixture. Run only at the commit whose format is the
/// reference (see the module docs).
#[test]
#[ignore = "rewrites the checked-in fixture"]
fn write_golden_fixture() {
    let dir = fixture();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_history(&dir);
    let scratch = scratch_dir("golden-write");
    copy_journal(&dir, &scratch);
    drop(MiddlewareService::recover(&scratch, ScriptedResource::new(), config()).unwrap());
    std::fs::copy(
        scratch.join("snapshot.json"),
        dir.join("recovered_snapshot.json"),
    )
    .unwrap();
}

#[test]
fn the_same_history_writes_the_golden_bytes() {
    let dir = scratch_dir("golden-rewrite");
    write_history(&dir);
    for f in ["wal.log", "snapshot.json"] {
        assert!(
            std::fs::read(dir.join(f)).unwrap() == std::fs::read(fixture().join(f)).unwrap(),
            "{f} written by this code differs from the one the parent wrote"
        );
    }
}

#[test]
fn golden_journal_recovers_to_the_expected_table() {
    // ids are deterministic: take them from a run of the same history
    let ids = write_history(&scratch_dir("golden-ids"));
    let dir = scratch_dir("golden-recover");
    copy_journal(&fixture(), &dir);
    let d = MiddlewareService::recover(&dir, ScriptedResource::new(), config())
        .unwrap()
        .with_qpu_admin(VirtualQpu::new("fresnel-1", 7));

    // recovery compacts at once: the snapshot it wrote is its view of the
    // recovered state, and must be the parent's view to the byte
    assert!(
        std::fs::read(dir.join("snapshot.json")).unwrap()
            == std::fs::read(fixture().join("recovered_snapshot.json")).unwrap(),
        "recovered state differs from what the parent recovered"
    );

    let completed = [
        (ids.a1, 20),
        (ids.b1, 12),
        (ids.c1, 10),
        (ids.c2, 10),
        (ids.a2, 8),
    ];
    for (id, shots) in completed {
        assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.task_result(id).unwrap().shots, shots);
    }
    assert_eq!(
        d.task_result(ids.c1).unwrap(),
        d.task_result(ids.c2).unwrap()
    );
    assert!(matches!(
        d.task_status(ids.a3).unwrap(),
        DaemonTaskStatus::Failed(_)
    ));
    assert_eq!(d.task_status(ids.b2).unwrap(), DaemonTaskStatus::Cancelled);
    // production first, by arrival; the sliced test task last
    for (id, position) in [(ids.a4, 0), (ids.a5, 1), (ids.b3, 2)] {
        assert_eq!(
            d.task_status(id).unwrap(),
            DaemonTaskStatus::Queued { position }
        );
    }
    assert_eq!(d.queue_depth(), 3);
    assert_eq!(d.excluded_resources(ids.a4), vec!["emu".to_string()]);
    assert!(d.excluded_resources(ids.a5).is_empty());
    assert!(d
        .task_warnings(ids.a1)
        .unwrap()
        .iter()
        .any(|w| w.contains("HQ0701")));
    assert_eq!(d.qpu_status(), Some(QpuStatus::Maintenance));
    let text = d.metrics_text();
    assert!(text.contains("daemon_recovery_requeued_total 1"), "{text}");
    assert!(!text.contains("journal_replay_illegal_total"), "{text}");
    let sessions = d.list_sessions();
    assert_eq!(sessions.len(), 2, "carol closed hers");
    // the journaled key still deduplicates
    let again = d
        .submit_with_key(
            &sessions[0].token,
            program(20, 4.0),
            PatternHint::None,
            Some("k-a1"),
        )
        .unwrap();
    assert_eq!(again, ids.a1);
    d.pump();
    for id in [ids.a4, ids.a5, ids.b3] {
        assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Completed);
    }
}
