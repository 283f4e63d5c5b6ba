use super::*;
use crate::journal::{DaemonSnapshot, Journal};
use crate::taskqueue::QuantumTask;
use hpcqc_emulator::{SampleResult, SvBackend};
use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qrmi::{LocalEmulatorResource, QpuDirectResource};
use hpcqc_scheduler::PatternHint;
use std::path::Path;

fn ir(shots: u32) -> ProgramIr {
    let reg = Register::linear(2, 6.0).unwrap();
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
    ProgramIr::new(b.build().unwrap(), shots, "test")
}

fn emu_daemon(cfg: DaemonConfig) -> MiddlewareService {
    let res = Arc::new(LocalEmulatorResource::new(
        "emu",
        Arc::new(SvBackend::default()),
        1,
    ));
    MiddlewareService::new(res, cfg)
}

fn qpu_daemon(cfg: DaemonConfig) -> (MiddlewareService, VirtualQpu) {
    let qpu = VirtualQpu::new("fresnel-1", 7);
    let res = Arc::new(QpuDirectResource::new("fresnel-1", qpu.clone(), 1));
    (
        MiddlewareService::new(res, cfg).with_qpu_admin(qpu.clone()),
        qpu,
    )
}

#[test]
fn submit_run_fetch_happy_path() {
    let d = emu_daemon(DaemonConfig::default());
    let tok = d.open_session("alice", PriorityClass::Production).unwrap();
    let id = d.submit(&tok, ir(50), PatternHint::None).unwrap();
    assert!(matches!(
        d.task_status(id).unwrap(),
        DaemonTaskStatus::Queued { .. }
    ));
    d.pump();
    assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Completed);
    let r = d.task_result(id).unwrap();
    assert_eq!(r.shots, 50);
}

#[test]
fn submission_requires_valid_session() {
    let d = emu_daemon(DaemonConfig::default());
    assert!(matches!(
        d.submit("bogus", ir(10), PatternHint::None),
        Err(DaemonError::Session(SessionError::UnknownToken))
    ));
}

#[test]
fn dev_shot_cap_applied() {
    let d = emu_daemon(DaemonConfig {
        dev_shot_cap: 20,
        ..DaemonConfig::default()
    });
    let tok = d.open_session("dev", PriorityClass::Development).unwrap();
    let id = d.submit(&tok, ir(1000), PatternHint::None).unwrap();
    d.pump();
    assert_eq!(
        d.task_result(id).unwrap().shots,
        20,
        "dev capped at 20 shots"
    );
    // production is not capped
    let ptok = d.open_session("prod", PriorityClass::Production).unwrap();
    let pid = d.submit(&ptok, ir(1000), PatternHint::None).unwrap();
    d.pump();
    assert_eq!(d.task_result(pid).unwrap().shots, 1000);
}

#[test]
fn server_side_validation_rejects_bad_program() {
    let reg = Register::linear(2, 1.0).unwrap(); // violates 5 µm min distance
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
    let bad = ProgramIr::new(b.build().unwrap(), 10, "test");
    let reject = |cfg: DaemonConfig| {
        let (d, _) = qpu_daemon(cfg);
        let tok = d.open_session("u", PriorityClass::Test).unwrap();
        match d.submit(&tok, bad.clone(), PatternHint::None) {
            Err(DaemonError::Validation(v)) => (v, d.metrics_text()),
            other => panic!("expected validation error, got {other:?}"),
        }
    };
    let (validator_words, _) = reject(DaemonConfig {
        analyze_on_submit: false,
        ..DaemonConfig::default()
    });
    assert!(
        validator_words[0].starts_with("AtomsTooClose: "),
        "{validator_words:?}"
    );
    // The default config validates once, inside the analyzer: the client
    // reads the same words, and the rejection is now counted as a lint too.
    let (default_words, text) = reject(DaemonConfig::default());
    assert_eq!(default_words, validator_words);
    assert!(text.contains("daemon_tasks_rejected_total{class=\"test\"} 1"));
    assert!(text.contains("daemon_lint_rejections_total{class=\"test\"} 1"));
    assert!(text.contains("analysis_diagnostics_total{code=\"HQ0102\",severity=\"error\"} 1"));
}

#[test]
fn analyzer_rejects_error_diagnostics() {
    // shots exceed the production envelope: `validate()` alone would let
    // this through (it only checks the sequence), but the analyzer's
    // HQ0108 shot-range lint is Error-level and must reject.
    let (d, _) = qpu_daemon(DaemonConfig::default());
    let tok = d.open_session("u", PriorityClass::Production).unwrap();
    match d.submit(&tok, ir(5000), PatternHint::None) {
        Err(DaemonError::Validation(v)) => {
            assert!(v.iter().any(|m| m.contains("HQ0108")), "{v:?}");
        }
        other => panic!("expected validation error, got {other:?}"),
    }
    let text = d.metrics_text();
    assert!(text.contains("daemon_lint_rejections_total{class=\"production\"} 1"));
    assert!(text.contains("analysis_diagnostics_total{code=\"HQ0108\",severity=\"error\"} 1"));
}

#[test]
fn hint_mismatch_recorded_for_mislabeled_pattern() {
    // ~50 s of QPU time vs 1 ms classical: clearly QC-heavy, yet the
    // user declared CC-heavy. The daemon keeps the declared hint but
    // flags the contradiction in metrics and the job record.
    let (d, _) = qpu_daemon(DaemonConfig::default());
    let tok = d.open_session("u", PriorityClass::Production).unwrap();
    let id = d
        .submit(
            &tok,
            ir(50).with_classical_estimate(0.001),
            PatternHint::CcHeavy,
        )
        .unwrap();
    assert!(d
        .metrics_text()
        .contains("daemon_hint_mismatch_total{declared=\"cc-heavy\",inferred=\"qc-heavy\"} 1"));
    let warnings = d.task_warnings(id).unwrap();
    assert!(
        warnings
            .iter()
            .any(|w| w.contains("contradicts inferred 'qc-heavy'")),
        "{warnings:?}"
    );
}

#[test]
fn inferred_hint_adopted_when_undeclared() {
    let (d, _) = qpu_daemon(DaemonConfig::default());
    let tok = d.open_session("u", PriorityClass::Production).unwrap();
    let id = d
        .submit(
            &tok,
            ir(50).with_classical_estimate(1.0e6),
            PatternHint::None,
        )
        .unwrap();
    assert!(d
        .metrics_text()
        .contains("daemon_hint_adopted_total{hint=\"cc-heavy\"} 1"));
    // adoption is silent: no warning recorded for it
    assert_eq!(d.task_warnings(id), Ok(vec![]));
}

#[test]
fn stale_validation_surfaces_warning_and_counter() {
    let (d, _) = qpu_daemon(DaemonConfig::default());
    let tok = d.open_session("u", PriorityClass::Production).unwrap();
    let current = d.device_spec().unwrap().revision;
    let id = d
        .submit(
            &tok,
            ir(50).with_validation_revision(current + 7),
            PatternHint::None,
        )
        .unwrap();
    assert!(d.metrics_text().contains("daemon_stale_validation_total 1"));
    let warnings = d.task_warnings(id).unwrap();
    assert!(
        warnings.iter().any(|w| w.contains("HQ0701")),
        "{warnings:?}"
    );
    // a fresh revision stays quiet
    let id2 = d
        .submit(
            &tok,
            ir(50).with_validation_revision(current),
            PatternHint::None,
        )
        .unwrap();
    assert_eq!(d.task_warnings(id2), Ok(vec![]));
    assert!(d.metrics_text().contains("daemon_stale_validation_total 1"));
}

#[test]
fn priority_order_respected_across_sessions() {
    let d = emu_daemon(DaemonConfig::default());
    let dev = d.open_session("dev", PriorityClass::Development).unwrap();
    let prod = d.open_session("prod", PriorityClass::Production).unwrap();
    let d1 = d.submit(&dev, ir(10), PatternHint::None).unwrap();
    let p1 = d.submit(&prod, ir(10), PatternHint::None).unwrap();
    // production dispatches first even though it queued second
    let first = d.pump_once().unwrap();
    assert_eq!(first, p1);
    let _ = d1;
}

#[test]
fn production_preempts_development_at_shot_boundary() {
    let (d, qpu) = qpu_daemon(DaemonConfig {
        preempt_chunk_shots: 5,
        dev_shot_cap: 50,
        ..DaemonConfig::default()
    });
    let dev = d.open_session("dev", PriorityClass::Development).unwrap();
    let prod = d.open_session("prod", PriorityClass::Production).unwrap();
    let dev_id = d.submit(&dev, ir(50), PatternHint::None).unwrap();
    // dev starts: one 5-shot slice runs
    assert_eq!(d.pump_once().unwrap(), dev_id);
    assert!(matches!(
        d.task_status(dev_id).unwrap(),
        DaemonTaskStatus::Queued { .. }
    ));
    // production arrives mid-flight
    let prod_id = d.submit(&prod, ir(20), PatternHint::None).unwrap();
    // next dispatch must be the production task, not dev's remainder
    assert_eq!(d.pump_once().unwrap(), prod_id);
    assert_eq!(d.task_status(prod_id).unwrap(), DaemonTaskStatus::Completed);
    // dev remainder completes afterwards with all 50 shots accounted
    d.pump();
    assert_eq!(d.task_status(dev_id).unwrap(), DaemonTaskStatus::Completed);
    assert_eq!(d.task_result(dev_id).unwrap().shots, 50);
    let (jobs, shots) = qpu.stats();
    assert!(jobs >= 11, "10 dev slices + 1 prod batch, got {jobs}");
    assert_eq!(shots, 70);
}

#[test]
fn cancel_queued_task_requires_ownership() {
    let d = emu_daemon(DaemonConfig::default());
    let a = d.open_session("a", PriorityClass::Test).unwrap();
    let b = d.open_session("b", PriorityClass::Test).unwrap();
    let id = d.submit(&a, ir(10), PatternHint::None).unwrap();
    assert!(matches!(d.cancel(&b, id), Err(DaemonError::Forbidden(_))));
    d.cancel(&a, id).unwrap();
    assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Cancelled);
    // cancelled task no longer runs
    assert_eq!(d.pump(), 0);
}

#[test]
fn queue_position_reported() {
    let d = emu_daemon(DaemonConfig::default());
    let tok = d.open_session("u", PriorityClass::Test).unwrap();
    let a = d.submit(&tok, ir(10), PatternHint::None).unwrap();
    let b = d.submit(&tok, ir(10), PatternHint::None).unwrap();
    assert_eq!(
        d.task_status(a).unwrap(),
        DaemonTaskStatus::Queued { position: 0 }
    );
    assert_eq!(
        d.task_status(b).unwrap(),
        DaemonTaskStatus::Queued { position: 1 }
    );
    assert_eq!(d.queue_depth(), 2);
}

#[test]
fn admin_surface_requires_device() {
    let d = emu_daemon(DaemonConfig::default());
    assert!(d.qpu_status().is_none());
    assert!(matches!(
        d.recalibrate(60.0),
        Err(DaemonError::Forbidden(_))
    ));
    let (d2, _) = qpu_daemon(DaemonConfig::default());
    assert_eq!(d2.qpu_status(), Some(QpuStatus::Operational));
    d2.set_qpu_status(QpuStatus::Maintenance).unwrap();
    assert_eq!(d2.qpu_status(), Some(QpuStatus::Maintenance));
    d2.recalibrate(60.0).unwrap();
}

#[test]
fn metrics_text_covers_daemon_and_device() {
    let (d, _) = qpu_daemon(DaemonConfig::default());
    let tok = d.open_session("u", PriorityClass::Production).unwrap();
    let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
    d.pump();
    let _ = d.task_result(id).unwrap();
    let text = d.metrics_text();
    assert!(text.contains("daemon_tasks_submitted_total{class=\"production\"} 1"));
    assert!(text.contains("daemon_tasks_completed_total"));
    assert!(text.contains("qpu_jobs_total"), "device metrics merged in");
}

#[test]
fn telemetry_range_exposes_calibration_history() {
    let (d, _) = qpu_daemon(DaemonConfig::default());
    d.advance_time(100.0);
    d.advance_time(100.0);
    let pts = d.telemetry_range("qpu_rabi_scale", 0.0, 1e9);
    assert!(pts.len() >= 2, "calibration history recorded");
}

#[test]
fn background_dispatcher_drains_queue_without_pumping() {
    let d = Arc::new(emu_daemon(DaemonConfig::default()));
    let _dispatcher = d.spawn_dispatcher(std::time::Duration::from_millis(5));
    let tok = d.open_session("bg", PriorityClass::Test).unwrap();
    let id = d.submit(&tok, ir(30), PatternHint::None).unwrap();
    // no pump() calls: the dispatcher thread must complete the task
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match d.task_status(id).unwrap() {
            DaemonTaskStatus::Completed => break,
            DaemonTaskStatus::Failed(m) => panic!("task failed: {m}"),
            _ => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "dispatcher did not finish the task in time"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
    assert_eq!(d.task_result(id).unwrap().shots, 30);
}

#[test]
fn dispatcher_handle_drop_stops_thread() {
    let d = Arc::new(emu_daemon(DaemonConfig::default()));
    let dispatcher = d.spawn_dispatcher(std::time::Duration::from_millis(5));
    drop(dispatcher); // joins the thread; must not hang or panic
                      // after the dispatcher is gone, tasks stay queued until pumped
    let tok = d.open_session("x", PriorityClass::Test).unwrap();
    let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(matches!(
        d.task_status(id).unwrap(),
        DaemonTaskStatus::Queued { .. }
    ));
}

// ---- dispatcher wake-up ----------------------------------------------
//
// The dispatchers below idle for 5 s at a time, so anything these tests
// wait for arrives by wake-up or blows its deadline: a missed wake-up costs
// seconds, not milliseconds.

const LONG_IDLE: std::time::Duration = std::time::Duration::from_secs(5);

/// Start a dispatcher and return once it has found the queue empty and
/// parked.
fn parked_dispatcher(
    d: &Arc<MiddlewareService>,
    idle_poll: std::time::Duration,
) -> DispatcherHandle {
    let handle = d.spawn_dispatcher(idle_poll);
    wait_parked(d);
    handle
}

fn wait_parked(d: &MiddlewareService) {
    while d.wake.parked() == 0 {
        std::thread::yield_now();
    }
}

/// Poll until every task in `ids` is `Completed`; panic after `within`.
fn assert_completed_within(d: &MiddlewareService, ids: &[u64], within: std::time::Duration) {
    let t0 = std::time::Instant::now();
    for &id in ids {
        loop {
            match d.task_status(id).unwrap() {
                DaemonTaskStatus::Completed => break,
                DaemonTaskStatus::Failed(m) => panic!("task {id} failed: {m}"),
                status => assert!(
                    t0.elapsed() < within,
                    "task {id} still {status:?} after {within:?}: the dispatcher slept on it"
                ),
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
}

#[test]
fn submit_wakes_a_parked_dispatcher() {
    let second = std::time::Duration::from_secs(1);
    let d = Arc::new(emu_daemon(DaemonConfig::default()));
    let _dispatcher = parked_dispatcher(&d, LONG_IDLE);
    let tok = d.open_session("prod", PriorityClass::Production).unwrap();
    let id = d.submit(&tok, ir(30), PatternHint::None).unwrap();
    assert_completed_within(&d, &[id], second);

    // one raise per batch wakes it for all sixteen frames
    wait_parked(&d);
    let items = (0..16)
        .map(|k| SubmitItem {
            token: tok.clone(),
            ir: ir(10 + k),
            hint: PatternHint::None,
            idempotency_key: None,
        })
        .collect();
    let ids: Vec<u64> = d
        .submit_batch(items)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_completed_within(&d, &ids, second);

    // a dev-cache hit raises the signal with nothing to dispatch; the miss
    // behind it must not find the dispatcher asleep on a stale epoch
    let dev = d.open_session("dev", PriorityClass::Development).unwrap();
    let miss = d.submit(&dev, ir(20), PatternHint::None).unwrap();
    assert_completed_within(&d, &[miss], second);
    let hit = d.submit(&dev, ir(20), PatternHint::None).unwrap();
    assert_eq!(d.task_status(hit).unwrap(), DaemonTaskStatus::Completed);
    let miss = d.submit(&dev, ir(21), PatternHint::None).unwrap();
    assert_completed_within(&d, &[miss], second);
}

#[test]
fn dropping_the_handle_wakes_a_parked_dispatcher() {
    let d = Arc::new(emu_daemon(DaemonConfig::default()));
    let dispatcher = parked_dispatcher(&d, LONG_IDLE);
    let t0 = std::time::Instant::now();
    drop(dispatcher);
    let took = t0.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "stopping waited out the idle interval: {took:?}"
    );
}

/// Closed-loop submitters land submits on every side of the dispatcher's
/// pump-empty → park transition: each waits for its own task (a task slept
/// on waits out 5 s), then pauses for a staggered 0–1 × what that task took
/// — sub-millisecond in a release build, and still commensurate with the
/// dispatcher's cycle in a debug one. A peer's next submit would rescue a
/// lost wake-up within its pause, so the pauses grow with the thread index:
/// the slowest submitter runs alone at the end, where nobody rescues anything.
#[test]
fn submits_racing_the_park_transition_are_never_slept_on() {
    let dir = journal_dir("wake-vs-park");
    let d = Arc::new(
        MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap(),
    );
    let dispatcher = parked_dispatcher(&d, LONG_IDLE);
    let submitters: Vec<_> = (0..4u32)
        .map(|i| {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                let tok = d
                    .open_session(&format!("user{i}"), PriorityClass::Production)
                    .unwrap();
                for k in 0..200u32 {
                    let t0 = std::time::Instant::now();
                    let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
                    assert_completed_within(&d, &[id], std::time::Duration::from_secs(2));
                    let stagger = (k * 37 + i * 11) % 97;
                    std::thread::sleep(t0.elapsed() * stagger * (i + 1) / 97);
                }
            })
        })
        .collect();
    for t in submitters {
        t.join().unwrap();
    }
    drop(dispatcher);
    d.sync_journal();
    let live = d.snapshot_state();
    assert_eq!(live.completed.len(), 800);
    drop(d);
    let recovered = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default())
        .unwrap()
        .snapshot_state();
    assert_eq!(recovered, live);
}

/// The one job the idle interval keeps: a record no submit announced — a
/// session record deferred into a group-commit batch that never fills —
/// is made durable by the parked dispatcher's timer.
#[test]
fn idle_timer_still_syncs_a_lone_deferred_record() {
    let interval = std::time::Duration::from_millis(400);
    let dir = journal_dir("idle-sync");
    let cfg = DaemonConfig {
        journal: JournalConfig {
            // the batch limit is the smaller of the two
            fsync_every: 8,
            group_max_records: 8,
            ..JournalConfig::default()
        },
        ..DaemonConfig::default()
    };
    let d = Arc::new(MiddlewareService::recover(&dir, emu_resource(), cfg).unwrap());
    let _dispatcher = parked_dispatcher(&d, interval);
    let journal = d.journal.as_ref().unwrap();
    let t0 = std::time::Instant::now();
    d.open_session("lone", PriorityClass::Test).unwrap();
    assert_eq!(
        journal.pending_records(),
        1,
        "deferred, not written through"
    );
    // the count drops to 0 as the batch is taken, a moment before its
    // write lands: wait for the record in the WAL too
    let in_wal = || Journal::load(&dir).unwrap().records.len() == 1;
    while journal.unsynced_appends() > 0 || !in_wal() {
        assert!(
            t0.elapsed() < 2 * interval,
            "the idle timer never synced the buffered record"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn fairshare_demotes_heavy_user_within_class() {
    let (d, _) = qpu_daemon(DaemonConfig {
        queue: QueueConfig {
            aging_secs: 0.0,
            fairshare_weight: 0.9,
            fairshare_scale_secs: 10.0,
            ..QueueConfig::default()
        },
        ..DaemonConfig::default()
    });
    let hog = d.open_session("hog", PriorityClass::Test).unwrap();
    let light = d.open_session("light", PriorityClass::Test).unwrap();
    // the hog burns device time first (1 Hz QPU: 60 shots ≈ 63 s usage)
    let warm = d.submit(&hog, ir(60), PatternHint::None).unwrap();
    d.pump();
    assert_eq!(d.task_status(warm).unwrap(), DaemonTaskStatus::Completed);
    // now both queue a task; the hog submitted FIRST but the light user
    // dispatches first thanks to fair-share
    let hog_task = d.submit(&hog, ir(5), PatternHint::None).unwrap();
    let light_task = d.submit(&light, ir(5), PatternHint::None).unwrap();
    assert_eq!(
        d.pump_once().unwrap(),
        light_task,
        "light user overtakes the hog"
    );
    assert_eq!(d.pump_once().unwrap(), hog_task);
}

#[test]
fn dev_cache_serves_repeated_programs_without_device_time() {
    let (d, qpu) = qpu_daemon(DaemonConfig::default());
    let tok = d.open_session("dev", PriorityClass::Development).unwrap();
    let a = d.submit(&tok, ir(20), PatternHint::None).unwrap();
    d.pump();
    let first = d.task_result(a).unwrap();
    let (jobs_before, shots_before) = qpu.stats();
    // identical program again: served from cache, no new device job
    let b = d.submit(&tok, ir(20), PatternHint::None).unwrap();
    assert_eq!(d.task_status(b).unwrap(), DaemonTaskStatus::Completed);
    assert_eq!(d.task_result(b).unwrap(), first);
    assert_eq!(
        qpu.stats(),
        (jobs_before, shots_before),
        "no extra QPU work"
    );
    assert!(d
        .metrics_text()
        .contains("daemon_dev_cache_hits_total{class=\"development\"} 1"));
    // a different program misses the cache
    let c = d.submit(&tok, ir(21), PatternHint::None).unwrap();
    assert!(matches!(
        d.task_status(c).unwrap(),
        DaemonTaskStatus::Queued { .. }
    ));
}

#[test]
fn production_results_are_never_cached() {
    let (d, qpu) = qpu_daemon(DaemonConfig::default());
    let tok = d.open_session("prod", PriorityClass::Production).unwrap();
    d.submit(&tok, ir(10), PatternHint::None).unwrap();
    d.pump();
    let (jobs1, _) = qpu.stats();
    d.submit(&tok, ir(10), PatternHint::None).unwrap();
    d.pump();
    let (jobs2, _) = qpu.stats();
    assert_eq!(jobs2, jobs1 + 1, "production always re-executes");
}

#[test]
fn sessions_expire_after_ttl() {
    let d = emu_daemon(DaemonConfig {
        session_ttl_secs: 100.0,
        ..DaemonConfig::default()
    });
    let tok = d.open_session("idle", PriorityClass::Test).unwrap();
    d.advance_time(50.0);
    assert!(
        d.submit(&tok, ir(5), PatternHint::None).is_ok(),
        "still fresh"
    );
    d.advance_time(100.0);
    assert!(matches!(
        d.submit(&tok, ir(5), PatternHint::None),
        Err(DaemonError::Session(SessionError::UnknownToken))
    ));
    assert!(d.metrics_text().contains("daemon_sessions_expired_total 1"));
}

mod requeue {
    use super::*;
    use hpcqc_qrmi::{FaultInjector, FaultProfile};

    fn flaky_daemon(profile: FaultProfile, cfg: DaemonConfig) -> MiddlewareService {
        let inner = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        MiddlewareService::new(Arc::new(FaultInjector::new(inner, profile, 23)), cfg)
    }

    #[test]
    fn transient_failures_requeue_until_completion() {
        let d = flaky_daemon(
            FaultProfile {
                task_failure_rate: 0.3,
                ..FaultProfile::none()
            },
            DaemonConfig {
                max_task_retries: 20,
                ..DaemonConfig::default()
            },
        );
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        let ids: Vec<u64> = (0..10)
            .map(|_| d.submit(&tok, ir(20), PatternHint::None).unwrap())
            .collect();
        d.pump();
        for id in &ids {
            assert_eq!(d.task_status(*id).unwrap(), DaemonTaskStatus::Completed);
            assert_eq!(d.task_result(*id).unwrap().shots, 20);
        }
        assert!(
            d.metrics_text()
                .contains("daemon_task_requeues_total{class=\"production\"}"),
            "a 30%-failure resource must cost requeues"
        );
    }

    #[test]
    fn poison_cap_fails_task_permanently() {
        let d = flaky_daemon(
            FaultProfile {
                task_failure_rate: 1.0,
                ..FaultProfile::none()
            },
            DaemonConfig {
                max_task_retries: 2,
                ..DaemonConfig::default()
            },
        );
        let tok = d.open_session("bob", PriorityClass::Production).unwrap();
        let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        assert_eq!(d.pump(), 3, "initial attempt + 2 requeues");
        assert!(matches!(
            d.task_status(id).unwrap(),
            DaemonTaskStatus::Failed(_)
        ));
        let text = d.metrics_text();
        assert!(text.contains("daemon_task_requeues_total{class=\"production\"} 2"));
        assert!(text.contains("daemon_tasks_poisoned_total{class=\"production\"} 1"));
    }

    #[test]
    fn requeued_task_moves_to_alternate_resource() {
        let dead = FaultProfile {
            task_failure_rate: 1.0,
            ..FaultProfile::none()
        };
        let d = flaky_daemon(dead, DaemonConfig::default()).with_alternate_resource(Arc::new(
            LocalEmulatorResource::new("emu-backup", Arc::new(SvBackend::default()), 2),
        ));
        let tok = d.open_session("carol", PriorityClass::Production).unwrap();
        let id = d.submit(&tok, ir(15), PatternHint::None).unwrap();
        d.pump();
        // the primary always fails, so completion proves the second
        // dispatch excluded it and ran on the backup emulator
        assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.task_result(id).unwrap().shots, 15);
        assert!(d.metrics_text().contains("daemon_task_requeues_total"));
    }

    #[test]
    fn exclusion_is_advisory_without_alternates() {
        // every resource (there is only one) has failed once: dispatch
        // must still try the primary instead of starving the task
        let d = flaky_daemon(
            FaultProfile {
                task_failure_rate: 0.6,
                ..FaultProfile::none()
            },
            DaemonConfig {
                max_task_retries: 50,
                ..DaemonConfig::default()
            },
        );
        let tok = d.open_session("dave", PriorityClass::Test).unwrap();
        let id = d.submit(&tok, ir(10), PatternHint::None).unwrap();
        d.pump();
        assert_eq!(d.task_status(id).unwrap(), DaemonTaskStatus::Completed);
    }

    /// Delegates to a real backend, but the first `task_start` fires a
    /// one-shot hook *while the task is in flight* and then fails,
    /// forcing the daemon down the requeue path with whatever state the
    /// hook set up. `execute` holds no queue/session lock across the
    /// resource call, so the hook may call back into the daemon.
    struct MidFlightHookResource<R = LocalEmulatorResource> {
        inner: R,
        hook: std::sync::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl<R: QuantumResource> QuantumResource for MidFlightHookResource<R> {
        fn resource_id(&self) -> &str {
            self.inner.resource_id()
        }
        fn resource_type(&self) -> hpcqc_qrmi::ResourceType {
            self.inner.resource_type()
        }
        fn acquire(&self) -> Result<hpcqc_qrmi::AcquisitionToken, hpcqc_qrmi::QrmiError> {
            self.inner.acquire()
        }
        fn release(
            &self,
            token: &hpcqc_qrmi::AcquisitionToken,
        ) -> Result<(), hpcqc_qrmi::QrmiError> {
            self.inner.release(token)
        }
        fn target(&self) -> Result<DeviceSpec, hpcqc_qrmi::QrmiError> {
            self.inner.target()
        }
        fn task_start(
            &self,
            token: &hpcqc_qrmi::AcquisitionToken,
            ir: &ProgramIr,
        ) -> Result<hpcqc_qrmi::TaskId, hpcqc_qrmi::QrmiError> {
            // take the hook in its own statement: `if let` would hold
            // the guard across `hook()`, and a panicking hook must
            // poison nothing (the hazard this file's tests are about)
            let hook = self.hook.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(hook) = hook {
                hook();
                return Err(hpcqc_qrmi::QrmiError::Backend(
                    "injected mid-flight failure".into(),
                ));
            }
            self.inner.task_start(token, ir)
        }
        fn task_status(
            &self,
            task: &hpcqc_qrmi::TaskId,
        ) -> Result<hpcqc_qrmi::TaskStatus, hpcqc_qrmi::QrmiError> {
            self.inner.task_status(task)
        }
        fn task_stop(&self, task: &hpcqc_qrmi::TaskId) -> Result<(), hpcqc_qrmi::QrmiError> {
            self.inner.task_stop(task)
        }
        fn task_result(
            &self,
            task: &hpcqc_qrmi::TaskId,
        ) -> Result<SampleResult, hpcqc_qrmi::QrmiError> {
            self.inner.task_result(task)
        }
        fn metadata(&self) -> std::collections::BTreeMap<String, String> {
            self.inner.metadata()
        }
    }

    /// Regression test for the requeue/quota panic hazard: a task that
    /// fails mid-flight must be requeued even when other submissions
    /// have exhausted the session quota since it was admitted. The old
    /// path used `queue.push(task).expect(..)` — push re-checks the
    /// quota, so this exact schedule returned `SessionQuotaExceeded`
    /// and panicked the dispatcher. `restore` skips the re-check (the
    /// task was already admitted once).
    #[test]
    fn requeue_of_failed_task_survives_exhausted_session_quota() {
        let res = Arc::new(MidFlightHookResource {
            inner: LocalEmulatorResource::new("emu", Arc::new(SvBackend::default()), 1),
            hook: std::sync::Mutex::new(None),
        });
        let d = Arc::new(MiddlewareService::new(
            res.clone() as Arc<dyn QuantumResource>,
            DaemonConfig {
                queue: QueueConfig {
                    max_tasks_per_session: 1,
                    ..QueueConfig::default()
                },
                ..DaemonConfig::default()
            },
        ));
        let tok = d.open_session("erin", PriorityClass::Production).unwrap();
        let first = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        // While `first` is claimed (in flight, not counted against the
        // quota), a second submission fills the session quota.
        let second = Arc::new(std::sync::Mutex::new(None));
        {
            let (d2, tok2, second) = (Arc::clone(&d), tok.clone(), Arc::clone(&second));
            *res.hook.lock().unwrap() = Some(Box::new(move || {
                *second.lock().unwrap() = Some(d2.submit(&tok2, ir(5), PatternHint::None).unwrap());
            }));
        }
        d.pump(); // must not panic requeuing `first`
        let second = second.lock().unwrap().take().expect("hook ran");
        assert_eq!(d.task_status(first).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.task_status(second).unwrap(), DaemonTaskStatus::Completed);
        assert!(
            d.metrics_text().contains("daemon_task_requeues_total"),
            "the injected failure must have cost a requeue"
        );
    }

    /// What a client sees in every state of a task: status, result and
    /// cancel. `Running` is observed from inside the device call.
    #[test]
    fn client_visible_answers_in_every_state() {
        let res = Arc::new(MidFlightHookResource {
            inner: LocalEmulatorResource::new("emu", Arc::new(SvBackend::default()), 1),
            hook: std::sync::Mutex::new(None),
        });
        let d = Arc::new(MiddlewareService::new(
            res.clone() as Arc<dyn QuantumResource>,
            DaemonConfig {
                max_task_retries: 0,
                ..DaemonConfig::default()
            },
        ));
        let tok = d.open_session("gina", PriorityClass::Production).unwrap();
        let other = d.open_session("hank", PriorityClass::Production).unwrap();
        let not_done = Err(DaemonError::Queue("task not completed".into()));
        let not_queued = Err(DaemonError::Queue("task is not queued".into()));

        // unknown
        assert_eq!(d.task_status(99), Err(DaemonError::UnknownTask(99)));
        assert_eq!(d.task_result(99), Err(DaemonError::UnknownTask(99)));
        assert_eq!(d.cancel(&tok, 99), Err(DaemonError::UnknownTask(99)));

        // Queued: position reported, only the owner may cancel
        let cancelled = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        assert_eq!(
            d.task_status(id),
            Ok(DaemonTaskStatus::Queued { position: 1 })
        );
        assert_eq!(d.task_result(id), not_done);
        assert!(matches!(
            d.cancel(&other, id),
            Err(DaemonError::Forbidden(_))
        ));

        // Cancelled
        assert_eq!(d.cancel(&tok, cancelled), Ok(()));
        assert_eq!(d.task_status(cancelled), Ok(DaemonTaskStatus::Cancelled));
        assert_eq!(d.task_result(cancelled), not_done);
        assert_eq!(d.cancel(&tok, cancelled), not_queued);

        // Running (then Failed: the hook fails the run, zero retries)
        let seen = Arc::new(std::sync::Mutex::new(None));
        {
            let (d, tok, seen) = (Arc::clone(&d), tok.clone(), Arc::clone(&seen));
            *res.hook.lock().unwrap() = Some(Box::new(move || {
                *seen.lock().unwrap() =
                    Some((d.task_status(id), d.task_result(id), d.cancel(&tok, id)));
            }));
        }
        assert_eq!(d.pump_once(), Some(id));
        let running = (
            Ok(DaemonTaskStatus::Running),
            not_done.clone(),
            not_queued.clone(),
        );
        assert_eq!(seen.lock().unwrap().take(), Some(running));
        assert!(matches!(d.task_status(id), Ok(DaemonTaskStatus::Failed(_))));
        assert!(matches!(d.task_result(id), Err(DaemonError::Internal(_))));
        assert_eq!(d.cancel(&tok, id), not_queued);

        // Completed
        let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        assert_eq!(d.pump_once(), Some(id));
        assert_eq!(d.task_status(id), Ok(DaemonTaskStatus::Completed));
        assert_eq!(d.task_result(id).unwrap().shots, 5);
        assert_eq!(d.cancel(&tok, id), not_queued);
    }

    /// A handler that panics mid-task (with the device lease held) must
    /// not kill the dispatcher thread, wedge the daemon, strand the task
    /// `Running` or leak its lease: the panic is counted, the task is
    /// retried to completion, and later tasks still run.
    #[test]
    fn dispatcher_survives_panicking_handler() {
        let res = Arc::new(MidFlightHookResource {
            // a direct QPU grants one lease at a time: a leaked lease
            // would starve every later task
            inner: QpuDirectResource::new("fresnel-1", VirtualQpu::new("fresnel-1", 7), 1),
            hook: std::sync::Mutex::new(Some(Box::new(|| panic!("injected handler panic")))),
        });
        let d = Arc::new(MiddlewareService::new(
            res as Arc<dyn QuantumResource>,
            DaemonConfig::default(),
        ));
        let tok = d.open_session("frank", PriorityClass::Production).unwrap();
        let first = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        let dispatcher = d.spawn_dispatcher(std::time::Duration::from_millis(1));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !d
            .metrics_text()
            .contains("daemon_dispatcher_panics_total 1")
        {
            assert!(
                std::time::Instant::now() < deadline,
                "dispatcher never reported the survived panic"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // the daemon is still alive: a fresh task completes normally, and
        // the panicked one is retried (the hook fires once) to completion
        let second = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        for id in [second, first] {
            while d.task_status(id).unwrap() != DaemonTaskStatus::Completed {
                assert!(
                    std::time::Instant::now() < deadline,
                    "daemon wedged after handler panic; task {id} is {:?}",
                    d.task_status(id).unwrap()
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        drop(dispatcher);
    }

    /// A follower's snapshot install cut short after the rename (its cursor
    /// write fails there) must not hand promotion the covered WAL too: its
    /// `TaskAttemptFailed`, applied twice, would poison the task early.
    #[test]
    fn a_snapshot_install_cut_short_does_not_replay_the_covered_wal() {
        let failing = || -> Arc<dyn QuantumResource> {
            let dead = FaultProfile {
                task_failure_rate: 1.0,
                ..FaultProfile::none()
            };
            Arc::new(FaultInjector::new(emu_resource(), dead, 23))
        };
        let cfg = DaemonConfig {
            max_task_retries: 2,
            ..DaemonConfig::default()
        };
        let (dir, fdir) = (journal_dir("install-cut"), journal_dir("install-cut-f"));
        let d = MiddlewareService::recover(dir, failing(), cfg.clone()).unwrap();
        d.enable_shipping().unwrap();
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
        d.pump_once();
        let mut f = crate::journal::FollowerReplica::open(&fdir).unwrap();
        d.ship_pending(&mut f, "f").unwrap();
        d.shutdown(std::time::Duration::ZERO); // compacts: the snapshot ships
        std::fs::create_dir(fdir.join("replica.json.tmp")).unwrap();
        assert!(d.ship_pending(&mut f, "f").is_err());
        std::fs::remove_dir(fdir.join("replica.json.tmp")).unwrap();
        let p = MiddlewareService::promote(&fdir, failing(), cfg, d.last_acked()).unwrap();
        p.pump_once();
        let status = p.task_status(id).unwrap();
        assert_eq!(status, DaemonTaskStatus::Queued { position: 0 });
    }
}

#[test]
fn snapshot_of_large_queue_shares_program_bodies() {
    // snapshotting must clone task *handles*, never program bodies: the
    // snapshot's `ir` and the queued task's `ir` are the same allocation
    let d = emu_daemon(DaemonConfig {
        validate_on_submit: false,
        analyze_on_submit: false,
        ..DaemonConfig::default()
    });
    let tok = d.open_session("bulk", PriorityClass::Production).unwrap();
    for _ in 0..1000 {
        d.submit(&tok, ir(10), PatternHint::None).unwrap();
    }
    let snap = d.snapshot_state();
    assert_eq!(snap.queued.len(), 1000);
    // two snapshots of the same queue hold the same allocations, so
    // neither copied a body out of the table
    let again = d.snapshot_state();
    for (t, u) in snap.queued.iter().zip(&again.queued) {
        assert_eq!(t.id, u.id);
        assert!(
            Arc::ptr_eq(&t.ir, &u.ir),
            "snapshot deep-copied the program body of task {}",
            t.id
        );
    }
}

#[test]
fn pump_batch_drains_in_dispatch_order() {
    let d = emu_daemon(DaemonConfig::default());
    let dev = d.open_session("dev", PriorityClass::Development).unwrap();
    let prod = d.open_session("prod", PriorityClass::Production).unwrap();
    let dev_id = d.submit(&dev, ir(5), PatternHint::None).unwrap();
    let prod_id = d.submit(&prod, ir(5), PatternHint::None).unwrap();
    assert_eq!(d.pump_batch(16), 2, "one batch claims both tasks");
    assert_eq!(d.task_status(prod_id).unwrap(), DaemonTaskStatus::Completed);
    assert_eq!(d.task_status(dev_id).unwrap(), DaemonTaskStatus::Completed);
    assert_eq!(d.pump_batch(16), 0, "queue drained");
}

#[test]
fn merge_results_accumulates_counts() {
    let a = SampleResult::from_shots(2, &[0b00, 0b01], "x");
    let b = SampleResult::from_shots(2, &[0b01, 0b11], "x");
    let m = crate::tasks::merge_results(a, b);
    assert_eq!(m.shots, 4);
    assert_eq!(m.counts[&0b01], 2);
    assert_eq!(m.counts[&0b00], 1);
    assert_eq!(m.counts[&0b11], 1);
}

// ---- durability ----------------------------------------------------

fn journal_dir(name: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/daemon-journal-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn emu_resource() -> Arc<dyn QuantumResource> {
    Arc::new(LocalEmulatorResource::new(
        "emu",
        Arc::new(SvBackend::default()),
        1,
    ))
}

#[test]
fn recover_restores_queue_sessions_and_id_watermark() {
    let dir = journal_dir("restore-basic");
    let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    let tok = d.open_session("alice", PriorityClass::Production).unwrap();
    let done = d.submit(&tok, ir(10), PatternHint::None).unwrap();
    d.pump();
    let queued_a = d.submit(&tok, ir(20), PatternHint::None).unwrap();
    let queued_b = d.submit(&tok, ir(30), PatternHint::None).unwrap();
    let done_result = d.task_result(done).unwrap();
    drop(d); // crash: no drain, no final snapshot

    let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    // session + 3 × submit + dispatch + complete replayed off a clean WAL
    let text = d2.metrics_text();
    for series in [
        "journal_replayed_records_total 6",
        "daemon_recovered_tasks_total 2",
        "daemon_recovered_sessions_total 1",
    ] {
        assert!(text.contains(series), "{series} missing:\n{text}");
    }
    assert!(!text.contains("journal_truncated_bytes_total"), "{text}");
    // completed work survived with its result intact
    assert_eq!(d2.task_result(done).unwrap().counts, done_result.counts);
    // queued work survived as queued
    assert!(matches!(
        d2.task_status(queued_a).unwrap(),
        DaemonTaskStatus::Queued { .. }
    ));
    assert!(matches!(
        d2.task_status(queued_b).unwrap(),
        DaemonTaskStatus::Queued { .. }
    ));
    // the session is alive and the token still valid
    let next = d2.submit(&tok, ir(5), PatternHint::None).unwrap();
    // the id high-water mark survived: no reuse of pre-crash ids
    assert!(next > queued_b, "task id watermark must survive recovery");
    d2.pump();
    assert_eq!(
        d2.task_status(queued_a).unwrap(),
        DaemonTaskStatus::Completed
    );
    assert_eq!(
        d2.task_status(queued_b).unwrap(),
        DaemonTaskStatus::Completed
    );
    assert_eq!(d2.task_status(next).unwrap(), DaemonTaskStatus::Completed);
}

/// A snapshot that does not parse must stop the restart: replaying the WAL
/// over an empty base would start `next_task` at 1 and reuse ids clients
/// still hold.
#[test]
fn corrupt_snapshot_fails_recovery_instead_of_starting_empty() {
    let dir = journal_dir("corrupt-snapshot");
    let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    d.open_session("alice", PriorityClass::Test).unwrap();
    drop(d);
    std::fs::write(dir.join("snapshot.json"), b"{ not a snapshot").unwrap();
    let err = Journal::load(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(matches!(
        MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()),
        Err(DaemonError::Internal(_))
    ));
}

#[test]
fn idempotency_keys_survive_restart() {
    let dir = journal_dir("idempotency");
    let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    let tok = d.open_session("alice", PriorityClass::Test).unwrap();
    let id = d
        .submit_with_key(&tok, ir(10), PatternHint::None, Some("vqe-step-1"))
        .unwrap();
    // same key, same daemon → same id, nothing new queued
    let again = d
        .submit_with_key(&tok, ir(10), PatternHint::None, Some("vqe-step-1"))
        .unwrap();
    assert_eq!(id, again);
    assert_eq!(d.queue_depth(), 1);
    drop(d);

    let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    let after_crash = d2
        .submit_with_key(&tok, ir(10), PatternHint::None, Some("vqe-step-1"))
        .unwrap();
    assert_eq!(id, after_crash, "journaled key must return the original id");
    assert_eq!(d2.queue_depth(), 1, "dedup must not enqueue a duplicate");
    assert!(d2
        .metrics_text()
        .contains("daemon_idempotent_hits_total{class=\"test\"} 1"));
}

/// Batch submit: per-frame outcomes in order, bad frames isolated, the
/// group-committed journal records replaying identically after a crash.
#[test]
fn submit_batch_isolates_frames_and_survives_restart() {
    let dir = journal_dir("batch-submit");
    let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    let tok = d.open_session("alice", PriorityClass::Production).unwrap();
    let bad_ir = {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 1e6, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), 10, "t")
    };
    let item = |key: Option<&str>| SubmitItem {
        token: tok.clone(),
        ir: ir(10),
        hint: PatternHint::None,
        idempotency_key: key.map(str::to_string),
    };
    let out = d.submit_batch(vec![
        item(Some("batch-key-1")),
        SubmitItem {
            token: "bogus".into(),
            ..item(None)
        },
        SubmitItem {
            ir: bad_ir,
            ..item(None)
        },
        item(Some("batch-key-2")),
    ]);
    assert_eq!(out.len(), 4);
    let a = *out[0].as_ref().unwrap();
    assert!(matches!(out[1], Err(DaemonError::Session(_))), "{out:?}");
    assert!(matches!(out[2], Err(DaemonError::Validation(_))), "{out:?}");
    let b = *out[3].as_ref().unwrap();
    assert!(b > a, "ids follow submission order");
    assert_eq!(d.queue_depth(), 2, "only the two good frames queued");
    // a later batch replaying a key dedups per-frame, same as singles
    let replay = d.submit_batch(vec![item(Some("batch-key-1"))]);
    assert_eq!(*replay[0].as_ref().unwrap(), a);
    assert_eq!(d.queue_depth(), 2);
    drop(d); // crash: no drain

    let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    assert!(matches!(
        d2.task_status(a).unwrap(),
        DaemonTaskStatus::Queued { .. }
    ));
    assert!(matches!(
        d2.task_status(b).unwrap(),
        DaemonTaskStatus::Queued { .. }
    ));
    let replay = d2.submit_batch(vec![item(Some("batch-key-2"))]);
    assert_eq!(
        *replay[0].as_ref().unwrap(),
        b,
        "batch idempotency keys survive restart"
    );
    d2.pump();
    assert_eq!(d2.task_status(a).unwrap(), DaemonTaskStatus::Completed);
    assert_eq!(d2.task_status(b).unwrap(), DaemonTaskStatus::Completed);

    // N = 1: a single submit is a batch of one frame, down to the
    // records it journals
    let journaled = |name: &str, batch: bool| {
        let dir = journal_dir(name);
        let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
        let tok = d.open_session("alice", PriorityClass::Production).unwrap();
        let id = if batch {
            d.submit_batch(vec![SubmitItem {
                token: tok,
                ir: ir(10),
                hint: PatternHint::None,
                idempotency_key: Some("one".into()),
            }])
            .remove(0)
        } else {
            d.submit_with_key(&tok, ir(10), PatternHint::None, Some("one"))
        };
        drop(d);
        (id, Journal::load(&dir).unwrap().records)
    };
    let single = journaled("batch-submit-single", false);
    assert_eq!(single.1.len(), 2, "session + submit");
    assert_eq!(single, journaled("batch-submit-of-one", true));
}

#[test]
fn shutdown_drains_then_rejects() {
    let dir = journal_dir("drain");
    let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    let tok = d.open_session("alice", PriorityClass::Production).unwrap();
    let a = d.submit(&tok, ir(10), PatternHint::None).unwrap();
    let b = d.submit(&tok, ir(10), PatternHint::None).unwrap();
    assert_eq!(d.health(), DaemonHealth::Ok);
    let report = d.shutdown(std::time::Duration::from_secs(5));
    assert_eq!(report.dispatched, 2);
    assert_eq!(report.pending, 0);
    let text = d.metrics_text();
    assert!(text.contains("daemon_drain_dispatched_total 2"), "{text}");
    assert!(text.contains("daemon_drain_pending_total 0"), "{text}");
    assert_eq!(d.health(), DaemonHealth::Stopped);
    assert_eq!(d.task_status(a).unwrap(), DaemonTaskStatus::Completed);
    assert_eq!(d.task_status(b).unwrap(), DaemonTaskStatus::Completed);
    // stopped daemons admit nothing
    assert!(matches!(
        d.open_session("bob", PriorityClass::Test),
        Err(DaemonError::Unavailable(_))
    ));
    assert!(matches!(
        d.submit(&tok, ir(5), PatternHint::None),
        Err(DaemonError::Unavailable(_))
    ));
    assert!(d.pump_once().is_none());
}

/// The one replication series no failover scenario reaches: a follower
/// whose WAL already holds bytes this leader never shipped is refused at
/// the first batch, untouched, and the refusal is counted by reason.
#[test]
fn ship_pending_counts_a_rejected_follower() {
    let d = MiddlewareService::recover(
        journal_dir("ship-reject"),
        emu_resource(),
        DaemonConfig::default(),
    )
    .unwrap();
    d.enable_shipping().unwrap();
    d.open_session("alice", PriorityClass::Test).unwrap();
    let fdir = journal_dir("ship-reject-follower");
    std::fs::write(fdir.join("wal.log"), b"foreign").unwrap();
    let mut stale = crate::journal::FollowerReplica::open(&fdir).unwrap();
    assert!(d.ship_pending(&mut stale, "stale").is_err());
    let text = d.metrics_text();
    assert!(
        text.contains("replication_rejected_events_total{reason=\"offset\"} 1"),
        "{text}"
    );
}

/// `readyz` reports the lag the ship log holds now, not the lag of the
/// last shipping round.
#[test]
fn readiness_reports_the_live_shipping_lag() {
    let dir = journal_dir("ship-lag-live");
    let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    d.enable_shipping().unwrap();
    let tok = d.open_session("alice", PriorityClass::Test).unwrap();
    d.submit(&tok, ir(10), PatternHint::None).unwrap();
    assert_eq!(d.readiness().lag_records, 2);
    let fdir = journal_dir("ship-lag-live-follower");
    let mut f = crate::journal::FollowerReplica::open(&fdir).unwrap();
    d.ship_pending(&mut f, "f").unwrap();
    assert_eq!(d.readiness().lag_records, 0);
}

#[test]
fn drain_timeout_leaves_pending_work_journaled() {
    let dir = journal_dir("drain-timeout");
    let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    let tok = d.open_session("alice", PriorityClass::Production).unwrap();
    for _ in 0..3 {
        d.submit(&tok, ir(10), PatternHint::None).unwrap();
    }
    // zero budget: nothing dispatches, everything stays journaled
    let report = d.shutdown(std::time::Duration::ZERO);
    assert_eq!(report.dispatched, 0);
    assert_eq!(report.pending, 3);
    drop(d);
    let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    assert_eq!(d2.queue_depth(), 3, "pending tasks survive the stop");
    d2.pump();
}

#[test]
fn expired_session_rejected_at_validate_time() {
    // the clock can outrun the TTL between gc sweeps (execution time
    // advances it with no advance_time call); validate itself must then
    // catch the expiry
    let d = emu_daemon(DaemonConfig {
        session_ttl_secs: 100.0,
        ..DaemonConfig::default()
    });
    let idle = d.open_session("idle", PriorityClass::Production).unwrap();
    let busy = d.open_session("busy", PriorityClass::Production).unwrap();
    d.advance_clock(50.0); // execution time, not advance_time: no gc
    d.submit(&busy, ir(5), PatternHint::None).unwrap(); // touches busy
    d.advance_clock(70.0); // idle now 120 s stale, busy only 70 s
    assert!(matches!(
        d.submit(&idle, ir(5), PatternHint::None),
        Err(DaemonError::Session(SessionError::Expired))
    ));
    d.submit(&busy, ir(5), PatternHint::None).unwrap();
    assert!(d.metrics_text().contains("daemon_sessions_expired_total 1"));
}

#[test]
fn session_expires_exactly_at_the_ttl_boundary() {
    let d = emu_daemon(DaemonConfig {
        session_ttl_secs: 100.0,
        ..DaemonConfig::default()
    });
    let a = d.open_session("a", PriorityClass::Test).unwrap();
    let b = d.open_session("b", PriorityClass::Test).unwrap();
    let unknown_task = Err(DaemonError::UnknownTask(99));
    d.advance_clock(50.0); // no gc sweep on this path
    assert_eq!(d.cancel(&a, 99), unknown_task, "active: touched at t=50");
    d.advance_clock(49.5);
    assert_eq!(d.cancel(&b, 99), unknown_task, "idle 99.5 s: still active");
    d.advance_clock(50.5); // a idle exactly the TTL
    let expired = Err(DaemonError::Session(SessionError::Expired));
    assert_eq!(d.cancel(&a, 99), expired);
    let unknown = Err(DaemonError::Session(SessionError::UnknownToken));
    assert_eq!(d.cancel(&a, 99), unknown, "the expiry removed it");
    assert_eq!(d.cancel(&b, 99), unknown_task, "b was touched at t=99.5");
}

#[test]
fn stale_sessions_gced_on_pump() {
    let d = emu_daemon(DaemonConfig {
        session_ttl_secs: 100.0,
        ..DaemonConfig::default()
    });
    d.open_session("alice", PriorityClass::Production).unwrap();
    d.advance_clock(150.0); // past the TTL with no gc sweep yet
    assert_eq!(d.list_sessions().len(), 1);
    assert!(d.pump_once().is_none()); // idle pump still sweeps sessions
    assert!(d.list_sessions().is_empty(), "gc runs on pump_once");
    assert!(d.metrics_text().contains("daemon_sessions_expired_total 1"));
}

/// A clean run records zero lock-order violations for production locks.
/// Drives a journaled daemon through concurrent submitters, cancels,
/// snapshots, compaction and shutdown — the lock-heavy paths — then
/// asserts the global violation log holds nothing from a production
/// lock (tests elsewhere deliberately seed violations, but only under
/// `test.` / `prop.` / `tracked.test` names).
#[test]
fn clean_workload_records_no_production_lock_order_violations() {
    let dir = journal_dir("lock-order-clean");
    let d = Arc::new(
        MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap(),
    );
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                let tok = d
                    .open_session(&format!("user{i}"), PriorityClass::Production)
                    .unwrap();
                let ids: Vec<u64> = (0..5)
                    .map(|_| d.submit(&tok, ir(10), PatternHint::None).unwrap())
                    .collect();
                // best-effort: a peer's pump may have claimed it already
                let _ = d.cancel(&tok, ids[0]);
                d.pump();
                let _ = d.metrics_text();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    d.shutdown(std::time::Duration::from_secs(5));
    let production: Vec<String> = hpcqc_sync::violations()
        .iter()
        .filter(|v| {
            ["middleware.", "telemetry.", "qrmi.", "qpu."]
                .iter()
                .any(|p| v.lock.starts_with(p) || v.held_lock.starts_with(p))
        })
        .map(|v| v.to_string())
        .collect();
    assert!(
        production.is_empty(),
        "production lock hierarchy violated:\n{}",
        production.join("\n")
    );
}

/// Compacts back to back, from `start` (at least once) until `stop`.
fn compact_until(
    d: &Arc<MiddlewareService>,
    start: &Arc<std::sync::Barrier>,
    stop: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let (d, start, stop) = (Arc::clone(d), Arc::clone(start), Arc::clone(stop));
    std::thread::spawn(move || {
        start.wait();
        d.compact_journal(true).unwrap();
        while !stop.load(Ordering::Relaxed) {
            // a breath between exclusive holds, so appends are not starved
            std::thread::sleep(std::time::Duration::from_micros(200));
            d.compact_journal(true).unwrap();
        }
    })
}

/// Submitters against a hot dispatcher, one of them on a session that is
/// closed under it: every acked task finishes, nothing unacked exists,
/// and the recovered daemon agrees — no task stuck, none run twice.
#[test]
fn submitters_racing_the_dispatcher_leave_every_acked_task_finished_once() {
    let dir = journal_dir("submit-vs-dispatch");
    let cfg = DaemonConfig {
        journal: JournalConfig {
            fsync_every: 0,
            compact_every: 48,
            group_max_records: 8,
        },
        ..DaemonConfig::default()
    };
    let d = Arc::new(MiddlewareService::recover(&dir, emu_resource(), cfg.clone()).unwrap());
    let doomed = d.open_session("doomed", PriorityClass::Test).unwrap();
    let (start, stop) = (Arc::new(std::sync::Barrier::new(7)), Arc::default());
    let compactor = compact_until(&d, &start, &stop);
    let submitters: Vec<_> = (0..4)
        .map(|i| {
            let (d, start, doomed) = (Arc::clone(&d), Arc::clone(&start), doomed.clone());
            std::thread::spawn(move || {
                let own = d
                    .open_session(&format!("user{i}"), PriorityClass::Production)
                    .unwrap();
                start.wait();
                let mut acked = Vec::new();
                for k in 0..40 {
                    // thread 0 alternates onto the session being closed
                    let tok = if i == 0 && k % 2 == 1 { &doomed } else { &own };
                    let key = format!("k-{i}-{k}");
                    match d.submit_with_key(tok, ir(5), PatternHint::None, Some(&key)) {
                        Ok(id) => acked.push(id),
                        Err(e) => {
                            assert_eq!(e, DaemonError::Session(SessionError::UnknownToken))
                        }
                    }
                }
                acked
            })
        })
        .collect();
    let closer = {
        let (d, start) = (Arc::clone(&d), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            d.close_session(&doomed).unwrap();
        })
    };
    start.wait();
    while submitters.iter().any(|t| !t.is_finished()) {
        d.pump_batch(16);
    }
    stop.store(true, Ordering::Relaxed);
    compactor.join().unwrap();
    closer.join().unwrap();
    let mut acked: Vec<u64> = submitters
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    acked.sort_unstable();
    d.pump();

    for &id in &acked {
        assert_eq!(
            d.task_status(id),
            Ok(DaemonTaskStatus::Completed),
            "task {id}"
        );
    }
    let live = d.snapshot_state();
    let completed = |s: &DaemonSnapshot| s.completed.iter().map(|(id, _)| *id).collect::<Vec<_>>();
    assert_eq!(
        completed(&live),
        acked,
        "a task exists that no submit acked"
    );
    assert!(live.queued.is_empty() && live.failed.is_empty());
    d.sync_journal();
    drop(d);

    let d2 = MiddlewareService::recover(&dir, emu_resource(), cfg).unwrap();
    let recovered = d2.snapshot_state();
    assert_eq!(completed(&recovered), acked);
    assert_eq!(
        recovered.completed, live.completed,
        "same results: nothing re-ran"
    );
    assert!(recovered.queued.is_empty());
    assert_eq!(d2.pump(), 0);
    assert!(!d2
        .metrics_text()
        .contains("daemon_recovery_requeued_total 1"));
}

/// Submitters that cancel what they submit, racing the dispatcher and a
/// thread that compacts back to back: a compaction that lands between a task's
/// admission and its session's charge (or a cancel and its refund) would
/// snapshot one without the other, and replay cannot repair that. The
/// recovered sessions must equal the live ones, charges included.
#[test]
fn submitters_and_cancellers_racing_compaction_recover_every_session_charge() {
    let dir = journal_dir("charge-vs-compaction");
    let cfg = DaemonConfig {
        journal: JournalConfig {
            fsync_every: 0,
            compact_every: 1,
            group_max_records: 1,
        },
        ..DaemonConfig::default()
    };
    let d = Arc::new(MiddlewareService::recover(&dir, emu_resource(), cfg.clone()).unwrap());
    let (start, stop) = (Arc::new(std::sync::Barrier::new(6)), Arc::default());
    let compactor = compact_until(&d, &start, &stop);
    let submitters: Vec<_> = (0..4)
        .map(|i| {
            let (d, start) = (Arc::clone(&d), Arc::clone(&start));
            std::thread::spawn(move || {
                let tok = d
                    .open_session(&format!("user{i}"), PriorityClass::Test)
                    .unwrap();
                start.wait();
                for _ in 0..15 {
                    let id = d.submit(&tok, ir(5), PatternHint::None).unwrap();
                    // best-effort: the dispatcher may have claimed it already
                    let _ = d.cancel(&tok, id);
                }
            })
        })
        .collect();
    start.wait();
    while submitters.iter().any(|t| !t.is_finished()) {
        d.pump_batch(4);
    }
    stop.store(true, Ordering::Relaxed);
    compactor.join().unwrap();
    for t in submitters {
        t.join().unwrap();
    }
    d.pump();
    let charges = |d: &MiddlewareService| {
        let sessions = d.snapshot_state().sessions.into_iter();
        sessions
            .map(|s| (s.token, s.user, s.class, s.task_count))
            .collect::<Vec<_>>()
    };
    let live = charges(&d);
    d.sync_journal();
    drop(d);
    let d2 = MiddlewareService::recover(&dir, emu_resource(), cfg).unwrap();
    assert_eq!(
        charges(&d2),
        live,
        "recovered session charges differ from live"
    );
}

#[test]
fn cancel_refunds_session_task_quota() {
    let d = emu_daemon(DaemonConfig {
        queue: crate::taskqueue::QueueConfig {
            max_tasks_per_session: 2,
            ..crate::taskqueue::QueueConfig::default()
        },
        ..DaemonConfig::default()
    });
    let tok = d.open_session("alice", PriorityClass::Test).unwrap();
    let a = d.submit(&tok, ir(5), PatternHint::None).unwrap();
    let _b = d.submit(&tok, ir(5), PatternHint::None).unwrap();
    // quota full
    assert!(d.submit(&tok, ir(5), PatternHint::None).is_err());
    d.cancel(&tok, a).unwrap();
    // the cancelled slot is free again
    d.submit(&tok, ir(5), PatternHint::None).unwrap();
    let s = d
        .list_sessions()
        .into_iter()
        .find(|s| s.token == tok)
        .unwrap();
    assert_eq!(s.task_count, 2, "cancel must refund the session's count");
}

/// A session and one of its tasks, for hand-written journals.
fn session_and_task(d: &MiddlewareService) -> (Session, QuantumTask) {
    let tok = d.open_session("alice", PriorityClass::Production).unwrap();
    let session = d.list_sessions().into_iter().next().unwrap();
    let task = QuantumTask {
        id: 1,
        session: tok,
        user: "alice".into(),
        class: PriorityClass::Production,
        ir: Arc::new(ir(10)),
        hint: PatternHint::None,
        submitted_at: 1.0,
    };
    (session, task)
}

/// The exactly-once regression: the submitter was descheduled between
/// admitting the task and journaling it, so the WAL reads `Dispatched,
/// Completed, Submitted`. The late submit must not re-queue — and so
/// re-run — the finished task.
#[test]
fn late_task_submitted_in_the_wal_does_not_rerun_a_completed_task() {
    let dir = journal_dir("late-submit");
    let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
    let (session, task) = session_and_task(&emu_daemon(DaemonConfig::default()));
    let result = SampleResult::from_shots(2, &[0b00, 0b11], "emu");
    for rec in [
        JournalRecord::SessionOpened { session },
        JournalRecord::TaskDispatched {
            id: 1,
            resource: "emu".into(),
            at: 1.0,
        },
        JournalRecord::TaskCompleted {
            id: 1,
            result: result.clone(),
            at: 1.5,
        },
        JournalRecord::TaskSubmitted {
            task,
            idempotency_key: Some("once".into()),
            warnings: Vec::new(),
        },
        // and one record no history can explain: counted and skipped
        JournalRecord::TaskCancelled { id: 1 },
    ] {
        j.append(&rec).unwrap();
    }
    drop(j);

    let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    assert_eq!(d.task_status(1).unwrap(), DaemonTaskStatus::Completed);
    assert_eq!(d.task_result(1).unwrap(), result);
    assert_eq!(d.queue_depth(), 0);
    assert_eq!(d.pump(), 0, "nothing left to run a second time");
    let tok = d.list_sessions()[0].token.clone();
    assert_eq!(
        d.submit_with_key(&tok, ir(10), PatternHint::None, Some("once")),
        Ok(1),
        "the key of the overtaken submit still deduplicates"
    );
    // the overtaken submit is an expected order; only the cancel of a
    // completed task is a record the state machine refused
    let text = d.metrics_text();
    assert!(text.contains("journal_replay_illegal_total 1"), "{text}");
}

/// A compaction can snapshot the effect of a record that then lands in
/// the fresh WAL behind it. Replaying such a record must change nothing:
/// the task stays queued once and its session is charged once.
#[test]
fn record_the_snapshot_already_reflects_replays_as_a_no_op() {
    let dir = journal_dir("snapshot-overlap");
    let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
    let (mut session, task) = session_and_task(&emu_daemon(DaemonConfig::default()));
    session.task_count = 1;
    j.compact(&DaemonSnapshot {
        clock: 1.0,
        next_task: 2,
        session_counter: 2,
        sessions: vec![session],
        queued: vec![task.clone()],
        task_meta: vec![(1, task.class, task.submitted_at)],
        ..DaemonSnapshot::default()
    })
    .unwrap();
    j.append(&JournalRecord::TaskSubmitted {
        task,
        idempotency_key: None,
        warnings: Vec::new(),
    })
    .unwrap();
    drop(j);

    let d = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    assert_eq!(d.queue_depth(), 1);
    assert_eq!(d.list_sessions()[0].task_count, 1, "charged once");
    assert_eq!(d.pump(), 1);
    assert_eq!(d.task_status(1).unwrap(), DaemonTaskStatus::Completed);
}

#[test]
fn recovery_requeues_mid_dispatch_task_with_exclusions() {
    let dir = journal_dir("mid-dispatch");
    // hand-craft a journal whose last records leave task 1 mid-dispatch
    let j = SharedJournal::open(&dir, JournalConfig::default()).unwrap();
    let d = emu_daemon(DaemonConfig::default());
    let tok = d.open_session("alice", PriorityClass::Production).unwrap();
    let session = d.list_sessions().into_iter().next().unwrap();
    let task = QuantumTask {
        id: 1,
        session: tok.clone(),
        user: "alice".into(),
        class: PriorityClass::Production,
        ir: Arc::new(ir(10)),
        hint: PatternHint::None,
        submitted_at: 1.0,
    };
    j.append(&JournalRecord::SessionOpened { session }).unwrap();
    j.append(&JournalRecord::TaskSubmitted {
        task: task.clone(),
        idempotency_key: None,
        warnings: Vec::new(),
    })
    .unwrap();
    j.append(&JournalRecord::TaskAttemptFailed {
        id: 1,
        resource: "flaky-qpu".into(),
        error: "lease lost".into(),
    })
    .unwrap();
    j.append(&JournalRecord::TaskDispatched {
        id: 1,
        resource: "emu".into(),
        at: 2.0,
    })
    .unwrap();
    drop(j); // crash mid-dispatch: no terminal record for task 1

    let d2 = MiddlewareService::recover(&dir, emu_resource(), DaemonConfig::default()).unwrap();
    assert!(matches!(
        d2.task_status(1).unwrap(),
        DaemonTaskStatus::Queued { .. }
    ));
    let text = d2.metrics_text();
    assert!(text.contains("daemon_recovery_requeued_total 1"), "{text}");
    // the failure history (excluded resource) survived the crash
    assert_eq!(d2.excluded_resources(1), vec!["flaky-qpu".to_string()]);
    d2.pump();
    assert_eq!(d2.task_status(1).unwrap(), DaemonTaskStatus::Completed);
}

#[test]
fn qpu_status_survives_restart() {
    let dir = journal_dir("qpu-status");
    let qpu = VirtualQpu::new("fresnel-1", 7);
    let res = Arc::new(QpuDirectResource::new("fresnel-1", qpu.clone(), 1));
    let d = MiddlewareService::recover(&dir, res, DaemonConfig::default())
        .unwrap()
        .with_qpu_admin(qpu);
    d.set_qpu_status(QpuStatus::Maintenance).unwrap();
    drop(d);

    let qpu2 = VirtualQpu::new("fresnel-1", 7);
    let res2 = Arc::new(QpuDirectResource::new("fresnel-1", qpu2.clone(), 1));
    let d2 = MiddlewareService::recover(&dir, res2, DaemonConfig::default())
        .unwrap()
        .with_qpu_admin(qpu2);
    assert_eq!(d2.qpu_status(), Some(QpuStatus::Maintenance));
}
