//! Experiment DP — daemon control-plane throughput.
//!
//! Drives N concurrent sessions submitting M tasks each through a journaled
//! `MiddlewareService` wired to a stub QRMI resource that completes every
//! task instantly. With device time out of the picture, the wall clock
//! measures only the control plane: submission (journal append under group
//! commit), queue maintenance, dispatch, and completion bookkeeping.
//!
//! The headline number is end-to-end tasks/sec at 64 sessions × 1000 tasks
//! with journaling on, recorded next to the pre-PR baseline (commit 0455682,
//! Vec-scan queue + one fsync per journal record, same adapted harness, same
//! machine class) and the resulting speedup. Per-submit latency percentiles
//! catch regressions that throughput alone would hide (e.g. a submitter
//! stalled behind the dispatcher on a coarse lock).
//!
//! Run: `cargo run --release -p hpcqc-bench --bin daemon_perf [--quick]
//!       [--out PATH]`
//!
//! `--quick` shrinks the fleet for the CI smoke job; the harness exits
//! non-zero if any measurement comes back non-finite or non-positive.

use hpcqc_bench::{render_table, HarnessArgs};
use hpcqc_emulator::{Emulator, SampleResult, SvBackend};
use hpcqc_middleware::{DaemonConfig, JournalConfig, MiddlewareService, PriorityClass};
use hpcqc_program::{DeviceSpec, ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qrmi::{AcquisitionToken, QrmiError, QuantumResource, ResourceType, TaskId};
use hpcqc_scheduler::PatternHint;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pre-PR reference for the headline case, measured with the same harness
/// (adapted to the pre-batching API: `pump_once` dispatcher, per-record
/// fsync) at commit 0455682: 64 sessions × 1000 tasks, journaling on,
/// validation and analysis off.
const PRE_PR_TASKS_PER_SEC: f64 = 217.43;
const PRE_PR_SUBMIT_P50_US: f64 = 14250.6;
const PRE_PR_SUBMIT_P99_US: f64 = 47137.1;

/// A QRMI resource that completes every task instantly and statelessly: the
/// task id carries the shot count, status is always `Completed`, and the
/// result is deterministic. Zero device time, zero contention — every cycle
/// the benchmark observes belongs to the daemon.
struct InstantResource {
    spec: DeviceSpec,
}

impl QuantumResource for InstantResource {
    fn resource_id(&self) -> &str {
        "instant-qpu"
    }

    fn resource_type(&self) -> ResourceType {
        ResourceType::QpuDirect
    }

    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        Ok(AcquisitionToken("instant-lease".into()))
    }

    fn release(&self, _token: &AcquisitionToken) -> Result<(), QrmiError> {
        Ok(())
    }

    fn target(&self) -> Result<DeviceSpec, QrmiError> {
        Ok(self.spec.clone())
    }

    fn task_start(&self, _token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError> {
        Ok(TaskId(format!("instant:{}", ir.shots)))
    }

    fn task_status(&self, _task: &TaskId) -> Result<hpcqc_qrmi::TaskStatus, QrmiError> {
        Ok(hpcqc_qrmi::TaskStatus::Completed)
    }

    fn task_stop(&self, _task: &TaskId) -> Result<(), QrmiError> {
        Ok(())
    }

    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        let shots: usize = task
            .0
            .strip_prefix("instant:")
            .and_then(|s| s.parse().ok())
            .ok_or(QrmiError::UnknownTask)?;
        Ok(SampleResult::from_shots(2, &vec![0u64; shots], "instant"))
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        BTreeMap::from([("vendor".into(), "bench".into())])
    }
}

#[derive(Debug, Serialize)]
struct CaseResult {
    sessions: usize,
    tasks_per_session: usize,
    total_tasks: usize,
    /// First submit → last task completed, seconds.
    wall_secs: f64,
    /// `total_tasks / wall_secs`: end-to-end submit→dispatch→complete rate.
    tasks_per_sec: f64,
    submit_p50_us: f64,
    submit_p90_us: f64,
    submit_p99_us: f64,
    submit_max_us: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    commit_note: String,
    quick: bool,
    unix_time_secs: u64,
    cases: Vec<CaseResult>,
    baseline_pre_pr: Baseline,
    /// Measured tasks/sec of the headline 64×1000 case over the pre-PR
    /// baseline; `null` in quick mode, where that case is skipped.
    speedup_vs_pre_pr: Option<f64>,
}

#[derive(Debug, Serialize)]
struct Baseline {
    commit: String,
    tasks_per_sec: f64,
    submit_p50_us: f64,
    submit_p99_us: f64,
}

fn bench_program(shots: u32) -> ProgramIr {
    let reg = Register::linear(2, 6.0).expect("valid register");
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).expect("valid pulse"));
    ProgramIr::new(b.build().expect("valid sequence"), shots, "bench")
}

/// `p` in [0, 1] over an ascending-sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn run_case(sessions: usize, per_session: usize) -> CaseResult {
    let dir = std::env::temp_dir().join(format!(
        "hpcqc-daemon-perf-{}-{sessions}x{per_session}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");

    // The control plane is the subject: no validation/analysis per submit,
    // journaling ON with a production-style group-commit window.
    let cfg = DaemonConfig {
        validate_on_submit: false,
        analyze_on_submit: false,
        journal: JournalConfig {
            fsync_every: 64,
            group_max_records: 64,
            compact_every: 0,
        },
        ..DaemonConfig::default()
    };

    let resource = Arc::new(InstantResource {
        spec: SvBackend::default().spec(),
    });
    let svc = Arc::new(MiddlewareService::recover(&dir, resource, cfg).expect("daemon recovers"));

    let tokens: Vec<String> = (0..sessions)
        .map(|u| {
            svc.open_session(&format!("user-{u}"), PriorityClass::Production)
                .expect("session opens")
        })
        .collect();

    let total = sessions * per_session;
    let ir = bench_program(8);
    let done_submitting = Arc::new(AtomicBool::new(false));
    let executed = Arc::new(AtomicUsize::new(0));

    let t0 = Instant::now();

    // One dispatcher racing the submitters, as in the deployed daemon.
    let dispatcher = {
        let svc = Arc::clone(&svc);
        let done = Arc::clone(&done_submitting);
        let executed = Arc::clone(&executed);
        std::thread::spawn(move || loop {
            let n = svc.pump_batch(16);
            executed.fetch_add(n, Ordering::Relaxed);
            if n == 0 {
                if done.load(Ordering::Acquire) && svc.queue_depth() == 0 {
                    break;
                }
                std::thread::yield_now();
            }
        })
    };

    let submitters: Vec<_> = tokens
        .into_iter()
        .map(|tok| {
            let svc = Arc::clone(&svc);
            let ir = ir.clone();
            std::thread::spawn(move || {
                let mut lat_us = Vec::with_capacity(per_session);
                for _ in 0..per_session {
                    let program = ir.clone();
                    let t = Instant::now();
                    svc.submit(&tok, program, PatternHint::None)
                        .expect("submit succeeds");
                    lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                lat_us
            })
        })
        .collect();

    let mut lat_us: Vec<f64> = Vec::with_capacity(total);
    for h in submitters {
        lat_us.extend(h.join().expect("submitter thread"));
    }
    done_submitting.store(true, Ordering::Release);
    dispatcher.join().expect("dispatcher thread");
    let wall_secs = t0.elapsed().as_secs_f64();

    assert_eq!(
        executed.load(Ordering::Relaxed),
        total,
        "every submitted task must be dispatched exactly once"
    );
    svc.sync_journal();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);

    lat_us.sort_by(f64::total_cmp);
    CaseResult {
        sessions,
        tasks_per_session: per_session,
        total_tasks: total,
        wall_secs,
        tasks_per_sec: total as f64 / wall_secs,
        submit_p50_us: percentile(&lat_us, 0.50),
        submit_p90_us: percentile(&lat_us, 0.90),
        submit_p99_us: percentile(&lat_us, 0.99),
        submit_max_us: lat_us.last().copied().unwrap_or(f64::NAN),
    }
}

fn main() {
    let args = HarnessArgs::from_env();
    let out_path = args
        .flags
        .iter()
        .position(|f| f == "--out")
        .and_then(|i| args.flags.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_daemon.json".to_string());

    let fleet: &[(usize, usize)] = if args.quick {
        &[(8, 50)]
    } else {
        &[(8, 125), (64, 1000)]
    };

    let mut cases = Vec::new();
    for &(sessions, per_session) in fleet {
        eprintln!("driving {sessions} sessions x {per_session} tasks ...");
        cases.push(run_case(sessions, per_session));
    }

    // Gate: every measurement must be finite and positive.
    for c in &cases {
        for (label, v) in [
            ("wall_secs", c.wall_secs),
            ("tasks_per_sec", c.tasks_per_sec),
            ("submit_p50_us", c.submit_p50_us),
            ("submit_p90_us", c.submit_p90_us),
            ("submit_p99_us", c.submit_p99_us),
            ("submit_max_us", c.submit_max_us),
        ] {
            if !v.is_finite() || v <= 0.0 {
                eprintln!(
                    "non-finite or non-positive measurement: {}x{} {label}={v}",
                    c.sessions, c.tasks_per_session
                );
                std::process::exit(1);
            }
        }
    }

    let speedup = cases
        .iter()
        .find(|c| c.sessions == 64 && c.tasks_per_session == 1000)
        .map(|c| c.tasks_per_sec / PRE_PR_TASKS_PER_SEC);

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                format!("{}x{}", c.sessions, c.tasks_per_session),
                format!("{:.2}", c.wall_secs),
                format!("{:.0}", c.tasks_per_sec),
                format!("{:.1}", c.submit_p50_us),
                format!("{:.1}", c.submit_p90_us),
                format!("{:.1}", c.submit_p99_us),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["fleet", "wall(s)", "tasks/s", "p50(us)", "p90(us)", "p99(us)"],
            &rows
        )
    );
    if let Some(s) = speedup {
        println!("64x1000 tasks/sec vs pre-PR baseline {PRE_PR_TASKS_PER_SEC:.0}: {s:.2}x");
    }

    let report = BenchReport {
        benchmark: "daemon_perf".into(),
        commit_note: "lock audit fixes: deferred submit-path group commits, memoized fair-share \
                      penalties, compaction policy piggybacked on the append outcome"
            .into(),
        quick: args.quick,
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        cases,
        baseline_pre_pr: Baseline {
            commit: "0455682".into(),
            tasks_per_sec: PRE_PR_TASKS_PER_SEC,
            submit_p50_us: PRE_PR_SUBMIT_P50_US,
            submit_p99_us: PRE_PR_SUBMIT_P99_US,
        },
        speedup_vs_pre_pr: speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
