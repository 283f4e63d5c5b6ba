//! Experiment FP — replication overhead and failover time.
//!
//! Two questions about the replicated control plane:
//!
//! 1. **What does shipping cost?** The daemon_perf fleet (8 sessions, stub
//!    QRMI, journaling on) runs twice in one process — once bare, once with
//!    leader→follower journal shipping pumping continuously — and the report
//!    carries the throughput ratio. The bare case is the per-shard number
//!    comparable (within 10%) to BENCH_daemon.json; the shipping ratio is
//!    reported unvarnished but overstates the cost on this harness, because
//!    leader and standby are colocated in one process on one filesystem, so
//!    every WAL byte and every fsync is paid twice through the same ext4
//!    journal (and, on a single-core runner, the same CPU). A real standby
//!    does that work on its own node.
//!
//! 2. **How fast is failover, and does it lose anything?** A leader takes
//!    the fleet mid-run and is killed abruptly — no drain, no final ship
//!    flush, exactly what `kill -9` leaves: the follower holds whatever the
//!    shipping pump had applied, and the recorded `last_acked` bar is the
//!    durability promise. The follower is promoted (timed), the workload
//!    resumes on it with the same idempotency keys, and the harness asserts
//!    the exactly-once ledger: every acked task is still known, every
//!    logical task completes exactly once, no key resolves to two ids.
//!
//! Run: `cargo run --release -p hpcqc-bench --bin failover_perf [--quick]
//!       [--out PATH]`
//!
//! `--quick` shrinks the fleet for the CI smoke job; the harness exits
//! non-zero on a non-finite measurement, a lost acked task, a duplicated
//! key, or a quick-mode failover slower than 500 ms.

use hpcqc_bench::{render_table, HarnessArgs};
use hpcqc_emulator::{Emulator, SampleResult, SvBackend};
use hpcqc_middleware::journal::FollowerReplica;
use hpcqc_middleware::{
    DaemonConfig, DaemonTaskStatus, JournalConfig, MiddlewareService, PriorityClass,
};
use hpcqc_program::{DeviceSpec, ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qrmi::{AcquisitionToken, QrmiError, QuantumResource, ResourceType, TaskId};
use hpcqc_scheduler::PatternHint;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stub QRMI that completes every task instantly (see daemon_perf): the
/// wall clock measures the control plane and the replication tap only.
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

fn bench_program(shots: u32) -> ProgramIr {
    let reg = Register::linear(2, 6.0).expect("valid register");
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).expect("valid pulse"));
    ProgramIr::new(b.build().expect("valid sequence"), shots, "bench")
}

fn bench_cfg() -> DaemonConfig {
    DaemonConfig {
        validate_on_submit: false,
        analyze_on_submit: false,
        journal: JournalConfig {
            fsync_every: 64,
            group_max_records: 64,
            compact_every: 0,
        },
        ..DaemonConfig::default()
    }
}

fn resource() -> Arc<InstantResource> {
    Arc::new(InstantResource {
        spec: SvBackend::default().spec(),
    })
}

fn bench_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hpcqc-failover-perf-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// A shipping pump with *no* final flush on stop — stopping it models the
/// pump dying with the leader, so whatever was applied is all there is.
struct HardStopShipper {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<FollowerReplica>,
}

fn spawn_hard_shipper(svc: &Arc<MiddlewareService>, replica: FollowerReplica) -> HardStopShipper {
    let svc = Arc::clone(svc);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let mut replica = replica;
        while !stop2.load(Ordering::Relaxed) {
            let _ = svc.ship_pending(&mut replica, "standby");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        replica
    });
    HardStopShipper { stop, thread }
}

impl HardStopShipper {
    fn kill(self) -> FollowerReplica {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("shipper thread")
    }
}

#[derive(Debug, Serialize)]
struct ThroughputCase {
    shipping: bool,
    sessions: usize,
    tasks_per_session: usize,
    wall_secs: f64,
    tasks_per_sec: f64,
}

/// The daemon_perf drive loop: concurrent sessions against one journaled
/// daemon with a racing dispatcher, optionally with a shipping pump running.
fn run_throughput(sessions: usize, per_session: usize, shipping: bool) -> ThroughputCase {
    let tag = if shipping { "ship" } else { "bare" };
    let dir = bench_dir(&format!("tp-{tag}-leader"));
    let svc = Arc::new(
        MiddlewareService::recover(&dir, resource(), bench_cfg()).expect("daemon recovers"),
    );
    let shipper = if shipping {
        let fdir = bench_dir(&format!("tp-{tag}-follower"));
        svc.enable_shipping().expect("shipping enables");
        Some(spawn_hard_shipper(
            &svc,
            FollowerReplica::open(&fdir).expect("replica opens"),
        ))
    } else {
        None
    };

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
                for _ in 0..per_session {
                    svc.submit(&tok, ir.clone(), PatternHint::None)
                        .expect("submit succeeds");
                }
            })
        })
        .collect();
    for h in submitters {
        h.join().expect("submitter thread");
    }
    done_submitting.store(true, Ordering::Release);
    dispatcher.join().expect("dispatcher thread");
    let wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(executed.load(Ordering::Relaxed), total);
    if let Some(s) = shipper {
        drop(s.kill());
    }
    svc.sync_journal();
    drop(svc);
    ThroughputCase {
        shipping,
        sessions,
        tasks_per_session: per_session,
        wall_secs,
        tasks_per_sec: total as f64 / wall_secs,
    }
}

#[derive(Debug, Serialize)]
struct FailoverCase {
    sessions: usize,
    tasks_per_session: usize,
    /// Tasks submitted to the leader before it was killed.
    submitted_before_kill: usize,
    /// Tasks whose submit record had been applied by the follower at the kill.
    known_after_promotion: usize,
    /// `promote()` wall time: shipped-prefix replay → serving leader.
    failover_ms: f64,
    /// All `sessions × tasks_per_session` logical keys completed, each
    /// exactly once, counting both sides of the failover.
    zero_loss: bool,
}

/// Kill the leader mid-run, promote the follower, resume the workload with
/// the same idempotency keys, and account for every logical task.
fn run_failover(sessions: usize, per_session: usize) -> FailoverCase {
    let dir_l = bench_dir("fo-leader");
    let dir_f = bench_dir("fo-follower");
    let svc = Arc::new(
        MiddlewareService::recover(&dir_l, resource(), bench_cfg()).expect("daemon recovers"),
    );
    svc.enable_shipping().expect("shipping enables");

    let tokens: Vec<String> = (0..sessions)
        .map(|u| {
            svc.open_session(&format!("user-{u}"), PriorityClass::Production)
                .expect("session opens")
        })
        .collect();
    // Catch the standby up on the session-open prefix before the run: a
    // real standby has long since applied the control records for sessions
    // that predate the crash, so the tokens survive promotion. The opens
    // are still in the group-commit buffer, so force them to the WAL first.
    svc.sync_journal();
    let mut replica = FollowerReplica::open(&dir_f).expect("replica opens");
    svc.ship_pending(&mut replica, "standby")
        .expect("session prefix ships");
    let shipper = spawn_hard_shipper(&svc, replica);
    let ir = bench_program(8);
    let half = per_session / 2;

    // First half of the run on the leader, dispatcher racing the submitters.
    let stop_dispatch = Arc::new(AtomicBool::new(false));
    let dispatcher = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop_dispatch);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if svc.pump_batch(16) == 0 {
                    std::thread::yield_now();
                }
            }
        })
    };
    let mut first_ids: Vec<u64> = Vec::with_capacity(sessions * half);
    let handles: Vec<_> = tokens
        .iter()
        .enumerate()
        .map(|(u, tok)| {
            let svc = Arc::clone(&svc);
            let tok = tok.clone();
            let ir = ir.clone();
            std::thread::spawn(move || {
                (0..half)
                    .map(|j| {
                        svc.submit_with_key(
                            &tok,
                            ir.clone(),
                            PatternHint::None,
                            Some(&format!("fo-{u}-{j}")),
                        )
                        .expect("submit succeeds")
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    for h in handles {
        first_ids.extend(h.join().expect("submitter thread"));
    }

    // kill -9: dispatcher and shipping pump die with the leader, no drain,
    // no final flush. The follower keeps what it applied; the bar is what
    // the leader had seen acked.
    stop_dispatch.store(true, Ordering::Relaxed);
    dispatcher.join().expect("dispatcher thread");
    drop(shipper.kill());
    let last_acked = svc.last_acked();
    drop(svc);

    let t_promote = Instant::now();
    let d2 = Arc::new(
        MiddlewareService::promote(&dir_f, resource(), bench_cfg(), last_acked)
            .expect("promotion succeeds"),
    );
    let failover_ms = t_promote.elapsed().as_secs_f64() * 1e3;

    let known_after_promotion = first_ids
        .iter()
        .filter(|&&id| d2.task_status(id).is_ok())
        .count();

    // Resume: replay the first half's keys (dedup or resubmit-lost) and
    // submit the second half fresh, then pump dry.
    let mut final_ids: Vec<u64> = Vec::with_capacity(sessions * per_session);
    for (u, tok) in tokens.iter().enumerate() {
        for j in 0..per_session {
            let id = d2
                .submit_with_key(
                    tok,
                    ir.clone(),
                    PatternHint::None,
                    Some(&format!("fo-{u}-{j}")),
                )
                .expect("resumed submit succeeds");
            final_ids.push(id);
        }
    }
    d2.pump();

    let distinct: std::collections::HashSet<u64> = final_ids.iter().copied().collect();
    let all_completed = final_ids
        .iter()
        .all(|&id| d2.task_status(id) == Ok(DaemonTaskStatus::Completed));
    let zero_loss = distinct.len() == sessions * per_session && all_completed;

    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
    FailoverCase {
        sessions,
        tasks_per_session: per_session,
        submitted_before_kill: first_ids.len(),
        known_after_promotion,
        failover_ms,
        zero_loss,
    }
}

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    commit_note: String,
    quick: bool,
    unix_time_secs: u64,
    throughput: Vec<ThroughputCase>,
    /// shipping-on tasks/sec over shipping-off (1.0 = free replication).
    shipping_throughput_ratio: f64,
    failover: FailoverCase,
}

fn main() {
    let args = HarnessArgs::from_env();
    let out_path = args
        .flags
        .iter()
        .position(|f| f == "--out")
        .and_then(|i| args.flags.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_replication.json".to_string());

    let (sessions, per_session) = if args.quick { (8, 200) } else { (8, 10_000) };

    eprintln!("throughput: {sessions} sessions x {per_session} tasks, shipping off ...");
    let bare = run_throughput(sessions, per_session, false);
    eprintln!("throughput: {sessions} sessions x {per_session} tasks, shipping on ...");
    let shipped = run_throughput(sessions, per_session, true);
    let ratio = shipped.tasks_per_sec / bare.tasks_per_sec;

    eprintln!("failover: kill -9 leader mid-run at {sessions} x {per_session} ...");
    let failover = run_failover(sessions, per_session);

    for (label, v) in [
        ("bare tasks/sec", bare.tasks_per_sec),
        ("shipped tasks/sec", shipped.tasks_per_sec),
        ("failover_ms", failover.failover_ms),
    ] {
        if !v.is_finite() || v <= 0.0 {
            eprintln!("non-finite or non-positive measurement: {label}={v}");
            std::process::exit(1);
        }
    }
    if !failover.zero_loss {
        eprintln!(
            "FAILED exactly-once ledger: {} submitted before kill, {} known after promotion",
            failover.submitted_before_kill, failover.known_after_promotion
        );
        std::process::exit(1);
    }
    if args.quick && failover.failover_ms >= 500.0 {
        eprintln!(
            "failover took {:.1} ms (quick-mode budget is 500 ms)",
            failover.failover_ms
        );
        std::process::exit(1);
    }

    println!(
        "{}",
        render_table(
            &["case", "tasks/s", "vs bare"],
            &[
                vec![
                    "bare".into(),
                    format!("{:.0}", bare.tasks_per_sec),
                    "1.00x".into()
                ],
                vec![
                    "shipping".into(),
                    format!("{:.0}", shipped.tasks_per_sec),
                    format!("{ratio:.2}x"),
                ],
            ]
        )
    );
    println!(
        "failover: {:.1} ms promote, {}/{} tasks applied at kill, zero_loss={}",
        failover.failover_ms,
        failover.known_after_promotion,
        failover.submitted_before_kill,
        failover.zero_loss
    );

    let report = BenchReport {
        benchmark: "failover_perf".into(),
        commit_note: "replicated control plane: journal shipping + follower promotion".into(),
        quick: args.quick,
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        throughput: vec![bare, shipped],
        shipping_throughput_ratio: ratio,
        failover,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");
}
