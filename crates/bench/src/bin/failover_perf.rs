//! Experiment FP — replication overhead and failover time.
//!
//! Two questions about the replicated control plane:
//!
//! 1. **What does shipping cost?** The daemon_perf fleet (8 sessions, stub
//!    QRMI, journaling on) runs twice in one process — once bare, once with
//!    leader→follower journal shipping pumping continuously — and the report
//!    carries the throughput ratio. Unlike daemon_perf's, this fleet
//!    compacts at the default floor, as a deployed leader does. The
//!    shipping ratio is reported unvarnished but overstates the cost on this
//!    harness, because leader and standby are colocated in one process on
//!    one filesystem, so every WAL byte and every fsync is paid twice
//!    through the same ext4 journal (and, on a single-core runner, the same
//!    CPU). A real standby does that work on its own node.
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

use hpcqc_bench::{
    bench_daemon_config, bench_program, drive_fleet, HarnessArgs, InstantResource, Report, Sample,
    ScratchDir,
};
use hpcqc_middleware::journal::FollowerReplica;
use hpcqc_middleware::{DaemonConfig, DaemonTaskStatus, MiddlewareService, PriorityClass};
use hpcqc_scheduler::PatternHint;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The bench config's 64-record group commit with the default compaction
/// floor: the leader compacts under load, so the follower takes snapshot
/// rounds and a promotion replays a compacted directory.
fn leader_config() -> DaemonConfig {
    let mut cfg = bench_daemon_config();
    cfg.journal.compact_every = DaemonConfig::default().journal.compact_every;
    cfg
}

/// A journaled daemon over an [`InstantResource`] in `dir`.
fn leader(dir: &Path) -> MiddlewareService {
    let resource = Arc::new(InstantResource::default());
    MiddlewareService::recover(dir, resource, leader_config()).expect("daemon recovers")
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

/// The `drive_fleet` loop against one journaled daemon, optionally with a
/// shipping pump running; returns tasks/sec.
fn run_throughput(sessions: usize, per_session: usize, shipping: bool) -> f64 {
    let tag = if shipping { "ship" } else { "bare" };
    let dir = ScratchDir::new(&format!("failover-tp-{tag}-leader"));
    let follower_dir = shipping.then(|| ScratchDir::new("failover-tp-follower"));
    let svc = Arc::new(leader(dir.path()));
    let shipper = follower_dir.as_ref().map(|fdir| {
        svc.enable_shipping().expect("shipping enables");
        let replica = FollowerReplica::open(fdir.path()).expect("replica opens");
        spawn_hard_shipper(&svc, replica)
    });
    let fleet = drive_fleet(&svc, sessions, per_session);
    if let Some(s) = shipper {
        drop(s.kill());
    }
    svc.sync_journal();
    (sessions * per_session) as f64 / fleet.wall_secs
}

/// Kill the leader mid-run, promote the follower, resume the workload with
/// the same idempotency keys, and account for every logical task.
///
/// Exits non-zero on a broken exactly-once ledger, or — in quick mode, where
/// the replayed prefix is small — on a promotion slower than 500 ms.
fn run_failover(sessions: usize, per_session: usize, quick: bool) -> Vec<Sample> {
    let dir_l = ScratchDir::new("failover-fo-leader");
    let dir_f = ScratchDir::new("failover-fo-follower");
    let svc = Arc::new(leader(dir_l.path()));
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
    let mut replica = FollowerReplica::open(dir_f.path()).expect("replica opens");
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
        MiddlewareService::promote(
            dir_f.path(),
            Arc::new(InstantResource::default()),
            leader_config(),
            last_acked,
        )
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
    // All `sessions × per_session` logical keys completed, each exactly
    // once, counting both sides of the failover.
    if distinct.len() != sessions * per_session || !all_completed {
        eprintln!(
            "FAILED exactly-once ledger: {} submitted before kill, {known_after_promotion} known \
             after promotion, {} distinct ids for {} keys, all completed: {all_completed}",
            first_ids.len(),
            distinct.len(),
            sessions * per_session
        );
        std::process::exit(1);
    }
    if quick && failover_ms >= 500.0 {
        eprintln!("failover took {failover_ms:.1} ms (quick-mode budget is 500 ms)");
        std::process::exit(1);
    }
    vec![
        // `promote()` wall time: shipped-prefix replay → serving leader.
        ("failover_ms", "ms", failover_ms),
        // Tasks submitted to the leader before it was killed, and how many
        // of their submit records the follower had applied at the kill.
        ("submitted_before_kill", "count", first_ids.len() as f64),
        (
            "known_after_promotion",
            "count",
            known_after_promotion as f64,
        ),
    ]
}

fn main() {
    let args = HarnessArgs::from_env();
    let (sessions, per_session) = if args.quick { (8, 200) } else { (8, 10_000) };
    let params = || serde_json::json!({ "sessions": sessions, "tasks_per_session": per_session });

    let mut report = Report::new("failover_perf", &args);
    // Bare and shipping back to back inside one run, so the ratio compares
    // neighbours in time rather than two medians.
    report.case("shipping", params(), |_| {
        let bare = run_throughput(sessions, per_session, false);
        let shipped = run_throughput(sessions, per_session, true);
        vec![
            ("bare_tasks_per_sec", "1/s", bare),
            ("shipped_tasks_per_sec", "1/s", shipped),
            // shipping-on tasks/sec over shipping-off (1.0 = free replication).
            ("shipping_throughput_ratio", "ratio", shipped / bare),
        ]
    });
    report.case("failover", params(), |_| {
        run_failover(sessions, per_session, args.quick)
    });
    report.finish(&args.out_path("replication"));
}
