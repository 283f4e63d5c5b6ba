//! Experiment LK — the per-lock hold-time/contention audit.
//!
//! Drives the same submit-heavy fleet as `daemon_perf` (concurrent
//! submitters racing one dispatcher over a journaled daemon on an instant
//! resource), then dumps every tracked lock's acquisition count, contention
//! ratio, and wait/hold-time quantiles from the always-on `hpcqc_sync`
//! histograms. This is the tool that localizes a tail-latency problem to a
//! specific lock *and* a specific critical section (long holds vs many
//! waiters), instead of guessing from end-to-end percentiles.
//!
//! Run: `cargo run --release -p hpcqc-bench --bin lock_audit [--quick]`

use hpcqc_bench::{render_table, HarnessArgs};
use hpcqc_emulator::{Emulator, SampleResult, SvBackend};
use hpcqc_middleware::{DaemonConfig, JournalConfig, MiddlewareService, PriorityClass};
use hpcqc_program::{DeviceSpec, ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qrmi::{AcquisitionToken, QrmiError, QuantumResource, ResourceType, TaskId};
use hpcqc_scheduler::PatternHint;
use hpcqc_sync::{all_lock_stats, histogram_quantile_ns};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

fn main() {
    let args = HarnessArgs::from_env();
    let (sessions, per_session) = if args.quick { (8, 50) } else { (64, 500) };

    let dir = std::env::temp_dir().join(format!("hpcqc-lock-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");

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

    let done = Arc::new(AtomicBool::new(false));
    let dispatcher = {
        let (svc, done) = (Arc::clone(&svc), Arc::clone(&done));
        std::thread::spawn(move || loop {
            if svc.pump_batch(16) == 0 {
                if done.load(Ordering::Acquire) && svc.queue_depth() == 0 {
                    break;
                }
                std::thread::yield_now();
            }
        })
    };
    let submitters: Vec<_> = (0..sessions)
        .map(|u| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let tok = svc
                    .open_session(&format!("user-{u}"), PriorityClass::Production)
                    .expect("session opens");
                let ir = bench_program(8);
                for _ in 0..per_session {
                    svc.submit(&tok, ir.clone(), PatternHint::None)
                        .expect("submit succeeds");
                }
            })
        })
        .collect();
    for h in submitters {
        h.join().expect("submitter");
    }
    done.store(true, Ordering::Release);
    dispatcher.join().expect("dispatcher");
    svc.sync_journal();
    let _ = std::fs::remove_dir_all(&dir);

    // Aggregate per lock name and rank by where waiters actually burn time.
    struct Agg {
        acq: u64,
        cont: u64,
        wait: [u64; hpcqc_sync::BUCKETS],
        hold: [u64; hpcqc_sync::BUCKETS],
    }
    let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in all_lock_stats() {
        let a = by_name.entry(s.name).or_insert(Agg {
            acq: 0,
            cont: 0,
            wait: [0; hpcqc_sync::BUCKETS],
            hold: [0; hpcqc_sync::BUCKETS],
        });
        a.acq += s.acquisitions();
        a.cont += s.contended();
        let (w, h) = (s.wait_histogram(), s.hold_histogram());
        for i in 0..hpcqc_sync::BUCKETS {
            a.wait[i] += w[i];
            a.hold[i] += h[i];
        }
    }
    let mut rows: Vec<(&str, Agg)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| {
        let pa = histogram_quantile_ns(&a.1.wait, 0.99) * a.1.cont as f64;
        let pb = histogram_quantile_ns(&b.1.wait, 0.99) * b.1.cont as f64;
        pb.total_cmp(&pa)
    });

    println!("== lock audit: {sessions} sessions x {per_session} tasks, journaled daemon ==\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .filter(|(_, a)| a.acq > 0)
        .map(|(name, a)| {
            vec![
                name.to_string(),
                a.acq.to_string(),
                format!("{:.2}%", 100.0 * a.cont as f64 / a.acq as f64),
                format!("{:.1}", histogram_quantile_ns(&a.wait, 0.99) / 1_000.0),
                format!("{:.1}", histogram_quantile_ns(&a.hold, 0.50) / 1_000.0),
                format!("{:.1}", histogram_quantile_ns(&a.hold, 0.99) / 1_000.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "lock",
                "acquires",
                "contended",
                "wait p99(us)",
                "hold p50(us)",
                "hold p99(us)",
            ],
            &table
        )
    );
}
