//! Integration: the full Figure-2 stack over real sockets.
//!
//! Exercises runtime client → HTTP → REST routes → daemon → QRMI →
//! virtual QPU → emulation → telemetry, end to end, across crates.

use hpcqc::core::{ClientError, DaemonClient};
use hpcqc::middleware::{DaemonConfig, MiddlewareService, PriorityClass, Site};
use hpcqc::program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc::qpu::{QpuStatus, VirtualQpu};
use hpcqc::qrmi::QpuDirectResource;
use hpcqc::scheduler::PatternHint;
use std::sync::Arc;

/// The daemon as `hpcqcd` runs it, over a virtual QPU.
fn stack(cfg: DaemonConfig) -> (Site, VirtualQpu) {
    let qpu = VirtualQpu::new("fresnel-1", 99);
    let resource = Arc::new(QpuDirectResource::new("fresnel-1", qpu.clone(), 7));
    let svc = MiddlewareService::new(resource, cfg).with_qpu_admin(qpu.clone());
    (Site::spawn(svc, 0).expect("daemon binds"), qpu)
}

fn program(shots: u32) -> ProgramIr {
    let reg = Register::linear(3, 6.0).unwrap();
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, 5.0, -1.0, 0.0).unwrap());
    ProgramIr::new(b.build().unwrap(), shots, "integration")
}

#[test]
fn submit_run_fetch_through_every_layer() {
    let (site, qpu) = stack(DaemonConfig::default());
    let client = DaemonClient::new(site.addr());

    // the device spec travels: QPU calibration → QRMI target → REST → client
    let spec = client.target().unwrap();
    assert_eq!(spec.name, "analog-fresnel");
    assert_eq!(spec.revision, 1);

    let session = client
        .open_session("alice", PriorityClass::Production)
        .unwrap();
    let result = session.run(&program(25), PatternHint::QcHeavy).unwrap();
    assert_eq!(result.shots, 25);
    assert_eq!(result.backend, "fresnel-1");
    // the device actually spent simulated seconds on it (1 Hz + overhead)
    assert!(result.execution_secs >= 25.0);
    let (jobs, shots) = qpu.stats();
    assert_eq!((jobs, shots), (1, 25));
    session.close().unwrap();
}

#[test]
fn concurrent_multiclass_load_with_preemption() {
    let (site, qpu) = stack(DaemonConfig {
        dev_shot_cap: 30,
        preempt_chunk_shots: 5,
        ..DaemonConfig::default()
    });
    let addr = site.addr();
    let mut handles = Vec::new();
    for (user, class, shots) in [
        ("prod", PriorityClass::Production, 40u32),
        ("test", PriorityClass::Test, 20),
        ("dev", PriorityClass::Development, 100), // capped to 30
    ] {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let s = DaemonClient::new(addr).open_session(user, class).unwrap();
            let r = s.run(&program(shots), PatternHint::None).unwrap();
            (class, r.shots)
        }));
    }
    let mut results = Vec::new();
    for h in handles {
        results.push(h.join().unwrap());
    }
    // every class completed, dev capped
    for (class, shots) in results {
        match class {
            PriorityClass::Production => assert_eq!(shots, 40),
            PriorityClass::Test => assert_eq!(shots, 20),
            PriorityClass::Development => assert_eq!(shots, 30),
        }
    }
    let (_, total_shots) = qpu.stats();
    assert_eq!(
        total_shots, 90,
        "all shots accounted across slices and batches"
    );
    // metrics reflect the activity
    let metrics = DaemonClient::new(site.addr()).metrics().unwrap();
    assert!(metrics.contains("daemon_tasks_completed_total{class=\"production\"} 1"));
    assert!(metrics.contains("daemon_tasks_completed_total{class=\"development\"} 1"));
    assert!(metrics.contains("qpu_shots_total{device=\"fresnel-1\"} 90"));
}

#[test]
fn maintenance_mode_blocks_execution_but_not_queueing() {
    let (site, qpu) = stack(DaemonConfig::default());
    let client = DaemonClient::new(site.addr());
    qpu.set_status(QpuStatus::Maintenance);
    let session = client.open_session("ops", PriorityClass::Test).unwrap();
    let id = session.submit(&program(5), PatternHint::None).unwrap();
    // the dispatcher runs it and the device rejects → task fails loudly
    match session.wait(id, 500) {
        Err(ClientError::TaskFailed(m)) => assert!(m.contains("Maintenance"), "{m}"),
        other => panic!("expected maintenance failure, got {other:?}"),
    }
    // back to operational, a new submission succeeds
    qpu.set_status(QpuStatus::Operational);
    let r = session.run(&program(5), PatternHint::None).unwrap();
    assert_eq!(r.shots, 5);
}

#[test]
fn drift_between_validation_and_execution_is_caught_server_side() {
    let (site, qpu) = stack(DaemonConfig::default());
    let client = DaemonClient::new(site.addr());
    let session = client.open_session("dev", PriorityClass::Test).unwrap();

    // a program near the calibrated amplitude ceiling
    let reg = Register::linear(2, 6.0).unwrap();
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.3, 12.0, 0.0, 0.0).unwrap());
    let near_limit = ProgramIr::new(b.build().unwrap(), 5, "integration");

    // passes now…
    let r = session.run(&near_limit, PatternHint::None).unwrap();
    assert_eq!(r.shots, 5);

    // …then the laser degrades 20%: ceiling falls to ~10.05 rad/µs
    qpu.inject_rabi_fault(0.2);
    match session.submit(&near_limit, PatternHint::None) {
        Err(ClientError::Api {
            status: 422,
            message,
        }) => {
            assert!(message.contains("validation"), "{message}");
        }
        other => panic!("expected 422 validation rejection, got {other:?}"),
    }

    // recalibration restores the envelope and bumps the advertised revision
    qpu.recalibrate(600.0);
    assert_eq!(client.target().unwrap().revision, 2);
    assert!(session.run(&near_limit, PatternHint::None).is_ok());
}

#[test]
fn telemetry_history_is_queryable_through_the_daemon() {
    let (site, _qpu) = stack(DaemonConfig::default());
    for _ in 0..5 {
        site.service().advance_time(100.0);
    }
    let (status, body) = hpcqc::middleware::HttpClient::new(site.addr())
        .request("GET", "/v1/telemetry/qpu_rabi_scale?from=0&to=1000", None)
        .unwrap();
    assert_eq!(status, 200);
    let points: Vec<hpcqc::telemetry::Point> = serde_json::from_str(&body).unwrap();
    assert_eq!(points.len(), 5);
    assert!(points.windows(2).all(|w| w[0].ts < w[1].ts));
}
