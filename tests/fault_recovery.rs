//! Integration: fault injection and recovery across the QRMI boundary.
//!
//! Drives full workflows through a [`FaultInjector`]-wrapped resource at
//! every level of the stack — runtime retries, graceful degradation to a
//! local emulator, daemon-side requeues, and the REST transport — and
//! checks that the recovery activity is visible in telemetry.

use hpcqc::core::{AttemptBudget, RetryPolicy, Runtime};
use hpcqc::emulator::SvBackend;
use hpcqc::middleware::rest::serve;
use hpcqc::middleware::{DaemonConfig, DaemonTaskStatus, MiddlewareService, PriorityClass};
use hpcqc::program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc::qrmi::{
    CloudEngine, CloudResource, FaultInjector, FaultProfile, LocalEmulatorResource,
    ResourceRegistry,
};
use hpcqc::scheduler::PatternHint;
use hpcqc::telemetry::Registry;
use std::sync::Arc;

fn program(shots: u32) -> ProgramIr {
    let reg = Register::linear(3, 6.0).unwrap();
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, 5.0, -1.0, 0.0).unwrap());
    ProgramIr::new(b.build().unwrap(), shots, "fault-recovery")
}

/// Registry: a flaky cloud resource (the default) plus a clean local
/// emulator for graceful degradation.
fn registry(profile: FaultProfile, metrics: &Registry) -> ResourceRegistry {
    let backend = Arc::new(SvBackend::default());
    let cloud = Arc::new(CloudResource::new(
        "flaky-cloud",
        CloudEngine::Emulator(backend.clone()),
        2,
        11,
    ));
    let mut reg = ResourceRegistry::new();
    reg.register(Arc::new(
        FaultInjector::new(cloud, profile, 41).with_metrics(metrics.clone()),
    ));
    reg.register(Arc::new(LocalEmulatorResource::new(
        "emu-local",
        backend,
        3,
    )));
    reg.default_resource = Some("flaky-cloud".into());
    reg
}

#[test]
fn workflow_completes_against_faulty_resource_with_retries() {
    // the acceptance profile: ≥20% transient task failures plus
    // intermittent acquisition denials and result-fetch errors
    let profile = FaultProfile::flaky();
    assert!(profile.task_failure_rate >= 0.2);
    assert!(profile.acquire_denial_rate > 0.0);

    let metrics = Registry::new();
    let rt = Runtime::new(registry(profile, &metrics))
        .with_retry_policy(RetryPolicy::default())
        .with_priority_class(PriorityClass::Production)
        .with_fault_metrics(metrics.clone());

    // a 20-run workflow: every run must complete despite the fault pressure
    let mut total_attempts = 0;
    let mut total_backoff = 0.0;
    for _ in 0..20 {
        let run = rt.run_recovered(&program(25)).unwrap();
        assert_eq!(run.report.result.shots, 25);
        assert_eq!(run.report.resource_id, "flaky-cloud");
        assert!(run.fallback_resource.is_none());
        total_attempts += run.attempts;
        total_backoff += run.backoff_secs;
    }
    assert!(
        total_attempts > 20,
        "fault pressure must cost extra attempts"
    );
    assert!(total_backoff > 0.0, "retries must pay backoff");

    // telemetry saw the whole story: injected faults and the retries that
    // recovered from them
    let text = metrics.expose();
    assert!(text.contains("qrmi_faults_injected_total"), "{text}");
    assert!(text.contains("runtime_retries_total"), "{text}");
    assert!(text.contains("runtime_backoff_seconds_total"), "{text}");
}

#[test]
fn budget_exhaustion_degrades_to_local_emulator() {
    // a dead cloud resource: every acquisition denied
    let profile = FaultProfile {
        acquire_denial_rate: 1.0,
        ..FaultProfile::none()
    };
    let metrics = Registry::new();
    let rt = Runtime::new(registry(profile, &metrics))
        .with_retry_policy(RetryPolicy::default().with_budget(
            PriorityClass::Development,
            AttemptBudget {
                max_attempts: 4,
                max_backoff_secs: 120.0,
            },
        ))
        .with_fallback(true)
        .with_fault_metrics(metrics.clone());

    let run = rt.run_recovered(&program(30)).unwrap();
    assert_eq!(run.fallback_resource.as_deref(), Some("emu-local"));
    assert_eq!(run.report.resource_id, "emu-local");
    assert_eq!(run.report.result.shots, 30);

    let text = metrics.expose();
    assert!(text.contains("runtime_retry_budget_exhausted_total{resource=\"flaky-cloud\"} 1"));
    assert!(text.contains("runtime_fallbacks_total{from=\"flaky-cloud\",to=\"emu-local\"} 1"));
    // the denials themselves were recorded by the injector
    assert!(text
        .contains("qrmi_faults_injected_total{kind=\"acquire_denied\",resource=\"flaky-cloud\"}"));
}

#[test]
fn daemon_requeues_ride_through_task_failures() {
    let inner = Arc::new(LocalEmulatorResource::new(
        "emu",
        Arc::new(SvBackend::default()),
        5,
    ));
    let flaky = Arc::new(FaultInjector::new(
        inner,
        FaultProfile {
            task_failure_rate: 0.3,
            ..FaultProfile::none()
        },
        29,
    ));
    let d = MiddlewareService::new(
        flaky.clone(),
        DaemonConfig {
            max_task_retries: 25,
            ..DaemonConfig::default()
        },
    );
    let tok = d.open_session("alice", PriorityClass::Production).unwrap();
    let ids: Vec<u64> = (0..12)
        .map(|_| d.submit(&tok, program(20), PatternHint::None).unwrap())
        .collect();
    d.pump();
    for id in &ids {
        assert_eq!(d.task_status(*id).unwrap(), DaemonTaskStatus::Completed);
        assert_eq!(d.task_result(*id).unwrap().shots, 20);
    }
    assert!(flaky.total_faults() > 0, "the injector actually fired");
    assert!(
        d.metrics_text()
            .contains("daemon_task_requeues_total{class=\"production\"}"),
        "requeues recorded in daemon telemetry"
    );
}

#[test]
fn daemon_poisons_task_that_never_succeeds() {
    let inner = Arc::new(LocalEmulatorResource::new(
        "emu",
        Arc::new(SvBackend::default()),
        5,
    ));
    let dead = Arc::new(FaultInjector::new(
        inner,
        FaultProfile {
            task_failure_rate: 1.0,
            ..FaultProfile::none()
        },
        31,
    ));
    let d = MiddlewareService::new(
        dead,
        DaemonConfig {
            max_task_retries: 3,
            ..DaemonConfig::default()
        },
    );
    let tok = d.open_session("bob", PriorityClass::Test).unwrap();
    let id = d.submit(&tok, program(10), PatternHint::None).unwrap();
    d.pump();
    assert!(matches!(
        d.task_status(id).unwrap(),
        DaemonTaskStatus::Failed(_)
    ));
    let text = d.metrics_text();
    assert!(text.contains("daemon_task_requeues_total{class=\"test\"} 3"));
    assert!(text.contains("daemon_tasks_poisoned_total{class=\"test\"} 1"));
}

#[test]
fn rest_workflow_completes_over_a_faulty_device() {
    // full Figure-2 stack: REST client → daemon → FaultInjector → emulator,
    // with enough requeue budget to ride out 25% task loss
    let inner = Arc::new(LocalEmulatorResource::new(
        "emu",
        Arc::new(SvBackend::default()),
        9,
    ));
    let flaky = Arc::new(FaultInjector::new(
        inner,
        FaultProfile {
            task_failure_rate: 0.25,
            ..FaultProfile::none()
        },
        37,
    ));
    let svc = Arc::new(MiddlewareService::new(
        flaky,
        DaemonConfig {
            max_task_retries: 30,
            ..DaemonConfig::default()
        },
    ));
    let _dispatcher = svc.spawn_dispatcher(std::time::Duration::from_millis(20));
    let server = serve(svc).expect("daemon binds");
    let client = hpcqc::core::DaemonClient::new(server.addr());
    let session = client
        .open_session("carol", PriorityClass::Production)
        .unwrap();
    for _ in 0..5 {
        let r = session.run(&program(15), PatternHint::None).unwrap();
        assert_eq!(r.shots, 15);
    }
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("daemon_tasks_completed_total{class=\"production\"} 5"));
    session.close().unwrap();
}
