//! Fault tolerance: a flaky QRMI resource, and the stack riding through it.
//!
//! Wraps a cloud resource in a [`FaultInjector`] so that acquisitions are
//! denied, tasks fail in transit, and results refuse to materialise — then
//! shows the two recovery layers the runtime offers:
//!
//! 1. retries with decorrelated-jitter backoff under a per-priority-class
//!    [`RetryPolicy`] budget, and
//! 2. graceful degradation to the local emulator once the budget runs dry.
//!
//! Everything the injector does and the runtime pays is visible in the
//! Prometheus exposition printed at the end.
//!
//! Run: `cargo run --release --example fault_tolerance`

use hpcqc::core::{AttemptBudget, RetryPolicy, Runtime};
use hpcqc::emulator::SvBackend;
use hpcqc::middleware::PriorityClass;
use hpcqc::program::Register;
use hpcqc::qrmi::{
    CloudEngine, CloudResource, FaultInjector, FaultProfile, LocalEmulatorResource,
    ResourceRegistry,
};
use hpcqc::sdk::AnalogProgram;
use hpcqc::telemetry::Registry;
use std::sync::Arc;

fn registry(profile: FaultProfile, metrics: &Registry) -> ResourceRegistry {
    let backend = Arc::new(SvBackend::default());
    let cloud = Arc::new(CloudResource::new(
        "flaky-cloud",
        CloudEngine::Emulator(backend.clone()),
        2,
        7,
    ));
    let mut reg = ResourceRegistry::new();
    reg.register(Arc::new(
        FaultInjector::new(cloud, profile, 1234).with_metrics(metrics.clone()),
    ));
    reg.register(Arc::new(LocalEmulatorResource::new(
        "emu-local",
        backend,
        3,
    )));
    reg.default_resource = Some("flaky-cloud".into());
    reg
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = AnalogProgram::on(Register::ring(4, 6.0)?)
        .adiabatic_sweep(2.0, 5.0, -8.0, 8.0)
        .to_ir(100)?;

    // --- 1. a ~25%-failure resource, production-class retry budget -------
    let metrics = Registry::new();
    let profile = FaultProfile::flaky();
    println!(
        "flaky profile: {:.0}% acquire denials, {:.0}% task failures, \
         {:.0}% result-fetch errors",
        profile.acquire_denial_rate * 100.0,
        profile.task_failure_rate * 100.0,
        profile.result_fetch_failure_rate * 100.0
    );
    let rt = Runtime::new(registry(profile, &metrics))
        .with_retry_policy(RetryPolicy::default())
        .with_priority_class(PriorityClass::Production)
        .with_fault_metrics(metrics.clone());

    let mut attempts = 0;
    let mut backoff = 0.0;
    for i in 0..10 {
        let run = rt.run_recovered(&program)?;
        attempts += run.attempts;
        backoff += run.backoff_secs;
        println!(
            "run {i}: {} shots on {} after {} attempt(s), {:.2}s simulated backoff",
            run.report.result.shots, run.report.resource_id, run.attempts, run.backoff_secs
        );
    }
    println!("\n10/10 runs completed: {attempts} attempts, {backoff:.2}s total backoff\n");

    // --- 2. a dead resource: budget exhausts, runtime degrades ----------
    let dead = FaultProfile {
        acquire_denial_rate: 1.0,
        ..FaultProfile::none()
    };
    let rt = Runtime::new(registry(dead, &metrics))
        .with_retry_policy(RetryPolicy::default().with_budget(
            PriorityClass::Development,
            AttemptBudget {
                max_attempts: 3,
                max_backoff_secs: 60.0,
            },
        ))
        .with_fallback(true)
        .with_fault_metrics(metrics.clone());
    let run = rt.run_recovered(&program)?;
    println!(
        "dead cloud: degraded to {} after exhausting the flaky-cloud budget \
         ({} total attempts)",
        run.fallback_resource.as_deref().unwrap_or("?"),
        run.attempts,
    );

    // --- 3. the whole story, as Prometheus would scrape it ---------------
    println!("\n# telemetry");
    for line in metrics.expose().lines() {
        if ["fault", "retr", "backoff", "fallback"]
            .iter()
            .any(|k| line.contains(k))
        {
            println!("{line}");
        }
    }
    Ok(())
}
