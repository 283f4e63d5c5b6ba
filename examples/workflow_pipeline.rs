//! A hybrid workflow DAG with retries on a flaky simulated device.
//!
//! The §4 future-work "workflow engine integration" in action: a
//! calibration-probe → analysis → production-sweep → post-processing
//! pipeline expressed as a dependency graph, executed by the runtime on a
//! fault-injecting, *instrumented* resource that loses tasks and simulates
//! 1 Hz hardware timing — so the retry logic and the simulated device-time
//! profile are both exercised on a laptop.
//!
//! Run: `cargo run --release --example workflow_pipeline`

use hpcqc::core::{Runtime, Value, Workflow};
use hpcqc::emulator::SvBackend;
use hpcqc::program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc::qrmi::{
    FaultInjector, FaultProfile, InstrumentedResource, LocalEmulatorResource, ResourceRegistry,
    TimingModel,
};
use std::sync::Arc;

fn pulse_program(duration: f64, shots: u32) -> ProgramIr {
    let reg = Register::linear(4, 6.0).expect("valid chain");
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(duration, 4.0, -2.0, 0.0).expect("valid pulse"));
    ProgramIr::new(b.build().expect("non-empty"), shots, "workflow-example")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // an emulator dressed up as flaky 1 Hz hardware (§4: fault injection +
    // simulated QPU timing for realistic development)
    let timed = Arc::new(InstrumentedResource::new(
        Arc::new(LocalEmulatorResource::new(
            "dev-qpu",
            Arc::new(SvBackend::default()),
            3,
        )),
        TimingModel::production_1hz(),
    ));
    let profile_handle = Arc::clone(&timed);
    let lossy = FaultProfile {
        task_failure_rate: 0.3,
        ..FaultProfile::none()
    };
    let mut registry = ResourceRegistry::new();
    registry.register(Arc::new(FaultInjector::new(timed, lossy, 2026)));
    registry.default_resource = Some("dev-qpu".into());
    let runtime = Runtime::new(registry);

    // --- the DAG ----------------------------------------------------------
    let mut wf = Workflow::new();
    wf.quantum("probe", &[], 8, |_| pulse_program(0.4, 200))?;
    wf.classical("analyze", &["probe"], |o| {
        let occ = o.samples("probe").mean_excitations();
        Ok(Value::Number(occ))
    })?;
    wf.quantum("sweep-lo", &["analyze"], 8, |o| {
        let base = o.number("analyze").clamp(0.1, 2.0);
        pulse_program(0.3 * base, 300)
    })?;
    wf.quantum("sweep-hi", &["analyze"], 8, |o| {
        let base = o.number("analyze").clamp(0.1, 2.0);
        pulse_program(0.6 * base, 300)
    })?;
    wf.classical("report", &["sweep-lo", "sweep-hi"], |o| {
        let lo = o.samples("sweep-lo").mean_excitations();
        let hi = o.samples("sweep-hi").mean_excitations();
        Ok(Value::Text(format!(
            "excitation response: {lo:.3} -> {hi:.3} ({:+.1}%)",
            100.0 * (hi - lo) / lo.max(1e-9)
        )))
    })?;

    let (outputs, trace) = wf.run(&runtime)?;

    println!("workflow trace (step, attempts, simulated device seconds):");
    let mut total_attempts = 0;
    for t in &trace {
        println!(
            "  {:<10} attempts={} device={:.0}s",
            t.step, t.attempts, t.device_secs
        );
        total_attempts += t.attempts;
    }
    if let Value::Text(report) = outputs.get("report") {
        println!("\nfinal report: {report}");
    }
    println!(
        "\nretries absorbed {} injected failures; simulated hardware time {:.0}s \
         (30% task-loss rate, 1 Hz device) — the pipeline is robust to the \
         faults the injector throws at it.",
        total_attempts - trace.len() as u32,
        profile_handle.simulated_device_secs()
    );
    Ok(())
}
