//! A multi-user HPC site in one process: REST daemon, virtual QPU, three
//! user classes, preemption and observability.
//!
//! The Figure-2 architecture live: the middleware daemon runs as a real HTTP
//! service on localhost; a production team, a QA team and a student submit
//! concurrently; production preempts the student's shot-sliced development
//! job; the site operator scrapes /metrics and inspects telemetry.
//!
//! Run: `cargo run --release --example multi_user_site`

use hpcqc::core::DaemonClient;
use hpcqc::middleware::{DaemonConfig, MiddlewareService, PriorityClass, Site};
use hpcqc::program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc::qpu::VirtualQpu;
use hpcqc::qrmi::QpuDirectResource;
use hpcqc::scheduler::PatternHint;
use std::sync::Arc;

fn job(shots: u32) -> ProgramIr {
    let reg = Register::linear(4, 6.0).expect("valid chain");
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.8, 6.0, -3.0, 0.0).expect("valid pulse"));
    ProgramIr::new(b.build().expect("non-empty"), shots, "site-example")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- the quantum access node: device + daemon + REST -----------------
    let qpu = VirtualQpu::new("fresnel-1", 1234);
    let resource = Arc::new(QpuDirectResource::new("fresnel-1", qpu.clone(), 7));
    let cfg = DaemonConfig {
        dev_shot_cap: 50,        // §3.3: development runs are shot-capped
        preempt_chunk_shots: 10, // and unbatched → preemptible
        ..DaemonConfig::default()
    };
    // the daemon's own dispatcher drives the queue; clients submit and poll
    let site = Site::spawn(
        MiddlewareService::new(resource, cfg).with_qpu_admin(qpu.clone()),
        0,
    )?;
    println!("middleware daemon listening on http://{}\n", site.addr());

    // --- three users, three classes, concurrent sessions -----------------
    let mut workers = Vec::new();
    for (user, class, shots, jobs) in [
        ("prod-team", PriorityClass::Production, 100u32, 2usize),
        ("qa-team", PriorityClass::Test, 60, 2),
        ("student", PriorityClass::Development, 500, 2), // capped to 50
    ] {
        let addr = site.addr();
        workers.push(std::thread::spawn(move || {
            let session = DaemonClient::new(addr)
                .open_session(user, class)
                .expect("session opens");
            for k in 0..jobs {
                let result = session
                    .run(&job(shots), PatternHint::QcHeavy)
                    .expect("task completes");
                println!(
                    "  [{user}/{}] job {k}: {} shots done, backend {}",
                    class.as_str(),
                    result.shots,
                    result.backend
                );
            }
            session.close().expect("session closes");
        }));
    }
    for w in workers {
        w.join().expect("worker finishes");
    }

    // --- the operator's view ---------------------------------------------
    let client = DaemonClient::new(site.addr());
    let metrics = client.metrics()?;
    println!("\n--- operator: /metrics excerpt ---");
    for line in metrics.lines().filter(|l| {
        l.starts_with("daemon_tasks_completed_total")
            || l.starts_with("daemon_preemptions_total")
            || l.starts_with("qpu_busy_seconds_total")
            || l.starts_with("qpu_rabi_scale ")
    }) {
        println!("  {line}");
    }
    let (jobs_done, shots_done) = qpu.stats();
    println!("\ndevice totals: {jobs_done} executions, {shots_done} shots");
    println!("device utilization since boot: {:.2}", qpu.utilization());
    println!("\nnote: the student's 500-shot request ran as 50 shots (dev cap) in");
    println!("10-shot slices, yielding to production whenever it queued — the §3.3");
    println!("preemption model, visible in daemon_preemptions_total above.");
    Ok(())
}
