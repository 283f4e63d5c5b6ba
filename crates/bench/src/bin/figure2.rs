//! Experiment F2 — regenerates **Figure 2**: the daemon-mediated multi-user
//! architecture.
//!
//! Figure 2's claims, measured:
//! 1. **Full stack works over real sockets**: three users (production /
//!    test / development sessions) submit concurrently through the REST
//!    daemon to one virtual QPU; production preempts at shot boundaries.
//! 2. **The second scheduling layer pays off**: co-simulated site with and
//!    without the middleware layer at shot rates 1/10/100 Hz — the
//!    middleware's benefit is largest for today's slow (1 Hz) devices.
//! 3. **Telemetry flows**: the combined daemon+device Prometheus exposition
//!    is printed for inspection.
//!
//! Run: `cargo run -p hpcqc-bench --bin figure2 [--quick]`

use hpcqc_bench::{fmt_pm, render_table, HarnessArgs};
use hpcqc_core::{DaemonClient, DaemonSession};
use hpcqc_middleware::rest::serve;
use hpcqc_middleware::{DaemonConfig, MiddlewareService, PriorityClass};
use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qpu::VirtualQpu;
use hpcqc_qrmi::QpuDirectResource;
use hpcqc_scheduler::{AdmissionPolicy, Cosim, CosimConfig, PatternHint, Phase, QpuPolicy};
use hpcqc_workloads::{generate_population, PatternGenConfig};
use std::sync::Arc;

fn probe_ir(shots: u32) -> ProgramIr {
    let reg = Register::linear(3, 6.0).expect("valid chain");
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.6, 6.0, -2.0, 0.0).expect("valid pulse"));
    ProgramIr::new(b.build().expect("non-empty"), shots, "figure2")
}

fn main() {
    let args = HarnessArgs::from_env();
    println!("== Figure 2 reproduction: daemon-mediated multi-user HPC-QC site ==\n");
    rest_stack_experiment(&args);
    middleware_value_experiment(&args);
}

/// Part 1: the live stack — REST daemon + QPU + 3 concurrent user sessions.
fn rest_stack_experiment(args: &HarnessArgs) {
    println!("-- live stack over 127.0.0.1 sockets --");
    let qpu = VirtualQpu::new("fresnel-1", 4242);
    let resource = Arc::new(QpuDirectResource::new("fresnel-1", qpu.clone(), 7));
    let svc = Arc::new(
        MiddlewareService::new(
            resource,
            DaemonConfig {
                preempt_chunk_shots: 5,
                dev_shot_cap: 40,
                ..DaemonConfig::default()
            },
        )
        .with_qpu_admin(qpu.clone()),
    );
    let server = serve(svc).expect("daemon binds localhost");
    let client = DaemonClient::new(server.addr());

    let spec = client.target().expect("daemon serves the device spec");
    println!(
        "daemon on {} fronting {} (spec rev {}, {} Hz shot rate)",
        server.addr(),
        spec.name,
        spec.revision,
        spec.shot_rate_hz
    );

    let users: Vec<(&str, PriorityClass, u32)> = vec![
        ("prod-team", PriorityClass::Production, 60),
        ("qa-team", PriorityClass::Test, 40),
        ("student", PriorityClass::Development, 200), // capped to 40 by policy
    ];
    let n_tasks = args.scaled(3, 2);
    let mut handles = Vec::new();
    for (user, class, shots) in users {
        let addr = server.addr();
        handles.push(std::thread::spawn(move || {
            let session: DaemonSession = DaemonClient::new(addr)
                .open_session(user, class)
                .expect("session opens");
            let mut done = Vec::new();
            for _ in 0..n_tasks {
                let res = session
                    .run(&probe_ir(shots), PatternHint::QcBalanced)
                    .expect("task completes");
                done.push(res.shots);
            }
            (user, class, done)
        }));
    }
    let mut rows = Vec::new();
    for h in handles {
        let (user, class, shots) = h.join().expect("worker thread");
        rows.push(vec![
            user.to_string(),
            class.as_str().to_string(),
            format!("{shots:?}"),
        ]);
    }
    println!(
        "{}",
        render_table(&["user", "class", "completed shot counts"], &rows)
    );
    let (jobs, shots) = qpu.stats();
    println!(
        "device: {jobs} executions, {shots} shots, utilization {:.2}\n",
        qpu.utilization()
    );
    let metrics = client.metrics().expect("metrics exposed");
    let wanted = [
        "daemon_tasks_completed_total",
        "daemon_task_wait_seconds",
        "daemon_preemptions_total",
        "qpu_busy_seconds_total",
        "qpu_rabi_scale",
    ];
    println!("-- prometheus exposition excerpt --");
    for line in metrics.lines() {
        if wanted.iter().any(|w| line.starts_with(w)) {
            println!("  {line}");
        }
    }
    println!();
}

/// Part 2: with/without the middleware layer, across shot rates.
fn middleware_value_experiment(args: &HarnessArgs) {
    println!("-- second-level scheduling value vs QPU speed (co-simulation) --");
    let n_jobs = args.scaled(150, 30);
    let seeds: Vec<u64> = (0..args.seeds as u64).map(|s| 500 + s).collect();
    // The shot rate scales quantum phase durations: a 100 Hz roadmap device
    // spends 100x less wall-clock per quantum phase than today's 1 Hz one.
    let mut rows = Vec::new();
    for &(rate_label, q_scale) in &[("1 Hz", 1.0), ("10 Hz", 0.1), ("100 Hz", 0.01)] {
        for (layer, admission, qpu_policy) in [
            ("slurm-only", AdmissionPolicy::Sequential, QpuPolicy::Fifo),
            (
                "with-middleware",
                AdmissionPolicy::PatternAware { target_duty: 1.2 },
                QpuPolicy::Priority { preemption: true },
            ),
        ] {
            let mut utils = Vec::new();
            let mut prod_waits = Vec::new();
            let mut makespans = Vec::new();
            for &seed in &seeds {
                let mut jobs = generate_population(
                    n_jobs,
                    (1.0, 1.0, 1.0),
                    &PatternGenConfig {
                        mean_total_secs: 600.0,
                        mean_interarrival_secs: 20.0,
                        ..PatternGenConfig::default()
                    },
                    seed,
                );
                for j in &mut jobs {
                    for p in &mut j.phases {
                        if let Phase::Quantum(s) = p {
                            *s *= q_scale;
                        }
                    }
                }
                let report = Cosim::new(
                    CosimConfig {
                        nodes: 32,
                        admission,
                        qpu_policy,
                        chunk_secs: 10.0 * q_scale,
                    },
                    jobs,
                )
                .run();
                utils.push(report.qpu_utilization);
                if let Some(w) = report.wait_by_class.get("production") {
                    prod_waits.push(w.p95_wait_secs);
                }
                makespans.push(report.makespan_secs);
            }
            rows.push(vec![
                rate_label.to_string(),
                layer.to_string(),
                fmt_pm(&utils, 3),
                if prod_waits.is_empty() {
                    "-".into()
                } else {
                    fmt_pm(&prod_waits, 0)
                },
                fmt_pm(&makespans, 0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "shot-rate",
                "layer",
                "qpu-util",
                "prod-p95-wait(s)",
                "makespan(s)"
            ],
            &rows
        )
    );
    println!("Expected shape: the middleware layer cuts makespan and production wait at");
    println!("every speed; its *relative* QPU-utilization gain is largest at 1 Hz, where");
    println!("quantum phases dominate and idle gaps are most expensive (§2.2.1, §2.4).");
}
