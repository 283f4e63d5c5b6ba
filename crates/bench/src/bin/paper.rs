//! The paper's claims, measured and gated: Table 1 with the §3.5 GRES
//! timeshares (T1, S1), Figure 1 with the drift scenario (F1), Figure 2's
//! live stack and shot-rate sweep (F2), and the §2.5/§3.6 drift detectors
//! with the alert lifecycle (S2). Writes `BENCH_paper.json`.
//!
//! Each table row is a report case, and run `i` of a case uses seed
//! `base + i`: T1 1000, S1 1, F1's QPU 99, F2 500, S2 11 — so `--seeds N`
//! widens every experiment at once. Each claim the paper's artifacts make
//! is a named gate read from the folded numbers; a falsified claim makes
//! the harness exit 1.
//!
//! Run: `cargo run --release -p hpcqc-bench --bin paper [--quick] [--seeds N]
//!       [--out PATH]`

use hpcqc_bench::{Claim, HarnessArgs, Report, Sample, Stat};
use hpcqc_core::{DaemonClient, RunReport, Runtime};
use hpcqc_middleware::{DaemonConfig, MiddlewareService, PriorityClass, Site};
use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qpu::{run_qa, VirtualQpu};
use hpcqc_qrmi::{QpuDirectResource, QrmiConfig, ResourceConfig, ResourceFactory, ResourceType};
use hpcqc_scheduler::{standard_partitions, AccountingSummary, Cluster, SchedPolicy, SlurmSim};
use hpcqc_scheduler::{
    AdmissionPolicy, Cosim, CosimConfig, HybridJob, PatternHint, Phase, QpuPolicy,
};
use hpcqc_telemetry::{
    AlertManager, AlertRule, AlertState, Cmp, CusumDetector, Detection, ZScoreDetector,
};
use hpcqc_workloads::{
    generate_population, mis_program, to_batch_spec, MisSweep, PatternGenConfig,
};
use serde_json::json;
use std::collections::BTreeSet;
use std::sync::Arc;

fn main() {
    let args = HarnessArgs::from_env();
    let mut report = Report::new("paper", &args);
    table1(&mut report, &args);
    gres_timeshares(&mut report, &args);
    figure1(&mut report, &args);
    figure2(&mut report, &args);
    observability(&mut report, &args);
    report.finish(&args.out_path("paper"));
}

/// The folded `metric` of case `case`.
fn stat<'a>(report: &'a Report, case: &str, metric: &str) -> &'a Stat {
    report
        .cases
        .iter()
        .find(|c| c.name == case)
        .and_then(|c| c.metrics.get(metric))
        .unwrap_or_else(|| panic!("{case}: {metric} was not measured"))
}

/// One co-simulated site on 32 nodes and one QPU: the metrics every T1 and
/// F2 row reports.
fn cosim(
    jobs: Vec<HybridJob>,
    admission: AdmissionPolicy,
    qpu_policy: QpuPolicy,
    chunk_secs: f64,
) -> Vec<Sample> {
    let cfg = CosimConfig {
        nodes: 32,
        admission,
        qpu_policy,
        chunk_secs,
    };
    let r = Cosim::new(cfg, jobs).run();
    let turnarounds: Vec<f64> = r.turnaround_by_class.values().copied().collect();
    let prod = &r.wait_by_class["production"];
    vec![
        ("qpu_util", "ratio", r.qpu_utilization),
        ("node_waste", "ratio", r.node_waste_frac),
        (
            "turnaround_s",
            "sim_s",
            turnarounds.iter().sum::<f64>() / turnarounds.len() as f64,
        ),
        ("prod_p95_wait_s", "sim_s", prod.p95_wait_secs),
        ("makespan_s", "sim_s", r.makespan_secs),
        ("preemptions", "count", r.preemptions as f64),
    ]
}

const PATTERN_AWARE: AdmissionPolicy = AdmissionPolicy::PatternAware { target_duty: 1.2 };
const PREEMPTIVE: QpuPolicy = QpuPolicy::Priority { preemption: true };

/// T1 — Table 1's hints: every workload pattern under every second-level
/// policy.
fn table1(report: &mut Report, args: &HarnessArgs) {
    const PATTERNS: [(&str, (f64, f64, f64)); 4] = [
        ("A", (1.0, 0.0, 0.0)),
        ("B", (0.0, 1.0, 0.0)),
        ("C", (0.0, 0.0, 1.0)),
        ("mixed", (1.0, 1.0, 1.0)),
    ];
    const POLICIES: [(&str, AdmissionPolicy, QpuPolicy); 5] = [
        ("sequential", AdmissionPolicy::Sequential, QpuPolicy::Fifo),
        (
            "fifo-interleave",
            AdmissionPolicy::NodeLimited,
            QpuPolicy::Fifo,
        ),
        (
            "priority-interleave",
            AdmissionPolicy::NodeLimited,
            PREEMPTIVE,
        ),
        ("pattern-aware", PATTERN_AWARE, PREEMPTIVE),
        ("sjf-interleave", PATTERN_AWARE, QpuPolicy::ShortestFirst),
    ];
    let n_jobs = args.scaled(200, 100);
    let gen_cfg = PatternGenConfig {
        mean_total_secs: 600.0,
        balanced_rounds: 6,
        nodes: 1,
        mean_interarrival_secs: 30.0,
    };
    for (pattern, mix) in PATTERNS {
        for (policy, admission, qpu_policy) in POLICIES {
            let params = json!({ "jobs": n_jobs, "seed": "1000+run" });
            report.case(&format!("T1 {pattern} {policy}"), params, |i| {
                let jobs = generate_population(n_jobs, mix, &gen_cfg, 1000 + i as u64);
                cosim(jobs, admission, qpu_policy, 10.0)
            });
        }
    }

    let median = |row: &str, metric: &str| stat(report, &format!("T1 {row}"), metric).median;
    let (sequential, interleaved) = (
        median("B sequential", "qpu_util"),
        median("B fifo-interleave", "qpu_util"),
    );
    let waste = median("A pattern-aware", "node_waste");
    let mut claims = vec![
        Claim::new(
            "T1 B: interleaving rescues the idle QPU (fifo-interleave util >= 0.90, sequential <= 0.15)",
            interleaved >= 0.90 && sequential <= 0.15,
            format!("median util {sequential:.3} -> {interleaved:.3}"),
        ),
        Claim::new(
            "T1 A: pattern-aware admission parks no job on the QPU queue (node-waste <= 0.05)",
            waste <= 0.05,
            format!("median node-waste {waste:.3}"),
        ),
    ];
    for pattern in ["C", "mixed"] {
        let greedy = median(&format!("{pattern} priority-interleave"), "node_waste");
        let aware = median(&format!("{pattern} pattern-aware"), "node_waste");
        let util = median(&format!("{pattern} pattern-aware"), "qpu_util");
        claims.push(Claim::new(
            &format!("T1 {pattern}: pattern-aware node-waste <= 1/3 of priority-interleave's, at util >= 0.75"),
            aware <= greedy / 3.0 && util >= 0.75,
            format!("median node-waste {greedy:.3} -> {aware:.3}, util {util:.3}"),
        ));
    }
    report.claims.extend(claims);
}

/// S1 — §3.5: QPU timeshares as ten GRES units enforced by the batch layer.
fn gres_timeshares(report: &mut Report, args: &HarnessArgs) {
    let n_jobs = args.scaled(300, 150);
    let params = json!({ "gres_units": 10, "jobs": n_jobs, "nodes": 32, "seed": "1+run" });
    report.case("S1 gres", params, |i| {
        let cluster = Cluster::new(32).with_gres("qpu", 10);
        let mut sim = SlurmSim::new(cluster, standard_partitions(), SchedPolicy::default());
        let gen_cfg = PatternGenConfig::default();
        let jobs = generate_population(n_jobs, (1.0, 1.0, 1.0), &gen_cfg, 1 + i as u64);
        for j in &jobs {
            sim.submit_at(to_batch_spec(j, 10), j.arrival)
                .expect("valid spec");
        }
        sim.run_to_completion();
        let util = sim.gres_utilization("qpu").expect("qpu pool exists");
        let summary = AccountingSummary::from_jobs(sim.jobs());
        vec![
            ("gres_util", "ratio", util),
            ("node_util", "ratio", sim.node_utilization()),
            ("completed", "count", summary.completed as f64),
            ("preemptions", "count", summary.preemptions as f64),
            ("mean_wait_s", "sim_s", summary.overall.mean_wait_secs),
        ]
    });
    let util = stat(report, "S1 gres", "gres_util").clone();
    report.claims.push(Claim::new(
        "S1: ten 10% QPU shares keep the pool busy (GRES util in [0.9, 1] in every run)",
        util.min >= 0.9 && util.max <= 1.0,
        format!("GRES util {:.3}..{:.3}", util.min, util.max),
    ));
}

/// One pass of Figure 1 against a virtual QPU seeded `qpu_seed`: the
/// unchanged program on every resource, then validate → drift →
/// re-validate on that QPU.
struct PortabilityRun {
    /// Per target, in order: TV distance from the first target (the exact
    /// state vector), and the run's report.
    rows: Vec<(f64, RunReport)>,
    /// Violations before the drift, after it, and after recalibration.
    violations: [usize; 3],
    /// How far the recalibration moved the spec revision.
    revision_bump: u64,
}

fn portability_run(
    program: &ProgramIr,
    targets: &[(String, Option<usize>)],
    qpu_seed: u64,
) -> PortabilityRun {
    let resource = |id: &str, rtype, params: &[(&str, String)]| ResourceConfig {
        id: id.to_string(),
        rtype,
        params: params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    };
    let resources = targets
        .iter()
        .map(|(id, chi)| match (id.as_str(), chi) {
            ("qpu:fresnel", _) => resource(
                id,
                ResourceType::QpuDirect,
                &[("device", "fresnel-1".into())],
            ),
            ("cloud:emu-mps", Some(chi)) => resource(
                id,
                ResourceType::EmulatorCloud,
                &[
                    ("backend", "emu-mps".into()),
                    ("chi", chi.to_string()),
                    ("queue_polls", "3".into()),
                ],
            ),
            (_, Some(chi)) => resource(
                id,
                ResourceType::EmulatorLocal,
                &[("backend", "emu-mps".into()), ("chi", chi.to_string())],
            ),
            (_, None) => resource(
                id,
                ResourceType::EmulatorLocal,
                &[("backend", "emu-sv".into())],
            ),
        })
        .collect();
    let cfg = QrmiConfig {
        resources,
        default_resource: Some(targets[0].0.clone()),
    };
    let qpu = VirtualQpu::new("fresnel-1", qpu_seed);
    let registry = ResourceFactory::new(17)
        .with_qpu("fresnel-1", qpu.clone())
        .build_registry(&cfg)
        .expect("valid configuration");
    let ids: Vec<&str> = targets.iter().map(|(id, _)| id.as_str()).collect();
    let reports: Vec<RunReport> = Runtime::new(registry)
        .run_everywhere(program, &ids)
        .into_iter()
        .map(|(id, run)| run.unwrap_or_else(|e| panic!("{id}: {e}")))
        .collect();
    let reference = reports[0].result.clone();
    let rows = reports
        .into_iter()
        .map(|r| (reference.total_variation_distance(&r.result), r))
        .collect();

    let validate = || {
        let spec = qpu.current_spec();
        let violations = hpcqc_program::validate(&program.sequence, &spec);
        (violations.len(), spec.revision)
    };
    let validated = validate();
    // overnight drift plus a laser-power fault, then a recalibration
    qpu.advance_time(86_400.0);
    qpu.inject_rabi_fault(0.6);
    let drifted = validate();
    qpu.recalibrate(1800.0);
    let recalibrated = validate();
    PortabilityRun {
        rows,
        violations: [validated.0, drifted.0, recalibrated.0],
        revision_bump: recalibrated.1 - drifted.1,
    }
}

/// F1 — Figure 1: one unchanged program on every environment, switching
/// only the resource; the χ = 1 mock validates against the live spec.
fn figure1(report: &mut Report, args: &HarnessArgs) {
    let shots = args.scaled(2000, 400) as u32;
    let n_atoms = args.scaled(8, 5);
    let chis: &[usize] = if args.quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    // The exact reference first: every row's TV distance is taken from it.
    let mut targets = vec![
        ("laptop:emu-sv".to_string(), None),
        ("cloud:emu-mps".to_string(), Some(16)),
    ];
    targets.extend(
        chis.iter()
            .map(|&c| (format!("hpc:emu-mps-chi{c}"), Some(c))),
    );
    targets.push(("qpu:fresnel".to_string(), None));

    let register = Register::linear(n_atoms, 6.0).expect("valid chain");
    let program = mis_program(&register, &MisSweep::default(), shots);
    // Emulators are seeded by the factory, so only the QPU row differs
    // between runs; each run still executes every row.
    let runs: Vec<PortabilityRun> = (0..report.runs)
        .map(|i| portability_run(&program, &targets, 99 + i as u64))
        .collect();
    for (k, (id, chi)) in targets.iter().enumerate() {
        let params = json!({ "atoms": n_atoms, "shots": shots, "chi": chi, "qpu_seed": "99+run" });
        report.case(&format!("F1 {id}"), params, |i| {
            let (tv, r) = &runs[i].rows[k];
            vec![
                ("tv", "ratio", *tv),
                ("truncation_error", "ratio", r.result.truncation_error),
                ("n0_occupation", "ratio", r.result.occupation(0)),
                ("spec_revision", "count", r.spec_revision as f64),
            ]
        });
    }
    let params = json!({ "drift_s": 86_400, "rabi_fault": 0.6, "qpu_seed": "99+run" });
    report.case("F1 drift", params, |i| {
        let run = &runs[i];
        let prints: BTreeSet<u64> = run
            .rows
            .iter()
            .map(|(_, r)| r.program_fingerprint)
            .collect();
        vec![
            ("violations_validated", "count", run.violations[0] as f64),
            ("violations_drifted", "count", run.violations[1] as f64),
            ("violations_recalibrated", "count", run.violations[2] as f64),
            ("revision_bump", "count", run.revision_bump as f64),
            ("program_fingerprints", "count", prints.len() as f64),
        ]
    });

    // Shot noise alone keeps two independent sample sets this far apart.
    let floor = (8.0 / shots as f64).sqrt();
    let tv = |id: &str| stat(report, &format!("F1 {id}"), "tv");
    let converged: Vec<&str> = targets
        .iter()
        .filter(|(_, chi)| chi.is_some_and(|c| c >= 8))
        .map(|(id, _)| id.as_str())
        .collect();
    let worst = converged.iter().map(|id| tv(id).max).fold(0.0, f64::max);
    let mock = tv("hpc:emu-mps-chi1").min;
    let (qpu, chi16) = (tv("qpu:fresnel").min, tv("hpc:emu-mps-chi16").max);
    let drift = |m: &str| stat(report, "F1 drift", m);
    let (v0, v1, v2) = (
        drift("violations_validated"),
        drift("violations_drifted"),
        drift("violations_recalibrated"),
    );
    let bump = drift("revision_bump").min;
    let prints = drift("program_fingerprints");
    let claims = [
        Claim::new(
            "F1: every emu-mps row with chi >= 8 is at the shot-noise floor (TV <= sqrt(8/shots))",
            worst <= floor,
            format!("max TV {worst:.4} over {} rows, floor {floor:.4}", converged.len()),
        ),
        Claim::new(
            "F1: the chi = 1 mock runs but is not physics (TV above the floor)",
            mock > floor,
            format!("min TV {mock:.4}, floor {floor:.4}"),
        ),
        Claim::new(
            "F1: the QPU row sits above the converged emulator (TV above chi = 16's)",
            qpu > chi16,
            format!("QPU min TV {qpu:.4}, chi16 max TV {chi16:.4}"),
        ),
        Claim::new(
            "F1: validation against the live spec catches drift (0 -> >0 -> 0 violations across a revision bump)",
            v0.max == 0.0 && v1.min > 0.0 && v2.max == 0.0 && bump > 0.0,
            format!(
                "violations {} -> {}..{} -> {}, revision +{bump}",
                v0.max, v1.min, v1.max, v2.max
            ),
        ),
        Claim::new(
            "F1: the identical program ran on every environment (one fingerprint on every row)",
            prints.min == 1.0 && prints.max == 1.0,
            format!("{} fingerprint(s) over {} rows", prints.max, targets.len()),
        ),
    ];
    report.claims.extend(claims);
}

fn probe_ir(shots: u32) -> ProgramIr {
    let reg = Register::linear(3, 6.0).expect("valid chain");
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.6, 6.0, -2.0, 0.0).expect("valid pulse"));
    ProgramIr::new(b.build().expect("non-empty"), shots, "figure2")
}

/// F2 — Figure 2: the daemon-mediated site over real sockets, and the
/// second scheduling layer's value across device shot rates.
fn figure2(report: &mut Report, args: &HarnessArgs) {
    const DEV_SHOT_CAP: u32 = 40;
    const USERS: [(&str, PriorityClass, u32); 3] = [
        ("prod-team", PriorityClass::Production, 60),
        ("qa-team", PriorityClass::Test, 40),
        ("student", PriorityClass::Development, 200),
    ];
    let n_tasks = args.scaled(3, 2);
    let params =
        json!({ "tasks_per_user": n_tasks, "dev_shots_asked": 200, "dev_shot_cap": DEV_SHOT_CAP });
    report.case("F2 live-stack", params, |_| {
        let qpu = VirtualQpu::new("fresnel-1", 4242);
        let resource = Arc::new(QpuDirectResource::new("fresnel-1", qpu.clone(), 7));
        let cfg = DaemonConfig {
            preempt_chunk_shots: 5,
            dev_shot_cap: DEV_SHOT_CAP,
            ..DaemonConfig::default()
        };
        // as `hpcqcd` runs it: the dispatcher drives the queue, clients poll
        let svc = MiddlewareService::new(resource, cfg).with_qpu_admin(qpu.clone());
        let site = Site::spawn(svc, 0).expect("daemon binds localhost");
        let done: Vec<(PriorityClass, u32)> = std::thread::scope(|s| {
            let users: Vec<_> = USERS
                .iter()
                .map(|&(user, class, shots)| {
                    let client = DaemonClient::new(site.addr());
                    s.spawn(move || {
                        let session = client.open_session(user, class).expect("session opens");
                        (0..n_tasks)
                            .map(|_| {
                                let r = session
                                    .run(&probe_ir(shots), PatternHint::QcBalanced)
                                    .expect("task completes");
                                (class, r.shots)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            users
                .into_iter()
                .flat_map(|u| u.join().expect("user thread"))
                .collect()
        });
        let dev_shots = done
            .iter()
            .filter(|(class, _)| *class == PriorityClass::Development)
            .map(|&(_, shots)| shots);
        vec![
            ("tasks_completed", "count", done.len() as f64),
            (
                "dev_shots_max",
                "count",
                dev_shots.max().unwrap_or(0) as f64,
            ),
            ("device_executions", "count", qpu.stats().0 as f64),
            ("device_util", "ratio", qpu.utilization()),
        ]
    });

    // The shot rate scales quantum phase durations: a 100 Hz roadmap device
    // spends 100x less wall-clock per quantum phase than today's 1 Hz one.
    const RATES: [(&str, f64); 3] = [("1Hz", 1.0), ("10Hz", 0.1), ("100Hz", 0.01)];
    const LAYERS: [(&str, AdmissionPolicy, QpuPolicy); 2] = [
        ("slurm-only", AdmissionPolicy::Sequential, QpuPolicy::Fifo),
        ("with-middleware", PATTERN_AWARE, PREEMPTIVE),
    ];
    let n_jobs = args.scaled(150, 30);
    let gen_cfg = PatternGenConfig {
        mean_total_secs: 600.0,
        mean_interarrival_secs: 20.0,
        ..PatternGenConfig::default()
    };
    for (rate, q_scale) in RATES {
        for (layer, admission, qpu_policy) in LAYERS {
            let params =
                json!({ "quantum_phase_scale": q_scale, "jobs": n_jobs, "seed": "500+run" });
            report.case(&format!("F2 {rate} {layer}"), params, |i| {
                let mut jobs =
                    generate_population(n_jobs, (1.0, 1.0, 1.0), &gen_cfg, 500 + i as u64);
                for phase in jobs.iter_mut().flat_map(|j| &mut j.phases) {
                    if let Phase::Quantum(s) = phase {
                        *s *= q_scale;
                    }
                }
                cosim(jobs, admission, qpu_policy, 10.0 * q_scale)
            });
        }
    }

    let live = |m: &str| stat(report, "F2 live-stack", m);
    let (completed, dev_shots) = (live("tasks_completed").min, live("dev_shots_max").max);
    let expected = USERS.len() * n_tasks;
    let median = |row: String, m: &str| stat(report, &row, m).median;
    let layers: Vec<(&str, [f64; 4])> = RATES
        .iter()
        .map(|&(rate, _)| {
            let row = |layer: &str| format!("F2 {rate} {layer}");
            let readings = [
                median(row("slurm-only"), "qpu_util"),
                median(row("with-middleware"), "qpu_util"),
                median(row("slurm-only"), "makespan_s"),
                median(row("with-middleware"), "makespan_s"),
            ];
            (rate, readings)
        })
        .collect();
    let claims = [
        Claim::new(
            "F2: every task of three concurrent users completes over REST, development shots capped",
            completed == expected as f64 && dev_shots <= DEV_SHOT_CAP as f64,
            format!("{completed} of {expected} tasks, dev shots <= {dev_shots} (asked 200)"),
        ),
        Claim::new(
            "F2: the middleware layer raises QPU util and cuts makespan at 1, 10 and 100 Hz",
            layers.iter().all(|(_, [u0, u1, m0, m1])| u1 > u0 && m1 < m0),
            layers
                .iter()
                .map(|(rate, [u0, u1, m0, m1])| {
                    format!("{rate}: util {u0:.3} -> {u1:.3}, makespan {m0:.0} -> {m1:.0} s")
                })
                .collect::<Vec<_>>()
                .join("; "),
        ),
    ];
    report.claims.extend(claims);
}

/// When a detector first fired, relative to the injected fault.
#[derive(Clone, Copy)]
enum Outcome {
    /// Minutes after the fault.
    Caught(f64),
    /// Fired before the fault.
    FalseAlarm,
    Missed,
}

impl Outcome {
    fn within(self, minutes: f64) -> bool {
        matches!(self, Outcome::Caught(m) if m <= minutes)
    }

    fn label(self) -> String {
        match self {
            Outcome::Caught(m) => format!("{m} min"),
            Outcome::FalseAlarm => "false alarm".into(),
            Outcome::Missed => "missed".into(),
        }
    }
}

/// S2 — §2.5/§3.6: telemetry detectors against a slow laser-power fade and
/// an abrupt step, the results-level QA probe as the baseline, and a
/// Prometheus-style alert rule through its lifecycle.
fn observability(report: &mut Report, args: &HarnessArgs) {
    const TICK_SECS: f64 = 60.0;
    let ticks = args.scaled(600, 200);
    let fault_at = ticks / 2;
    let window_min = (ticks - fault_at) as f64 * TICK_SECS / 60.0;
    let outcome = |tick: Option<usize>| match tick {
        Some(t) if t >= fault_at => Outcome::Caught((t - fault_at) as f64 * TICK_SECS / 60.0),
        Some(_) => Outcome::FalseAlarm,
        None => Outcome::Missed,
    };
    // Thresholds sized to the servo's stationary wander (σ_stat ≈ 0.14 %).
    let zscore = || ZScoreDetector::new(60, 5.0).with_min_std(1e-3);
    let drifted = |d: Detection| matches!(d, Detection::Drift { .. });
    let rabi = |qpu: &VirtualQpu| {
        let sample = qpu.tsdb().last("qpu_rabi_scale");
        sample.expect("telemetry recorded").value
    };

    // Per run: z-score and CUSUM on the fade, z-score on the step, QA probe.
    let mut outcomes: Vec<[Outcome; 4]> = Vec::new();
    let params = json!({
        "ticks": ticks, "tick_s": TICK_SECS, "fault_tick": fault_at,
        "fade": "8% over 40 ticks", "step": "8%", "miss_reads_as_min": window_min, "seed": "11+run",
    });
    report.case("S2 detectors", params, |i| {
        let seed = 11 + i as u64;
        let qpu = VirtualQpu::new("fresnel-1", seed);
        let (mut z, mut cusum) = (zscore(), CusumDetector::new(60, 3e-3, 2e-2));
        let (mut z_fade, mut cusum_fade, mut qa_fade) = (None, None, None);
        for t in 0..ticks {
            // slow fade: ~8 % laser-power loss spread over 40 ticks
            if (fault_at..fault_at + 40).contains(&t) {
                qpu.inject_rabi_fault(0.002);
            }
            qpu.advance_time(TICK_SECS);
            let v = rabi(&qpu);
            if z_fade.is_none() && drifted(z.update(v)) {
                z_fade = Some(t);
            }
            if cusum_fade.is_none() && drifted(cusum.update(v)) {
                cusum_fade = Some(t);
            }
            // a QA probe every 50 ticks: the "wait for bad science" baseline
            if qa_fade.is_none() && t % 50 == 49 {
                let qa = run_qa(&qpu, 300, 0.03, seed * 1000 + t as u64);
                if qa.expect("device operational").health < 0.97 {
                    qa_fade = Some(t);
                }
            }
        }
        // the same drop as an abrupt step on a fresh device
        let step_qpu = VirtualQpu::new("fresnel-2", seed + 100);
        let mut z_step = zscore();
        let mut step = None;
        for t in 0..ticks {
            if t == fault_at {
                step_qpu.inject_rabi_fault(0.08);
            }
            step_qpu.advance_time(TICK_SECS);
            if step.is_none() && drifted(z_step.update(rabi(&step_qpu))) {
                step = Some(t);
            }
        }

        let run = [z_fade, cusum_fade, step, qa_fade].map(outcome);
        outcomes.push(run);
        let minutes = |o: Outcome| match o {
            Outcome::Caught(m) => m,
            Outcome::FalseAlarm | Outcome::Missed => window_min,
        };
        let tally = |f: fn(&Outcome) -> bool| run.iter().filter(|o| f(o)).count() as f64;
        vec![
            ("zscore_fade_min", "sim_min", minutes(run[0])),
            ("cusum_fade_min", "sim_min", minutes(run[1])),
            ("zscore_step_min", "sim_min", minutes(run[2])),
            ("qa_probe_fade_min", "sim_min", minutes(run[3])),
            ("misses", "count", tally(|o| matches!(o, Outcome::Missed))),
            (
                "false_alarms",
                "count",
                tally(|o| matches!(o, Outcome::FalseAlarm)),
            ),
        ]
    });

    let mut lifecycles: Vec<Vec<(f64, AlertState)>> = Vec::new();
    let params = json!({ "rule": "qpu_rabi_scale < 0.95 over 600 s for 1200 s", "fault_tick": 40, "recalibrate_tick": 80 });
    report.case("S2 alert-lifecycle", params, |_| {
        let qpu = VirtualQpu::new("fresnel-1", 77);
        let mut mgr = AlertManager::new(qpu.tsdb().clone());
        mgr.add_rule(AlertRule {
            name: "qpu_rabi_scale_low".into(),
            series: "qpu_rabi_scale".into(),
            window_secs: 600.0,
            cmp: Cmp::LessThan,
            threshold: 0.95,
            for_secs: 1200.0,
        });
        let mut transitions = Vec::new();
        for t in 0..120 {
            if t == 40 {
                qpu.inject_rabi_fault(0.10);
            }
            if t == 80 {
                qpu.recalibrate(60.0);
            }
            qpu.advance_time(TICK_SECS);
            transitions.extend(
                mgr.evaluate(qpu.now())
                    .into_iter()
                    .map(|ev| (ev.at, ev.state)),
            );
        }
        assert_eq!(
            mgr.state("qpu_rabi_scale_low"),
            transitions.last().map(|&(_, state)| state),
            "the manager's state is its last transition"
        );
        let n = transitions.len() as f64;
        lifecycles.push(transitions);
        vec![("transitions", "count", n)]
    });

    let per_run = |k: usize| {
        let labels: Vec<String> = outcomes.iter().map(|o| o[k].label()).collect();
        labels.join(", ")
    };
    let lifecycle = [
        AlertState::Pending,
        AlertState::Firing,
        AlertState::Inactive,
    ];
    let claims = [
        Claim::new(
            "S2: CUSUM detects the 8% fade within 10 min in every run",
            outcomes.iter().all(|o| o[1].within(10.0)),
            format!("CUSUM {}; z-score {}", per_run(1), per_run(0)),
        ),
        Claim::new(
            "S2: the z-score catches the abrupt step within one tick in every run",
            outcomes.iter().all(|o| o[2].within(TICK_SECS / 60.0)),
            format!("z-score {}", per_run(2)),
        ),
        Claim::new(
            "S2: no false alarm from either telemetry detector over the healthy hours",
            outcomes
                .iter()
                .flat_map(|o| &o[..3])
                .all(|o| !matches!(o, Outcome::FalseAlarm)),
            format!(
                "{fault_at} healthy ticks in each of {} runs",
                outcomes.len()
            ),
        ),
        Claim::new(
            "S2: the results-level QA probe is later than CUSUM, or misses, in every run",
            outcomes.iter().all(|o| match (o[3], o[1]) {
                (Outcome::Caught(qa), Outcome::Caught(cusum)) => qa > cusum,
                (qa, _) => matches!(qa, Outcome::Missed),
            }),
            format!("QA probe {}", per_run(3)),
        ),
        Claim::new(
            "S2: the alert rule goes Pending -> Firing -> Inactive (resolved) in every run",
            lifecycles
                .iter()
                .all(|l| l.iter().map(|&(_, state)| state).eq(lifecycle)),
            lifecycles[0]
                .iter()
                .map(|(at, state)| format!("{state:?} at {at:.0} s"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
    ];
    report.claims.extend(claims);
}
