//! Experiment T1 — regenerates **Table 1** of the paper as a measured table.
//!
//! The paper's Table 1 is a *taxonomy with scheduler hints*: pattern A
//! (High-QC/Low-CC) wants a sequential QPU queue, pattern B (Low-QC/High-CC)
//! wants interleaving to kill QPU idle time, pattern C (balanced) wants
//! fine-grained orchestration. This harness turns each cell into numbers: it
//! runs every workload pattern under every second-level policy and reports
//! QPU utilization, wasted node time, and turnaround — confirming that the
//! hinted policy is (near-)optimal for its row.
//!
//! Also includes the §3.5 GRES-timeshare sub-experiment (`--gres`): ten
//! 10 %-units of QPU share enforced by the batch layer.
//!
//! Run: `cargo run -p hpcqc-bench --bin table1 [--quick] [--gres]`

use hpcqc_bench::{fmt_pm, render_table, HarnessArgs};
use hpcqc_scheduler::{standard_partitions, Cluster, SchedPolicy, SlurmSim};
use hpcqc_scheduler::{AdmissionPolicy, Cosim, CosimConfig, QpuPolicy};
use hpcqc_workloads::{generate_population, to_batch_spec, PatternGenConfig};

struct PolicyDef {
    name: &'static str,
    admission: AdmissionPolicy,
    qpu: QpuPolicy,
}

fn policies() -> Vec<PolicyDef> {
    vec![
        PolicyDef {
            name: "sequential",
            admission: AdmissionPolicy::Sequential,
            qpu: QpuPolicy::Fifo,
        },
        PolicyDef {
            name: "fifo-interleave",
            admission: AdmissionPolicy::NodeLimited,
            qpu: QpuPolicy::Fifo,
        },
        PolicyDef {
            name: "priority-interleave",
            admission: AdmissionPolicy::NodeLimited,
            qpu: QpuPolicy::Priority { preemption: true },
        },
        PolicyDef {
            name: "pattern-aware",
            admission: AdmissionPolicy::PatternAware { target_duty: 1.2 },
            qpu: QpuPolicy::Priority { preemption: true },
        },
        PolicyDef {
            name: "sjf-interleave",
            admission: AdmissionPolicy::PatternAware { target_duty: 1.2 },
            qpu: QpuPolicy::ShortestFirst,
        },
    ]
}

fn mixes() -> Vec<(&'static str, (f64, f64, f64))> {
    vec![
        ("A (high-QC)", (1.0, 0.0, 0.0)),
        ("B (high-CC)", (0.0, 1.0, 0.0)),
        ("C (balanced)", (0.0, 0.0, 1.0)),
        ("mixed A/B/C", (1.0, 1.0, 1.0)),
    ]
}

fn main() {
    let args = HarnessArgs::from_env();
    let n_jobs = args.scaled(200, 30);
    let seeds: Vec<u64> = (0..args.seeds as u64).map(|s| 1000 + s).collect();
    println!("== Table 1 reproduction: workload patterns x second-level policies ==");
    println!(
        "jobs per run: {n_jobs}, seeds: {}, cluster: 32 nodes, 1 QPU\n",
        seeds.len()
    );

    let gen_cfg = PatternGenConfig {
        mean_total_secs: 600.0,
        balanced_rounds: 6,
        nodes: 1,
        mean_interarrival_secs: 30.0,
    };

    let mut rows = Vec::new();
    for (mix_name, mix) in mixes() {
        for p in policies() {
            let mut utils = Vec::new();
            let mut wastes = Vec::new();
            let mut turnarounds = Vec::new();
            let mut prod_p95 = Vec::new();
            let mut preemptions = Vec::new();
            for &seed in &seeds {
                let jobs = generate_population(n_jobs, mix, &gen_cfg, seed);
                let report = Cosim::new(
                    CosimConfig {
                        nodes: 32,
                        admission: p.admission,
                        qpu_policy: p.qpu,
                        chunk_secs: 10.0,
                    },
                    jobs,
                )
                .run();
                utils.push(report.qpu_utilization);
                wastes.push(report.node_waste_frac);
                let mean_turn: f64 = {
                    let v: Vec<f64> = report.turnaround_by_class.values().copied().collect();
                    v.iter().sum::<f64>() / v.len().max(1) as f64
                };
                turnarounds.push(mean_turn);
                if let Some(w) = report.wait_by_class.get("production") {
                    prod_p95.push(w.p95_wait_secs);
                }
                preemptions.push(report.preemptions as f64);
            }
            rows.push(vec![
                mix_name.to_string(),
                p.name.to_string(),
                fmt_pm(&utils, 3),
                fmt_pm(&wastes, 3),
                fmt_pm(&turnarounds, 0),
                if prod_p95.is_empty() {
                    "-".into()
                } else {
                    fmt_pm(&prod_p95, 0)
                },
                fmt_pm(&preemptions, 0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "pattern",
                "policy",
                "qpu-util",
                "node-waste",
                "turnaround(s)",
                "prod-p95-wait(s)",
                "preempt",
            ],
            &rows,
        )
    );
    println!("Expected shape (paper Table 1 hints):");
    println!("  A: sequential ~ interleave (QPU is the bottleneck either way; pattern-aware");
    println!("     avoids parking jobs on the queue -> lowest node-waste)");
    println!("  B: interleaving rescues QPU utilization vs sequential");
    println!("  C: priority/pattern-aware interleaving wins on utilization + turnaround");

    if args.flags.iter().any(|f| f == "--gres") {
        gres_timeshare_experiment(&args);
    }
}

/// S1 — §3.5: QPU timeshares as 10 GRES units on the batch scheduler.
fn gres_timeshare_experiment(args: &HarnessArgs) {
    println!("\n== S1: GRES timeshare enforcement (10 x 10% QPU units, §3.5) ==");
    let n_jobs = args.scaled(300, 40);
    let mut rows = Vec::new();
    for &seed in &[1u64, 2, 3] {
        let cluster = Cluster::new(32).with_gres("qpu", 10);
        let mut sim = SlurmSim::new(cluster, standard_partitions(), SchedPolicy::default());
        let gen_cfg = PatternGenConfig::default();
        let jobs = generate_population(n_jobs, (1.0, 1.0, 1.0), &gen_cfg, seed);
        for j in &jobs {
            let spec = to_batch_spec(j, 10);
            sim.submit_at(spec, j.arrival).expect("valid spec");
        }
        sim.run_to_completion();
        let util = sim.gres_utilization("qpu").expect("qpu pool exists");
        let summary = hpcqc_scheduler::AccountingSummary::from_jobs(sim.jobs());
        rows.push(vec![
            format!("{seed}"),
            format!("{:.3}", util),
            format!("{:.3}", sim.node_utilization()),
            format!("{}", summary.completed),
            format!("{}", summary.preemptions),
            format!("{:.0}", summary.overall.mean_wait_secs),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "seed",
                "gres-util",
                "node-util",
                "completed",
                "preempt",
                "mean-wait(s)"
            ],
            &rows,
        )
    );
    println!("GRES units never oversubscribed (enforced by the allocator — see");
    println!("hpcqc-scheduler proptests); utilization < 1 reflects share fragmentation.");
}
