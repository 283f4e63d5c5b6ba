//! Integration: the Table-1 scheduling claims, asserted.
//!
//! The co-simulation and the batch simulator together must reproduce the
//! taxonomy's scheduler hints as measurable orderings, robustly across
//! seeds — this is the repository's executable form of Table 1.

use hpcqc::scheduler::{
    standard_partitions, AdmissionPolicy, Cluster, Cosim, CosimConfig, CosimReport, JobState,
    QpuPolicy, SchedPolicy, SlurmSim,
};
use hpcqc::workloads::{generate_population, to_batch_spec, PatternGenConfig};

fn run(mix: (f64, f64, f64), admission: AdmissionPolicy, qpu: QpuPolicy, seed: u64) -> CosimReport {
    let jobs = generate_population(
        60,
        mix,
        &PatternGenConfig {
            mean_interarrival_secs: 30.0,
            ..PatternGenConfig::default()
        },
        seed,
    );
    Cosim::new(
        CosimConfig {
            nodes: 32,
            admission,
            qpu_policy: qpu,
            chunk_secs: 10.0,
        },
        jobs,
    )
    .run()
}

const SEEDS: [u64; 3] = [11, 22, 33];

#[test]
fn pattern_b_interleaving_rescues_qpu_utilization() {
    for seed in SEEDS {
        let seq = run(
            (0.0, 1.0, 0.0),
            AdmissionPolicy::Sequential,
            QpuPolicy::Fifo,
            seed,
        );
        let inter = run(
            (0.0, 1.0, 0.0),
            AdmissionPolicy::NodeLimited,
            QpuPolicy::Priority { preemption: true },
            seed,
        );
        assert!(
            inter.qpu_utilization > 3.0 * seq.qpu_utilization,
            "seed {seed}: interleave {:.3} vs sequential {:.3}",
            inter.qpu_utilization,
            seq.qpu_utilization
        );
        assert!(inter.makespan_secs < seq.makespan_secs);
    }
}

#[test]
fn pattern_a_sequential_is_near_optimal_on_utilization() {
    for seed in SEEDS {
        let seq = run(
            (1.0, 0.0, 0.0),
            AdmissionPolicy::Sequential,
            QpuPolicy::Fifo,
            seed,
        );
        let inter = run(
            (1.0, 0.0, 0.0),
            AdmissionPolicy::NodeLimited,
            QpuPolicy::Fifo,
            seed,
        );
        // the QPU is the bottleneck either way: gap stays small…
        assert!(
            inter.qpu_utilization - seq.qpu_utilization < 0.15,
            "seed {seed}: gap {:.3}",
            inter.qpu_utilization - seq.qpu_utilization
        );
        // …but greedy interleaving parks whole jobs on the QPU queue
        assert!(
            inter.node_waste_frac > seq.node_waste_frac + 0.3,
            "seed {seed}: greedy waste {:.3} vs sequential {:.3}",
            inter.node_waste_frac,
            seq.node_waste_frac
        );
    }
}

#[test]
fn pattern_aware_balances_utilization_and_waste_on_balanced_mix() {
    for seed in SEEDS {
        let greedy = run(
            (0.0, 0.0, 1.0),
            AdmissionPolicy::NodeLimited,
            QpuPolicy::Priority { preemption: true },
            seed,
        );
        let aware = run(
            (0.0, 0.0, 1.0),
            AdmissionPolicy::PatternAware { target_duty: 1.2 },
            QpuPolicy::Priority { preemption: true },
            seed,
        );
        let seq = run(
            (0.0, 0.0, 1.0),
            AdmissionPolicy::Sequential,
            QpuPolicy::Fifo,
            seed,
        );
        // aware keeps most of the interleaving utilization gain…
        assert!(
            aware.qpu_utilization > seq.qpu_utilization + 0.2,
            "seed {seed}: aware {:.3} vs seq {:.3}",
            aware.qpu_utilization,
            seq.qpu_utilization
        );
        // …while cutting the node waste of greedy admission by a lot
        assert!(
            aware.node_waste_frac < greedy.node_waste_frac * 0.5,
            "seed {seed}: aware {:.3} vs greedy {:.3}",
            aware.node_waste_frac,
            greedy.node_waste_frac
        );
    }
}

#[test]
fn priority_policy_protects_production_turnaround() {
    for seed in SEEDS {
        let fifo = run(
            (1.0, 1.0, 1.0),
            AdmissionPolicy::NodeLimited,
            QpuPolicy::Fifo,
            seed,
        );
        let prio = run(
            (1.0, 1.0, 1.0),
            AdmissionPolicy::NodeLimited,
            QpuPolicy::Priority { preemption: true },
            seed,
        );
        let (Some(f), Some(p)) = (
            fifo.turnaround_by_class.get("production"),
            prio.turnaround_by_class.get("production"),
        ) else {
            panic!("production jobs present in the mix");
        };
        assert!(
            p < f,
            "seed {seed}: production turnaround priority {p:.0}s vs fifo {f:.0}s"
        );
    }
}

#[test]
fn every_cosim_job_completes_no_starvation() {
    for seed in SEEDS {
        for admission in [
            AdmissionPolicy::Sequential,
            AdmissionPolicy::NodeLimited,
            AdmissionPolicy::PatternAware { target_duty: 1.2 },
        ] {
            let r = run(
                (1.0, 1.0, 1.0),
                admission,
                QpuPolicy::Priority { preemption: true },
                seed,
            );
            assert_eq!(
                r.completed, 60,
                "seed {seed}, {admission:?}: all jobs finish"
            );
        }
    }
}

#[test]
fn batch_layer_runs_the_same_population_via_gres() {
    for seed in SEEDS {
        let jobs = generate_population(80, (1.0, 1.0, 1.0), &PatternGenConfig::default(), seed);
        let mut sim = SlurmSim::new(
            Cluster::new(32).with_gres("qpu", 10),
            standard_partitions(),
            SchedPolicy::default(),
        );
        let mut ids = Vec::new();
        for j in &jobs {
            ids.push(sim.submit_at(to_batch_spec(j, 10), j.arrival).unwrap());
        }
        sim.run_to_completion();
        for id in ids {
            let job = sim.job(id).unwrap();
            assert!(
                matches!(job.state, JobState::Completed),
                "seed {seed}: job {id} ended as {:?}",
                job.state
            );
        }
        let util = sim.gres_utilization("qpu").unwrap();
        assert!(util > 0.0 && util <= 1.0, "seed {seed}: gres util {util}");
    }
}
