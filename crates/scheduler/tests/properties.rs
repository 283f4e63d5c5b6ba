//! Property-based tests on the batch scheduler: safety and liveness under
//! arbitrary job streams.

use hpcqc_scheduler::{
    standard_partitions, AccountingSummary, Cluster, JobSpec, JobState, SchedPolicy, SlurmSim,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ArbJob {
    partition: usize,
    nodes: u32,
    gres: u32,
    runtime: f64,
    limit_factor: f64,
    arrival: f64,
}

fn arb_job() -> impl Strategy<Value = ArbJob> {
    (
        0usize..3,
        1u32..6,
        0u32..8,
        1.0f64..500.0,
        0.5f64..3.0,
        0.0f64..2000.0,
    )
        .prop_map(
            |(partition, nodes, gres, runtime, limit_factor, arrival)| ArbJob {
                partition,
                nodes,
                gres,
                runtime,
                limit_factor,
                arrival,
            },
        )
}

fn spec_of(j: &ArbJob) -> JobSpec {
    let partition = ["production", "test", "development"][j.partition];
    let mut s = JobSpec::classical("p", "u", partition, j.nodes, j.runtime)
        .with_time_limit(j.runtime * j.limit_factor);
    if j.gres > 0 {
        s = s.with_gres("qpu", j.gres);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_accepted_job_reaches_a_terminal_state(
        jobs in proptest::collection::vec(arb_job(), 1..40),
        backfill in any::<bool>(),
        preemption in any::<bool>(),
    ) {
        let cluster = Cluster::new(8).with_gres("qpu", 10);
        let mut sim = SlurmSim::new(
            cluster,
            standard_partitions(),
            SchedPolicy { backfill, preemption },
        );
        let mut accepted = Vec::new();
        let mut sorted = jobs.clone();
        sorted.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap());
        for j in &sorted {
            match sim.submit_at(spec_of(j), j.arrival) {
                Ok(id) => accepted.push(id),
                Err(e) => {
                    // only unsatisfiable requests may be rejected
                    prop_assert!(
                        j.nodes > 8 || j.gres > 10,
                        "rejected a satisfiable job: {e}"
                    );
                }
            }
        }
        sim.run_to_completion();
        for id in accepted {
            let job = sim.job(id).unwrap();
            prop_assert!(
                job.state.is_terminal(),
                "job {id} stuck in {:?}",
                job.state
            );
            let start = job.start_time.expect("terminal jobs started");
            let end = job.end_time.expect("terminal jobs ended");
            prop_assert!(start >= job.submit_time - 1e-9, "started before submit");
            prop_assert!(end >= start - 1e-9, "ended before start");
            // time limits honored: run duration ≤ limit (+ float slack)
            prop_assert!(
                end - start <= job.spec.time_limit_secs + 1e-6,
                "job {id} ran past its limit"
            );
            if job.state == JobState::Timeout {
                prop_assert!(
                    job.spec.actual_runtime_secs > job.spec.time_limit_secs,
                    "timeout state requires runtime beyond limit"
                );
            }
        }
        // utilization numbers are sane
        let u = sim.node_utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "node util {u}");
        let g = sim.gres_utilization("qpu").unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&g), "gres util {g}");
    }

    #[test]
    fn accounting_summary_is_consistent(
        jobs in proptest::collection::vec(arb_job(), 1..30),
    ) {
        let cluster = Cluster::new(8).with_gres("qpu", 10);
        let mut sim = SlurmSim::new(cluster, standard_partitions(), SchedPolicy::default());
        let mut n_accepted = 0;
        let mut sorted = jobs.clone();
        sorted.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap());
        for j in &sorted {
            if sim.submit_at(spec_of(j), j.arrival).is_ok() {
                n_accepted += 1;
            }
        }
        sim.run_to_completion();
        let summary = AccountingSummary::from_jobs(sim.jobs());
        prop_assert_eq!(
            summary.completed + summary.timed_out + summary.cancelled,
            n_accepted
        );
        prop_assert!(summary.overall.p95_wait_secs >= 0.0);
        prop_assert!(summary.overall.p95_wait_secs <= summary.overall.max_wait_secs + 1e-9);
        prop_assert!(summary.overall.mean_wait_secs <= summary.overall.max_wait_secs + 1e-9);
        let per_class: usize = summary.by_partition.values().map(|w| w.count).sum();
        prop_assert_eq!(per_class, summary.overall.count);
    }

    #[test]
    fn cluster_pool_arithmetic_never_goes_negative(
        ops in proptest::collection::vec((1u32..5, 0u32..6, any::<bool>()), 1..50),
    ) {
        let mut cluster = Cluster::new(8).with_gres("qpu", 10);
        let mut live: Vec<u64> = Vec::new();
        let mut next = 1u64;
        for (nodes, gres, release_first) in ops {
            if release_first {
                if let Some(id) = live.pop() {
                    cluster.release(id);
                }
            }
            let mut spec = JobSpec::classical("x", "u", "test", nodes, 1.0);
            if gres > 0 {
                spec = spec.with_gres("qpu", gres);
            }
            if cluster.allocate(next, &spec).is_ok() {
                live.push(next);
                next += 1;
            }
            prop_assert!(cluster.free_nodes() <= 8);
            prop_assert!(cluster.free_gres("qpu").unwrap() <= 10);
        }
    }
}
