//! The batch scheduler simulator (the Slurm stand-in).
//!
//! Implements the slice of Slurm the paper's architecture leans on:
//! partitions with priorities (§3.3 maps job classes to partitions), FIFO
//! dispatch with **conservative backfill**, partition-based **preemption**
//! (requeue), global GRES and license pools (§3.5's 10×10 % QPU timeshares),
//! and accounting. Scheduling decisions use job *time limits* — the actual
//! runtime is only known to the simulation, exactly as in a real system.

use crate::cluster::Cluster;
use crate::job::{Job, JobId, JobSpec, JobState};
use crate::sim::EventQueue;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A Slurm partition: a named queue with a priority tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    pub name: String,
    /// Higher runs first; ties broken by submit time.
    pub priority: u32,
    /// Whether jobs here may preempt (requeue) jobs from lower-priority
    /// partitions when resources are short.
    pub preempts_lower: bool,
}

/// The §3.3 standard layout: production ≻ test ≻ development, production
/// preempting.
pub fn standard_partitions() -> Vec<Partition> {
    vec![
        Partition {
            name: "production".into(),
            priority: 300,
            preempts_lower: true,
        },
        Partition {
            name: "test".into(),
            priority: 200,
            preempts_lower: false,
        },
        Partition {
            name: "development".into(),
            priority: 100,
            preempts_lower: false,
        },
    ]
}

#[derive(Debug, Clone)]
enum SimEvent {
    Submit(JobId),
    /// Job end; carries the run generation so preempted runs' stale end
    /// events are ignored.
    End(JobId, u32),
}

/// Errors from the scheduler API.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    UnknownPartition(String),
    /// The request can never fit the cluster, even when idle.
    Unsatisfiable(String),
    UnknownJob(JobId),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::UnknownPartition(p) => write!(f, "unknown partition {p:?}"),
            SchedError::Unsatisfiable(m) => write!(f, "request can never run: {m}"),
            SchedError::UnknownJob(id) => write!(f, "unknown job {id}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Scheduler feature toggles (ablations for the Table-1 experiments).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedPolicy {
    /// Conservative backfill behind the highest-priority blocked job.
    pub backfill: bool,
    /// Partition-priority preemption (requeue).
    pub preemption: bool,
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy {
            backfill: true,
            preemption: true,
        }
    }
}

/// Time-weighted utilization accumulator.
#[derive(Debug, Clone, Default)]
struct UtilAccum {
    last_t: f64,
    node_secs: f64,
    gres_secs: BTreeMap<String, f64>,
}

/// The batch scheduler simulator.
pub struct SlurmSim {
    cluster: Cluster,
    partitions: BTreeMap<String, Partition>,
    jobs: BTreeMap<JobId, Job>,
    run_gen: BTreeMap<JobId, u32>,
    pending: Vec<JobId>,
    events: EventQueue<SimEvent>,
    next_id: JobId,
    policy: SchedPolicy,
    util: UtilAccum,
}

impl SlurmSim {
    pub fn new(cluster: Cluster, partitions: Vec<Partition>, policy: SchedPolicy) -> Self {
        SlurmSim {
            cluster,
            partitions: partitions
                .into_iter()
                .map(|p| (p.name.clone(), p))
                .collect(),
            jobs: BTreeMap::new(),
            run_gen: BTreeMap::new(),
            pending: Vec::new(),
            events: EventQueue::new(),
            next_id: 1,
            policy,
            util: UtilAccum::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.events.now()
    }

    /// Read access to a job record.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// All job records (accounting).
    pub fn jobs(&self) -> impl Iterator<Item = &Job> + Clone {
        self.jobs.values()
    }

    /// The cluster state (inspection).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Queue a job for submission at absolute time `at` (≥ now).
    pub fn submit_at(&mut self, spec: JobSpec, at: f64) -> Result<JobId, SchedError> {
        if !self.partitions.contains_key(&spec.partition) {
            return Err(SchedError::UnknownPartition(spec.partition.clone()));
        }
        // reject requests that can never fit an idle cluster
        let idle = {
            let mut c = self.cluster.clone();
            for id in self.jobs.keys() {
                c.release(*id);
            }
            c
        };
        if let Err(e) = idle.fits(&spec) {
            return Err(SchedError::Unsatisfiable(e.to_string()));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(id, Job::new(id, spec, at));
        self.run_gen.insert(id, 0);
        self.events.schedule_at(at, SimEvent::Submit(id));
        Ok(id)
    }

    /// Cancel a pending or running job.
    pub fn cancel(&mut self, id: JobId) -> Result<(), SchedError> {
        let now = self.now();
        let state = self.jobs.get(&id).ok_or(SchedError::UnknownJob(id))?.state;
        match state {
            JobState::Pending | JobState::Preempted => {
                let job = self.jobs.get_mut(&id).expect("checked above");
                job.state = JobState::Cancelled;
                job.end_time = Some(now);
                self.pending.retain(|&p| p != id);
                Ok(())
            }
            JobState::Running => {
                self.accumulate_util();
                let job = self.jobs.get_mut(&id).expect("checked above");
                job.state = JobState::Cancelled;
                job.end_time = Some(now);
                *self.run_gen.get_mut(&id).expect("gen exists") += 1; // stale End
                self.cluster.release(id);
                self.schedule_pass();
                Ok(())
            }
            _ => Err(SchedError::UnknownJob(id)),
        }
    }

    fn accumulate_util(&mut self) {
        let now = self.now();
        let dt = now - self.util.last_t;
        if dt > 0.0 {
            let used_nodes = self.cluster.total_nodes - self.cluster.free_nodes();
            self.util.node_secs += used_nodes as f64 * dt;
            for (name, &cap) in &self.cluster.gres_capacity.clone() {
                let used = cap - self.cluster.free_gres(name).expect("known pool");
                *self.util.gres_secs.entry(name.clone()).or_insert(0.0) += used as f64 * dt;
            }
        }
        self.util.last_t = now;
    }

    /// Process all events up to and including time `t`, then advance the
    /// clock to `t` so subsequent external actions (cancel, submit) are
    /// stamped correctly.
    pub fn run_until(&mut self, t: f64) {
        while let Some(next) = self.events.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        self.events.advance_to(t);
        self.accumulate_util();
    }

    /// Process every remaining event.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Process one event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((_, ev)) = self.events.pop() else {
            return false;
        };
        self.accumulate_util();
        match ev {
            SimEvent::Submit(id) => {
                if self.jobs[&id].state == JobState::Pending {
                    self.pending.push(id);
                    self.schedule_pass();
                }
            }
            SimEvent::End(id, gen) => {
                if self.run_gen.get(&id) == Some(&gen) && self.jobs[&id].state == JobState::Running
                {
                    let now = self.now();
                    let job = self.jobs.get_mut(&id).expect("job exists");
                    let limit_hit = job.spec.actual_runtime_secs > job.spec.time_limit_secs + 1e-9;
                    job.state = if limit_hit {
                        JobState::Timeout
                    } else {
                        JobState::Completed
                    };
                    job.end_time = Some(now);
                    self.cluster.release(id);
                    self.schedule_pass();
                }
            }
        }
        true
    }

    /// Priority-ordered view of the pending queue.
    fn ordered_pending(&self) -> Vec<JobId> {
        let mut v = self.pending.clone();
        v.sort_by(|&a, &b| {
            let ja = &self.jobs[&a];
            let jb = &self.jobs[&b];
            let pa = self.partitions[&ja.spec.partition].priority;
            let pb = self.partitions[&jb.spec.partition].priority;
            pb.cmp(&pa)
                .then(ja.submit_time.partial_cmp(&jb.submit_time).expect("finite"))
                .then(a.cmp(&b))
        });
        v
    }

    fn start_job(&mut self, id: JobId) {
        let now = self.now();
        let spec = self.jobs[&id].spec.clone();
        self.cluster
            .allocate(id, &spec)
            .expect("caller checked fit");
        let job = self.jobs.get_mut(&id).expect("job exists");
        job.state = JobState::Running;
        job.start_time = Some(now);
        self.pending.retain(|&p| p != id);
        let gen = *self.run_gen.get(&id).expect("gen exists");
        let run_for = spec.actual_runtime_secs.min(spec.time_limit_secs);
        self.events.schedule_in(run_for, SimEvent::End(id, gen));
    }

    fn preempt_job(&mut self, id: JobId) {
        self.cluster.release(id);
        let gen = self.run_gen.get_mut(&id).expect("gen exists");
        *gen += 1; // invalidate the scheduled End
        let job = self.jobs.get_mut(&id).expect("job exists");
        job.state = JobState::Pending;
        job.start_time = None;
        job.preemptions += 1;
        // requeue keeps original submit time → aging preserved
        self.pending.push(id);
    }

    /// Earliest time the blocked `spec` could start, assuming running jobs
    /// hold resources until their time limits, as Slurm's backfill plans.
    fn shadow_time(&self, spec: &JobSpec) -> f64 {
        let now = self.now();
        let mut releases: Vec<(f64, JobId)> = self
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .map(|j| {
                let start = j.start_time.expect("running job started");
                (start + j.spec.time_limit_secs, j.id)
            })
            .collect();
        releases.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let mut c = self.cluster.clone();
        if c.fits(spec).is_ok() {
            return now;
        }
        for (t, id) in releases {
            c.release(id);
            if c.fits(spec).is_ok() {
                return t.max(now);
            }
        }
        f64::INFINITY // unreachable: submit_at validated against idle cluster
    }

    /// One scheduling pass: start what fits in priority order, preempt for
    /// entitled blocked jobs, then conservatively backfill behind the
    /// highest-priority blocker.
    fn schedule_pass(&mut self) {
        let now = self.now();
        loop {
            let order = self.ordered_pending();
            let mut advanced = false;
            let mut blocker: Option<JobId> = None;
            // FIFO within priority: only the head of the pending order may
            // start or preempt; anything else waits behind it (or backfills).
            if let Some(id) = order.into_iter().next() {
                let spec = self.jobs[&id].spec.clone();
                if self.cluster.fits(&spec).is_ok() {
                    self.start_job(id);
                    advanced = true; // re-derive ordering after each start
                } else {
                    // try preemption for entitled partitions
                    let part = &self.partitions[&spec.partition];
                    let plan = (self.policy.preemption && part.preempts_lower)
                        .then(|| self.preemption_plan(&spec, part.priority))
                        .flatten();
                    if let Some(victims) = plan {
                        for v in victims {
                            self.preempt_job(v);
                        }
                        self.start_job(id);
                        advanced = true;
                    } else {
                        blocker = Some(id);
                    }
                }
            }
            if advanced {
                continue;
            }
            // backfill behind the blocker
            if let (true, Some(head)) = (self.policy.backfill, blocker) {
                let head_spec = self.jobs[&head].spec.clone();
                let shadow = self.shadow_time(&head_spec);
                let order = self.ordered_pending();
                let mut started_any = false;
                for id in order {
                    if id == head {
                        continue;
                    }
                    let spec = self.jobs[&id].spec.clone();
                    if self.cluster.fits(&spec).is_ok()
                        && now + spec.time_limit_secs <= shadow + 1e-9
                    {
                        self.start_job(id);
                        started_any = true;
                        break; // resources changed: re-evaluate from scratch
                    }
                }
                if started_any {
                    continue;
                }
            }
            break;
        }
    }

    /// Find the cheapest set of lower-priority running jobs whose removal
    /// lets `spec` fit. Victims are taken lowest-priority-first, most
    /// recently started first (minimizing lost work). Returns `None` when
    /// even preempting everything eligible doesn't help.
    fn preemption_plan(&self, spec: &JobSpec, above_priority: u32) -> Option<Vec<JobId>> {
        let mut candidates: Vec<(u32, f64, JobId)> = self
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .filter(|j| self.partitions[&j.spec.partition].priority < above_priority)
            .map(|j| {
                (
                    self.partitions[&j.spec.partition].priority,
                    j.start_time.expect("running"),
                    j.id,
                )
            })
            .collect();
        // lowest priority first; among equals, latest start first
        candidates.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(b.1.partial_cmp(&a.1).expect("finite"))
                .then(a.2.cmp(&b.2))
        });
        let mut c = self.cluster.clone();
        let mut victims = Vec::new();
        if c.fits(spec).is_ok() {
            return Some(victims); // caller shouldn't hit this, but harmless
        }
        for (_, _, id) in candidates {
            c.release(id);
            victims.push(id);
            if c.fits(spec).is_ok() {
                return Some(victims);
            }
        }
        None
    }

    /// Time-weighted node utilization over the simulation so far.
    pub fn node_utilization(&self) -> f64 {
        let t = self.util.last_t;
        if t <= 0.0 {
            return 0.0;
        }
        self.util.node_secs / (self.cluster.total_nodes as f64 * t)
    }

    /// Time-weighted utilization of one GRES pool.
    pub fn gres_utilization(&self, name: &str) -> Option<f64> {
        let t = self.util.last_t;
        let cap = *self.cluster.gres_capacity.get(name)?;
        if t <= 0.0 || cap == 0 {
            return Some(0.0);
        }
        Some(self.util.gres_secs.get(name).copied().unwrap_or(0.0) / (cap as f64 * t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(nodes: u32) -> SlurmSim {
        SlurmSim::new(
            Cluster::new(nodes).with_gres("qpu", 10),
            standard_partitions(),
            SchedPolicy::default(),
        )
    }

    fn spec(part: &str, nodes: u32, runtime: f64) -> JobSpec {
        JobSpec::classical("j", "u", part, nodes, runtime)
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut s = sim(4);
        let id = s.submit_at(spec("production", 2, 100.0), 0.0).unwrap();
        s.run_to_completion();
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::Completed);
        assert_eq!(j.start_time, Some(0.0));
        assert_eq!(j.end_time, Some(100.0));
        assert_eq!(j.wait_secs(), Some(0.0));
    }

    #[test]
    fn unknown_partition_rejected() {
        let mut s = sim(4);
        assert!(matches!(
            s.submit_at(spec("gpu", 1, 10.0), 0.0),
            Err(SchedError::UnknownPartition(_))
        ));
    }

    #[test]
    fn impossible_request_rejected_at_submit() {
        let mut s = sim(4);
        assert!(matches!(
            s.submit_at(spec("production", 5, 10.0), 0.0),
            Err(SchedError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn fifo_ordering_within_partition() {
        let mut s = sim(2);
        let a = s.submit_at(spec("test", 2, 100.0), 0.0).unwrap();
        let b = s.submit_at(spec("test", 2, 50.0), 1.0).unwrap();
        s.run_to_completion();
        assert_eq!(s.job(a).unwrap().start_time, Some(0.0));
        assert_eq!(s.job(b).unwrap().start_time, Some(100.0));
    }

    #[test]
    fn higher_priority_partition_jumps_queue() {
        let mut s = sim(2);
        // occupy the cluster, then queue dev before prod
        s.submit_at(spec("test", 2, 100.0), 0.0).unwrap();
        let dev = s.submit_at(spec("development", 2, 10.0), 1.0).unwrap();
        let prod = s.submit_at(spec("production", 2, 10.0), 2.0).unwrap();
        s.run_to_completion();
        let prod_start = s.job(prod).unwrap().start_time.unwrap();
        let dev_start = s.job(dev).unwrap().start_time.unwrap();
        assert!(
            prod_start < dev_start,
            "production starts before development"
        );
    }

    #[test]
    fn production_preempts_development() {
        let mut s = sim(2);
        let dev = s.submit_at(spec("development", 2, 1000.0), 0.0).unwrap();
        let prod = s.submit_at(spec("production", 2, 10.0), 5.0).unwrap();
        s.run_to_completion();
        let dev_job = s.job(dev).unwrap();
        let prod_job = s.job(prod).unwrap();
        assert_eq!(
            prod_job.start_time,
            Some(5.0),
            "production starts immediately"
        );
        assert_eq!(dev_job.preemptions, 1);
        assert_eq!(
            dev_job.state,
            JobState::Completed,
            "dev requeued and finished"
        );
        assert!(
            dev_job.end_time.unwrap() > 1000.0,
            "dev restarted after preemption"
        );
    }

    #[test]
    fn preemption_disabled_makes_production_wait() {
        let mut s = SlurmSim::new(
            Cluster::new(2),
            standard_partitions(),
            SchedPolicy {
                backfill: true,
                preemption: false,
            },
        );
        let dev = s.submit_at(spec("development", 2, 1000.0), 0.0).unwrap();
        let prod = s.submit_at(spec("production", 2, 10.0), 5.0).unwrap();
        s.run_to_completion();
        assert_eq!(s.job(dev).unwrap().preemptions, 0);
        assert!(s.job(prod).unwrap().start_time.unwrap() >= 1000.0);
    }

    #[test]
    fn test_partition_does_not_preempt() {
        let mut s = sim(2);
        let dev = s.submit_at(spec("development", 2, 100.0), 0.0).unwrap();
        let test = s.submit_at(spec("test", 2, 10.0), 5.0).unwrap();
        s.run_to_completion();
        assert_eq!(s.job(dev).unwrap().preemptions, 0);
        assert!(s.job(test).unwrap().start_time.unwrap() >= 100.0);
    }

    #[test]
    fn backfill_fills_hole_without_delaying_head() {
        let mut s = sim(4);
        // A: 3 nodes running until t=100 (limit 200)
        let a = s
            .submit_at(spec("test", 3, 100.0).with_time_limit(100.0), 0.0)
            .unwrap();
        // B: 4 nodes — blocked until A ends (shadow = 100)
        let b = s.submit_at(spec("test", 4, 50.0), 1.0).unwrap();
        // C: 1 node, 20 s limit — fits now and ends before the shadow time
        let c = s
            .submit_at(spec("test", 1, 20.0).with_time_limit(20.0), 2.0)
            .unwrap();
        s.run_to_completion();
        assert_eq!(s.job(c).unwrap().start_time, Some(2.0), "C backfilled");
        assert_eq!(s.job(b).unwrap().start_time, Some(100.0), "B undelayed");
        assert_eq!(s.job(a).unwrap().state, JobState::Completed);
    }

    #[test]
    fn backfill_refuses_job_that_would_delay_head() {
        let mut s = sim(4);
        s.submit_at(spec("test", 3, 100.0).with_time_limit(100.0), 0.0)
            .unwrap();
        let b = s.submit_at(spec("test", 4, 50.0), 1.0).unwrap();
        // D fits now but its limit (500) crosses the shadow time (100)
        let d = s
            .submit_at(spec("test", 1, 400.0).with_time_limit(500.0), 2.0)
            .unwrap();
        // E would really fit the hole (runs 20 s) but its padded limit (500)
        // crosses the shadow: reservations are planned by limit, not runtime
        let e = s
            .submit_at(spec("test", 1, 20.0).with_time_limit(500.0), 3.0)
            .unwrap();
        s.run_to_completion();
        assert_eq!(
            s.job(b).unwrap().start_time,
            Some(100.0),
            "head start preserved"
        );
        assert!(
            s.job(d).unwrap().start_time.unwrap() >= 100.0,
            "D not backfilled across the reservation"
        );
        assert!(
            s.job(e).unwrap().start_time.unwrap() >= 100.0,
            "E not backfilled on its runtime"
        );
    }

    #[test]
    fn no_backfill_policy_leaves_hole() {
        let mut s = SlurmSim::new(
            Cluster::new(4),
            standard_partitions(),
            SchedPolicy {
                backfill: false,
                preemption: true,
            },
        );
        s.submit_at(spec("test", 3, 100.0).with_time_limit(100.0), 0.0)
            .unwrap();
        s.submit_at(spec("test", 4, 50.0), 1.0).unwrap();
        let c = s
            .submit_at(spec("test", 1, 20.0).with_time_limit(20.0), 2.0)
            .unwrap();
        s.run_to_completion();
        assert!(
            s.job(c).unwrap().start_time.unwrap() > 2.0,
            "no backfill without policy"
        );
    }

    #[test]
    fn timeout_kills_job_at_limit() {
        let mut s = sim(2);
        let id = s
            .submit_at(spec("test", 1, 500.0).with_time_limit(100.0), 0.0)
            .unwrap();
        s.run_to_completion();
        let j = s.job(id).unwrap();
        assert_eq!(j.state, JobState::Timeout);
        assert_eq!(j.end_time, Some(100.0));
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut s = sim(1);
        let a = s.submit_at(spec("test", 1, 100.0), 0.0).unwrap();
        let b = s.submit_at(spec("test", 1, 100.0), 0.0).unwrap();
        s.run_until(10.0);
        s.cancel(b).unwrap(); // pending
        s.cancel(a).unwrap(); // running
        s.run_to_completion();
        assert_eq!(s.job(a).unwrap().state, JobState::Cancelled);
        assert_eq!(s.job(b).unwrap().state, JobState::Cancelled);
        assert!(
            matches!(s.cancel(a), Err(SchedError::UnknownJob(_))),
            "double cancel"
        );
    }

    #[test]
    fn cancel_running_frees_resources_for_next() {
        let mut s = sim(1);
        let a = s.submit_at(spec("test", 1, 1000.0), 0.0).unwrap();
        let b = s.submit_at(spec("test", 1, 10.0), 1.0).unwrap();
        s.run_until(5.0);
        s.cancel(a).unwrap();
        s.run_to_completion();
        assert_eq!(s.job(b).unwrap().start_time, Some(5.0));
        assert_eq!(s.job(b).unwrap().state, JobState::Completed);
    }

    #[test]
    fn gres_pool_serializes_qpu_jobs() {
        let mut s = sim(8);
        // each wants 6 of 10 qpu units: can't overlap
        let a = s
            .submit_at(spec("test", 1, 50.0).with_gres("qpu", 6), 0.0)
            .unwrap();
        let b = s
            .submit_at(spec("test", 1, 50.0).with_gres("qpu", 6), 0.0)
            .unwrap();
        s.run_to_completion();
        let (sa, sb) = (
            s.job(a).unwrap().start_time.unwrap(),
            s.job(b).unwrap().start_time.unwrap(),
        );
        assert!((sa - sb).abs() >= 50.0 - 1e-9, "qpu-heavy jobs serialized");
    }

    #[test]
    fn gres_shares_allow_concurrency_within_pool() {
        let mut s = sim(8);
        // 5 + 5 = 10 units: both run at once
        let a = s
            .submit_at(spec("test", 1, 50.0).with_gres("qpu", 5), 0.0)
            .unwrap();
        let b = s
            .submit_at(spec("test", 1, 50.0).with_gres("qpu", 5), 0.0)
            .unwrap();
        s.run_to_completion();
        assert_eq!(s.job(a).unwrap().start_time, Some(0.0));
        assert_eq!(s.job(b).unwrap().start_time, Some(0.0));
    }

    #[test]
    fn utilization_accounting() {
        let mut s = sim(4);
        // 2 nodes busy for 100 s, then idle until t=200 (forced by a late noop job)
        s.submit_at(spec("test", 2, 100.0), 0.0).unwrap();
        s.submit_at(spec("test", 1, 0.0), 200.0).unwrap();
        s.run_to_completion();
        // node-seconds: 2*100 = 200 over 4 nodes * 200 s = 800 → 0.25
        assert!(
            (s.node_utilization() - 0.25).abs() < 1e-9,
            "got {}",
            s.node_utilization()
        );
    }

    #[test]
    fn gres_utilization_accounting() {
        let mut s = sim(4);
        s.submit_at(spec("test", 1, 100.0).with_gres("qpu", 5), 0.0)
            .unwrap();
        s.submit_at(spec("test", 1, 0.0), 200.0).unwrap();
        s.run_to_completion();
        // 5 units * 100 s / (10 units * 200 s) = 0.25
        assert!((s.gres_utilization("qpu").unwrap() - 0.25).abs() < 1e-9);
        assert!(s.gres_utilization("gpu").is_none());
    }

    #[test]
    fn preempted_job_keeps_original_submit_time_for_aging() {
        let mut s = sim(2);
        let dev = s.submit_at(spec("development", 2, 100.0), 0.0).unwrap();
        s.submit_at(spec("production", 2, 10.0), 5.0).unwrap();
        s.run_to_completion();
        let j = s.job(dev).unwrap();
        assert_eq!(j.submit_time, 0.0);
        assert_eq!(j.preemptions, 1);
        // total turnaround includes the rerun
        assert!(j.end_time.unwrap() >= 5.0 + 10.0 + 100.0 - 1e-9);
    }

    #[test]
    fn run_until_stops_at_time() {
        let mut s = sim(2);
        let a = s.submit_at(spec("test", 1, 100.0), 0.0).unwrap();
        s.run_until(50.0);
        assert_eq!(s.job(a).unwrap().state, JobState::Running);
        s.run_to_completion();
        assert_eq!(s.job(a).unwrap().state, JobState::Completed);
    }
}
