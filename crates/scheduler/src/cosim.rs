//! Co-simulation of the two-level scheduling architecture.
//!
//! The quantitative engine behind the Table-1 and Figure-2 experiments: a
//! discrete-event model of hybrid jobs flowing through (1) the batch layer —
//! node admission — and (2) the middleware daemon — QPU multiplexing with
//! priority classes, shot-boundary preemption and pattern-aware interleaving.
//!
//! A [`HybridJob`] alternates classical phases (on its allocated nodes) and
//! quantum phases (queued at the daemon for the single QPU). QPU idle time
//! appears whenever every admitted job is in a classical phase; wasted node
//! time appears whenever a job holds nodes while blocked on the QPU queue.
//! The admission policy decides how many hybrid jobs may hold nodes at once:
//!
//! * [`AdmissionPolicy::Sequential`] — one hybrid job at a time: the
//!   "sequential QPU queue" Table 1 prescribes for pattern A, and the
//!   baseline a site gets without a middleware layer (QPU as an exclusive
//!   batch resource).
//! * [`AdmissionPolicy::NodeLimited`] — admit greedily while nodes last
//!   (plain interleaving: "interleave jobs to kill QPU idle time").
//! * [`AdmissionPolicy::PatternAware`] — admit while the *projected QPU
//!   duty* (sum of per-job duty ratios estimated from their Table-1 hints)
//!   stays under a target: fills the QPU without drowning the node pool
//!   (the paper's §3.5 "fine-grained orchestration" with `--hint=`).

use crate::{EventQueue, PatternHint, PriorityClass, WaitStats};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One phase of a hybrid job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// Classical compute on the job's nodes, seconds.
    Classical(f64),
    /// Quantum execution on the shared QPU, device-seconds.
    Quantum(f64),
}

/// A hybrid quantum-classical job for the co-simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridJob {
    pub id: u64,
    pub class: PriorityClass,
    pub hint: PatternHint,
    /// Nodes held for the job's entire admitted lifetime.
    pub nodes: u32,
    /// Alternating phases, executed in order.
    pub phases: Vec<Phase>,
    /// Arrival time at the batch layer (s).
    pub arrival: f64,
}

impl HybridJob {
    /// Total quantum seconds across phases.
    pub fn qpu_secs(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Quantum(s) => *s,
                _ => 0.0,
            })
            .sum()
    }

    /// Total classical seconds across phases.
    pub fn classical_secs(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Classical(s) => *s,
                _ => 0.0,
            })
            .sum()
    }

    /// QPU duty ratio: quantum / (quantum + classical).
    pub fn duty(&self) -> f64 {
        let q = self.qpu_secs();
        let c = self.classical_secs();
        if q + c > 0.0 {
            q / (q + c)
        } else {
            0.0
        }
    }
}

/// Estimated duty ratio from a Table-1 hint (used by pattern-aware admission
/// when it must decide *before* running the job).
pub fn hint_duty(hint: PatternHint) -> f64 {
    match hint {
        PatternHint::QcHeavy => 0.9,
        PatternHint::CcHeavy => 0.1,
        PatternHint::QcBalanced => 0.5,
        PatternHint::None => 0.5, // no information: assume balanced
    }
}

/// QPU dispatch policy at the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QpuPolicy {
    /// Arrival order.
    Fifo,
    /// Priority classes; optionally preempting non-production tasks at
    /// chunk boundaries.
    Priority { preemption: bool },
    /// Shortest expected QPU duration first — exploits the richer `--hint`
    /// of §3.5 ("the expected time running on the QC hardware") to cut mean
    /// wait at the daemon. Ties broken by waiting time.
    ShortestFirst,
}

/// Batch-layer admission policy (how many hybrid jobs hold nodes at once).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// One hybrid job at a time (exclusive QPU — the no-middleware baseline).
    Sequential,
    /// Admit while nodes are available.
    NodeLimited,
    /// Admit while nodes are available AND projected QPU duty ≤ `target`.
    PatternAware { target_duty: f64 },
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CosimConfig {
    pub nodes: u32,
    pub admission: AdmissionPolicy,
    pub qpu_policy: QpuPolicy,
    /// Non-production quantum phases execute in slices of this many device
    /// seconds, with preemption checks between slices.
    pub chunk_secs: f64,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig {
            nodes: 32,
            admission: AdmissionPolicy::NodeLimited,
            qpu_policy: QpuPolicy::Priority { preemption: true },
            chunk_secs: 10.0,
        }
    }
}

/// Aggregated outcome of one co-simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CosimReport {
    /// Fraction of the makespan the QPU was executing.
    pub qpu_utilization: f64,
    /// Total device-busy seconds.
    pub qpu_busy_secs: f64,
    /// End of the last job.
    pub makespan_secs: f64,
    /// Node-seconds held by jobs blocked on the QPU queue, as a fraction of
    /// total held node-seconds (classical waste from QPU contention, §2.4).
    pub node_waste_frac: f64,
    /// Batch + QPU wait statistics per class (wait = arrival → first phase).
    pub wait_by_class: BTreeMap<String, WaitStats>,
    /// Mean turnaround (arrival → completion) per class.
    pub turnaround_by_class: BTreeMap<String, f64>,
    /// QPU-level preemption count.
    pub preemptions: u32,
    /// Jobs completed.
    pub completed: usize,
}

#[derive(Debug, Clone)]
enum Ev {
    Arrival(u64),
    /// A classical phase of job `id` finished.
    ClassicalDone(u64),
    /// The QPU finished a slice of job `id` (`secs` of quantum work done).
    QpuSliceDone {
        id: u64,
        secs: f64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum JobState {
    WaitingAdmission,
    RunningClassical,
    WaitingQpu { since: f64, remaining: f64 },
    OnQpu { remaining: f64 },
    Done,
}

struct JobRt {
    job: HybridJob,
    state: JobState,
    phase_idx: usize,
    started: Option<f64>,
    finished: Option<f64>,
    node_wait_secs: f64,
    qpu_wait_secs: f64,
}

/// The co-simulator.
pub struct Cosim {
    cfg: CosimConfig,
    jobs: BTreeMap<u64, JobRt>,
    events: EventQueue<Ev>,
    admit_queue: Vec<u64>,
    qpu_queue: Vec<u64>,
    qpu_busy_with: Option<u64>,
    free_nodes: u32,
    qpu_busy_secs: f64,
    node_held_secs: f64,
    node_wasted_secs: f64,
    last_t: f64,
    preemptions: u32,
}

impl Cosim {
    pub fn new(cfg: CosimConfig, jobs: Vec<HybridJob>) -> Self {
        let mut events = EventQueue::new();
        for j in &jobs {
            events.schedule_at(j.arrival, Ev::Arrival(j.id));
        }
        Cosim {
            free_nodes: cfg.nodes,
            cfg,
            jobs: jobs
                .into_iter()
                .map(|j| {
                    (
                        j.id,
                        JobRt {
                            job: j,
                            state: JobState::WaitingAdmission,
                            phase_idx: 0,
                            started: None,
                            finished: None,
                            node_wait_secs: 0.0,
                            qpu_wait_secs: 0.0,
                        },
                    )
                })
                .collect(),
            events,
            admit_queue: Vec::new(),
            qpu_queue: Vec::new(),
            qpu_busy_with: None,
            qpu_busy_secs: 0.0,
            node_held_secs: 0.0,
            node_wasted_secs: 0.0,
            last_t: 0.0,
            preemptions: 0,
        }
    }

    fn accumulate(&mut self, now: f64) {
        let dt = now - self.last_t;
        if dt > 0.0 {
            if self.qpu_busy_with.is_some() {
                self.qpu_busy_secs += dt;
            }
            for rt in self.jobs.values_mut() {
                match rt.state {
                    JobState::RunningClassical | JobState::OnQpu { .. } => {
                        self.node_held_secs += rt.job.nodes as f64 * dt;
                    }
                    JobState::WaitingQpu { .. } => {
                        self.node_held_secs += rt.job.nodes as f64 * dt;
                        self.node_wasted_secs += rt.job.nodes as f64 * dt;
                        rt.qpu_wait_secs += dt;
                    }
                    JobState::WaitingAdmission => {
                        if rt.started.is_none() && rt.job.arrival <= self.last_t {
                            rt.node_wait_secs += dt;
                        }
                    }
                    JobState::Done => {}
                }
            }
        }
        self.last_t = now;
    }

    /// Projected duty of currently admitted jobs (hint-based).
    fn admitted_duty(&self) -> f64 {
        self.jobs
            .values()
            .filter(|rt| {
                matches!(
                    rt.state,
                    JobState::RunningClassical
                        | JobState::WaitingQpu { .. }
                        | JobState::OnQpu { .. }
                )
            })
            .map(|rt| hint_duty(rt.job.hint))
            .sum()
    }

    fn admitted_count(&self) -> usize {
        self.jobs
            .values()
            .filter(|rt| {
                matches!(
                    rt.state,
                    JobState::RunningClassical
                        | JobState::WaitingQpu { .. }
                        | JobState::OnQpu { .. }
                )
            })
            .count()
    }

    /// Try to admit waiting jobs per the admission policy (class priority,
    /// then arrival order).
    fn admit_pass(&mut self, now: f64) {
        self.admit_queue.sort_by(|&a, &b| {
            let ja = &self.jobs[&a].job;
            let jb = &self.jobs[&b].job;
            ja.class
                .rank()
                .cmp(&jb.class.rank())
                .then(ja.arrival.partial_cmp(&jb.arrival).expect("finite"))
                .then(a.cmp(&b))
        });
        let mut admitted = Vec::new();
        for &id in &self.admit_queue {
            let job = &self.jobs[&id].job;
            if job.nodes > self.free_nodes {
                break; // FIFO head-blocking at the batch layer
            }
            let ok = match self.cfg.admission {
                AdmissionPolicy::Sequential => self.admitted_count() + admitted.len() == 0,
                AdmissionPolicy::NodeLimited => true,
                AdmissionPolicy::PatternAware { target_duty } => {
                    let projected: f64 = self.admitted_duty()
                        + admitted
                            .iter()
                            .map(|&i: &u64| hint_duty(self.jobs[&i].job.hint))
                            .sum::<f64>();
                    self.admitted_count() + admitted.len() == 0
                        || projected + hint_duty(job.hint) <= target_duty
                }
            };
            if !ok {
                break;
            }
            admitted.push(id);
            self.free_nodes -= job.nodes;
        }
        for id in admitted {
            self.admit_queue.retain(|&x| x != id);
            let rt = self.jobs.get_mut(&id).expect("job exists");
            rt.started = Some(now);
            self.start_phase(id, now);
        }
    }

    /// Begin the current phase of an admitted job.
    fn start_phase(&mut self, id: u64, now: f64) {
        let rt = self.jobs.get_mut(&id).expect("job exists");
        match rt.job.phases.get(rt.phase_idx).copied() {
            None => {
                rt.state = JobState::Done;
                rt.finished = Some(now);
                self.free_nodes += rt.job.nodes;
            }
            Some(Phase::Classical(secs)) => {
                rt.state = JobState::RunningClassical;
                self.events.schedule_at(now + secs, Ev::ClassicalDone(id));
            }
            Some(Phase::Quantum(secs)) => {
                rt.state = JobState::WaitingQpu {
                    since: now,
                    remaining: secs,
                };
                self.qpu_queue.push(id);
            }
        }
    }

    /// Dispatch the QPU if it's idle.
    fn qpu_pass(&mut self, now: f64) {
        if self.qpu_busy_with.is_some() || self.qpu_queue.is_empty() {
            return;
        }
        // order the queue per policy
        match self.cfg.qpu_policy {
            QpuPolicy::Fifo => {
                self.qpu_queue.sort_by(|&a, &b| {
                    let sa = waiting_since(&self.jobs[&a]);
                    let sb = waiting_since(&self.jobs[&b]);
                    sa.partial_cmp(&sb).expect("finite").then(a.cmp(&b))
                });
            }
            QpuPolicy::Priority { .. } => {
                self.qpu_queue.sort_by(|&a, &b| {
                    let ja = &self.jobs[&a];
                    let jb = &self.jobs[&b];
                    ja.job
                        .class
                        .rank()
                        .cmp(&jb.job.class.rank())
                        .then(
                            waiting_since(ja)
                                .partial_cmp(&waiting_since(jb))
                                .expect("finite"),
                        )
                        .then(a.cmp(&b))
                });
            }
            QpuPolicy::ShortestFirst => {
                self.qpu_queue.sort_by(|&a, &b| {
                    let ra = remaining_quantum(&self.jobs[&a]);
                    let rb = remaining_quantum(&self.jobs[&b]);
                    ra.partial_cmp(&rb)
                        .expect("finite")
                        .then(
                            waiting_since(&self.jobs[&a])
                                .partial_cmp(&waiting_since(&self.jobs[&b]))
                                .expect("finite"),
                        )
                        .then(a.cmp(&b))
                });
            }
        }
        let id = self.qpu_queue.remove(0);
        let preemptible = {
            let rt = &self.jobs[&id];
            !matches!(rt.job.class, PriorityClass::Production)
        };
        let rt = self.jobs.get_mut(&id).expect("job exists");
        let JobState::WaitingQpu { remaining, .. } = rt.state else {
            return; // stale entry
        };
        let slice = if preemptible
            && matches!(
                self.cfg.qpu_policy,
                QpuPolicy::Priority { preemption: true }
            ) {
            remaining.min(self.cfg.chunk_secs)
        } else {
            remaining
        };
        rt.state = JobState::OnQpu { remaining };
        self.qpu_busy_with = Some(id);
        self.events
            .schedule_at(now + slice, Ev::QpuSliceDone { id, secs: slice });
    }

    /// Run the whole simulation and report.
    pub fn run(mut self) -> CosimReport {
        while let Some((t, ev)) = self.events.pop() {
            self.accumulate(t);
            match ev {
                Ev::Arrival(id) => {
                    self.admit_queue.push(id);
                    self.admit_pass(t);
                }
                Ev::ClassicalDone(id) => {
                    let rt = self.jobs.get_mut(&id).expect("job exists");
                    rt.phase_idx += 1;
                    self.start_phase(id, t);
                    // phase end may free nodes → admit; may queue QPU → pass
                    self.admit_pass(t);
                }
                Ev::QpuSliceDone { id, secs } => {
                    self.qpu_busy_with = None;
                    let rt = self.jobs.get_mut(&id).expect("job exists");
                    let JobState::OnQpu { remaining } = rt.state else {
                        unreachable!("slice completion for a job not on the QPU");
                    };
                    let left = remaining - secs;
                    if left > 1e-9 {
                        // unfinished: preemption check — anyone more urgent?
                        rt.state = JobState::WaitingQpu {
                            since: t,
                            remaining: left,
                        };
                        self.qpu_queue.push(id);
                        let class = self.jobs[&id].job.class;
                        if let QpuPolicy::Priority { preemption: true } = self.cfg.qpu_policy {
                            let more_urgent = self
                                .qpu_queue
                                .iter()
                                .any(|&o| self.jobs[&o].job.class.rank() < class.rank());
                            if more_urgent {
                                self.preemptions += 1;
                            }
                        }
                    } else {
                        rt.phase_idx += 1;
                        self.start_phase(id, t);
                        self.admit_pass(t);
                    }
                }
            }
            self.qpu_pass(t);
        }
        self.report()
    }

    fn report(self) -> CosimReport {
        let makespan = self
            .jobs
            .values()
            .filter_map(|rt| rt.finished)
            .fold(0.0f64, f64::max);
        let mut wait_by_class: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut turnaround: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut completed = 0;
        for rt in self.jobs.values() {
            if let (Some(start), Some(end)) = (rt.started, rt.finished) {
                completed += 1;
                let class = rt.job.class.as_str().to_string();
                wait_by_class
                    .entry(class.clone())
                    .or_default()
                    .push((rt.job.arrival, start));
                turnaround
                    .entry(class)
                    .or_default()
                    .push(end - rt.job.arrival);
            }
        }
        // reuse WaitStats via synthetic jobs is clumsy; compute directly
        let wait_stats = |pairs: &[(f64, f64)]| {
            let mut waits: Vec<f64> = pairs.iter().map(|(a, s)| s - a).collect();
            waits.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let n = waits.len();
            if n == 0 {
                return WaitStats::default();
            }
            let p95 = waits[(((0.95 * n as f64).ceil() as usize).max(1) - 1).min(n - 1)];
            WaitStats {
                count: n,
                mean_wait_secs: waits.iter().sum::<f64>() / n as f64,
                p95_wait_secs: p95,
                max_wait_secs: *waits.last().expect("non-empty"),
                mean_turnaround_secs: 0.0,
            }
        };
        CosimReport {
            qpu_utilization: if makespan > 0.0 {
                self.qpu_busy_secs / makespan
            } else {
                0.0
            },
            qpu_busy_secs: self.qpu_busy_secs,
            makespan_secs: makespan,
            node_waste_frac: if self.node_held_secs > 0.0 {
                self.node_wasted_secs / self.node_held_secs
            } else {
                0.0
            },
            wait_by_class: wait_by_class
                .iter()
                .map(|(k, v)| (k.clone(), wait_stats(v)))
                .collect(),
            turnaround_by_class: turnaround
                .into_iter()
                .map(|(k, v)| {
                    let m = v.iter().sum::<f64>() / v.len() as f64;
                    (k, m)
                })
                .collect(),
            preemptions: self.preemptions,
            completed,
        }
    }
}

fn waiting_since(rt: &JobRt) -> f64 {
    match rt.state {
        JobState::WaitingQpu { since, .. } => since,
        _ => f64::INFINITY,
    }
}

fn remaining_quantum(rt: &JobRt) -> f64 {
    match rt.state {
        JobState::WaitingQpu { remaining, .. } => remaining,
        _ => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(
        id: u64,
        class: PriorityClass,
        hint: PatternHint,
        phases: Vec<Phase>,
        arrival: f64,
    ) -> HybridJob {
        HybridJob {
            id,
            class,
            hint,
            nodes: 1,
            phases,
            arrival,
        }
    }

    fn balanced(id: u64, arrival: f64) -> HybridJob {
        job(
            id,
            PriorityClass::Test,
            PatternHint::QcBalanced,
            vec![
                Phase::Classical(50.0),
                Phase::Quantum(50.0),
                Phase::Classical(50.0),
                Phase::Quantum(50.0),
            ],
            arrival,
        )
    }

    #[test]
    fn single_job_timing_exact() {
        let r = Cosim::new(
            CosimConfig {
                admission: AdmissionPolicy::Sequential,
                ..CosimConfig::default()
            },
            vec![balanced(1, 0.0)],
        )
        .run();
        assert_eq!(r.completed, 1);
        assert!((r.makespan_secs - 200.0).abs() < 1e-9);
        assert!((r.qpu_busy_secs - 100.0).abs() < 1e-9);
        assert!((r.qpu_utilization - 0.5).abs() < 1e-9);
        assert_eq!(r.preemptions, 0);
    }

    #[test]
    fn duty_and_hint_estimates() {
        let j = balanced(1, 0.0);
        assert!((j.duty() - 0.5).abs() < 1e-12);
        assert!(hint_duty(PatternHint::QcHeavy) > hint_duty(PatternHint::QcBalanced));
        assert!(hint_duty(PatternHint::QcBalanced) > hint_duty(PatternHint::CcHeavy));
    }

    #[test]
    fn interleaving_beats_sequential_on_balanced_mix() {
        let jobs: Vec<HybridJob> = (0..10).map(|i| balanced(i, 0.0)).collect();
        let seq = Cosim::new(
            CosimConfig {
                admission: AdmissionPolicy::Sequential,
                ..CosimConfig::default()
            },
            jobs.clone(),
        )
        .run();
        let inter = Cosim::new(
            CosimConfig {
                admission: AdmissionPolicy::NodeLimited,
                ..CosimConfig::default()
            },
            jobs,
        )
        .run();
        assert!(
            inter.qpu_utilization > seq.qpu_utilization + 0.2,
            "interleave {:.3} vs sequential {:.3}",
            inter.qpu_utilization,
            seq.qpu_utilization
        );
        assert!(inter.makespan_secs < seq.makespan_secs);
    }

    #[test]
    fn sequential_is_fine_for_qc_heavy_pattern_a() {
        // Pattern A: the QPU is the bottleneck either way; utilization gap
        // between sequential and interleaved is small.
        let mk = |id| {
            job(
                id,
                PriorityClass::Test,
                PatternHint::QcHeavy,
                vec![Phase::Classical(5.0), Phase::Quantum(95.0)],
                0.0,
            )
        };
        let jobs: Vec<HybridJob> = (0..8).map(mk).collect();
        let seq = Cosim::new(
            CosimConfig {
                admission: AdmissionPolicy::Sequential,
                ..CosimConfig::default()
            },
            jobs.clone(),
        )
        .run();
        let inter = Cosim::new(CosimConfig::default(), jobs).run();
        assert!(seq.qpu_utilization > 0.85);
        assert!(inter.qpu_utilization - seq.qpu_utilization < 0.12);
    }

    #[test]
    fn pattern_aware_reduces_node_waste_vs_greedy_on_qc_heavy() {
        // Many QC-heavy jobs: greedy admission parks them all on the QPU
        // queue, wasting node time; pattern-aware admits ~1-2 at a time.
        let mk = |id| {
            job(
                id,
                PriorityClass::Test,
                PatternHint::QcHeavy,
                vec![Phase::Classical(5.0), Phase::Quantum(95.0)],
                0.0,
            )
        };
        let jobs: Vec<HybridJob> = (0..8).map(mk).collect();
        let greedy = Cosim::new(
            CosimConfig {
                admission: AdmissionPolicy::NodeLimited,
                ..CosimConfig::default()
            },
            jobs.clone(),
        )
        .run();
        let aware = Cosim::new(
            CosimConfig {
                admission: AdmissionPolicy::PatternAware { target_duty: 1.2 },
                ..CosimConfig::default()
            },
            jobs,
        )
        .run();
        assert!(
            aware.node_waste_frac < greedy.node_waste_frac,
            "aware {:.3} vs greedy {:.3}",
            aware.node_waste_frac,
            greedy.node_waste_frac
        );
        // without sacrificing QPU utilization
        assert!(aware.qpu_utilization > greedy.qpu_utilization - 0.05);
    }

    #[test]
    fn production_wait_low_under_priority_policy() {
        let mut jobs: Vec<HybridJob> = (0..6)
            .map(|i| {
                job(
                    i,
                    PriorityClass::Development,
                    PatternHint::QcHeavy,
                    vec![Phase::Quantum(200.0)],
                    0.0,
                )
            })
            .collect();
        jobs.push(job(
            99,
            PriorityClass::Production,
            PatternHint::QcHeavy,
            vec![Phase::Quantum(50.0)],
            100.0,
        ));
        let prio = Cosim::new(
            CosimConfig {
                qpu_policy: QpuPolicy::Priority { preemption: true },
                chunk_secs: 10.0,
                ..CosimConfig::default()
            },
            jobs.clone(),
        )
        .run();
        let fifo = Cosim::new(
            CosimConfig {
                qpu_policy: QpuPolicy::Fifo,
                ..CosimConfig::default()
            },
            jobs,
        )
        .run();
        let p_prio = prio.turnaround_by_class["production"];
        let p_fifo = fifo.turnaround_by_class["production"];
        assert!(
            p_prio < p_fifo / 2.0,
            "priority {p_prio:.0}s vs fifo {p_fifo:.0}s"
        );
        assert!(prio.preemptions > 0, "dev chunks yielded to production");
    }

    #[test]
    fn node_waste_counted_while_blocked_on_qpu() {
        // two jobs, both want the QPU immediately: the loser holds a node.
        let mk = |id| {
            job(
                id,
                PriorityClass::Test,
                PatternHint::QcHeavy,
                vec![Phase::Quantum(100.0)],
                0.0,
            )
        };
        let r = Cosim::new(
            CosimConfig {
                admission: AdmissionPolicy::NodeLimited,
                ..CosimConfig::default()
            },
            vec![mk(1), mk(2)],
        )
        .run();
        assert!(r.node_waste_frac > 0.2, "waste {:.3}", r.node_waste_frac);
        assert!((r.qpu_utilization - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shortest_first_cuts_mean_wait() {
        // a short blocker occupies the QPU while one long and several short
        // jobs queue behind it: SJF then runs the short ones first, cutting
        // aggregate turnaround vs FIFO.
        let mut jobs = vec![
            job(
                99,
                PriorityClass::Test,
                PatternHint::QcHeavy,
                vec![Phase::Quantum(5.0)],
                0.0,
            ),
            job(
                0,
                PriorityClass::Test,
                PatternHint::QcHeavy,
                vec![Phase::Quantum(500.0)],
                0.05,
            ),
        ];
        for i in 1..6 {
            jobs.push(job(
                i,
                PriorityClass::Test,
                PatternHint::QcHeavy,
                vec![Phase::Quantum(20.0)],
                0.1, // queued behind the blocker together with the long job
            ));
        }
        let fifo = Cosim::new(
            CosimConfig {
                qpu_policy: QpuPolicy::Fifo,
                ..CosimConfig::default()
            },
            jobs.clone(),
        )
        .run();
        let sjf = Cosim::new(
            CosimConfig {
                qpu_policy: QpuPolicy::ShortestFirst,
                ..CosimConfig::default()
            },
            jobs,
        )
        .run();
        let t_fifo = fifo.turnaround_by_class["test"];
        let t_sjf = sjf.turnaround_by_class["test"];
        assert!(
            t_sjf < t_fifo * 0.6,
            "SJF {t_sjf:.0}s should beat FIFO {t_fifo:.0}s"
        );
        // identical total work either way
        assert!((sjf.qpu_busy_secs - fifo.qpu_busy_secs).abs() < 1e-9);
    }

    #[test]
    fn report_contains_all_classes() {
        let jobs = vec![
            job(
                1,
                PriorityClass::Production,
                PatternHint::None,
                vec![Phase::Quantum(10.0)],
                0.0,
            ),
            job(
                2,
                PriorityClass::Development,
                PatternHint::None,
                vec![Phase::Quantum(10.0)],
                0.0,
            ),
        ];
        let r = Cosim::new(CosimConfig::default(), jobs).run();
        assert_eq!(r.completed, 2);
        assert!(r.wait_by_class.contains_key("production"));
        assert!(r.wait_by_class.contains_key("development"));
        assert!(r.turnaround_by_class["production"] <= r.turnaround_by_class["development"]);
    }
}
