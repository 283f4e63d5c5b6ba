//! The five closed-loop workloads. Each is one generator thread on one
//! keep-alive connection to the gateway: the next task of a loop is only
//! submitted after the previous result was fetched and checked, so a slower
//! stack receives less load and `tasks_per_s` is capacity, never an echo of
//! an offered rate.

use crate::gen::{energy_from_counts, ProgramTable, Shape};
use crate::stack::RESOURCE_SEED;
use crate::trace::{Clock, Tracer};
use hpcqc_core::{BatchItem, DaemonClient, DaemonSession};
use hpcqc_emulator::{Emulator, SampleResult, SvBackend};
use hpcqc_middleware::{DaemonConfig, DaemonTaskStatus, PriorityClass};
use hpcqc_program::ProgramIr;
use hpcqc_scheduler::PatternHint;
use std::time::Duration;

type Error = Box<dyn std::error::Error>;

/// A task that has not reached a terminal state after this long has failed.
const TASK_TIMEOUT_NS: u64 = 60_000_000_000;
/// Every n-th result of a serial session is recomputed in-process.
const ORACLE_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VqeLoop,
    TinyLoop,
    BinLoop,
    SweepBurst,
    SiteMix,
}

pub const ALL: [Workload; 5] = [
    Workload::VqeLoop,
    Workload::TinyLoop,
    Workload::BinLoop,
    Workload::SweepBurst,
    Workload::SiteMix,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::VqeLoop => "vqe_loop",
            Workload::TinyLoop => "tiny_loop",
            Workload::BinLoop => "bin_loop",
            Workload::SweepBurst => "sweep_burst",
            Workload::SiteMix => "site_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether `BENCHMARK.json` lists the workload, so that its end-to-end
    /// metrics are held to their bounds: the two loops whose time to result
    /// is mostly waiting. The other three keep the box's CPU or disk busy by
    /// design and repeat no better than the box itself does (README.md).
    pub fn gated(self) -> bool {
        matches!(self, Workload::TinyLoop | Workload::BinLoop)
    }

    /// Tasks of the warm-up (production-class tasks in `site_mix`). Sized
    /// once on the reference box — to about 1.5 s in the ungated workloads,
    /// to about 2.8 s in the two gated loops, where the warm-up is mostly the
    /// dispatcher's sleep and so steadies `setup_s` against the ± 25 % by
    /// which recovery and bring-up vary — and then frozen: a count, not a
    /// duration, so warm-up does the same work on every run.
    pub fn warmup_tasks(self, quick: bool) -> u64 {
        let full = match self {
            Workload::VqeLoop => 4,
            Workload::TinyLoop | Workload::BinLoop => 128,
            Workload::SweepBurst => 9 * SWEEP as u64,
            Workload::SiteMix => 40,
        };
        if quick {
            full.div_ceil(4)
        } else {
            full
        }
    }

    /// One session with one task outstanding at a time: the hybrid loops.
    pub fn serial(self) -> bool {
        matches!(
            self,
            Workload::VqeLoop | Workload::TinyLoop | Workload::BinLoop
        )
    }

    /// Whether the workload's client speaks the binary wire codec.
    pub fn binary(self) -> bool {
        matches!(self, Workload::BinLoop | Workload::SweepBurst)
    }

    /// The workload's production-class program stream: what its one session
    /// (the production session in `site_mix`) submits, and what the ladder
    /// replays against each layer.
    pub fn primary(self, seed: u64) -> ProgramTable {
        match self {
            Workload::VqeLoop => ProgramTable::walk(seed, 1, shape(12, 200), 1 << 14),
            Workload::TinyLoop => ProgramTable::walk(seed, 1, shape(4, 50), 1 << 14),
            Workload::BinLoop => ProgramTable::walk(seed, 6, shape(8, 200), 1 << 14),
            Workload::SweepBurst => ProgramTable::scatter(seed, 2, shape(6, 100), 1 << 16),
            Workload::SiteMix => ProgramTable::scatter(seed, 3, shape(10, 200), 1 << 13),
        }
    }

    /// A client of the daemon at `addr` in the workload's codec.
    pub fn client(self, addr: &str) -> DaemonClient {
        let mut client = DaemonClient::new(addr);
        client.pump_on_poll = false; // the daemon runs its own dispatcher
        if self.binary() {
            client.prefer_binary()
        } else {
            client
        }
    }

    /// Open the workload's sessions on the daemon at `addr` and generate
    /// its programs from `seed`.
    pub fn build(self, addr: &str, seed: u64) -> Result<Box<dyn Driver>, Error> {
        let client = self.client(addr);
        let table = self.primary(seed);
        let production = client.open_session("prod", PriorityClass::Production)?;
        Ok(match self {
            Workload::VqeLoop | Workload::TinyLoop | Workload::BinLoop => Box::new(HybridLoop {
                session: production,
                table,
                poll: if self == Workload::VqeLoop {
                    Duration::from_millis(2)
                } else {
                    TICK
                },
                ready_ns: 0,
                next: 0,
            }),
            Workload::SweepBurst => Box::new(SweepBurst {
                session: production,
                table,
                next: 0,
            }),
            Workload::SiteMix => {
                let lane = |session, class, table, think_ms: u64, repeat| Lane {
                    session,
                    class,
                    table,
                    think_ns: think_ms * 1_000_000,
                    repeat,
                    submitted: 0,
                    state: LaneState::Idle { ready_ns: 0 },
                };
                let test = client.open_session("test", PriorityClass::Test)?;
                let dev = client.open_session("dev", PriorityClass::Development)?;
                Box::new(SiteMix {
                    lanes: vec![
                        lane(production, PriorityClass::Production, table, 10, 1),
                        lane(
                            test,
                            PriorityClass::Test,
                            ProgramTable::scatter(seed, 4, shape(10, 100), 1 << 13),
                            0,
                            1,
                        ),
                        // 300 shots requested, capped by `dev_shot_cap`;
                        // every second program repeats its predecessor
                        lane(
                            dev,
                            PriorityClass::Development,
                            ProgramTable::scatter(seed, 5, shape(8, 300), 1 << 13),
                            0,
                            2,
                        ),
                    ],
                    next: 0,
                })
            }
        })
    }
}

fn shape(qubits: usize, shots: u32) -> Shape {
    Shape { qubits, shots }
}

/// When a [`Driver`] stops submitting (it then drains what is outstanding).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many completed tasks: the count-based warm-up.
    AfterTasks(u64),
    /// At this instant on the harness clock: the measurement window. Tasks
    /// submitted before it are drained and counted.
    AtNs(u64),
}

impl Stop {
    fn reached(self, done: u64, now_ns: u64) -> bool {
        match self {
            Stop::AfterTasks(n) => done >= n,
            Stop::AtNs(t) => now_ns >= t,
        }
    }
}

pub trait Driver {
    /// Run the closed loop until `stop`, then drain.
    fn drive(&mut self, stop: Stop, rec: &mut Recorder);
    /// Every table the workload generates programs from (for the hash).
    fn tables(&self) -> Vec<&ProgramTable>;
}

/// One task whose result was fetched and passed the checks. The five spans
/// partition `end_ns − start_ns`: `poll_wait` is the task span's self time.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub class: PriorityClass,
    /// SDK submit call start.
    pub start_ns: u64,
    /// Result decoded and checked.
    pub end_ns: u64,
    pub submit_ns: u64,
    pub status_ns: u64,
    pub result_ns: u64,
    pub classical_ns: u64,
    /// Time the generator measurably slept while this task was outstanding
    /// (part of `poll_wait`; the rest of it is the generator serving other
    /// outstanding tasks, which only the multiplexed workloads have).
    pub slept_ns: u64,
    pub polls: u32,
    /// HTTP requests the SDK made for this task (a batch frame is shared).
    pub requests: f64,
}

impl Sample {
    pub fn ttr_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn poll_wait_ns(&self) -> u64 {
        self.ttr_ns() - self.submit_ns - self.status_ns - self.result_ns - self.classical_ns
    }
}

/// A result to recompute after the window closes.
struct OracleCase {
    ir: ProgramIr,
    seed: u64,
    result: SampleResult,
}

/// What one `drive` call produced.
pub struct Recorder {
    pub clock: Clock,
    pub tracer: Tracer,
    pub samples: Vec<Sample>,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// Lowest energy estimate seen: the classical step's output.
    pub best_energy: f64,
    oracle: Vec<OracleCase>,
}

impl Recorder {
    pub fn new(clock: Clock, traced: bool) -> Self {
        Recorder {
            clock,
            tracer: Tracer::new(traced),
            samples: Vec::new(),
            failed: 0,
            failures: Vec::new(),
            best_energy: f64::INFINITY,
            oracle: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Recompute every kept result with `SvBackend::default().run(&ir, seed)`;
    /// each must match bit for bit. Returns how many were recomputed;
    /// mismatches count as failed operations.
    pub fn verify_oracle(&mut self) -> u64 {
        let backend = SvBackend::default();
        let cases = std::mem::take(&mut self.oracle);
        for case in &cases {
            match backend.run(&case.ir, case.seed) {
                Ok(expect) if expect.counts == case.result.counts => {}
                Ok(_) => self.fail(format!("oracle: seed {} counts differ", case.seed)),
                Err(e) => self.fail(format!("oracle: seed {} failed to run: {e}", case.seed)),
            }
        }
        cases.len() as u64
    }
}

/// One generated program about to be submitted.
struct Job {
    /// Position in the workload's submission order: the trace id, and in a
    /// serial session the offset of the resource seed the task runs with.
    ordinal: u64,
    class: PriorityClass,
    ir: ProgramIr,
    detuning: f64,
}

impl Job {
    fn new(table: &ProgramTable, k: usize, ordinal: u64, class: PriorityClass) -> Job {
        Job {
            ordinal,
            class,
            ir: table.program(k),
            detuning: table.cost_detuning(k),
        }
    }
}

/// A submitted task the generator is waiting on.
struct Pending {
    ordinal: u64,
    task_id: u64,
    class: PriorityClass,
    /// Shape of the result the daemon should return.
    expect: Shape,
    detuning: f64,
    start_ns: u64,
    submit_end_ns: u64,
    submit_share: f64,
    status_ns: u64,
    slept_ns: u64,
    polls: u32,
    /// Kept when the result will be recomputed.
    oracle_ir: Option<ProgramIr>,
}

impl Pending {
    /// `call` is the SDK submit call's start and end; `share` the part of
    /// that HTTP request this task accounts for; `serial` whether the task
    /// belongs to a single serial session, whose resource seeds are known.
    fn new(job: &Job, task_id: u64, call: (u64, u64), share: f64, serial: bool) -> Pending {
        let mut expect = Shape {
            qubits: job.ir.sequence.num_qubits(),
            shots: job.ir.shots,
        };
        if job.class == PriorityClass::Development {
            expect.shots = expect.shots.min(DaemonConfig::default().dev_shot_cap);
        }
        Pending {
            ordinal: job.ordinal,
            task_id,
            class: job.class,
            expect,
            detuning: job.detuning,
            start_ns: call.0,
            submit_end_ns: call.1,
            submit_share: share,
            status_ns: 0,
            slept_ns: 0,
            polls: 0,
            oracle_ir: (serial && job.ordinal.is_multiple_of(ORACLE_EVERY)).then(|| job.ir.clone()),
        }
    }
}

enum Polled {
    Waiting,
    Completed,
    Failed,
}

impl Recorder {
    /// Sleep `d`; returns the nanoseconds it really took, to be charged to
    /// every task outstanding meanwhile.
    fn sleep(&self, d: Duration) -> u64 {
        let t0 = self.clock.now_ns();
        std::thread::sleep(d);
        self.clock.now_ns() - t0
    }

    /// One status call for `p`.
    fn poll(&mut self, session: &DaemonSession, p: &mut Pending) -> Polled {
        let t0 = self.clock.now_ns();
        let status = session.status(p.task_id);
        let t1 = self.clock.now_ns();
        p.status_ns += t1 - t0;
        p.polls += 1;
        self.tracer.record(p.ordinal, "status", "task", t0, t1);
        let failure = match status {
            Ok(DaemonTaskStatus::Completed) => return Polled::Completed,
            Ok(DaemonTaskStatus::Queued { .. } | DaemonTaskStatus::Running) => {
                if t1 - p.start_ns < TASK_TIMEOUT_NS {
                    return Polled::Waiting;
                }
                "not terminal within the task timeout".to_string()
            }
            Ok(DaemonTaskStatus::Failed(m)) => format!("failed on the daemon: {m}"),
            Ok(DaemonTaskStatus::Cancelled) => "cancelled".to_string(),
            Err(e) => format!("status: {e}"),
        };
        self.fail(format!("task {}: {failure}", p.task_id));
        Polled::Failed
    }

    /// Fetch and check the result of completed task `p`; a task that passes
    /// becomes a [`Sample`].
    fn finish(&mut self, session: &DaemonSession, p: Pending) {
        let t0 = self.clock.now_ns();
        let fetched = session.result(p.task_id);
        let t1 = self.clock.now_ns();
        let result = match fetched {
            Ok(r) => r,
            Err(e) => return self.fail(format!("task {}: result: {e}", p.task_id)),
        };
        if let Err(why) = check_result(&result, p.expect) {
            return self.fail(format!("task {}: {why}", p.task_id));
        }
        let energy = energy_from_counts(&result, p.detuning);
        self.best_energy = self.best_energy.min(energy);
        let t2 = self.clock.now_ns();

        self.tracer
            .record(p.ordinal, "submit", "task", p.start_ns, p.submit_end_ns);
        self.tracer.record(p.ordinal, "result", "task", t0, t1);
        self.tracer.record(p.ordinal, "classical", "task", t1, t2);
        self.tracer.record(p.ordinal, "task", "", p.start_ns, t2);
        if let Some(ir) = p.oracle_ir {
            self.oracle.push(OracleCase {
                ir,
                seed: RESOURCE_SEED + p.ordinal,
                result,
            });
        }
        self.samples.push(Sample {
            class: p.class,
            start_ns: p.start_ns,
            end_ns: t2,
            submit_ns: p.submit_end_ns - p.start_ns,
            status_ns: p.status_ns,
            result_ns: t1 - t0,
            classical_ns: t2 - t1,
            slept_ns: p.slept_ns,
            polls: p.polls,
            requests: p.submit_share + p.polls as f64 + 1.0,
        });
    }
}

/// The structural checks every fetched result must pass.
pub fn check_result(r: &SampleResult, expect: Shape) -> Result<(), String> {
    if r.shots != expect.shots {
        return Err(format!("{} shots, expected {}", r.shots, expect.shots));
    }
    if r.n_qubits != expect.qubits {
        return Err(format!("{} qubits, expected {}", r.n_qubits, expect.qubits));
    }
    if let Some(wide) = r.counts.keys().find(|&&b| b >> expect.qubits != 0) {
        return Err(format!(
            "bitstring {wide:#b} wider than {} qubits",
            expect.qubits
        ));
    }
    let total: u64 = r.counts.values().map(|&c| c as u64).sum();
    if total != expect.shots as u64 {
        return Err(format!("counts sum to {total}, not {}", expect.shots));
    }
    Ok(())
}

/// `tiny_loop`, `bin_loop` and `vqe_loop`: submit, wait, energy from counts,
/// next parameters — one task outstanding at a time.
struct HybridLoop {
    session: DaemonSession,
    table: ProgramTable,
    poll: Duration,
    /// When the classical step after the previous result ends.
    ready_ns: u64,
    next: u64,
}

/// Classical step of the hybrid loops between a result and the next submit.
/// Not decoration: the dispatcher journals the completion (an fsync) before
/// it looks at the queue again, so a client that resubmits within about a
/// millisecond sometimes catches it awake (≈ 2 ms to result) and sometimes
/// just misses it (≈ 21 ms, the idle sleep). With no classical step at all
/// `tiny_loop` splits close to half and half and its median is a coin toss;
/// 5 ms of optimiser time, which every real loop has, always loses the race.
const CLASSICAL_STEP_NS: u64 = 5_000_000;

impl Driver for HybridLoop {
    fn drive(&mut self, stop: Stop, rec: &mut Recorder) {
        let mut done = 0;
        while !stop.reached(done, rec.clock.now_ns()) {
            let job = Job::new(
                &self.table,
                self.next as usize,
                self.next,
                PriorityClass::Production,
            );
            let now = rec.clock.now_ns();
            std::thread::sleep(Duration::from_nanos(self.ready_ns.saturating_sub(now)));
            self.next += 1;
            done += 1;
            let t0 = rec.clock.now_ns();
            let submitted = self.session.submit(&job.ir, PatternHint::None);
            let t1 = rec.clock.now_ns();
            let task_id = match submitted {
                Ok(id) => id,
                Err(e) => {
                    rec.fail(format!("submit: {e}"));
                    continue;
                }
            };
            let mut p = Pending::new(&job, task_id, (t0, t1), 1.0, true);
            loop {
                p.slept_ns += rec.sleep(self.poll);
                match rec.poll(&self.session, &mut p) {
                    Polled::Waiting => {}
                    Polled::Completed => break rec.finish(&self.session, p),
                    Polled::Failed => break,
                }
            }
            self.ready_ns = rec.clock.now_ns() + CLASSICAL_STEP_NS;
        }
    }

    fn tables(&self) -> Vec<&ProgramTable> {
        vec![&self.table]
    }
}

/// Programs per sweep and per `submit_batch` frame. A sweep is 96 journal
/// records against a compaction every 256: about three tasks in ten are
/// outstanding across a compaction stall (≈ 170 ms with the 16384-task
/// history), so the median time to result sits well inside the unstalled
/// mode. With 64 per sweep the stalled share is about one half and the
/// median flips between the two modes from run to run.
const SWEEP: usize = 32;
pub const FRAME: usize = 16;
/// Poll sleep of the multiplexed workloads, and the `site_mix` tick.
const TICK: Duration = Duration::from_micros(250);

/// `sweep_burst`: sweeps of 32 distinct programs over the binary codec in
/// frames of 16; every result is collected before the next sweep goes out.
struct SweepBurst {
    session: DaemonSession,
    table: ProgramTable,
    next: u64,
}

impl Driver for SweepBurst {
    fn drive(&mut self, stop: Stop, rec: &mut Recorder) {
        let mut done = 0;
        while !stop.reached(done, rec.clock.now_ns()) {
            let first = self.next;
            self.next += SWEEP as u64;
            done += SWEEP as u64;
            let jobs: Vec<Job> = (first..first + SWEEP as u64)
                .map(|k| Job::new(&self.table, k as usize, k, PriorityClass::Production))
                .collect();
            let mut outstanding = std::collections::VecDeque::new();
            for frame in jobs.chunks(FRAME) {
                let items: Vec<BatchItem> = frame
                    .iter()
                    .map(|job| BatchItem {
                        ir: &job.ir,
                        hint: PatternHint::None,
                        idempotency_key: None,
                    })
                    .collect();
                let t0 = rec.clock.now_ns();
                let reply = self.session.submit_batch(&items);
                let t1 = rec.clock.now_ns();
                let slots = match reply {
                    Ok(slots) => slots,
                    Err(e) => {
                        for _ in frame {
                            rec.fail(format!("submit_batch: {e}"));
                        }
                        continue;
                    }
                };
                for (slot, job) in slots.into_iter().zip(frame) {
                    match slot {
                        Ok(task_id) => outstanding.push_back(Pending::new(
                            job,
                            task_id,
                            (t0, t1),
                            1.0 / FRAME as f64,
                            false,
                        )),
                        Err(e) => rec.fail(format!("batch slot: {e}")),
                    }
                }
            }
            // collect oldest first, polling only the oldest outstanding task
            while let Some(mut p) = outstanding.pop_front() {
                loop {
                    match rec.poll(&self.session, &mut p) {
                        Polled::Waiting => {
                            let slept = rec.sleep(TICK);
                            for q in std::iter::once(&mut p).chain(outstanding.iter_mut()) {
                                q.slept_ns += slept;
                            }
                        }
                        Polled::Completed => break rec.finish(&self.session, p),
                        Polled::Failed => break,
                    }
                }
            }
        }
    }

    fn tables(&self) -> Vec<&ProgramTable> {
        vec![&self.table]
    }
}

/// One session of `site_mix`.
struct Lane {
    session: DaemonSession,
    class: PriorityClass,
    table: ProgramTable,
    /// Classical think time between a result and the next submit.
    think_ns: u64,
    /// Consecutive submissions that share one program (2 = every second
    /// program repeats its predecessor, which the dev result cache serves).
    repeat: u64,
    submitted: u64,
    state: LaneState,
}

enum LaneState {
    Idle { ready_ns: u64 },
    Waiting(Box<Pending>),
}

/// `site_mix`: production, test and development sessions multiplexed from
/// the one generator thread on a 250 µs tick.
struct SiteMix {
    lanes: Vec<Lane>,
    next: u64,
}

impl Driver for SiteMix {
    fn drive(&mut self, stop: Stop, rec: &mut Recorder) {
        let mut production_done = 0;
        loop {
            let stopping = stop.reached(production_done, rec.clock.now_ns());
            for lane in &mut self.lanes {
                let state = std::mem::replace(&mut lane.state, LaneState::Idle { ready_ns: 0 });
                lane.state = match state {
                    LaneState::Idle { ready_ns } => {
                        if stopping || rec.clock.now_ns() < ready_ns {
                            LaneState::Idle { ready_ns }
                        } else {
                            let k = (lane.submitted / lane.repeat) as usize;
                            lane.submitted += 1;
                            let job = Job::new(&lane.table, k, self.next, lane.class);
                            self.next += 1;
                            let t0 = rec.clock.now_ns();
                            let submitted = lane.session.submit(&job.ir, PatternHint::None);
                            let t1 = rec.clock.now_ns();
                            match submitted {
                                Ok(id) => LaneState::Waiting(Box::new(Pending::new(
                                    &job,
                                    id,
                                    (t0, t1),
                                    1.0,
                                    false,
                                ))),
                                Err(e) => {
                                    rec.fail(format!("{} submit: {e}", lane.class.as_str()));
                                    LaneState::Idle { ready_ns: t1 }
                                }
                            }
                        }
                    }
                    LaneState::Waiting(mut p) => match rec.poll(&lane.session, &mut p) {
                        Polled::Waiting => LaneState::Waiting(p),
                        outcome => {
                            if matches!(outcome, Polled::Completed) {
                                rec.finish(&lane.session, *p);
                                if lane.class == PriorityClass::Production {
                                    production_done += 1;
                                }
                            }
                            LaneState::Idle {
                                ready_ns: rec.clock.now_ns() + lane.think_ns,
                            }
                        }
                    },
                };
            }
            let idle = |l: &Lane| matches!(l.state, LaneState::Idle { .. });
            if stopping && self.lanes.iter().all(idle) {
                return;
            }
            let slept = rec.sleep(TICK);
            for lane in &mut self.lanes {
                if let LaneState::Waiting(p) = &mut lane.state {
                    p.slept_ns += slept;
                }
            }
        }
    }

    fn tables(&self) -> Vec<&ProgramTable> {
        self.lanes.iter().map(|l| &l.table).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPECT: Shape = Shape {
        qubits: 3,
        shots: 4,
    };

    #[test]
    fn result_checks() {
        let good = SampleResult::from_shots(3, &[0b101, 0b101, 0b000, 0b111], "t");
        assert_eq!(check_result(&good, EXPECT), Ok(()));

        let short = SampleResult::from_shots(3, &[0b101], "t");
        assert!(check_result(&short, EXPECT).unwrap_err().contains("shots"));

        let mut wide = good.clone();
        wide.counts.insert(0b1000, 0);
        assert!(check_result(&wide, EXPECT).unwrap_err().contains("wider"));

        let mut lossy = good.clone();
        *lossy.counts.get_mut(&0b101).unwrap() = 1;
        assert!(check_result(&lossy, EXPECT).unwrap_err().contains("sum"));

        let mut other = good;
        other.n_qubits = 4;
        assert!(check_result(&other, EXPECT).unwrap_err().contains("qubits"));
    }

    #[test]
    fn spans_partition_the_task() {
        let s = Sample {
            class: PriorityClass::Production,
            start_ns: 100,
            end_ns: 1100,
            submit_ns: 100,
            status_ns: 200,
            result_ns: 50,
            classical_ns: 10,
            slept_ns: 600,
            polls: 3,
            requests: 5.0,
        };
        assert_eq!(s.ttr_ns(), 1000);
        assert_eq!(s.poll_wait_ns(), 640);
    }

    #[test]
    fn stop_conditions() {
        assert!(!Stop::AfterTasks(3).reached(2, u64::MAX));
        assert!(Stop::AfterTasks(3).reached(3, 0));
        assert!(!Stop::AtNs(10).reached(u64::MAX, 9));
        assert!(Stop::AtNs(10).reached(0, 10));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
