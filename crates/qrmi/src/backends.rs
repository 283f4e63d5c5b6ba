//! QRMI resource implementations for every backend flavor.
//!
//! * [`LocalEmulatorResource`] — wraps an in-process [`Emulator`]; unlimited
//!   concurrent leases, tasks complete synchronously.
//! * [`QpuDirectResource`] — wraps the on-prem [`VirtualQpu`]; the lease is
//!   **exclusive** (a physical device runs one program at a time), execution
//!   consumes simulated device seconds.
//! * [`CloudResource`] — wraps either backend behind a simulated WAN/cloud
//!   queue: tasks stay `Queued` for a configurable number of polls before
//!   running, modelling the loose-coupling latency of cloud access (§2.2.1).

use crate::resource::{
    AcquisitionToken, QrmiError, QuantumResource, ResourceType, TaskId, TaskStatus,
};
use hpcqc_emulator::{Emulator, SampleResult};
use hpcqc_program::{DeviceSpec, ProgramIr};
use hpcqc_qpu::VirtualQpu;
use hpcqc_sync::{rank, TrackedMutex as Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wall-clock profile of *real* emulator kernel invocations — as opposed to
/// the simulated device timing a [`VirtualQpu`] stamps. QRMI resources that
/// run an in-process emulator record how much host CPU each `Emulator::run`
/// consumed, so regressions in the classical kernels show up in resource
/// metadata without a dedicated benchmark run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Completed `Emulator::run` invocations (including failed ones — a
    /// rejected program still costs validation/evolution time).
    pub runs: u64,
    /// Accumulated wall-clock seconds across all runs.
    pub total_secs: f64,
    /// Wall-clock seconds of the most recent run.
    pub last_secs: f64,
}

impl KernelProfile {
    /// Fold one completed run into the profile.
    pub fn record(&mut self, secs: f64) {
        self.runs += 1;
        self.total_secs += secs;
        self.last_secs = secs;
    }

    /// Mean wall-clock seconds per run (0 before the first run).
    pub fn mean_secs(&self) -> f64 {
        self.total_secs / self.runs.max(1) as f64
    }

    /// Render into resource metadata under `kernel_*` keys.
    pub fn to_metadata(self, m: &mut BTreeMap<String, String>) {
        m.insert("kernel_runs".into(), self.runs.to_string());
        for (key, secs) in [("total", self.total_secs), ("mean", self.mean_secs())] {
            m.insert(format!("kernel_secs_{key}"), format!("{secs:.6}"));
        }
    }
}

#[derive(Debug, Clone)]
enum TaskState {
    Pending {
        ir: ProgramIr,
        polls_left: u32,
    },
    /// Claimed by the poll that executes it; no other poll runs it again.
    Running,
    Done(SampleResult),
    Failed(String),
    Cancelled,
}

impl TaskState {
    /// The terminal state of a finished run.
    fn of<E: std::fmt::Display>(run: Result<SampleResult, E>) -> Self {
        match run {
            Ok(res) => TaskState::Done(res),
            Err(e) => TaskState::Failed(e.to_string()),
        }
    }

    /// The status this state reports; `None` while pending (what a pending
    /// task reports differs per backend).
    fn status(&self) -> Option<TaskStatus> {
        match self {
            TaskState::Pending { .. } => None,
            TaskState::Running => Some(TaskStatus::Running),
            TaskState::Done(_) => Some(TaskStatus::Completed),
            TaskState::Failed(m) => Some(TaskStatus::Failed(m.clone())),
            TaskState::Cancelled => Some(TaskStatus::Cancelled),
        }
    }
}

/// What a [`Ledger`] guards, in one hold.
#[derive(Default)]
struct Book {
    leases: HashSet<String>,
    /// Per task id: the lease that started it, and its state.
    tasks: HashMap<String, (String, TaskState)>,
    /// Source of lease and task ids.
    counter: u64,
    kernel: KernelProfile,
}

impl Book {
    fn new_id(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}-{}", self.counter - 1)
    }
}

/// The bookkeeping every backend keeps, behind one lock: the leases it has
/// out, per task id the lease that started it and its state, the id
/// counter and the kernel profile. A lease's tasks are dropped when the
/// lease is released, so a long-running daemon does not hold every result
/// it ever produced a second time; callers fetch results before they
/// release. No engine runs under the lock.
struct Ledger {
    /// A physical device grants one lease at a time.
    exclusive: bool,
    book: Mutex<Book>,
}

impl Ledger {
    /// `exclusive`: one lease at a time, not any number of concurrent ones.
    fn new(exclusive: bool, lock_name: &'static str) -> Self {
        Ledger {
            exclusive,
            book: Mutex::new(lock_name, rank::QRMI_LEDGER, Book::default()),
        }
    }

    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        let mut book = self.book.lock();
        if self.exclusive && !book.leases.is_empty() {
            return Err(QrmiError::AcquisitionDenied(
                "QPU already leased; direct access is exclusive".into(),
            ));
        }
        let tok = book.new_id("lease");
        book.leases.insert(tok.clone());
        Ok(AcquisitionToken(tok))
    }

    /// End `lease` and drop every task it started.
    fn release(&self, lease: &AcquisitionToken) -> Result<(), QrmiError> {
        let mut book = self.book.lock();
        if !book.leases.remove(&lease.0) {
            return Err(QrmiError::InvalidToken);
        }
        book.tasks.retain(|_, (l, _)| *l != lease.0);
        Ok(())
    }

    /// `task_start`'s token check before it runs anything.
    fn check(&self, lease: &AcquisitionToken) -> Result<(), QrmiError> {
        let held = self.book.lock().leases.contains(&lease.0);
        held.then_some(()).ok_or(QrmiError::InvalidToken)
    }

    /// Store a new task under `lease`, folding the wall-clock of the engine
    /// run that produced it (if any) into the kernel profile. The lease is
    /// checked again in this hold: one released while the engine ran takes
    /// its task with it, so nothing is stored.
    fn start(
        &self,
        lease: &AcquisitionToken,
        state: TaskState,
        kernel_secs: Option<f64>,
    ) -> Result<TaskId, QrmiError> {
        let mut book = self.book.lock();
        if let Some(secs) = kernel_secs {
            book.kernel.record(secs);
        }
        if !book.leases.contains(&lease.0) {
            return Err(QrmiError::InvalidToken);
        }
        let id = book.new_id("task");
        book.tasks.insert(id.clone(), (lease.0.clone(), state));
        Ok(TaskId(id))
    }

    /// Run `f` on the task's state under the ledger lock.
    fn with<R>(&self, task: &TaskId, f: impl FnOnce(&mut TaskState) -> R) -> Result<R, QrmiError> {
        match self.book.lock().tasks.get_mut(&task.0) {
            Some((_, state)) => Ok(f(state)),
            None => Err(QrmiError::UnknownTask),
        }
    }

    fn status(&self, task: &TaskId, pending_as: TaskStatus) -> Result<TaskStatus, QrmiError> {
        self.with(task, |s| s.status().unwrap_or(pending_as))
    }

    /// Cancel a task that has not started running.
    fn stop(&self, task: &TaskId) -> Result<(), QrmiError> {
        self.with(task, |s| match s {
            TaskState::Pending { .. } => {
                *s = TaskState::Cancelled;
                Ok(())
            }
            _ => Err(QrmiError::InvalidState(
                "task already running or terminal".into(),
            )),
        })?
    }

    /// Store the outcome of a claimed task's run and fold its wall-clock
    /// into the kernel profile, in one hold. The task may be gone with its
    /// released lease; the run still counts.
    fn settle(&self, task: &TaskId, state: TaskState, kernel_secs: f64) {
        let mut book = self.book.lock();
        book.kernel.record(kernel_secs);
        if let Some((_, s)) = book.tasks.get_mut(&task.0) {
            *s = state;
        }
    }

    fn kernel(&self) -> KernelProfile {
        self.book.lock().kernel
    }

    fn result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        self.with(task, |s| match s {
            TaskState::Done(r) => Ok(r.clone()),
            TaskState::Failed(m) => Err(QrmiError::Backend(m.clone())),
            _ => Err(QrmiError::InvalidState("task not completed".into())),
        })?
    }
}

/// In-process emulator resource (`emulator:local`).
pub struct LocalEmulatorResource {
    id: String,
    emulator: Arc<dyn Emulator>,
    ledger: Ledger,
    seed_counter: AtomicU64,
}

impl LocalEmulatorResource {
    pub fn new(id: impl Into<String>, emulator: Arc<dyn Emulator>, seed: u64) -> Self {
        LocalEmulatorResource {
            id: id.into(),
            emulator,
            ledger: Ledger::new(false, "qrmi.emulator.ledger"),
            seed_counter: AtomicU64::new(seed),
        }
    }

    /// Wall-clock profile of the emulator runs this resource performed.
    pub fn kernel_profile(&self) -> KernelProfile {
        self.ledger.kernel()
    }
}

impl QuantumResource for LocalEmulatorResource {
    fn resource_id(&self) -> &str {
        &self.id
    }

    fn resource_type(&self) -> ResourceType {
        ResourceType::EmulatorLocal
    }

    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        self.ledger.acquire()
    }

    fn release(&self, token: &AcquisitionToken) -> Result<(), QrmiError> {
        self.ledger.release(token)
    }

    fn target(&self) -> Result<DeviceSpec, QrmiError> {
        Ok(self.emulator.spec())
    }

    fn task_start(&self, token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError> {
        self.ledger.check(token)?;
        let seed = self.seed_counter.fetch_add(1, Ordering::Relaxed);
        let t = std::time::Instant::now();
        let state = TaskState::of(self.emulator.run(ir, seed));
        let secs = t.elapsed().as_secs_f64();
        self.ledger.start(token, state, Some(secs))
    }

    fn task_status(&self, task: &TaskId) -> Result<TaskStatus, QrmiError> {
        self.ledger.status(task, TaskStatus::Queued)
    }

    fn task_stop(&self, task: &TaskId) -> Result<(), QrmiError> {
        self.ledger.stop(task)
    }

    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        self.ledger.result(task)
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("vendor".into(), "hpcqc".into());
        m.insert("backend".into(), self.emulator.name().to_string());
        m.insert("coupling".into(), "local".into());
        self.kernel_profile().to_metadata(&mut m);
        m
    }
}

/// On-prem QPU resource (`qpu:direct`). The lease is exclusive.
pub struct QpuDirectResource {
    id: String,
    qpu: VirtualQpu,
    ledger: Ledger,
    seed_counter: AtomicU64,
}

impl QpuDirectResource {
    pub fn new(id: impl Into<String>, qpu: VirtualQpu, seed: u64) -> Self {
        QpuDirectResource {
            id: id.into(),
            qpu,
            ledger: Ledger::new(true, "qrmi.qpu_direct.ledger"),
            seed_counter: AtomicU64::new(seed),
        }
    }

    /// The wrapped device (the middleware daemon needs admin access to it).
    pub fn qpu(&self) -> &VirtualQpu {
        &self.qpu
    }
}

impl QuantumResource for QpuDirectResource {
    fn resource_id(&self) -> &str {
        &self.id
    }

    fn resource_type(&self) -> ResourceType {
        ResourceType::QpuDirect
    }

    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        self.ledger.acquire()
    }

    fn release(&self, token: &AcquisitionToken) -> Result<(), QrmiError> {
        self.ledger.release(token)
    }

    fn target(&self) -> Result<DeviceSpec, QrmiError> {
        Ok(self.qpu.current_spec())
    }

    fn task_start(&self, token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError> {
        self.ledger.check(token)?;
        let seed = self.seed_counter.fetch_add(1, Ordering::Relaxed);
        let state = TaskState::of(self.qpu.execute(ir, seed).map(|ex| ex.result));
        self.ledger.start(token, state, None)
    }

    fn task_status(&self, task: &TaskId) -> Result<TaskStatus, QrmiError> {
        self.ledger.status(task, TaskStatus::Running)
    }

    fn task_stop(&self, task: &TaskId) -> Result<(), QrmiError> {
        self.ledger.with(task, |_| ())?;
        Err(QrmiError::InvalidState(
            "direct QPU tasks run synchronously and cannot be stopped".into(),
        ))
    }

    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        self.ledger.result(task)
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("vendor".into(), "hpcqc".into());
        m.insert("backend".into(), self.qpu.name().to_string());
        m.insert("coupling".into(), "loose-onprem".into());
        m
    }
}

/// Which engine backs a cloud resource.
pub enum CloudEngine {
    Emulator(Arc<dyn Emulator>),
    Qpu(VirtualQpu),
}

/// Cloud-hosted resource (`qpu:cloud` / `emulator:cloud`): the same engines
/// behind a simulated submission queue. Tasks stay `Queued` for
/// `queue_polls` status polls (modelling WAN latency + shared cloud queues),
/// then execute on the first poll that finds them due.
pub struct CloudResource {
    id: String,
    engine: CloudEngine,
    rtype: ResourceType,
    /// Polls a task waits in the simulated cloud queue before running.
    pub queue_polls: u32,
    ledger: Ledger,
    seed_counter: AtomicU64,
}

impl CloudResource {
    pub fn new(id: impl Into<String>, engine: CloudEngine, queue_polls: u32, seed: u64) -> Self {
        let rtype = match &engine {
            CloudEngine::Emulator(_) => ResourceType::EmulatorCloud,
            CloudEngine::Qpu(_) => ResourceType::QpuCloud,
        };
        CloudResource {
            id: id.into(),
            engine,
            rtype,
            queue_polls,
            ledger: Ledger::new(false, "qrmi.cloud.ledger"),
            seed_counter: AtomicU64::new(seed),
        }
    }

    /// Wall-clock profile of the engine executions this resource performed.
    pub fn kernel_profile(&self) -> KernelProfile {
        self.ledger.kernel()
    }
}

impl QuantumResource for CloudResource {
    fn resource_id(&self) -> &str {
        &self.id
    }

    fn resource_type(&self) -> ResourceType {
        self.rtype
    }

    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        self.ledger.acquire()
    }

    fn release(&self, token: &AcquisitionToken) -> Result<(), QrmiError> {
        self.ledger.release(token)
    }

    fn target(&self) -> Result<DeviceSpec, QrmiError> {
        match &self.engine {
            CloudEngine::Emulator(e) => Ok(e.spec()),
            CloudEngine::Qpu(q) => Ok(q.current_spec()),
        }
    }

    fn task_start(&self, token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError> {
        self.ledger.check(token)?;
        let state = TaskState::Pending {
            ir: ir.clone(),
            polls_left: self.queue_polls,
        };
        self.ledger.start(token, state, None)
    }

    fn task_status(&self, task: &TaskId) -> Result<TaskStatus, QrmiError> {
        // The queue countdown and the claim of a due task run under the
        // ledger lock, so exactly one poll executes it; execution happens
        // outside the lock.
        let polled = self.ledger.with(task, |s| match s {
            TaskState::Pending { polls_left, .. } if *polls_left > 0 => {
                *polls_left -= 1;
                Err(TaskStatus::Queued)
            }
            TaskState::Pending { ir, .. } => {
                let due = ir.clone();
                *s = TaskState::Running;
                Ok(due)
            }
            other => Err(other.status().expect("not pending")),
        })?;
        let due = match polled {
            Ok(ir) => ir,
            Err(status) => return Ok(status),
        };
        let seed = self.seed_counter.fetch_add(1, Ordering::Relaxed);
        let t = std::time::Instant::now();
        let state = match &self.engine {
            CloudEngine::Emulator(e) => TaskState::of(e.run(&due, seed)),
            CloudEngine::Qpu(q) => TaskState::of(q.execute(&due, seed).map(|ex| ex.result)),
        };
        let status = state.status().expect("a run ends in a terminal state");
        self.ledger.settle(task, state, t.elapsed().as_secs_f64());
        Ok(status)
    }

    fn task_stop(&self, task: &TaskId) -> Result<(), QrmiError> {
        self.ledger.stop(task)
    }

    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        self.ledger.result(task)
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("vendor".into(), "hpcqc".into());
        m.insert("coupling".into(), "loose-cloud".into());
        m.insert(
            "backend".into(),
            match &self.engine {
                CloudEngine::Emulator(e) => e.name().to_string(),
                CloudEngine::Qpu(q) => q.name().to_string(),
            },
        );
        self.kernel_profile().to_metadata(&mut m);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::run_to_completion;
    use hpcqc_emulator::SvBackend;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};

    fn ir(shots: u32) -> ProgramIr {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "test")
    }

    fn local() -> LocalEmulatorResource {
        LocalEmulatorResource::new("emu-local", Arc::new(SvBackend::default()), 1)
    }

    #[test]
    fn local_emulator_full_lifecycle() {
        let r = local();
        let tok = r.acquire().unwrap();
        let task = r.task_start(&tok, &ir(50)).unwrap();
        assert_eq!(r.task_status(&task).unwrap(), TaskStatus::Completed);
        let res = r.task_result(&task).unwrap();
        assert_eq!(res.shots, 50);
        r.release(&tok).unwrap();
        assert_eq!(
            r.release(&tok),
            Err(QrmiError::InvalidToken),
            "double release"
        );
    }

    #[test]
    fn local_allows_concurrent_leases() {
        let r = local();
        let t1 = r.acquire().unwrap();
        let t2 = r.acquire().unwrap();
        assert_ne!(t1, t2);
        assert!(r.task_start(&t1, &ir(5)).is_ok());
        assert!(r.task_start(&t2, &ir(5)).is_ok());
    }

    #[test]
    fn start_without_lease_rejected() {
        let r = local();
        let fake = AcquisitionToken("nope".into());
        assert_eq!(r.task_start(&fake, &ir(5)), Err(QrmiError::InvalidToken));
    }

    #[test]
    fn unknown_task_errors() {
        let r = local();
        let t = TaskId("ghost".into());
        assert_eq!(r.task_status(&t), Err(QrmiError::UnknownTask));
        assert_eq!(r.task_result(&t), Err(QrmiError::UnknownTask));
    }

    #[test]
    fn qpu_direct_lease_is_exclusive() {
        let qpu = VirtualQpu::new("fresnel-1", 3);
        let r = QpuDirectResource::new("fresnel-1", qpu, 1);
        let t1 = r.acquire().unwrap();
        assert!(matches!(r.acquire(), Err(QrmiError::AcquisitionDenied(_))));
        r.release(&t1).unwrap();
        assert!(r.acquire().is_ok(), "lease reusable after release");
    }

    #[test]
    fn qpu_direct_executes_and_consumes_device_time() {
        let qpu = VirtualQpu::new("fresnel-1", 3);
        let r = QpuDirectResource::new("fresnel-1", qpu.clone(), 1);
        let tok = r.acquire().unwrap();
        let task = r.task_start(&tok, &ir(10)).unwrap();
        assert_eq!(r.task_status(&task).unwrap(), TaskStatus::Completed);
        assert!(qpu.now() >= 13.0, "10 shots at 1 Hz + overhead");
        let res = r.task_result(&task).unwrap();
        assert_eq!(res.backend, "fresnel-1");
    }

    #[test]
    fn qpu_direct_target_reflects_calibration_revision() {
        let qpu = VirtualQpu::new("fresnel-1", 3);
        let r = QpuDirectResource::new("fresnel-1", qpu.clone(), 1);
        assert_eq!(r.target().unwrap().revision, 1);
        qpu.recalibrate(60.0);
        assert_eq!(r.target().unwrap().revision, 2);
    }

    #[test]
    fn cloud_resource_queues_then_completes() {
        let r = CloudResource::new(
            "emu-cloud",
            CloudEngine::Emulator(Arc::new(SvBackend::default())),
            3,
            1,
        );
        let tok = r.acquire().unwrap();
        let task = r.task_start(&tok, &ir(20)).unwrap();
        assert_eq!(r.task_status(&task).unwrap(), TaskStatus::Queued);
        assert_eq!(r.task_status(&task).unwrap(), TaskStatus::Queued);
        assert_eq!(r.task_status(&task).unwrap(), TaskStatus::Queued);
        assert_eq!(r.task_status(&task).unwrap(), TaskStatus::Completed);
        assert_eq!(r.task_result(&task).unwrap().shots, 20);
    }

    #[test]
    fn cloud_task_cancellable_while_queued() {
        let r = CloudResource::new(
            "emu-cloud",
            CloudEngine::Emulator(Arc::new(SvBackend::default())),
            10,
            1,
        );
        let tok = r.acquire().unwrap();
        let task = r.task_start(&tok, &ir(20)).unwrap();
        r.task_stop(&task).unwrap();
        assert_eq!(r.task_status(&task).unwrap(), TaskStatus::Cancelled);
        assert!(matches!(
            r.task_result(&task),
            Err(QrmiError::InvalidState(_))
        ));
    }

    #[test]
    fn cloud_qpu_flavor_reports_type() {
        let qpu = VirtualQpu::new("cloud-qpu", 3);
        let r = CloudResource::new("cloud-qpu", CloudEngine::Qpu(qpu), 1, 1);
        assert_eq!(r.resource_type(), ResourceType::QpuCloud);
        assert_eq!(r.metadata()["coupling"], "loose-cloud");
    }

    #[test]
    fn run_to_completion_helper_spans_queueing() {
        let r = CloudResource::new(
            "emu-cloud",
            CloudEngine::Emulator(Arc::new(SvBackend::default())),
            5,
            1,
        );
        let tok = r.acquire().unwrap();
        let res = run_to_completion(&r, &tok, &ir(10), 20).unwrap();
        assert_eq!(res.shots, 10);
        // and a poll budget that's too small errors out
        let task_ir = ir(10);
        let r2 = CloudResource::new(
            "emu-cloud-2",
            CloudEngine::Emulator(Arc::new(SvBackend::default())),
            50,
            1,
        );
        let tok2 = r2.acquire().unwrap();
        assert!(run_to_completion(&r2, &tok2, &task_ir, 3).is_err());
    }

    #[test]
    fn released_lease_takes_its_tasks_with_it() {
        // A daemon runs acquire → task → result → release for every
        // dispatch; the ledger must not grow with the tasks it has served.
        fn cycles(r: &dyn QuantumResource, ledger: &Ledger) {
            let mut served = Vec::new();
            for _ in 0..5 {
                let tok = r.acquire().unwrap();
                let task = r.task_start(&tok, &ir(5)).unwrap();
                while r.task_status(&task).unwrap() != TaskStatus::Completed {}
                assert_eq!(r.task_result(&task).unwrap().shots, 5);
                r.release(&tok).unwrap();
                served.push(task);
            }
            assert!(ledger.book.lock().tasks.is_empty(), "{}", r.resource_id());
            for task in &served {
                assert_eq!(r.task_result(task), Err(QrmiError::UnknownTask));
                assert_eq!(r.task_status(task), Err(QrmiError::UnknownTask));
            }
        }
        let emu = local();
        cycles(&emu, &emu.ledger);
        let qpu = QpuDirectResource::new("fresnel-1", VirtualQpu::new("fresnel-1", 3), 1);
        cycles(&qpu, &qpu.ledger);
        let cloud = CloudResource::new(
            "emu-cloud",
            CloudEngine::Emulator(Arc::new(SvBackend::default())),
            2,
            1,
        );
        cycles(&cloud, &cloud.ledger);
        // Releasing one lease leaves another lease's tasks alone.
        let (a, b) = (emu.acquire().unwrap(), emu.acquire().unwrap());
        let kept = emu.task_start(&b, &ir(5)).unwrap();
        emu.task_start(&a, &ir(5)).unwrap();
        emu.release(&a).unwrap();
        assert_eq!(emu.task_result(&kept).unwrap().shots, 5);
    }

    /// An emulator whose first run parks until [`Gated::open`], so a test
    /// can act on the resource while that run is in flight. Later runs go
    /// straight through.
    #[derive(Default)]
    struct Gated {
        sv: SvBackend,
        /// (runs entered, gate open)
        state: std::sync::Mutex<(usize, bool)>,
        cv: std::sync::Condvar,
    }

    impl Gated {
        /// Block until the first run is parked at the gate.
        fn wait_parked(&self) {
            let mut s = self.state.lock().unwrap();
            while s.0 == 0 {
                s = self.cv.wait(s).unwrap();
            }
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.cv.notify_all();
        }
    }

    impl Emulator for Gated {
        fn name(&self) -> &str {
            self.sv.name()
        }

        fn spec(&self) -> DeviceSpec {
            self.sv.spec()
        }

        fn run(
            &self,
            ir: &ProgramIr,
            seed: u64,
        ) -> Result<SampleResult, hpcqc_emulator::EmulatorError> {
            let mut s = self.state.lock().unwrap();
            s.0 += 1;
            if s.0 == 1 {
                self.cv.notify_all();
                while !s.1 {
                    s = self.cv.wait(s).unwrap();
                }
            }
            drop(s);
            self.sv.run(ir, seed)
        }
    }

    #[test]
    fn lease_released_mid_run_stores_no_task() {
        let gate = Arc::new(Gated::default());
        let r = Arc::new(LocalEmulatorResource::new("emu-local", gate.clone(), 1));
        let tok = r.acquire().unwrap();
        let starter = {
            let (r, tok) = (r.clone(), tok.clone());
            std::thread::spawn(move || r.task_start(&tok, &ir(5)))
        };
        gate.wait_parked();
        r.release(&tok).unwrap();
        gate.open();
        assert_eq!(starter.join().unwrap(), Err(QrmiError::InvalidToken));
        assert!(
            r.ledger.book.lock().tasks.is_empty(),
            "task under a dead lease"
        );
        assert_eq!(r.kernel_profile().runs, 1, "the run still counts");
    }

    #[test]
    fn concurrent_polls_execute_a_due_task_once() {
        let gate = Arc::new(Gated::default());
        let r = Arc::new(CloudResource::new(
            "emu-cloud",
            CloudEngine::Emulator(gate.clone()),
            0,
            1,
        ));
        let tok = r.acquire().unwrap();
        let task = r.task_start(&tok, &ir(5)).unwrap();
        let first = {
            let (r, task) = (r.clone(), task.clone());
            std::thread::spawn(move || r.task_status(&task))
        };
        gate.wait_parked();
        // The first poll is mid-run: a second one must not run it again,
        // and the claimed task can no longer be stopped.
        assert_eq!(r.task_status(&task), Ok(TaskStatus::Running));
        assert!(matches!(
            r.task_stop(&task),
            Err(QrmiError::InvalidState(_))
        ));
        gate.open();
        assert_eq!(first.join().unwrap(), Ok(TaskStatus::Completed));
        assert_eq!(r.kernel_profile().runs, 1);
        assert_eq!(r.task_result(&task).unwrap().shots, 5);
    }

    #[test]
    fn local_emulator_profiles_kernel_wall_clock() {
        let r = local();
        let tok = r.acquire().unwrap();
        assert_eq!(r.kernel_profile().runs, 0);
        r.task_start(&tok, &ir(10)).unwrap();
        r.task_start(&tok, &ir(10)).unwrap();
        let prof = r.kernel_profile();
        assert_eq!(prof.runs, 2);
        assert!(prof.total_secs > 0.0 && prof.total_secs.is_finite());
        assert!(prof.last_secs <= prof.total_secs);
        assert!((prof.mean_secs() - prof.total_secs / 2.0).abs() < 1e-12);
        let m = r.metadata();
        assert_eq!(m["kernel_runs"], "2");
        assert!(m["kernel_secs_total"].parse::<f64>().unwrap() > 0.0);
        assert!(m["kernel_secs_mean"].parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn cloud_emulator_profiles_kernel_wall_clock() {
        let r = CloudResource::new(
            "emu-cloud",
            CloudEngine::Emulator(Arc::new(SvBackend::default())),
            1,
            1,
        );
        let tok = r.acquire().unwrap();
        let res = run_to_completion(&r, &tok, &ir(10), 10).unwrap();
        assert_eq!(res.shots, 10);
        let prof = r.kernel_profile();
        assert_eq!(prof.runs, 1, "queued polls must not count as kernel runs");
        assert!(prof.total_secs > 0.0);
        assert_eq!(r.metadata()["kernel_runs"], "1");
    }

    #[test]
    fn failed_backend_surfaces_as_failed_status() {
        let r = local();
        let tok = r.acquire().unwrap();
        // 25-qubit register exceeds emu-sv's limit → backend failure
        let reg = Register::linear(25, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.1, 1.0, 0.0, 0.0).unwrap());
        let bad = ProgramIr::new(b.build().unwrap(), 5, "test");
        let task = r.task_start(&tok, &bad).unwrap();
        assert!(matches!(
            r.task_status(&task).unwrap(),
            TaskStatus::Failed(_)
        ));
        assert!(matches!(r.task_result(&task), Err(QrmiError::Backend(_))));
    }
}
