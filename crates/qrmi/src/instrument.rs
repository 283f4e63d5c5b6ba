//! Instrumented resource decorator: simulated timing and profiling for
//! emulator-backed development.
//!
//! The paper's discussion (§4, *Emulation and testability*) notes that plain
//! emulator modes are "best suited to functional validation, not performance
//! evaluation" and calls for "profiling, fault injection, or simulated QPU
//! timing to enable more realistic development". [`InstrumentedResource`]
//! wraps any [`QuantumResource`] and adds exactly that:
//!
//! * **simulated QPU timing** — results report the wall-clock the program
//!   *would* take on hardware (`shots / shot_rate + overhead`), so hybrid
//!   workflows can be performance-profiled on a laptop,
//! * **profiling** — a per-operation trace (counts + simulated durations)
//!   retrievable by the test harness.
//!
//! Fault injection is [`crate::FaultInjector`]'s job; wrap one around this
//! decorator to exercise retry/fallback logic under simulated timing.

use crate::resource::{
    AcquisitionToken, QrmiError, QuantumResource, ResourceType, TaskId, TaskStatus,
};
use hpcqc_emulator::SampleResult;
use hpcqc_program::{DeviceSpec, ProgramIr};
use hpcqc_sync::{rank, TrackedMutex as Mutex};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulated-hardware timing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingModel {
    /// Simulated shot rate (Hz) stamped onto results.
    pub shot_rate_hz: f64,
    /// Fixed per-task overhead (register load, rearrangement), seconds.
    pub overhead_secs: f64,
}

impl TimingModel {
    /// Today's production profile: 1 Hz, 3 s overhead (§2.2.1).
    pub fn production_1hz() -> Self {
        TimingModel {
            shot_rate_hz: 1.0,
            overhead_secs: 3.0,
        }
    }

    /// Roadmap profile: 100 Hz.
    pub fn roadmap_100hz() -> Self {
        TimingModel {
            shot_rate_hz: 100.0,
            overhead_secs: 3.0,
        }
    }

    /// Simulated device seconds for a task.
    pub fn task_secs(&self, shots: u32) -> f64 {
        self.overhead_secs + shots as f64 / self.shot_rate_hz
    }
}

/// Wall-clock profile of *real* emulator kernel invocations — as opposed to
/// the simulated device timing of [`TimingModel`]. QRMI resources that run
/// an in-process emulator record how much host CPU each `Emulator::run`
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
        if self.runs == 0 {
            0.0
        } else {
            self.total_secs / self.runs as f64
        }
    }

    /// Render into resource metadata under `kernel_*` keys.
    pub fn to_metadata(self, m: &mut BTreeMap<String, String>) {
        m.insert("kernel_runs".into(), self.runs.to_string());
        m.insert(
            "kernel_secs_total".into(),
            format!("{:.6}", self.total_secs),
        );
        m.insert(
            "kernel_secs_mean".into(),
            format!("{:.6}", self.mean_secs()),
        );
    }
}

/// One profiled operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    pub op: String,
    pub count: u64,
    /// Accumulated *simulated* seconds (task executions only).
    pub simulated_secs: f64,
}

/// The decorator.
pub struct InstrumentedResource {
    inner: Arc<dyn QuantumResource>,
    timing: TimingModel,
    profile: Mutex<BTreeMap<String, ProfileEntry>>,
    /// Remember per-task shot counts so `task_result` can stamp timing.
    task_shots: Mutex<BTreeMap<String, u32>>,
}

impl InstrumentedResource {
    pub fn new(inner: Arc<dyn QuantumResource>, timing: TimingModel) -> Self {
        InstrumentedResource {
            inner,
            timing,
            profile: Mutex::new(
                "qrmi.instrument.profile",
                rank::QRMI_PROFILE,
                BTreeMap::new(),
            ),
            task_shots: Mutex::new(
                "qrmi.instrument.task_shots",
                rank::QRMI_SHOTS,
                BTreeMap::new(),
            ),
        }
    }

    fn record(&self, op: &str, simulated_secs: f64) {
        let mut p = self.profile.lock();
        let e = p.entry(op.to_string()).or_insert_with(|| ProfileEntry {
            op: op.to_string(),
            count: 0,
            simulated_secs: 0.0,
        });
        e.count += 1;
        e.simulated_secs += simulated_secs;
    }

    /// The profiling trace, sorted by operation name.
    pub fn profile(&self) -> Vec<ProfileEntry> {
        self.profile.lock().values().cloned().collect()
    }

    /// Total simulated device seconds across completed tasks.
    pub fn simulated_device_secs(&self) -> f64 {
        self.profile.lock().values().map(|e| e.simulated_secs).sum()
    }
}

impl QuantumResource for InstrumentedResource {
    fn resource_id(&self) -> &str {
        self.inner.resource_id()
    }

    fn resource_type(&self) -> ResourceType {
        self.inner.resource_type()
    }

    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        self.record("acquire", 0.0);
        self.inner.acquire()
    }

    fn release(&self, token: &AcquisitionToken) -> Result<(), QrmiError> {
        self.record("release", 0.0);
        self.inner.release(token)
    }

    fn target(&self) -> Result<DeviceSpec, QrmiError> {
        self.record("target", 0.0);
        // advertise the simulated shot rate so runtimes plan with it
        let mut spec = self.inner.target()?;
        spec.shot_rate_hz = self.timing.shot_rate_hz;
        Ok(spec)
    }

    fn task_start(&self, token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError> {
        let id = self.inner.task_start(token, ir)?;
        self.task_shots.lock().insert(id.0.clone(), ir.shots);
        self.record("task_start", 0.0);
        Ok(id)
    }

    fn task_status(&self, task: &TaskId) -> Result<TaskStatus, QrmiError> {
        self.inner.task_status(task)
    }

    fn task_stop(&self, task: &TaskId) -> Result<(), QrmiError> {
        self.record("task_stop", 0.0);
        self.inner.task_stop(task)
    }

    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        let mut result = self.inner.task_result(task)?;
        let shots = self
            .task_shots
            .lock()
            .get(&task.0)
            .copied()
            .unwrap_or(result.shots);
        let secs = self.timing.task_secs(shots);
        result.execution_secs = secs;
        self.record("task_result", secs);
        Ok(result)
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        let mut m = self.inner.metadata();
        m.insert("instrumented".into(), "true".into());
        m.insert(
            "simulated_shot_rate_hz".into(),
            self.timing.shot_rate_hz.to_string(),
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::LocalEmulatorResource;
    use crate::resource::run_to_completion;
    use hpcqc_emulator::SvBackend;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};

    fn ir(shots: u32) -> ProgramIr {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.2, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "instr-test")
    }

    fn instrumented(timing: TimingModel) -> InstrumentedResource {
        let inner = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        InstrumentedResource::new(inner, timing)
    }

    #[test]
    fn simulated_timing_stamped_on_results() {
        let r = instrumented(TimingModel::production_1hz());
        let tok = r.acquire().unwrap();
        let res = run_to_completion(&r, &tok, &ir(120), 10).unwrap();
        assert!(
            (res.execution_secs - 123.0).abs() < 1e-9,
            "3s overhead + 120s shots"
        );
        // the advertised spec carries the simulated rate
        assert_eq!(r.target().unwrap().shot_rate_hz, 1.0);
        // roadmap profile is 100x faster
        let fast = instrumented(TimingModel::roadmap_100hz());
        let tok = fast.acquire().unwrap();
        let res = run_to_completion(&fast, &tok, &ir(120), 10).unwrap();
        assert!((res.execution_secs - 4.2).abs() < 1e-9);
    }

    #[test]
    fn profile_records_operations() {
        let r = instrumented(TimingModel::production_1hz());
        let tok = r.acquire().unwrap();
        for _ in 0..3 {
            run_to_completion(&r, &tok, &ir(10), 10).unwrap();
        }
        r.release(&tok).unwrap();
        let profile = r.profile();
        let find = |op: &str| profile.iter().find(|e| e.op == op).map(|e| e.count);
        assert_eq!(find("acquire"), Some(1));
        assert_eq!(find("release"), Some(1));
        assert_eq!(find("task_start"), Some(3));
        assert_eq!(find("task_result"), Some(3));
        assert!((r.simulated_device_secs() - 3.0 * 13.0).abs() < 1e-9);
    }

    #[test]
    fn metadata_marks_instrumentation() {
        let r = instrumented(TimingModel::roadmap_100hz());
        let m = r.metadata();
        assert_eq!(m["instrumented"], "true");
        assert_eq!(m["simulated_shot_rate_hz"], "100");
    }
}
