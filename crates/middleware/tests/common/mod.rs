//! Shared by the integration tests that need a device whose failures the
//! test decides: the local emulator, with the next `n` task starts failing.

use hpcqc_emulator::{SampleResult, SvBackend};
use hpcqc_program::{DeviceSpec, ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qrmi::{
    AcquisitionToken, LocalEmulatorResource, QrmiError, QuantumResource, ResourceType, TaskId,
    TaskStatus,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

pub struct ScriptedResource {
    inner: LocalEmulatorResource,
    fail_next: AtomicU32,
}

impl ScriptedResource {
    pub fn new() -> Arc<Self> {
        Arc::new(ScriptedResource {
            inner: LocalEmulatorResource::new("emu", Arc::new(SvBackend::default()), 1),
            fail_next: AtomicU32::new(0),
        })
    }

    /// Make the next `n` task starts fail.
    pub fn fail_next(&self, n: u32) {
        self.fail_next.store(n, Ordering::SeqCst);
    }
}

impl QuantumResource for ScriptedResource {
    fn resource_id(&self) -> &str {
        self.inner.resource_id()
    }
    fn resource_type(&self) -> ResourceType {
        self.inner.resource_type()
    }
    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        self.inner.acquire()
    }
    fn release(&self, token: &AcquisitionToken) -> Result<(), QrmiError> {
        self.inner.release(token)
    }
    fn target(&self) -> Result<DeviceSpec, QrmiError> {
        self.inner.target()
    }
    fn task_start(&self, token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError> {
        let failing = self
            .fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if failing {
            return Err(QrmiError::Backend("scripted failure".into()));
        }
        self.inner.task_start(token, ir)
    }
    fn task_status(&self, task: &TaskId) -> Result<TaskStatus, QrmiError> {
        self.inner.task_status(task)
    }
    fn task_stop(&self, task: &TaskId) -> Result<(), QrmiError> {
        self.inner.task_stop(task)
    }
    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        self.inner.task_result(task)
    }
    fn metadata(&self) -> BTreeMap<String, String> {
        self.inner.metadata()
    }
}

/// A two-qubit program of `shots` shots; `omega` tells programs apart.
pub fn program(shots: u32, omega: f64) -> ProgramIr {
    let reg = Register::linear(2, 6.0).unwrap();
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, omega, 0.0, 0.0).unwrap());
    ProgramIr::new(b.build().unwrap(), shots, "test")
}

/// A scratch directory under the workspace `target/`, emptied.
pub fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/middleware-integration")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
