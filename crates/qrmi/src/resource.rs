//! The Quantum Resource Management Interface (QRMI).
//!
//! Mirrors the vendor-neutral API surface proposed in paper ref [23]: a
//! resource is *acquired*, *tasks* are started/polled/stopped/fetched on it,
//! and its *target* (current device spec) and *metadata* are queryable. Every
//! backend in the stack — local emulator, cloud emulator, cloud QPU, on-prem
//! QPU — implements this one trait, which is what makes the runtime's
//! `--qpu=<resource>` switch possible without touching program source.

use hpcqc_emulator::SampleResult;
use hpcqc_program::{DeviceSpec, ProgramIr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The four resource flavors exposed to the scheduler (paper §3.2), and a
/// middleware daemon fronting one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceType {
    /// On-premises QPU reached directly from the quantum access node.
    QpuDirect,
    /// Vendor-cloud QPU reached over the WAN.
    QpuCloud,
    /// Vendor-cloud emulator (e.g. large tensor-network instances).
    EmulatorCloud,
    /// Emulator running locally in the user's environment.
    EmulatorLocal,
    /// A middleware daemon reached over REST (built by `hpcqc-core`).
    Daemon,
}

impl ResourceType {
    /// Parse the configuration string form (`"qpu:direct"`, ...).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "qpu:direct" => Some(ResourceType::QpuDirect),
            "qpu:cloud" => Some(ResourceType::QpuCloud),
            "emulator:cloud" => Some(ResourceType::EmulatorCloud),
            "emulator:local" => Some(ResourceType::EmulatorLocal),
            "daemon" => Some(ResourceType::Daemon),
            _ => None,
        }
    }

    /// The canonical configuration string.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResourceType::QpuDirect => "qpu:direct",
            ResourceType::QpuCloud => "qpu:cloud",
            ResourceType::EmulatorCloud => "emulator:cloud",
            ResourceType::EmulatorLocal => "emulator:local",
            ResourceType::Daemon => "daemon",
        }
    }
}

/// Opaque lease handle returned by [`QuantumResource::acquire`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AcquisitionToken(pub String);

/// Opaque task identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskId(pub String);

/// Lifecycle of a task on a resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskStatus {
    /// Accepted, waiting for the backend.
    Queued,
    /// Executing.
    Running,
    /// Finished; result available via `task_result`.
    Completed,
    /// Failed; message describes why.
    Failed(String),
    /// Stopped by the client before completion.
    Cancelled,
}

/// Errors surfaced through the QRMI.
#[derive(Debug, Clone, PartialEq)]
pub enum QrmiError {
    /// Acquisition rejected (exclusive resource already leased, quota, ...).
    AcquisitionDenied(String),
    /// Token not recognized or already released.
    InvalidToken,
    /// Task id not recognized.
    UnknownTask,
    /// Task is not in a state where the operation applies.
    InvalidState(String),
    /// The backend rejected or failed the program.
    Backend(String),
}

impl std::fmt::Display for QrmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QrmiError::AcquisitionDenied(m) => write!(f, "acquisition denied: {m}"),
            QrmiError::InvalidToken => write!(f, "invalid or released acquisition token"),
            QrmiError::UnknownTask => write!(f, "unknown task id"),
            QrmiError::InvalidState(m) => write!(f, "invalid task state: {m}"),
            QrmiError::Backend(m) => write!(f, "backend error: {m}"),
        }
    }
}

impl std::error::Error for QrmiError {}

/// The QRMI resource trait.
///
/// Implementations are thread-safe: the middleware daemon serves many
/// concurrent sessions over one resource.
pub trait QuantumResource: Send + Sync {
    /// Stable identifier used in configuration and scheduling (`"fresnel-1"`).
    fn resource_id(&self) -> &str;

    /// Which flavor of resource this is.
    fn resource_type(&self) -> ResourceType;

    /// Lease the resource. Exclusive resources reject concurrent leases.
    fn acquire(&self) -> Result<AcquisitionToken, QrmiError>;

    /// Return a lease. The tasks started under it go with it: fetch results
    /// before releasing.
    fn release(&self, token: &AcquisitionToken) -> Result<(), QrmiError>;

    /// The *current* target device specification (revision included), so
    /// clients re-validate against live calibration (paper §2.1).
    fn target(&self) -> Result<DeviceSpec, QrmiError>;

    /// Submit a program under a lease.
    fn task_start(&self, token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError>;

    /// Poll task state. Polling may advance simulated backend queues.
    fn task_status(&self, task: &TaskId) -> Result<TaskStatus, QrmiError>;

    /// Cancel a queued or running task.
    fn task_stop(&self, task: &TaskId) -> Result<(), QrmiError>;

    /// Fetch the result of a completed task.
    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError>;

    /// Static descriptive metadata (vendor, location, coupling model, ...).
    fn metadata(&self) -> BTreeMap<String, String>;
}

/// Convenience: run a task to completion with a bounded number of polls.
///
/// Returns the result or the first terminal error. `max_polls` bounds the
/// wait on simulated-queue backends.
pub fn run_to_completion(
    res: &dyn QuantumResource,
    token: &AcquisitionToken,
    ir: &ProgramIr,
    max_polls: usize,
) -> Result<SampleResult, QrmiError> {
    let task = res.task_start(token, ir)?;
    for _ in 0..max_polls {
        match res.task_status(&task)? {
            TaskStatus::Completed => return res.task_result(&task),
            TaskStatus::Failed(m) => return Err(QrmiError::Backend(m)),
            TaskStatus::Cancelled => {
                return Err(QrmiError::InvalidState("task was cancelled".into()))
            }
            TaskStatus::Queued | TaskStatus::Running => {}
        }
    }
    Err(QrmiError::InvalidState(format!(
        "task did not complete within {max_polls} polls"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_type_string_roundtrip() {
        for t in [
            ResourceType::QpuDirect,
            ResourceType::QpuCloud,
            ResourceType::EmulatorCloud,
            ResourceType::EmulatorLocal,
            ResourceType::Daemon,
        ] {
            assert_eq!(ResourceType::parse(t.as_str()), Some(t));
        }
        assert_eq!(ResourceType::parse("fpga:local"), None);
    }

    #[test]
    fn error_display() {
        assert!(QrmiError::AcquisitionDenied("busy".into())
            .to_string()
            .contains("busy"));
        assert!(QrmiError::UnknownTask.to_string().contains("unknown"));
    }

    #[test]
    fn task_status_serde() {
        let s = TaskStatus::Failed("boom".into());
        let json = serde_json::to_string(&s).unwrap();
        let back: TaskStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
