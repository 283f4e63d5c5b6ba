//! # hpcqc-qrmi — the Quantum Resource Management Interface
//!
//! Rust implementation of the vendor-neutral QRMI (paper ref [23]): a single
//! [`QuantumResource`] trait with acquire/release leasing and a task
//! lifecycle, implemented by the four resource flavors of paper §3.2 —
//! on-prem QPU, cloud QPU, cloud emulator, local emulator — plus the
//! environment-variable configuration scheme (§3.4) and a resource registry
//! that resolves the runtime's `--qpu=<resource>` switch.

pub mod backends;
pub mod config;
pub mod fault;
pub mod resource;

pub use backends::{
    CloudEngine, CloudResource, KernelProfile, LocalEmulatorResource, QpuDirectResource,
};
pub use config::{ConfigError, QrmiConfig, ResourceConfig, ResourceFactory, ResourceRegistry};
pub use fault::{FaultInjector, FaultProfile};
pub use resource::{
    run_to_completion, AcquisitionToken, QrmiError, QuantumResource, ResourceType, TaskId,
    TaskStatus,
};
