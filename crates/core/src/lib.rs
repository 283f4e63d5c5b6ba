//! # hpcqc-core — the portable hybrid HPC-QC runtime environment
//!
//! The paper's headline contribution (§3.1-§3.2): one runtime that executes
//! hybrid quantum-classical programs identically on a laptop emulator, an
//! HPC tensor-network emulator, a cloud resource, or the on-prem QPU.
//!
//! * [`Runtime`] — resolves a QRMI resource from configuration, re-validates
//!   programs against the live device spec, executes, and records
//!   reproducibility provenance. The backend is the `--qpu=<resource>` /
//!   `HPCQC_QPU` switch, never source code.
//! * [`RuntimeConfig`] — environment-variable configuration (§3.4) with a
//!   zero-setup development default.
//! * [`RetryPolicy`] — per-priority-class retry budgets with decorrelated
//!   jitter backoff and graceful degradation to a local emulator, so
//!   transient QRMI failures don't kill a workflow.
//! * [`DaemonResource`] — the middleware daemon (§3.3) as a QRMI resource,
//!   reached through the same `--qpu` switch; [`DaemonClient`] /
//!   [`DaemonSession`] are the REST session client underneath.
//! * [`hybrid`] — the generic variational loop.

pub mod client;
pub mod config;
pub mod hybrid;
pub mod retry;
pub mod runtime;

pub use client::{BatchItem, ClientError, DaemonClient, DaemonResource, DaemonSession};
pub use config::RuntimeConfig;
pub use hpcqc_emulator::SweepPoint;
pub use hybrid::{iterate, IterationRecord, LoopResult};
pub use retry::{AttemptBudget, Backoff, RetryPolicy};
pub use runtime::{RecoveredRun, RunReport, Runtime, RuntimeError};
