//! # hpcqc-scheduler — the batch scheduler simulator (Slurm stand-in)
//!
//! Everything the paper's architecture consumes from the HPC resource
//! manager, runnable at thousands of simulated cluster-days per second:
//!
//! * [`EventQueue`] — deterministic discrete-event core,
//! * [`Cluster`] — homogeneous nodes + global GRES/license pools (the §3.5
//!   "10 licenses = 10 % QPU timeshares" mechanism),
//! * [`SlurmSim`] — partitions with priorities, FIFO + conservative backfill,
//!   partition preemption with requeue, time limits, cancellation,
//! * [`AccountingSummary`] — per-partition wait/turnaround statistics and
//!   utilization, feeding the Table-1 and Figure-2 experiments,
//! * [`cosim`] — discrete-event co-simulation of the two-level architecture
//!   (batch admission above, the daemon's QPU multiplexing below) powering
//!   the Table-1 / Figure-2 experiments.

pub mod accounting;
pub mod cluster;
pub mod cosim;
pub mod job;
pub mod sim;
pub mod slurm;

pub use accounting::{AccountingSummary, WaitStats};
pub use cluster::{AllocError, Allocation, Cluster};
pub use cosim::{
    hint_duty, AdmissionPolicy, Cosim, CosimConfig, CosimReport, HybridJob, Phase, QpuPolicy,
};
pub use job::{Job, JobId, JobSpec, JobState, PatternHint, PriorityClass};
pub use sim::EventQueue;
pub use slurm::{standard_partitions, Partition, SchedError, SchedPolicy, SlurmSim};
