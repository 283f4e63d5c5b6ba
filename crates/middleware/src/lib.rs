//! # hpcqc-middleware — the daemon between the batch scheduler and the QPU
//!
//! The paper's main architectural contribution (§3.3, Figure 2): a
//! lightweight service on the quantum access node adding a second level of
//! scheduling below Slurm.
//!
//! * [`session`] — multi-user sessions with bearer tokens and the three
//!   priority classes (production / test / development),
//! * [`TaskQueue`] — priority queue with aging and shot-boundary preemption
//!   semantics,
//! * [`MiddlewareService`] — the daemon core: validation against the live
//!   device spec, chunked execution through QRMI, admin + telemetry surface,
//!   and one replicated state — tasks, sessions, device status, replay
//!   floors — changed only by applying journal records (`tasks.rs`),
//! * [`journal`] — write-ahead journal + snapshots giving the daemon durable
//!   state: crash recovery, idempotent submission, graceful drain,
//! * [`http`] / [`server`] / [`rest`] — a real HTTP/1.1 REST API served by
//!   a readiness-driven (epoll) event loop with keep-alive, pipelining and
//!   connection backpressure,
//! * [`protocol`] — the REST messages in both codecs (JSON and the binary
//!   wire frames) and the negotiation between them, shared by the routes,
//!   the SDK client and the gateway,
//! * [`Site`] — the deployable daemon: the REST API and its dispatcher,
//! * [`gateway`] — consistent-hash front door over N replicated shards:
//!   readiness-probed routing, follower failover, aggregated views.

pub mod daemon;
pub mod fairshare;
pub mod gateway;
pub mod http;
pub mod journal;
pub mod protocol;
pub mod rest;
pub mod server;
pub mod session;
mod site;
pub mod taskqueue;
mod tasks;

pub use daemon::{
    DaemonConfig, DaemonError, DaemonHealth, DaemonTaskStatus, DispatcherHandle, DrainReport,
    MiddlewareService, ReadinessReport, ReplicaRole, ShipperHandle,
};
pub use fairshare::FairshareTracker;
pub use gateway::{Gateway, GatewayConfig, ShardConfig};
pub use http::{HttpClient, Request, Response};
pub use journal::{
    DaemonSnapshot, FollowerReplica, Journal, JournalConfig, JournalRecord, ReplicaAck, ShipError,
    ShipEvent, ShippedBatch, ShippedSnapshot,
};
pub use server::{HttpServer, ServerConfig};
pub use session::{PriorityClass, Session, SessionError};
pub use site::Site;
pub use taskqueue::{QuantumTask, QueueConfig, QueueError, TaskQueue};
