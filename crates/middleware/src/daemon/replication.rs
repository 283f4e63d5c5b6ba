//! Replication role, readiness, leader→follower journal shipping and
//! follower promotion.

use super::{DaemonConfig, DaemonError, DaemonHealth, MiddlewareService};
use crate::journal::{FollowerReplica, ReplicaAck, ShipError};
use hpcqc_qrmi::QuantumResource;
use hpcqc_telemetry::{catalog, labels, Labels};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Replication role of a daemon in a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaRole {
    /// Serving reads and writes; ships its journal to followers.
    Leader,
    /// Warm standby: admits no client work until promoted.
    Follower,
}

impl ReplicaRole {
    pub fn as_str(&self) -> &'static str {
        match self {
            ReplicaRole::Leader => "leader",
            ReplicaRole::Follower => "follower",
        }
    }
}

/// The `GET /v1/readyz` answer: whether this daemon should receive traffic,
/// and why not if not. Liveness (`/v1/healthz`) stays green on a healthy
/// follower; readiness does not — the gateway routes on *this*.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadinessReport {
    /// Route traffic here?
    pub ready: bool,
    /// `leader` / `follower` / `draining` / `stopped`.
    pub role: String,
    /// Liveness state (the `healthz` answer).
    pub status: String,
    /// Journal records shipped but not yet follower-acked.
    pub lag_records: u64,
    /// Journal bytes shipped but not yet follower-acked.
    pub lag_bytes: u64,
}

/// Handle to a background shipping pump
/// ([`MiddlewareService::spawn_shipper`]).
pub struct ShipperHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<FollowerReplica>,
}

impl ShipperHandle {
    /// Stop the pump after one final catch-up pass and hand the replica
    /// back (ready to be promoted).
    pub fn stop(self) -> FollowerReplica {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("shipper thread panicked")
    }
}

impl MiddlewareService {
    /// This daemon's replication role.
    pub fn role(&self) -> ReplicaRole {
        if self.follower.load(Ordering::SeqCst) {
            ReplicaRole::Follower
        } else {
            ReplicaRole::Leader
        }
    }

    /// Set the replication role. A daemon demoted to [`ReplicaRole::Follower`]
    /// stops admitting client work immediately (existing queue state is kept —
    /// it is the promoted leader's job now, via the shipped journal).
    pub fn set_role(&self, role: ReplicaRole) {
        let follower = role == ReplicaRole::Follower;
        self.follower.store(follower, Ordering::SeqCst);
    }

    /// Readiness for traffic (the `GET /v1/readyz` answer): leader role
    /// *and* serving lifecycle. Liveness can be green while this is not —
    /// a healthy follower is alive but must not receive client traffic.
    /// The lag is the journal's as of this call.
    pub fn readiness(&self) -> ReadinessReport {
        let (lag_records, lag_bytes) = self
            .journal
            .as_ref()
            .and_then(|j| j.ship_lag())
            .unwrap_or_default();
        let (role, health) = (self.role(), self.health());
        let role_str = match (role, health) {
            (ReplicaRole::Leader, DaemonHealth::Ok) => "leader",
            (ReplicaRole::Follower, _) => "follower",
            (_, DaemonHealth::Draining) => "draining",
            (_, DaemonHealth::Stopped) => "stopped",
        };
        ReadinessReport {
            ready: role == ReplicaRole::Leader && health == DaemonHealth::Ok,
            role: role_str.to_string(),
            status: health.as_str().to_string(),
            lag_records,
            lag_bytes,
        }
    }

    /// Turn on leader→follower journal shipping (durable daemons only).
    /// Call right after [`recover`](Self::recover), before traffic starts.
    pub fn enable_shipping(&self) -> Result<(), DaemonError> {
        let Some(journal) = &self.journal else {
            return Err(DaemonError::Internal(
                "in-memory daemon has no journal to ship".into(),
            ));
        };
        journal
            .enable_shipping()
            .map_err(|e| DaemonError::Internal(format!("enable shipping: {e}")))
    }

    /// The most advanced follower acknowledgement this leader has seen — the
    /// bar [`promote`](Self::promote) holds candidates to. Survivors of a
    /// leader crash (the gateway, the test harness) must capture this while
    /// the leader is alive.
    pub fn last_acked(&self) -> ReplicaAck {
        self.journal
            .as_ref()
            .and_then(|j| j.ship_last_acked())
            .unwrap_or_default()
    }

    /// Ship every pending journal event to `replica`, acking as `name`.
    /// Returns the number of events applied. A validation failure stops the
    /// pump (the replica is untouched by the bad event) and the same events
    /// retransmit on the next call.
    pub fn ship_pending(
        &self,
        replica: &mut FollowerReplica,
        name: &str,
    ) -> Result<usize, ShipError> {
        let Some(journal) = &self.journal else {
            return Ok(0);
        };
        // Register this follower's retention slot before fetching: trimming
        // only drops events below the slowest *registered* cursor, so the
        // events this replica still needs stay retained even while other,
        // faster followers ack past them.
        journal.ship_ack(name, replica.ack());
        let events = journal.ship_fetch(replica.ack().applied_seq);
        for ev in &events {
            self.count(&catalog::REPLICATION_SHIPPED_RECORDS, ev.records() as usize);
            self.count(&catalog::REPLICATION_SHIPPED_BYTES, ev.payload_len());
        }
        // One durability point per round (the follower's group commit): the
        // ack covers everything the round fsynced.
        let (applied, rejection) = replica.apply_all(&events);
        for ev in events.iter().take(applied) {
            self.count(&catalog::REPLICATION_ACKED_RECORDS, ev.records() as usize);
            self.count(&catalog::REPLICATION_ACKED_BYTES, ev.payload_len());
        }
        journal.ship_ack(name, replica.ack());
        match rejection {
            Some(e) => {
                let l = labels(&[("reason", e.reason())]);
                self.registry
                    .inc(&catalog::REPLICATION_REJECTED_EVENTS, l, 1.0);
                Err(e)
            }
            None => Ok(applied),
        }
    }

    /// Raw shipping-stream access: the retained events at or after
    /// `from_seq`. [`ship_pending`](Self::ship_pending) is the normal pump;
    /// this is for transports that move events themselves (and for chaos
    /// harnesses that drop, tear, and reorder them on purpose).
    pub fn ship_events(&self, from_seq: u64) -> Vec<crate::journal::ShipEvent> {
        self.journal
            .as_ref()
            .map(|j| j.ship_fetch(from_seq))
            .unwrap_or_default()
    }

    /// Record a follower acknowledgement (normally done by
    /// [`ship_pending`](Self::ship_pending)).
    pub fn record_ack(&self, follower: &str, ack: ReplicaAck) {
        if let Some(j) = &self.journal {
            j.ship_ack(follower, ack);
        }
    }

    /// Promote the follower journal at `path` to a serving leader.
    ///
    /// `last_acked` is the highest acknowledgement the old leader had seen
    /// (from [`last_acked`](Self::last_acked), captured before the crash): a
    /// replica whose durable cursor is behind it is missing work some client
    /// was told is safe, so its promotion is refused. A granted promotion
    /// replays the shipped prefix through the ordinary [`recover`] path —
    /// mid-dispatch tasks are requeued with their `excluded_resources`
    /// intact, the task-id/session high-water marks and the idempotency map
    /// all survive — and the daemon starts serving as leader.
    ///
    /// [`recover`]: Self::recover
    pub fn promote(
        path: impl AsRef<Path>,
        resource: Arc<dyn QuantumResource>,
        cfg: DaemonConfig,
        last_acked: ReplicaAck,
    ) -> Result<Self, DaemonError> {
        let path = path.as_ref();
        let t0 = std::time::Instant::now();
        let applied = FollowerReplica::peek_ack(path).unwrap_or_default();
        if !applied.at_least(&last_acked) {
            return Err(DaemonError::Unavailable(format!(
                "refusing promotion: replica applied seq {} (wal {} B) is behind \
                 the last-acked seq {} (wal {} B)",
                applied.applied_seq, applied.wal_len, last_acked.applied_seq, last_acked.wal_len
            )));
        }
        let svc = Self::recover(path, resource, cfg)?;
        svc.count(&catalog::REPLICATION_PROMOTIONS, 1);
        svc.registry.observe(
            &catalog::REPLICATION_FAILOVER_SECONDS,
            Labels::new(),
            t0.elapsed().as_secs_f64(),
        );
        Ok(svc)
    }

    /// Run a background shipping pump: every `interval`, ship pending
    /// journal events to `replica` (acking as `name`). Returns a handle
    /// whose [`stop`](ShipperHandle::stop) hands the replica back — e.g. to
    /// promote it.
    pub fn spawn_shipper(
        self: &Arc<Self>,
        replica: FollowerReplica,
        name: &str,
        interval: std::time::Duration,
    ) -> ShipperHandle {
        let svc = Arc::clone(self);
        let name = name.to_string();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut replica = replica;
            while !stop2.load(Ordering::Relaxed) {
                // Rejections retransmit next tick; the replica stays clean.
                let _ = svc.ship_pending(&mut replica, &name);
                std::thread::sleep(interval);
            }
            let _ = svc.ship_pending(&mut replica, &name);
            replica
        });
        ShipperHandle { stop, thread }
    }
}
