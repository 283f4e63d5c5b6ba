//! # hpcqc-sync — tracked locks for the control plane
//!
//! Every long-lived lock in the daemon, gateway, journal, telemetry and QRMI
//! layers is wrapped in a [`TrackedMutex`] / [`TrackedRwLock`]. The wrappers
//! add two things to a plain `parking_lot` lock:
//!
//! * **Always-on, cheap observability** — per-lock acquisition/contention
//!   counters plus log₂-bucketed wait-time and hold-time histograms
//!   ([`LockStats`]), exported through `telemetry` onto `GET /metrics`.
//!   The uncontended fast path is one `try_lock` and two `Instant::now`
//!   calls; histograms are plain relaxed atomic increments.
//! * **Lock-order checking (every debug and test build)** — each lock
//!   declares a static [`rank`](TrackedMutex::new) in the repo-wide
//!   hierarchy (see [`rank`] and DESIGN.md §14). Acquiring a lock whose rank
//!   is not strictly greater than every lock the thread already holds panics
//!   that thread with both acquisition sites, and records the [`Violation`]
//!   in [`violations`], so a panic a worker catches still fails a test that
//!   asserts a clean log. The rule also excludes cross-thread deadlock: when
//!   every acquisition goes strictly up in rank, no acquired-before cycle can
//!   close. Release builds keep no order bookkeeping.

mod order;
mod stats;
mod tracked;

pub use order::{rank_inversion, Held, Site, Violation};
pub use stats::{all_lock_stats, histogram_quantile_ns, LockStats, BUCKETS};
pub use tracked::{
    held_locks, violations, TrackedMutex, TrackedMutexGuard, TrackedRwLock, TrackedRwLockReadGuard,
    TrackedRwLockWriteGuard,
};

/// The repo-wide lock hierarchy. A thread may only acquire locks in strictly
/// increasing rank order; the table lives here so every crate declares ranks
/// from one place (DESIGN.md §14 documents the reasoning per edge).
pub mod rank {
    /// Gateway routing table — outermost of all: the gateway picks a shard,
    /// drops the guard, and only then proxies into a daemon (which takes
    /// DISPATCH and everything below it on its own thread).
    pub const GATEWAY_ROUTES: u32 = 60;
    /// Dispatcher pump serialization — outermost: held across a whole pump.
    pub const DISPATCH: u32 = 100;
    /// Journal compaction gate (appends hold it shared; compaction holds it
    /// exclusive across snapshot + compact). Sits above DISPATCH because the
    /// dispatcher journals mid-pump, and below every state lock the snapshot
    /// reads.
    pub const COMPACT_GATE: u32 = 150;
    /// The daemon's state: every task's lifecycle state, the dispatch
    /// queue with its fair-share usage, the idempotency map, the open
    /// sessions, the device status, the replay floors and the
    /// development-result cache. Held for one short section per transition
    /// — never across a journal write, analysis or a QRMI call. The
    /// daemon's role and lifecycle are atomic words, not locks.
    pub const TASKS: u32 = 300;
    /// Journal group-commit buffer.
    pub const JOURNAL_BUF: u32 = 900;
    /// Journal WAL file + fsync state (acquired while the buffer lock is
    /// still held, which is then released: WAL order equals buffer order).
    pub const JOURNAL_FILE: u32 = 920;
    /// Journal shipping log (leader→follower stream buffer). Events are
    /// appended right after a WAL write or snapshot, so it nests inside
    /// JOURNAL_BUF/JOURNAL_FILE.
    pub const SHIP_LOG: u32 = 930;
    /// QRMI fault injector state: RNG, burst window, injected fates and
    /// fault counts. Never held across a call into the wrapped resource.
    pub const QRMI_FAULT: u32 = 950;
    /// QRMI backend ledger: leases, tasks, id counter and kernel profile.
    /// Never held across an emulator run or a QPU execution.
    pub const QRMI_LEDGER: u32 = 960;
    /// QPU device state.
    pub const QPU_DEVICE: u32 = 970;
    /// Telemetry time-series store.
    pub const TSDB: u32 = 980;
    /// Telemetry metrics registry — innermost: metrics are recorded while
    /// holding almost anything else.
    pub const REGISTRY: u32 = 1000;
}
