//! Fair-share usage tracking for the multi-user queue.
//!
//! §3.3's middleware manages "multiple concurrent users"; with only strict
//! class priorities, one heavy user inside a class can starve peers. The
//! standard HPC answer is fair-share: recent resource usage decays a user's
//! priority. [`FairshareTracker`] keeps exponentially-decayed QPU seconds
//! per user; the task queue folds the normalized usage into its effective
//! rank, so within a class, light users dispatch ahead of heavy ones.

use hpcqc_sync::{rank, TrackedMutex as Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Exponentially-decayed per-user usage accounting.
///
/// Usage decays with the configured half-life, evaluated lazily: each
/// record stores `(value, as_of)` and decay is applied on read.
#[derive(Clone)]
pub struct FairshareTracker {
    inner: Arc<Mutex<HashMap<String, (f64, f64)>>>,
    /// Bumped on every `charge`. Usage is otherwise a pure function of
    /// `now`, so `(generation, now)` keys a memo of any derived value —
    /// the task queue uses this to take one [`normalized_snapshot`]
    /// (Self::normalized_snapshot) per dispatch decision instead of
    /// locking the tracker for every pairwise comparison.
    generation: Arc<AtomicU64>,
    /// Usage half-life, seconds.
    pub half_life_secs: f64,
}

impl FairshareTracker {
    pub fn new(half_life_secs: f64) -> Self {
        assert!(half_life_secs > 0.0, "half-life must be positive");
        FairshareTracker {
            inner: Arc::new(Mutex::new(
                "middleware.fairshare",
                rank::FAIRSHARE,
                HashMap::new(),
            )),
            generation: Arc::new(AtomicU64::new(0)),
            half_life_secs,
        }
    }

    /// Mutation counter for memoizing readers; see the field docs.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn decayed(&self, value: f64, as_of: f64, now: f64) -> f64 {
        if now <= as_of {
            return value;
        }
        value * 0.5f64.powf((now - as_of) / self.half_life_secs)
    }

    /// Charge `secs` of device usage to `user` at time `now`.
    pub fn charge(&self, user: &str, secs: f64, now: f64) {
        if secs == 0.0 {
            // nobody's usage moves (the emulators report zero device time),
            // so readers' memos of it stay valid: the dispatcher claims a
            // task at a time and would otherwise re-snapshot per task
            return;
        }
        let mut map = self.inner.lock();
        let entry = map.entry(user.to_string()).or_insert((0.0, now));
        let current = self.decayed(entry.0, entry.1, now);
        *entry = (current + secs, now);
        // Under the map lock, so a snapshot cannot be tagged with a
        // generation newer than the data it read.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Decayed usage of `user` at time `now` (0 for unknown users).
    pub fn usage(&self, user: &str, now: f64) -> f64 {
        let map = self.inner.lock();
        match map.get(user) {
            Some(&(v, t)) => self.decayed(v, t, now),
            None => 0.0,
        }
    }

    /// Normalized usage in [0, 1): `u / (u + scale)` — saturating, so one
    /// user can never be penalized past a full priority class.
    pub fn normalized_usage(&self, user: &str, scale: f64, now: f64) -> f64 {
        let u = self.usage(user, now);
        u / (u + scale.max(1e-9))
    }

    /// Normalized usage for *every* known user at `now`, under one lock
    /// acquisition. Values are computed by the same arithmetic as
    /// [`normalized_usage`](Self::normalized_usage), so they are bitwise
    /// identical to per-user calls and memoizing callers stay exact
    /// (unknown users are simply absent and read as 0).
    pub fn normalized_snapshot(&self, scale: f64, now: f64) -> HashMap<String, f64> {
        let map = self.inner.lock();
        map.iter()
            .map(|(user, &(v, t))| {
                let u = self.decayed(v, t, now);
                (user.clone(), u / (u + scale.max(1e-9)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_and_decays() {
        let f = FairshareTracker::new(100.0);
        f.charge("alice", 50.0, 0.0);
        assert!((f.usage("alice", 0.0) - 50.0).abs() < 1e-12);
        // one half-life later
        assert!((f.usage("alice", 100.0) - 25.0).abs() < 1e-9);
        // charging applies decay first
        f.charge("alice", 10.0, 100.0);
        assert!((f.usage("alice", 100.0) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_user_has_zero_usage() {
        let f = FairshareTracker::new(100.0);
        assert_eq!(f.usage("ghost", 10.0), 0.0);
        assert_eq!(f.normalized_usage("ghost", 100.0, 10.0), 0.0);
    }

    #[test]
    fn normalized_usage_saturates_below_one() {
        let f = FairshareTracker::new(1e9); // effectively no decay
        f.charge("hog", 1e9, 0.0);
        let n = f.normalized_usage("hog", 100.0, 0.0);
        assert!(n > 0.99 && n < 1.0, "normalized {n}");
        f.charge("light", 10.0, 0.0);
        let l = f.normalized_usage("light", 100.0, 0.0);
        assert!(l < 0.15, "light user near zero: {l}");
    }

    #[test]
    fn usage_ordering_is_stable_under_common_decay() {
        let f = FairshareTracker::new(50.0);
        f.charge("a", 100.0, 0.0);
        f.charge("b", 10.0, 0.0);
        for &t in &[0.0, 25.0, 100.0, 1000.0] {
            assert!(f.usage("a", t) >= f.usage("b", t), "ordering at t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "half-life")]
    fn zero_half_life_rejected() {
        FairshareTracker::new(0.0);
    }

    #[test]
    fn generation_bumps_on_charge_only() {
        let f = FairshareTracker::new(100.0);
        let g0 = f.generation();
        f.usage("alice", 5.0);
        f.normalized_usage("alice", 100.0, 5.0);
        assert_eq!(f.generation(), g0, "reads do not invalidate memos");
        f.charge("alice", 1.0, 5.0);
        assert_eq!(f.generation(), g0 + 1);
    }

    #[test]
    fn snapshot_is_bitwise_identical_to_per_user_reads() {
        let f = FairshareTracker::new(100.0);
        f.charge("alice", 50.0, 0.0);
        f.charge("bob", 3.0, 10.0);
        let now = 37.5;
        let snap = f.normalized_snapshot(600.0, now);
        for user in ["alice", "bob"] {
            assert_eq!(
                snap[user].to_bits(),
                f.normalized_usage(user, 600.0, now).to_bits(),
                "memoized {user} penalty must be exact, not approximate"
            );
        }
        assert!(
            !snap.contains_key("ghost"),
            "unknown users read as 0 via absence"
        );
    }
}
