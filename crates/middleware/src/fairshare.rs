//! Fair-share usage tracking for the multi-user queue.
//!
//! §3.3's middleware manages "multiple concurrent users"; with only strict
//! class priorities, one heavy user inside a class can starve peers. The
//! standard HPC answer is fair-share: recent resource usage decays a user's
//! priority. [`FairshareTracker`] keeps exponentially-decayed QPU seconds
//! per user; the task queue owns one and folds the normalized usage into its
//! effective rank, so within a class, light users dispatch ahead of heavy
//! ones. It is a plain value: the daemon's queue lives in the task table, so
//! a charge and every ranking that reads it happen under that one lock.

use std::collections::HashMap;

/// Half-life of the fair-share usage a user's completed runs charge.
pub const FAIRSHARE_HALF_LIFE_SECS: f64 = 3600.0;

/// Exponentially-decayed per-user usage accounting.
///
/// Usage decays with the configured half-life, evaluated lazily: each
/// record stores `(value, as_of)` and decay is applied on read.
#[derive(Debug, Clone)]
pub struct FairshareTracker {
    usage: HashMap<String, (f64, f64)>,
    /// Usage half-life, seconds.
    pub half_life_secs: f64,
}

impl Default for FairshareTracker {
    fn default() -> Self {
        Self::new(FAIRSHARE_HALF_LIFE_SECS)
    }
}

impl FairshareTracker {
    pub fn new(half_life_secs: f64) -> Self {
        assert!(half_life_secs > 0.0, "half-life must be positive");
        FairshareTracker {
            usage: HashMap::new(),
            half_life_secs,
        }
    }

    fn decayed(&self, value: f64, as_of: f64, now: f64) -> f64 {
        if now <= as_of {
            return value;
        }
        value * 0.5f64.powf((now - as_of) / self.half_life_secs)
    }

    /// Charge `secs` of device usage to `user` at time `now`.
    pub fn charge(&mut self, user: &str, secs: f64, now: f64) {
        if secs == 0.0 {
            // nobody's usage moves (the emulators report zero device time)
            return;
        }
        // decay first, then add
        let current = self.usage(user, now);
        self.usage.insert(user.to_string(), (current + secs, now));
    }

    /// Decayed usage of `user` at time `now` (0 for unknown users).
    pub fn usage(&self, user: &str, now: f64) -> f64 {
        match self.usage.get(user) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_and_decays() {
        let mut f = FairshareTracker::new(100.0);
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
        let mut f = FairshareTracker::new(1e9); // effectively no decay
        f.charge("hog", 1e9, 0.0);
        let n = f.normalized_usage("hog", 100.0, 0.0);
        assert!(n > 0.99 && n < 1.0, "normalized {n}");
        f.charge("light", 10.0, 0.0);
        let l = f.normalized_usage("light", 100.0, 0.0);
        assert!(l < 0.15, "light user near zero: {l}");
    }

    #[test]
    fn usage_ordering_is_stable_under_common_decay() {
        let mut f = FairshareTracker::new(50.0);
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
}
