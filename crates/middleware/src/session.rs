//! User sessions and priority classes.
//!
//! As the runtime connects to the middleware daemon, a unique session is
//! created and a session token returned (paper §3.3). Every subsequent job
//! submission carries the token; the session pins the user's priority class
//! (production / test / development), which the daemon maps to queue
//! priorities — mirroring how the classes map to Slurm partitions one level
//! below.

use hpcqc_sync::{rank, TrackedMutex as Mutex};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use hpcqc_scheduler::PriorityClass;

/// A live session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Session {
    pub token: String,
    pub user: String,
    pub class: PriorityClass,
    /// Creation time (seconds, daemon clock).
    pub created_at: f64,
    /// Last successful validation (seconds, daemon clock); the idle TTL is
    /// measured from here, not from creation.
    #[serde(default)]
    pub last_active: f64,
    /// Tasks currently held against this session (decremented on cancel).
    pub task_count: u64,
}

/// Errors from session operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    UnknownToken,
    /// The token was valid but the session sat idle past the TTL; it has
    /// been removed.
    Expired,
    /// Maximum concurrent sessions reached (site policy).
    TooManySessions(usize),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownToken => write!(f, "unknown or expired session token"),
            SessionError::Expired => write!(f, "session expired (idle past TTL)"),
            SessionError::TooManySessions(max) => {
                write!(f, "session limit reached ({max} concurrent sessions)")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Thread-safe session registry.
#[derive(Clone)]
pub struct SessionManager {
    inner: Arc<Mutex<HashMap<String, Session>>>,
    counter: Arc<AtomicU64>,
    /// Site policy: maximum concurrent sessions (0 = unlimited).
    pub max_sessions: usize,
}

impl SessionManager {
    pub fn new(max_sessions: usize) -> Self {
        SessionManager {
            inner: Arc::new(Mutex::new(
                "middleware.sessions",
                rank::SESSIONS,
                HashMap::new(),
            )),
            counter: Arc::new(AtomicU64::new(1)),
            max_sessions,
        }
    }

    /// Open a session; returns its token.
    ///
    /// Tokens embed a non-guessable component derived from a counter and the
    /// user (this is a simulator: real deployments would use a CSPRNG, but
    /// the *interface* — opaque bearer token — is identical).
    pub fn open(
        &self,
        user: &str,
        class: PriorityClass,
        now: f64,
    ) -> Result<Session, SessionError> {
        let mut map = self.inner.lock();
        if self.max_sessions > 0 && map.len() >= self.max_sessions {
            return Err(SessionError::TooManySessions(self.max_sessions));
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        // FNV-style mix so tokens aren't trivially sequential
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ n.wrapping_mul(0x100_0000_01b3);
        for b in user.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let token = format!("sess-{n}-{h:016x}");
        let s = Session {
            token: token.clone(),
            user: user.into(),
            class,
            created_at: now,
            last_active: now,
            task_count: 0,
        };
        map.insert(token, s.clone());
        Ok(s)
    }

    /// Validate a token, returning the session. No TTL is applied — use
    /// [`SessionManager::validate_active`] on request paths.
    pub fn validate(&self, token: &str) -> Result<Session, SessionError> {
        self.inner
            .lock()
            .get(token)
            .cloned()
            .ok_or(SessionError::UnknownToken)
    }

    /// Validate a token *and* enforce the idle TTL: a session idle for
    /// `ttl_secs` or longer (0 disables) is removed and reported as
    /// [`SessionError::Expired`]. On success the session's `last_active`
    /// advances to `now`, so activity keeps a session alive.
    pub fn validate_active(
        &self,
        token: &str,
        now: f64,
        ttl_secs: f64,
    ) -> Result<Session, SessionError> {
        let mut map = self.inner.lock();
        let s = map.get_mut(token).ok_or(SessionError::UnknownToken)?;
        if ttl_secs > 0.0 && now - s.last_active >= ttl_secs {
            map.remove(token);
            return Err(SessionError::Expired);
        }
        s.last_active = s.last_active.max(now);
        Ok(s.clone())
    }

    /// Record a task submission against the session.
    pub fn record_task(&self, token: &str) -> Result<(), SessionError> {
        let mut map = self.inner.lock();
        let s = map.get_mut(token).ok_or(SessionError::UnknownToken)?;
        s.task_count += 1;
        Ok(())
    }

    /// Refund a task slot (cancellation): the inverse of
    /// [`SessionManager::record_task`], so per-session accounting does not
    /// leak cancelled work.
    pub fn release_task(&self, token: &str) -> Result<(), SessionError> {
        let mut map = self.inner.lock();
        let s = map.get_mut(token).ok_or(SessionError::UnknownToken)?;
        s.task_count = s.task_count.saturating_sub(1);
        Ok(())
    }

    /// Close a session.
    pub fn close(&self, token: &str) -> Result<Session, SessionError> {
        self.inner
            .lock()
            .remove(token)
            .ok_or(SessionError::UnknownToken)
    }

    /// Currently open sessions, sorted by creation time.
    pub fn list(&self) -> Vec<Session> {
        let mut v: Vec<Session> = self.inner.lock().values().cloned().collect();
        v.sort_by(|a, b| {
            a.created_at
                .total_cmp(&b.created_at)
                .then(a.token.cmp(&b.token))
        });
        v
    }

    /// Number of open sessions.
    pub fn count(&self) -> usize {
        self.inner.lock().len()
    }

    /// Expire sessions idle since `cutoff` or earlier; returns the removed
    /// sessions (for journaling and metrics).
    pub fn gc(&self, cutoff: f64) -> Vec<Session> {
        let mut map = self.inner.lock();
        let mut expired = Vec::new();
        map.retain(|_, s| {
            if s.last_active > cutoff {
                true
            } else {
                expired.push(s.clone());
                false
            }
        });
        expired
    }

    /// The next token counter value (persisted across restarts so recovered
    /// daemons never mint a token that collides with a live session).
    pub fn counter_watermark(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Restore sessions and the token counter from a recovery replay. The
    /// counter only moves forward.
    pub fn restore(&self, sessions: Vec<Session>, counter: u64) {
        let mut map = self.inner.lock();
        for s in sessions {
            map.insert(s.token.clone(), s);
        }
        self.counter.fetch_max(counter, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_validate_close_lifecycle() {
        let m = SessionManager::new(0);
        let s = m.open("alice", PriorityClass::Production, 10.0).unwrap();
        assert!(s.token.starts_with("sess-"));
        let v = m.validate(&s.token).unwrap();
        assert_eq!(v.user, "alice");
        assert_eq!(v.class, PriorityClass::Production);
        m.close(&s.token).unwrap();
        assert_eq!(m.validate(&s.token), Err(SessionError::UnknownToken));
        assert_eq!(m.close(&s.token), Err(SessionError::UnknownToken));
    }

    #[test]
    fn tokens_are_unique() {
        let m = SessionManager::new(0);
        let a = m.open("u", PriorityClass::Development, 0.0).unwrap();
        let b = m.open("u", PriorityClass::Development, 0.0).unwrap();
        assert_ne!(a.token, b.token);
    }

    #[test]
    fn session_limit_enforced() {
        let m = SessionManager::new(2);
        m.open("a", PriorityClass::Test, 0.0).unwrap();
        m.open("b", PriorityClass::Test, 0.0).unwrap();
        assert_eq!(
            m.open("c", PriorityClass::Test, 0.0),
            Err(SessionError::TooManySessions(2))
        );
        // closing one frees a slot
        let s = m.list()[0].clone();
        m.close(&s.token).unwrap();
        assert!(m.open("c", PriorityClass::Test, 0.0).is_ok());
    }

    #[test]
    fn task_counting() {
        let m = SessionManager::new(0);
        let s = m.open("u", PriorityClass::Test, 0.0).unwrap();
        m.record_task(&s.token).unwrap();
        m.record_task(&s.token).unwrap();
        assert_eq!(m.validate(&s.token).unwrap().task_count, 2);
        assert_eq!(m.record_task("bogus"), Err(SessionError::UnknownToken));
    }

    #[test]
    fn priority_class_ordering_and_parse() {
        assert!(PriorityClass::Production.rank() < PriorityClass::Test.rank());
        assert!(PriorityClass::Test.rank() < PriorityClass::Development.rank());
        for c in [
            PriorityClass::Production,
            PriorityClass::Test,
            PriorityClass::Development,
        ] {
            assert_eq!(PriorityClass::parse(c.as_str()), Some(c));
            assert_eq!(c.partition(), c.as_str());
        }
        assert_eq!(PriorityClass::parse("vip"), None);
    }

    #[test]
    fn validate_active_enforces_ttl_and_touches() {
        let m = SessionManager::new(0);
        let s = m.open("u", PriorityClass::Test, 0.0).unwrap();
        // activity at t=50 keeps it alive and advances last_active
        let v = m.validate_active(&s.token, 50.0, 100.0).unwrap();
        assert_eq!(v.last_active, 50.0);
        // idle 100s from t=50: expired exactly at the TTL boundary
        assert_eq!(
            m.validate_active(&s.token, 150.0, 100.0),
            Err(SessionError::Expired)
        );
        // expiry removed it: a second check sees an unknown token
        assert_eq!(
            m.validate_active(&s.token, 150.0, 100.0),
            Err(SessionError::UnknownToken)
        );
        // ttl 0 disables enforcement entirely
        let s2 = m.open("v", PriorityClass::Test, 0.0).unwrap();
        assert!(m.validate_active(&s2.token, 1e9, 0.0).is_ok());
    }

    #[test]
    fn release_task_refunds_accounting() {
        let m = SessionManager::new(0);
        let s = m.open("u", PriorityClass::Test, 0.0).unwrap();
        m.record_task(&s.token).unwrap();
        m.record_task(&s.token).unwrap();
        m.release_task(&s.token).unwrap();
        assert_eq!(m.validate(&s.token).unwrap().task_count, 1);
        // never underflows
        m.release_task(&s.token).unwrap();
        m.release_task(&s.token).unwrap();
        assert_eq!(m.validate(&s.token).unwrap().task_count, 0);
        assert_eq!(m.release_task("bogus"), Err(SessionError::UnknownToken));
    }

    #[test]
    fn gc_uses_last_active_and_returns_expired() {
        let m = SessionManager::new(0);
        let a = m.open("a", PriorityClass::Test, 0.0).unwrap();
        let b = m.open("b", PriorityClass::Test, 0.0).unwrap();
        // b stays active at t=80; a does not
        m.validate_active(&b.token, 80.0, 0.0).unwrap();
        let expired = m.gc(50.0);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].token, a.token);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn restore_preserves_sessions_and_counter() {
        let m = SessionManager::new(0);
        let s = m.open("u", PriorityClass::Production, 3.0).unwrap();
        let counter = m.counter_watermark();
        let fresh = SessionManager::new(0);
        fresh.restore(vec![s.clone()], counter);
        assert_eq!(fresh.validate(&s.token).unwrap().user, "u");
        // a new session on the restored manager can never reuse the token
        let n = fresh.open("u", PriorityClass::Production, 4.0).unwrap();
        assert_ne!(n.token, s.token);
    }

    #[test]
    fn list_sorted_by_creation() {
        let m = SessionManager::new(0);
        m.open("a", PriorityClass::Test, 5.0).unwrap();
        m.open("b", PriorityClass::Test, 1.0).unwrap();
        let l = m.list();
        assert_eq!(l[0].user, "b");
        assert_eq!(l[1].user, "a");
        assert_eq!(m.count(), 2);
    }
}
