//! User sessions and priority classes.
//!
//! As the runtime connects to the middleware daemon, a unique session is
//! created and a session token returned (paper §3.3). Every subsequent job
//! submission carries the token; the session pins the user's priority class
//! (production / test / development), which the daemon maps to queue
//! priorities — mirroring how the classes map to Slurm partitions one level
//! below.
//!
//! Open sessions live in the daemon's task table (`crate::tasks`) and change
//! only as it applies `SessionOpened`, `SessionClosed` and `SessionsExpired`
//! records; this module holds the session type, its errors and the token
//! format.

use serde::{Deserialize, Serialize};

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

/// The bearer token of the `n`-th session the daemon opens, for `user`.
///
/// Tokens embed a non-guessable component derived from the counter and the
/// user (this is a simulator: real deployments would use a CSPRNG, but the
/// *interface* — opaque bearer token — is identical).
pub(crate) fn mint_token(n: u64, user: &str) -> String {
    // FNV-style mix so tokens aren't trivially sequential
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ n.wrapping_mul(0x100_0000_01b3);
    for b in user.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("sess-{n}-{h:016x}")
}

/// The counter value `token` was minted with (`sess-{n}-…`).
pub(crate) fn token_counter(token: &str) -> Option<u64> {
    token.split('-').nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{DaemonConfig, DaemonError, MiddlewareService};
    use crate::journal::{DaemonSnapshot, JournalRecord as R};
    use crate::taskqueue::{QuantumTask, QueueConfig, TaskQueue};
    use crate::tasks::{Applied, TaskTable};
    use hpcqc_emulator::SvBackend;
    use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
    use hpcqc_qrmi::LocalEmulatorResource;
    use hpcqc_scheduler::PatternHint;
    use std::sync::Arc;

    fn table() -> TaskTable {
        TaskTable::new(TaskQueue::new(QueueConfig::default()))
    }

    /// Open the `n`-th session, for `user`, through the table.
    fn open(t: &mut TaskTable, n: u64, user: &str, class: PriorityClass, now: f64) -> String {
        let session = Session {
            token: mint_token(n, user),
            user: user.into(),
            class,
            created_at: now,
            last_active: now,
            task_count: 0,
        };
        let token = session.token.clone();
        assert_eq!(t.apply(&R::SessionOpened { session }), Ok(Applied::Changed));
        token
    }

    fn submitted(id: u64, token: &str) -> R {
        let mut b = SequenceBuilder::new(Register::linear(2, 6.0).unwrap());
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        let task = QuantumTask {
            id,
            session: token.into(),
            user: "u".into(),
            class: PriorityClass::Test,
            ir: Arc::new(ProgramIr::new(b.build().unwrap(), 10, "test")),
            hint: PatternHint::None,
            submitted_at: 1.0,
        };
        R::TaskSubmitted {
            task,
            idempotency_key: None,
            warnings: Vec::new(),
        }
    }

    fn count(t: &TaskTable, token: &str) -> u64 {
        t.session(token).unwrap().task_count
    }

    fn daemon(cfg: DaemonConfig) -> MiddlewareService {
        let backend = Arc::new(SvBackend::default());
        MiddlewareService::new(Arc::new(LocalEmulatorResource::new("emu", backend, 1)), cfg)
    }

    #[test]
    fn open_validate_close_lifecycle() {
        let mut t = table();
        let token = open(&mut t, 1, "alice", PriorityClass::Production, 10.0);
        assert!(token.starts_with("sess-"));
        let s = t.session(&token).unwrap();
        assert_eq!(
            (s.user.as_str(), s.class),
            ("alice", PriorityClass::Production)
        );
        let close = R::SessionClosed {
            token: token.clone(),
        };
        assert_eq!(t.apply(&close), Ok(Applied::Changed));
        assert!(t.session(&token).is_none());
        assert_eq!(t.apply(&close), Ok(Applied::NoOp), "an unknown token");
    }

    #[test]
    fn tokens_are_unique() {
        assert_ne!(mint_token(1, "u"), mint_token(2, "u"));
        assert_ne!(mint_token(1, "u"), mint_token(1, "v"));
        assert_eq!(token_counter(&mint_token(42, "u")), Some(42));
        assert_eq!(token_counter("bogus"), None);
    }

    #[test]
    fn session_limit_enforced() {
        let d = daemon(DaemonConfig {
            max_sessions: 2,
            ..DaemonConfig::default()
        });
        d.open_session("a", PriorityClass::Test).unwrap();
        let b = d.open_session("b", PriorityClass::Test).unwrap();
        assert_eq!(
            d.open_session("c", PriorityClass::Test),
            Err(DaemonError::Session(SessionError::TooManySessions(2)))
        );
        // closing one frees a slot
        d.close_session(&b).unwrap();
        assert!(d.open_session("c", PriorityClass::Test).is_ok());
    }

    #[test]
    fn task_counting() {
        let mut t = table();
        let token = open(&mut t, 1, "u", PriorityClass::Test, 0.0);
        for id in [1, 2] {
            assert_eq!(t.apply(&submitted(id, &token)), Ok(Applied::Changed));
        }
        assert_eq!(count(&t, &token), 2);
        // a task whose session is gone is admitted, and charges no one
        assert_eq!(t.apply(&submitted(3, "bogus")), Ok(Applied::Changed));
        assert_eq!(count(&t, &token), 2);
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
        let d = daemon(DaemonConfig {
            session_ttl_secs: 100.0,
            ..DaemonConfig::default()
        });
        let tok = d.open_session("u", PriorityClass::Test).unwrap();
        // activity at t=50 keeps it alive and advances last_active
        d.advance_time(50.0);
        assert_eq!(d.cancel(&tok, 99), Err(DaemonError::UnknownTask(99)));
        assert_eq!(d.list_sessions()[0].last_active, 50.0);
        // idle 100 s from t=50: the sweep expires it at the TTL boundary
        // (`check_session`'s own boundary: daemon/tests.rs)
        d.advance_time(100.0);
        assert!(d.list_sessions().is_empty());
        let unknown = DaemonError::Session(SessionError::UnknownToken);
        assert_eq!(d.cancel(&tok, 99), Err(unknown));
        // ttl 0 disables enforcement entirely
        let d = daemon(DaemonConfig::default());
        let tok = d.open_session("v", PriorityClass::Test).unwrap();
        d.advance_time(1e9);
        assert_eq!(d.cancel(&tok, 99), Err(DaemonError::UnknownTask(99)));
    }

    #[test]
    fn cancel_refunds_accounting() {
        let mut t = table();
        let token = open(&mut t, 1, "u", PriorityClass::Test, 0.0);
        for id in [1, 2] {
            t.apply(&submitted(id, &token)).unwrap();
        }
        assert_eq!(t.apply(&R::TaskCancelled { id: 1 }), Ok(Applied::Changed));
        assert_eq!(count(&t, &token), 1);
        // a cancel the table already holds refunds nothing
        assert_eq!(t.apply(&R::TaskCancelled { id: 1 }), Ok(Applied::NoOp));
        assert_eq!(count(&t, &token), 1);
        t.apply(&R::TaskCancelled { id: 2 }).unwrap();
        assert_eq!(count(&t, &token), 0);
    }

    #[test]
    fn gc_uses_last_active_and_returns_expired() {
        let mut t = table();
        let a = open(&mut t, 1, "a", PriorityClass::Test, 0.0);
        let b = open(&mut t, 2, "b", PriorityClass::Test, 0.0);
        // b stays active at t=80; a does not
        t.touch(&b, 80.0).unwrap();
        let idle = t.idle_since(50.0);
        assert_eq!(idle, vec![a]);
        let expired = R::SessionsExpired { tokens: idle };
        assert_eq!(t.apply(&expired), Ok(Applied::Changed));
        assert_eq!(t.session_count(), 1);
    }

    #[test]
    fn restore_preserves_sessions_and_counter() {
        let mut t = table();
        let token = open(&mut t, 7, "u", PriorityClass::Production, 3.0);
        let mut snap = DaemonSnapshot::default();
        t.snapshot_into(&mut snap);
        assert_eq!(snap.session_counter, 8, "past the counter of every token");
        let back = table().with_snapshot(&mut snap).unwrap();
        assert_eq!(back.session(&token).unwrap().user, "u");
        // a daemon recovered from it mints from 8 on: no token is reused
        assert_eq!(back.floors().session_counter, 8);
    }

    #[test]
    fn list_sorted_by_creation() {
        let mut t = table();
        open(&mut t, 1, "a", PriorityClass::Test, 5.0);
        open(&mut t, 2, "b", PriorityClass::Test, 1.0);
        let l = t.sessions();
        assert_eq!((l[0].user.as_str(), l[1].user.as_str()), ("b", "a"));
        assert_eq!(t.session_count(), 2);
    }
}
