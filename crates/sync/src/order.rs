//! The lock-order rule: a thread may only acquire a lock ranked strictly
//! above every lock it already holds.
//!
//! [`rank_inversion`] is deliberately pure (no globals, no thread-locals): it
//! takes "this thread holds these locks and now acquires this one" and returns
//! the violation that acquisition introduces, if any. The `tracked` module
//! feeds it from real guards; the proptest suite feeds it synthetic schedules.
//!
//! The per-thread check is the whole check. A cross-thread deadlock needs a
//! cycle of acquired-before edges, and an edge X → Y only arises when Y is
//! taken while X is held. If no acquisition is a rank inversion, every edge
//! goes strictly up in rank, so no cycle can close.

use std::panic::Location;

/// A static acquisition site (file:line:column of the `lock()` call).
pub type Site = &'static Location<'static>;

/// One lock in a thread's held stack, or the one it acquires: its name,
/// its rank and where it was acquired.
pub type Held = (&'static str, u32, Site);

/// A rank inversion, with both acquisition sites. Acquiring a lock again
/// while holding it is one too (equal ranks).
#[derive(Clone, Debug)]
pub struct Violation {
    /// The lock being acquired and where.
    pub lock: &'static str,
    pub rank: u32,
    pub site: Site,
    /// The already-held lock that conflicts, and where it was acquired.
    pub held_lock: &'static str,
    pub held_rank: u32,
    pub held_site: Site,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank inversion: acquired '{}' (rank {}) at {} while holding '{}' (rank {}) \
             acquired at {}",
            self.lock, self.rank, self.site, self.held_lock, self.held_rank, self.held_site
        )
    }
}

/// The violation a thread holding `held` introduces by acquiring `new`:
/// `new` must rank strictly above every held lock. It is reported against
/// the highest-ranked held lock, the tightest constraint.
pub fn rank_inversion(held: impl IntoIterator<Item = Held>, new: Held) -> Option<Violation> {
    let (lock, rank, site) = new;
    let (held_lock, held_rank, held_site) = held
        .into_iter()
        .filter(|&(_, r, _)| r >= rank)
        .max_by_key(|&(_, r, _)| r)?;
    Some(Violation {
        lock,
        rank,
        site,
        held_lock,
        held_rank,
        held_site,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> Site {
        Location::caller()
    }

    #[test]
    fn increasing_ranks_are_clean() {
        let s = site();
        assert!(rank_inversion([], ("a", 10, s)).is_none());
        assert!(rank_inversion([("a", 10, s)], ("b", 20, s)).is_none());
        assert!(rank_inversion([("a", 10, s), ("b", 20, s)], ("c", 30, s)).is_none());
    }

    #[test]
    fn rank_inversion_reports_both_sites() {
        let s_held = site();
        let s_new = site();
        let v = rank_inversion([("b", 20, s_held)], ("a", 10, s_new)).expect("flagged");
        assert_eq!(v.lock, "a");
        assert_eq!(v.held_lock, "b");
        assert!(std::ptr::eq(v.site, s_new));
        assert!(std::ptr::eq(v.held_site, s_held));
        let shown = v.to_string();
        assert!(shown.contains(&s_new.to_string()) && shown.contains(&s_held.to_string()));
    }

    #[test]
    fn reacquisition_is_an_inversion() {
        let s = site();
        let v = rank_inversion([("a", 10, s)], ("a", 10, s)).expect("flagged");
        assert_eq!((v.lock, v.held_lock), ("a", "a"));
    }
}
