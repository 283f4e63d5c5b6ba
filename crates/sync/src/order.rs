//! Lock-order analysis core: static rank checking plus a dynamic
//! acquired-before graph with cycle detection.
//!
//! [`OrderTracker`] is deliberately pure (no globals, no thread-locals): it
//! takes "thread T holds these locks and now acquires this one" and returns
//! the violations that acquisition introduces. The `tracked` module feeds it
//! from real guards; the proptest suite feeds it synthetic schedules.

use std::collections::{HashMap, HashSet};
use std::panic::Location;

/// A static acquisition site (file:line:column of the `lock()` call).
pub type Site = &'static Location<'static>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A lock was acquired whose rank is not strictly greater than one
    /// already held by the same thread (includes same-lock reacquisition).
    RankInversion,
    /// The new acquired-before edge closes a cross-thread cycle.
    CycleDetected,
}

/// One detected ordering violation, with both acquisition sites.
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    /// The lock being acquired and where.
    pub lock: &'static str,
    pub rank: u32,
    pub site: Site,
    /// The already-held lock that conflicts, and where it was acquired.
    pub held_lock: &'static str,
    pub held_rank: u32,
    pub held_site: Site,
    /// For cycles: the lock-name path `lock → … → held_lock` that, together
    /// with the new `held_lock → lock` edge, forms the cycle.
    pub cycle: Option<CycleReport>,
}

#[derive(Clone, Debug)]
pub struct CycleReport {
    pub path: Vec<&'static str>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ViolationKind::RankInversion => write!(
                f,
                "rank inversion: acquired '{}' (rank {}) at {} while holding '{}' (rank {}) \
                 acquired at {}",
                self.lock, self.rank, self.site, self.held_lock, self.held_rank, self.held_site
            ),
            ViolationKind::CycleDetected => {
                write!(
                    f,
                    "acquired-before cycle: acquiring '{}' at {} while holding '{}' (acquired \
                     at {}) closes cycle",
                    self.lock, self.site, self.held_lock, self.held_site
                )?;
                if let Some(c) = &self.cycle {
                    write!(f, " [{}]", c.path.join(" → "))?;
                }
                Ok(())
            }
        }
    }
}

/// The dynamic acquired-before graph. Nodes are lock names; an edge A → B
/// means some thread acquired B while holding A. A cycle means two threads
/// can deadlock even if each individual schedule looked fine.
#[derive(Default)]
pub struct OrderTracker {
    edges: HashMap<&'static str, HashSet<&'static str>>,
}

impl OrderTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that a thread holding `held` (outermost first) acquires `new`.
    /// Returns every violation this acquisition introduces.
    pub fn on_acquire(
        &mut self,
        held: &[(&'static str, u32, Site)],
        new: (&'static str, u32, Site),
    ) -> Vec<Violation> {
        let (new_name, new_rank, new_site) = new;
        let mut out = Vec::new();

        // Static check: rank must exceed every held rank. Report against the
        // highest-ranked held lock (the tightest constraint).
        if let Some(&(h_name, h_rank, h_site)) = held
            .iter()
            .filter(|(_, r, _)| *r >= new_rank)
            .max_by_key(|(_, r, _)| *r)
        {
            out.push(Violation {
                kind: ViolationKind::RankInversion,
                lock: new_name,
                rank: new_rank,
                site: new_site,
                held_lock: h_name,
                held_rank: h_rank,
                held_site: h_site,
                cycle: None,
            });
        }

        // Dynamic check: inserting held → new must not close a cycle.
        for &(h_name, h_rank, h_site) in held {
            if h_name == new_name {
                continue; // reacquisition already reported above
            }
            if let Some(path) = self.path_between(new_name, h_name) {
                out.push(Violation {
                    kind: ViolationKind::CycleDetected,
                    lock: new_name,
                    rank: new_rank,
                    site: new_site,
                    held_lock: h_name,
                    held_rank: h_rank,
                    held_site: h_site,
                    cycle: Some(CycleReport { path }),
                });
            }
            self.edges.entry(h_name).or_default().insert(new_name);
        }
        out
    }

    /// DFS: a path `from → … → to` through existing edges.
    fn path_between(&self, from: &'static str, to: &'static str) -> Option<Vec<&'static str>> {
        let mut stack = vec![vec![from]];
        let mut seen = HashSet::new();
        seen.insert(from);
        while let Some(path) = stack.pop() {
            let node = *path.last().expect("non-empty path");
            if node == to {
                return Some(path);
            }
            if let Some(next) = self.edges.get(node) {
                for &n in next {
                    if seen.insert(n) {
                        let mut p = path.clone();
                        p.push(n);
                        stack.push(p);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> Site {
        Location::caller()
    }

    #[test]
    fn increasing_ranks_are_clean() {
        let mut t = OrderTracker::new();
        let s = site();
        assert!(t.on_acquire(&[], ("a", 10, s)).is_empty());
        assert!(t.on_acquire(&[("a", 10, s)], ("b", 20, s)).is_empty());
        assert!(t
            .on_acquire(&[("a", 10, s), ("b", 20, s)], ("c", 30, s))
            .is_empty());
    }

    #[test]
    fn rank_inversion_reports_both_sites() {
        let mut t = OrderTracker::new();
        let s_held = site();
        let s_new = site();
        let v = t.on_acquire(&[("b", 20, s_held)], ("a", 10, s_new));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::RankInversion);
        assert_eq!(v[0].lock, "a");
        assert_eq!(v[0].held_lock, "b");
        assert!(std::ptr::eq(v[0].site, s_new));
        assert!(std::ptr::eq(v[0].held_site, s_held));
        let shown = v[0].to_string();
        assert!(shown.contains(&s_new.to_string()) && shown.contains(&s_held.to_string()));
    }

    #[test]
    fn cross_thread_cycle_is_detected() {
        let mut t = OrderTracker::new();
        let s = site();
        // Thread 1: a then b. Thread 2: b then a — closes a cycle even
        // though, with equal-free ranks, each edge alone looks fine.
        assert!(t.on_acquire(&[("a", 1, s)], ("b", 2, s)).is_empty());
        let v = t.on_acquire(&[("b", 2, s)], ("a", 1, s));
        assert!(
            v.iter().any(|v| v.kind == ViolationKind::CycleDetected),
            "{v:?}"
        );
        let cyc = v
            .iter()
            .find(|v| v.kind == ViolationKind::CycleDetected)
            .unwrap();
        assert_eq!(cyc.cycle.as_ref().unwrap().path, vec!["a", "b"]);
    }

    #[test]
    fn reacquisition_is_an_inversion() {
        let mut t = OrderTracker::new();
        let s = site();
        let v = t.on_acquire(&[("a", 10, s)], ("a", 10, s));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::RankInversion);
    }
}
