//! Property tests for the rank check: rank-respecting schedules are never
//! flagged, and every seeded inversion is, against the right held lock.

use hpcqc_sync::{rank_inversion, Held, Site};
use proptest::prelude::*;
use std::panic::Location;

#[track_caller]
fn here() -> Site {
    Location::caller()
}

const NAMES: [&str; 16] = [
    "prop.l0", "prop.l1", "prop.l2", "prop.l3", "prop.l4", "prop.l5", "prop.l6", "prop.l7",
    "prop.l8", "prop.l9", "prop.l10", "prop.l11", "prop.l12", "prop.l13", "prop.l14", "prop.l15",
];

/// Rank of lock `i`: distinct, increasing with index.
fn rank(i: usize) -> u32 {
    (i as u32 + 1) * 10
}

/// A schedule is a list of per-thread acquisition stacks; each stack is a
/// strictly increasing list of lock indices (so it respects the ranks).
fn ascending_stacks() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..NAMES.len(), 1..6), 1..8).prop_map(
        |stacks| {
            stacks
                .into_iter()
                .map(|mut s| {
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect()
        },
    )
}

/// Feed one thread's acquisitions through the rank check; returns the held
/// stack at the end and how many acquisitions were flagged.
fn feed_stack(stack: &[usize], site: Site) -> (Vec<Held>, usize) {
    let mut held: Vec<Held> = Vec::new();
    let mut flagged = 0;
    for &i in stack {
        let new = (NAMES[i], rank(i), site);
        flagged += usize::from(rank_inversion(held.iter().copied(), new).is_some());
        held.push(new);
    }
    (held, flagged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Threads that acquire in ascending rank order are never flagged.
    #[test]
    fn rank_respecting_schedules_are_never_flagged(stacks in ascending_stacks()) {
        for stack in &stacks {
            let (_, flagged) = feed_stack(stack, here());
            prop_assert_eq!(flagged, 0, "clean stack flagged: {:?}", stack);
        }
    }

    /// Acquiring, on top of any clean held stack, a lock ranked at or below
    /// its top is always reported against the top lock, with both
    /// acquisition sites. This covers the acquisition that closes any
    /// acquired-before cycle: some edge of a cycle must go down in rank.
    #[test]
    fn every_seeded_inversion_is_flagged(
        stacks in ascending_stacks(),
        pick in 0usize..64,
    ) {
        let held_site = here();
        let acquire_site = here();
        for stack in &stacks {
            let (held, _) = feed_stack(stack, held_site);
            let top = *stack.last().expect("non-empty stack");
            let lo = pick % (top + 1);
            let v = rank_inversion(held.iter().copied(), (NAMES[lo], rank(lo), acquire_site));
            let v = v.expect("inversion not flagged");
            prop_assert_eq!(v.lock, NAMES[lo]);
            prop_assert_eq!(v.held_lock, NAMES[top]);
            prop_assert!(std::ptr::eq(v.site, acquire_site));
            prop_assert!(std::ptr::eq(v.held_site, held_site));
        }
    }
}
