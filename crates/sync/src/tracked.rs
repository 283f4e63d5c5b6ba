//! Tracked lock wrappers: `parking_lot` locks plus stats and (in debug/test
//! builds) lock-order checking against the declared rank hierarchy.

use crate::order::{rank_inversion, Held, Site, Violation};
use crate::stats::LockStats;
use std::cell::RefCell;
use std::panic::Location;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Order checking (debug builds). The std mutex guarding the violation log is
// internal bookkeeping, deliberately outside the tracked world.
// ---------------------------------------------------------------------------

thread_local! {
    /// The tracked locks this thread holds, outermost first, each with its
    /// stats block, whose address tells the lock apart on release.
    static HELD: RefCell<Vec<(Held, *const LockStats)>> = const { RefCell::new(Vec::new()) };
}

static VIOLATIONS: StdMutex<Vec<Violation>> = StdMutex::new(Vec::new());

/// Every ordering violation recorded so far in this process.
pub fn violations() -> Vec<Violation> {
    VIOLATIONS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// The locks the calling thread currently holds, outermost first.
pub fn held_locks() -> Vec<(&'static str, u32)> {
    HELD.with(|h| {
        h.borrow()
            .iter()
            .map(|&((name, rank, _), _)| (name, rank))
            .collect()
    })
}

/// Debug-build acquire hook: the rank check against this thread's held
/// stack, then the push. A violation is logged for [`violations`] and then
/// panics the acquiring thread, so one whose panic is caught (an HTTP
/// worker's 500, the dispatcher's `catch_unwind`) still shows in the log.
fn order_enter(stats: &LockStats, site: Site) {
    if !cfg!(debug_assertions) {
        return;
    }
    let new = (stats.name, stats.rank, site);
    if let Some(v) = HELD.with(|h| rank_inversion(h.borrow().iter().map(|e| e.0), new)) {
        VIOLATIONS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(v.clone());
        // a second panic while unwinding would abort the process
        if !std::thread::panicking() {
            panic!("lock-order violation: {v}");
        }
    }
    HELD.with(|h| h.borrow_mut().push((new, stats)));
}

fn order_exit(stats: &LockStats) {
    if cfg!(debug_assertions) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(i) = held.iter().rposition(|e| std::ptr::eq(e.1, stats)) {
                held.remove(i);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// TrackedMutex
// ---------------------------------------------------------------------------

/// A `parking_lot::Mutex` with a name, a rank in the repo-wide hierarchy
/// (see [`crate::rank`]), always-on stats and debug-build order checking.
pub struct TrackedMutex<T: ?Sized> {
    /// Also the lock's name and rank, and its identity on the held stack.
    stats: Arc<LockStats>,
    inner: parking_lot::Mutex<T>,
}

pub struct TrackedMutexGuard<'a, T: ?Sized> {
    // Hold time is recorded in Drop::drop, which runs before the field drop
    // that actually unlocks — the sample never includes post-unlock work.
    inner: parking_lot::MutexGuard<'a, T>,
    stats: &'a LockStats,
    acquired: Instant,
}

impl<T> TrackedMutex<T> {
    pub fn new(name: &'static str, rank: u32, value: T) -> Self {
        TrackedMutex {
            stats: LockStats::register(name, rank),
            inner: parking_lot::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    pub fn name(&self) -> &'static str {
        self.stats.name
    }

    pub fn rank(&self) -> u32 {
        self.stats.rank
    }

    /// This lock's live stats handle (shared with the global registry).
    pub fn stats(&self) -> &Arc<LockStats> {
        &self.stats
    }

    #[track_caller]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let site = Location::caller();
        let (inner, wait_ns, contended) = match self.inner.try_lock() {
            Some(g) => (g, 0, false),
            None => {
                let t0 = Instant::now();
                let g = self.inner.lock();
                (g, t0.elapsed().as_nanos() as u64, true)
            }
        };
        self.stats.record_acquire(wait_ns, contended);
        order_enter(&self.stats, site);
        TrackedMutexGuard {
            inner,
            stats: &self.stats,
            acquired: Instant::now(),
        }
    }

    #[track_caller]
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<'_, T>> {
        let site = Location::caller();
        let inner = self.inner.try_lock()?;
        self.stats.record_acquire(0, false);
        order_enter(&self.stats, site);
        Some(TrackedMutexGuard {
            inner,
            stats: &self.stats,
            acquired: Instant::now(),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("name", &self.stats.name)
            .field("data", &&self.inner)
            .finish()
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.stats
            .record_hold(self.acquired.elapsed().as_nanos() as u64);
        order_exit(self.stats);
    }
}

// ---------------------------------------------------------------------------
// TrackedRwLock
// ---------------------------------------------------------------------------

/// A `parking_lot::RwLock` with the same tracking as [`TrackedMutex`].
/// Read and write acquisitions share one rank and one stats stream.
pub struct TrackedRwLock<T: ?Sized> {
    /// Also the lock's name and rank, and its identity on the held stack.
    stats: Arc<LockStats>,
    inner: parking_lot::RwLock<T>,
}

pub struct TrackedRwLockReadGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    stats: &'a LockStats,
    acquired: Instant,
}

pub struct TrackedRwLockWriteGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    stats: &'a LockStats,
    acquired: Instant,
}

impl<T> TrackedRwLock<T> {
    pub fn new(name: &'static str, rank: u32, value: T) -> Self {
        TrackedRwLock {
            stats: LockStats::register(name, rank),
            inner: parking_lot::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    pub fn name(&self) -> &'static str {
        self.stats.name
    }

    pub fn stats(&self) -> &Arc<LockStats> {
        &self.stats
    }

    #[track_caller]
    pub fn read(&self) -> TrackedRwLockReadGuard<'_, T> {
        let site = Location::caller();
        // Fast path mirrors TrackedMutex::lock: an immediate grant is wait 0
        // and NOT contended — timing the blocking call unconditionally would
        // report every acquisition as contended (sub-µs clock reads are
        // never exactly zero).
        let (inner, wait) = match self.inner.try_read() {
            Some(g) => (g, 0),
            None => {
                let t0 = Instant::now();
                let g = self.inner.read();
                (g, t0.elapsed().as_nanos() as u64)
            }
        };
        self.stats.record_acquire(wait, wait > 0);
        order_enter(&self.stats, site);
        TrackedRwLockReadGuard {
            inner,
            stats: &self.stats,
            acquired: Instant::now(),
        }
    }

    #[track_caller]
    pub fn write(&self) -> TrackedRwLockWriteGuard<'_, T> {
        let site = Location::caller();
        let (inner, wait) = match self.inner.try_write() {
            Some(g) => (g, 0),
            None => {
                let t0 = Instant::now();
                let g = self.inner.write();
                (g, t0.elapsed().as_nanos() as u64)
            }
        };
        self.stats.record_acquire(wait, wait > 0);
        order_enter(&self.stats, site);
        TrackedRwLockWriteGuard {
            inner,
            stats: &self.stats,
            acquired: Instant::now(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for TrackedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.stats
            .record_hold(self.acquired.elapsed().as_nanos() as u64);
        order_exit(self.stats);
    }
}

impl<T: ?Sized> std::ops::Deref for TrackedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for TrackedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.stats
            .record_hold(self.acquired.elapsed().as_nanos() as u64);
        order_exit(self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_mutex_round_trip_records_stats() {
        let m = TrackedMutex::new("tracked.test.roundtrip", 1, 0u32);
        {
            let mut g = m.lock();
            *g += 41;
        }
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert!(m.stats().acquisitions() >= 3);
        assert_eq!(m.stats().contended(), 0);
        let held: u64 = m.stats().hold_histogram().iter().sum();
        assert!(held >= 3);
    }

    #[test]
    fn contention_is_counted() {
        let m = std::sync::Arc::new(TrackedMutex::new("tracked.test.contention", 1, ()));
        let m2 = std::sync::Arc::clone(&m);
        let g = m.lock();
        let h = std::thread::spawn(move || {
            let _g = m2.lock(); // must wait for the main thread to release
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g);
        h.join().unwrap();
        assert_eq!(m.stats().contended(), 1);
        let wait = m.stats().wait_histogram();
        // ~20 ms wait lands well above the 2^20 ns (≈1 ms) bucket.
        assert!(
            wait[20..].iter().sum::<u64>() >= 1,
            "wait histogram: {wait:?}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn seeded_rank_inversion_is_reported_with_sites() {
        let hi = TrackedMutex::new("tracked.test.inv.hi", 200, ());
        let lo = TrackedMutex::new("tracked.test.inv.lo", 100, ());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g_hi = hi.lock();
            let _g_lo = lo.lock(); // inversion: rank 100 under rank 200
        }));
        let message = *caught
            .expect_err("the inversion panics")
            .downcast::<String>()
            .expect("a formatted panic message");
        assert!(held_locks().is_empty(), "unwinding released both entries");
        let v: Vec<_> = violations()
            .into_iter()
            .filter(|v| v.lock == "tracked.test.inv.lo" && v.held_lock == "tracked.test.inv.hi")
            .collect();
        assert_eq!(v.len(), 1, "inversion not recorded once");
        for site in [v[0].site, v[0].held_site] {
            assert!(site.file().ends_with("tracked.rs"));
            assert!(message.contains(&site.to_string()), "{message}");
        }
        assert_ne!(v[0].site.line(), v[0].held_site.line());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rank_respecting_nesting_is_clean() {
        let a = TrackedMutex::new("tracked.test.clean.a", 10, ());
        let b = TrackedRwLock::new("tracked.test.clean.b", 20, ());
        {
            let _ga = a.lock();
            let _gb = b.write();
            assert_eq!(held_locks().len(), 2);
        }
        assert!(held_locks().is_empty());
        assert!(
            !violations()
                .iter()
                .any(|v| v.lock.starts_with("tracked.test.clean")),
            "clean nesting flagged"
        );
    }
}
