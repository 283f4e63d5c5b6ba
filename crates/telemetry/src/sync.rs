//! Lock-contention metrics bridge: `hpcqc_sync` → [`Registry`].
//!
//! Every [`hpcqc_sync::TrackedMutex`] / `TrackedRwLock` keeps always-on
//! acquisition counters and log₂ wait/hold-time histograms. This module
//! folds those per-lock-instance stats into Prometheus gauges on scrape
//! (daemon `metrics_text` calls [`export_lock_metrics`] before rendering),
//! so per-lock contention and hold-time tails land on `GET /metrics` next
//! to the daemon's own series.
//!
//! Stats are aggregated **by lock name**: test suites and multi-daemon
//! processes create many instances of e.g. `middleware.daemon.tasks`, and
//! operators care about the lock, not the instance. Gauges (not counters)
//! because each scrape re-publishes an absolute snapshot.

use crate::catalog::{
    LOCK_ACQUISITIONS, LOCK_CONTENDED_ACQUISITIONS, LOCK_HOLD_SECONDS, LOCK_RANK, LOCK_WAIT_SECONDS,
};
use crate::metrics::{labels, Registry};
use hpcqc_sync::{all_lock_stats, histogram_quantile_ns, BUCKETS};
use std::collections::BTreeMap;

/// Aggregated snapshot of one lock name across all live instances.
struct NameAgg {
    rank: u32,
    acquisitions: u64,
    contended: u64,
    wait: [u64; BUCKETS],
    hold: [u64; BUCKETS],
}

fn aggregate() -> BTreeMap<&'static str, NameAgg> {
    let mut by_name: BTreeMap<&'static str, NameAgg> = BTreeMap::new();
    for s in all_lock_stats() {
        let agg = by_name.entry(s.name).or_insert_with(|| NameAgg {
            rank: s.rank,
            acquisitions: 0,
            contended: 0,
            wait: [0; BUCKETS],
            hold: [0; BUCKETS],
        });
        agg.acquisitions += s.acquisitions();
        agg.contended += s.contended();
        let (w, h) = (s.wait_histogram(), s.hold_histogram());
        for i in 0..BUCKETS {
            agg.wait[i] += w[i];
            agg.hold[i] += h[i];
        }
    }
    by_name
}

/// Publish per-lock stats into `reg` as gauges, labeled by lock name.
///
/// Exported series (durations in seconds, quantiles upper-bound estimates
/// from the log₂ histograms, good to 2×):
///
/// * `lock_acquisitions{lock=..}` / `lock_contended_acquisitions{lock=..}`
/// * `lock_rank{lock=..}` — the declared hierarchy rank
/// * `lock_wait_seconds{lock=..,quantile="0.5"|"0.99"}`
/// * `lock_hold_seconds{lock=..,quantile="0.5"|"0.99"}`
pub fn export_lock_metrics(reg: &Registry) {
    for (name, agg) in aggregate() {
        let l = labels(&[("lock", name)]);
        reg.set(&LOCK_ACQUISITIONS, l.clone(), agg.acquisitions as f64);
        reg.set(
            &LOCK_CONTENDED_ACQUISITIONS,
            l.clone(),
            agg.contended as f64,
        );
        reg.set(&LOCK_RANK, l, agg.rank as f64);
        for (q, qs) in [(0.5, "0.5"), (0.99, "0.99")] {
            let ql = labels(&[("lock", name), ("quantile", qs)]);
            let secs = |hist| histogram_quantile_ns(hist, q) / 1e9;
            reg.set(&LOCK_WAIT_SECONDS, ql.clone(), secs(&agg.wait));
            reg.set(&LOCK_HOLD_SECONDS, ql, secs(&agg.hold));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_sync::TrackedMutex;

    #[test]
    fn lock_metrics_land_in_the_registry() {
        let m = TrackedMutex::new("telemetry.test.export", 9_999, 0u32);
        {
            let mut g = m.lock();
            *g += 1;
        }
        let reg = Registry::new();
        export_lock_metrics(&reg);
        let text = reg.expose();
        assert!(
            text.contains("lock_acquisitions{lock=\"telemetry.test.export\"} 1"),
            "missing acquisition gauge:\n{text}"
        );
        assert!(text.contains("lock_rank{lock=\"telemetry.test.export\"} 9999"));
        assert!(
            text.contains("lock_hold_seconds{lock=\"telemetry.test.export\",quantile=\"0.99\"}"),
            "missing hold-time quantile:\n{text}"
        );
        // the registry itself is a tracked lock; it must self-report
        assert!(text.contains("lock_acquisitions{lock=\"telemetry.registry\"}"));
    }

    #[test]
    fn instances_aggregate_by_name() {
        let a = TrackedMutex::new("telemetry.test.agg", 9_998, ());
        let b = TrackedMutex::new("telemetry.test.agg", 9_998, ());
        drop(a.lock());
        drop(b.lock());
        drop(b.lock());
        let reg = Registry::new();
        export_lock_metrics(&reg);
        assert!(
            reg.expose()
                .contains("lock_acquisitions{lock=\"telemetry.test.agg\"} 3"),
            "3 acquisitions across 2 instances must sum"
        );
    }
}
