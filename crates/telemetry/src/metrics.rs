//! Metrics registry with Prometheus text exposition.
//!
//! The middleware daemon and the virtual QPU publish their state through
//! this registry; the `/metrics` REST endpoint renders it in the Prometheus
//! exposition format so the QPU plugs into a hosting site's existing
//! observability stack unchanged (paper §3.6).

use crate::catalog::{Counter, Gauge, Histogram};
use hpcqc_sync::{rank, TrackedMutex as Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sorted label set; BTreeMap gives deterministic exposition output.
pub type Labels = BTreeMap<String, String>;

/// Build a label set from `&[(&str, &str)]`.
pub fn labels(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// One histogram series: cumulative bucket counts plus sum and count.
#[derive(Debug, Clone)]
struct Distribution {
    buckets: Vec<(f64, u64)>,
    sum: f64,
    count: u64,
}

/// A family holds either scalar series (counter, gauge) or distributions
/// (histogram) — which one is fixed by the descriptor kind that emits it.
#[derive(Debug, Clone)]
struct MetricFamily {
    help: &'static str,
    kind: &'static str,
    /// label-set → value
    scalars: BTreeMap<Labels, f64>,
    histograms: BTreeMap<Labels, Distribution>,
}

/// Thread-safe metrics registry.
///
/// Cloning shares the underlying storage, so components hold cheap handles.
/// Values go in through a [`catalog`](crate::catalog) descriptor, which
/// carries the family's name, help text and kind.
#[derive(Debug, Clone)]
pub struct Registry {
    families: Arc<Mutex<BTreeMap<&'static str, MetricFamily>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            families: Arc::new(Mutex::new(
                "telemetry.registry",
                rank::REGISTRY,
                BTreeMap::new(),
            )),
        }
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn with_family<R>(
        &self,
        name: &'static str,
        help: &'static str,
        kind: &'static str,
        f: impl FnOnce(&mut MetricFamily) -> R,
    ) -> R {
        let mut fams = self.families.lock();
        f(fams.entry(name).or_insert_with(|| MetricFamily {
            help,
            kind,
            scalars: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }))
    }

    /// Increment a counter by `v` (must be ≥ 0).
    pub fn inc(&self, c: &Counter, lbls: Labels, v: f64) {
        assert!(v >= 0.0, "counters are monotonic; got increment {v}");
        self.with_family(c.name, c.help, "counter", |fam| {
            *fam.scalars.entry(lbls).or_insert(0.0) += v;
        });
    }

    /// Set a gauge to `v`.
    pub fn set(&self, g: &Gauge, lbls: Labels, v: f64) {
        self.with_family(g.name, g.help, "gauge", |fam| {
            fam.scalars.insert(lbls, v);
        });
    }

    /// Add `delta` to a gauge (creating it at 0).
    pub fn add(&self, g: &Gauge, lbls: Labels, delta: f64) {
        self.with_family(g.name, g.help, "gauge", |fam| {
            *fam.scalars.entry(lbls).or_insert(0.0) += delta;
        });
    }

    /// Observe a value into a histogram (bucket upper bounds come from the
    /// descriptor; +Inf is implicit).
    pub fn observe(&self, h: &Histogram, lbls: Labels, v: f64) {
        self.with_family(h.name, h.help, "histogram", |fam| {
            let d = fam.histograms.entry(lbls).or_insert_with(|| Distribution {
                buckets: h.bounds.iter().map(|&b| (b, 0)).collect(),
                sum: 0.0,
                count: 0,
            });
            for (bound, c) in d.buckets.iter_mut() {
                if v <= *bound {
                    *c += 1;
                }
            }
            d.sum += v;
            d.count += 1;
        });
    }

    /// Read a counter/gauge value (or a histogram's sum) back (tests and
    /// internal consumers).
    pub fn get_value(&self, name: &str, lbls: &Labels) -> Option<f64> {
        let fams = self.families.lock();
        let fam = fams.get(name)?;
        let scalar = fam.scalars.get(lbls).copied();
        scalar.or_else(|| fam.histograms.get(lbls).map(|d| d.sum))
    }

    /// Histogram quantile estimate by linear interpolation within buckets.
    pub fn histogram_quantile(&self, name: &str, lbls: &Labels, q: f64) -> Option<f64> {
        let fams = self.families.lock();
        let d = fams.get(name)?.histograms.get(lbls)?;
        if d.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * d.count as f64;
        let mut prev_bound = 0.0;
        let mut prev_cum = 0u64;
        for &(bound, cum) in &d.buckets {
            if cum as f64 >= target {
                let in_bucket = (cum - prev_cum) as f64;
                let frac = if in_bucket > 0.0 {
                    (target - prev_cum as f64) / in_bucket
                } else {
                    0.0
                };
                return Some(prev_bound + frac * (bound - prev_bound));
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        Some(prev_bound) // everything above the last finite bucket
    }

    /// Render every family in the Prometheus text exposition format v0.0.4.
    pub fn expose(&self) -> String {
        let fams = self.families.lock();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str(&format!("# HELP {name} {}\n", fam.help));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind));
            for (lbls, v) in &fam.scalars {
                out.push_str(&format!("{name}{} {v}\n", render_labels(lbls)));
            }
            for (lbls, d) in &fam.histograms {
                for (bound, c) in &d.buckets {
                    let mut le = lbls.clone();
                    le.insert("le".to_string(), fmt_float(*bound));
                    out.push_str(&format!("{name}_bucket{} {c}\n", render_labels(&le)));
                }
                let mut le = lbls.clone();
                le.insert("le".to_string(), "+Inf".to_string());
                let count = d.count;
                out.push_str(&format!("{name}_bucket{} {count}\n", render_labels(&le)));
                out.push_str(&format!("{name}_sum{} {}\n", render_labels(lbls), d.sum));
                out.push_str(&format!("{name}_count{} {count}\n", render_labels(lbls)));
            }
        }
        out
    }
}

fn fmt_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn render_labels(lbls: &Labels) -> String {
    if lbls.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = lbls
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOBS: Counter = Counter::new("jobs_total", "Total jobs");
    const DEPTH: Gauge = Gauge::new("queue_depth", "depth");
    const WAIT: Histogram = Histogram::new("wait", "wait s", &[1.0, 5.0, 10.0]);

    #[test]
    fn counter_accumulates() {
        let r = Registry::new();
        let l = labels(&[("device", "qpu0")]);
        r.inc(&JOBS, l.clone(), 1.0);
        r.inc(&JOBS, l.clone(), 2.0);
        assert_eq!(r.get_value("jobs_total", &l), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn counter_rejects_negative() {
        let r = Registry::new();
        r.inc(&JOBS, Labels::new(), -1.0);
    }

    #[test]
    fn set_overwrites_and_add_moves_a_gauge() {
        let r = Registry::new();
        let l = Labels::new();
        r.set(&DEPTH, l.clone(), 9.0);
        r.set(&DEPTH, l.clone(), 5.0);
        r.add(&DEPTH, l.clone(), -2.0);
        assert_eq!(r.get_value("queue_depth", &l), Some(3.0));
    }

    #[test]
    fn separate_label_sets_are_separate_series() {
        let r = Registry::new();
        r.inc(&JOBS, labels(&[("user", "a")]), 1.0);
        r.inc(&JOBS, labels(&[("user", "b")]), 5.0);
        let get = |u| r.get_value("jobs_total", &labels(&[("user", u)]));
        assert_eq!(get("a"), Some(1.0));
        assert_eq!(get("b"), Some(5.0));
    }

    #[test]
    fn histogram_buckets_and_quantile() {
        let r = Registry::new();
        let l = Labels::new();
        for v in [0.5, 0.7, 3.0, 4.0, 7.0, 20.0] {
            r.observe(&WAIT, l.clone(), v);
        }
        // median is in the (1,5] bucket
        let q50 = r.histogram_quantile("wait", &l, 0.5).unwrap();
        assert!(q50 > 1.0 && q50 <= 5.0, "q50={q50}");
        let q100 = r.histogram_quantile("wait", &l, 1.0).unwrap();
        assert!(q100 >= 10.0);
        assert!(r.histogram_quantile("wait", &l, 0.0).unwrap() <= 1.0);
    }

    #[test]
    fn exposition_format_counter_gauge() {
        let r = Registry::new();
        r.inc(&JOBS, labels(&[("device", "qpu0")]), 7.0);
        r.set(&DEPTH, Labels::new(), 1.0);
        let text = r.expose();
        assert!(text.contains("# HELP jobs_total Total jobs"));
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total{device=\"qpu0\"} 7"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 1"));
    }

    #[test]
    fn exposition_format_histogram() {
        let r = Registry::new();
        r.observe(&WAIT, Labels::new(), 1.5);
        let text = r.expose();
        assert!(text.contains("# TYPE wait histogram"));
        assert!(text.contains("wait_bucket{le=\"1.0\"} 0"));
        assert!(text.contains("wait_bucket{le=\"5.0\"} 1"));
        assert!(text.contains("wait_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("wait_sum 1.5"));
        assert!(text.contains("wait_count 1"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.set(&DEPTH, labels(&[("k", "a\"b")]), 1.0);
        assert!(r.expose().contains("k=\"a\\\"b\""));
    }

    #[test]
    fn registry_clone_shares_state() {
        let r = Registry::new();
        let r2 = r.clone();
        r.inc(&JOBS, Labels::new(), 1.0);
        r2.inc(&JOBS, Labels::new(), 1.0);
        assert_eq!(r.get_value("jobs_total", &Labels::new()), Some(2.0));
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        let r = Registry::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.inc(&JOBS, Labels::new(), 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.get_value("jobs_total", &Labels::new()), Some(8000.0));
    }
}
