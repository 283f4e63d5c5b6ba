//! # hpcqc-telemetry — the observability stack
//!
//! Stand-in for the Prometheus / InfluxDB / Grafana triplet the paper builds
//! its monitoring on (§3.6):
//!
//! * [`catalog`] — the one table that declares every metric the stack
//!   exposes: a `const` [`Counter`](catalog::Counter) /
//!   [`Gauge`](catalog::Gauge) / [`Histogram`](catalog::Histogram)
//!   descriptor carrying its name, help text and (by its type) its kind,
//! * [`Registry`] — label-keyed series, written only through a catalog
//!   descriptor (`inc`, `set`/`add`, `observe`) by the code where the event
//!   happens, rendered in the genuine Prometheus text exposition format by
//!   [`Registry::expose`]; [`export_lock_metrics`] republishes the tracked
//!   locks' contention stats into it on scrape,
//! * [`TimeSeriesDb`] — append-only time series with retention, range queries
//!   and downsampling (the InfluxDB role),
//! * [`ZScoreDetector`] / [`CusumDetector`] — online calibration-drift
//!   detection (§2.5's "detect degradation trends"),
//! * [`AlertManager`] — Prometheus-style threshold alert rules with
//!   pending → firing → resolved lifecycle.

pub mod alerts;
pub mod catalog;
pub mod drift;
pub mod metrics;
pub mod sync;
pub mod tsdb;

pub use alerts::{AlertEvent, AlertManager, AlertRule, AlertState, Cmp};
pub use drift::{CusumDetector, Detection, ZScoreDetector};
pub use metrics::{labels, Labels, Registry};
pub use sync::export_lock_metrics;
pub use tsdb::{Agg, Point, TimeSeriesDb};
