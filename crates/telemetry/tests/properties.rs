//! Property-based tests on the observability stack.

use hpcqc_telemetry::catalog::QPU_SHOTS;
use hpcqc_telemetry::{
    labels, Agg, CusumDetector, Detection, Registry, TimeSeriesDb, ZScoreDetector,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn downsample_count_conserves_points(
        values in proptest::collection::vec(-100.0f64..100.0, 1..200),
        step in 1.0f64..50.0,
    ) {
        let db = TimeSeriesDb::new();
        for (t, v) in values.iter().enumerate() {
            db.append("s", t as f64, *v);
        }
        let to = values.len() as f64;
        let counted: f64 = db
            .downsample("s", 0.0, to, step, Agg::Count)
            .iter()
            .map(|p| p.value)
            .sum();
        prop_assert_eq!(counted as usize, values.len());
    }

    #[test]
    fn downsample_mean_within_min_max(
        values in proptest::collection::vec(-100.0f64..100.0, 2..100),
        step in 1.0f64..20.0,
    ) {
        let db = TimeSeriesDb::new();
        for (t, v) in values.iter().enumerate() {
            db.append("s", t as f64, *v);
        }
        let to = values.len() as f64;
        let means = db.downsample("s", 0.0, to, step, Agg::Mean);
        let mins = db.downsample("s", 0.0, to, step, Agg::Min);
        let maxs = db.downsample("s", 0.0, to, step, Agg::Max);
        prop_assert_eq!(means.len(), mins.len());
        for ((m, lo), hi) in means.iter().zip(&mins).zip(&maxs) {
            prop_assert!(m.value >= lo.value - 1e-12 && m.value <= hi.value + 1e-12);
        }
    }

    #[test]
    fn stats_std_is_zero_iff_constant(
        value in -50.0f64..50.0,
        n in 1usize..50,
    ) {
        let db = TimeSeriesDb::new();
        for t in 0..n {
            db.append("s", t as f64, value);
        }
        let (mean, std) = db.stats("s", 0.0, n as f64).unwrap();
        prop_assert!((mean - value).abs() < 1e-12);
        prop_assert!(std.abs() < 1e-12);
    }

    #[test]
    fn range_queries_are_slices(
        values in proptest::collection::vec(-10.0f64..10.0, 1..100),
        lo in 0usize..100,
        span in 0usize..100,
    ) {
        let db = TimeSeriesDb::new();
        for (t, v) in values.iter().enumerate() {
            db.append("s", t as f64, *v);
        }
        let from = lo as f64;
        let to = (lo + span) as f64;
        let pts = db.range("s", from, to);
        // every returned point is inside the window and in order
        for p in &pts {
            prop_assert!(p.ts >= from && p.ts <= to);
        }
        for w in pts.windows(2) {
            prop_assert!(w[0].ts <= w[1].ts);
        }
        // count matches the arithmetic expectation
        let expect = values
            .iter()
            .enumerate()
            .filter(|(t, _)| (*t as f64) >= from && (*t as f64) <= to)
            .count();
        prop_assert_eq!(pts.len(), expect);
    }

    #[test]
    fn detectors_never_fire_on_constant_series(
        value in -10.0f64..10.0,
        n in 10usize..200,
    ) {
        let mut z = ZScoreDetector::new(5, 3.0);
        let mut c = CusumDetector::new(5, 0.01, 0.1);
        for _ in 0..n {
            prop_assert!(!matches!(z.update(value), Detection::Drift { .. }), "z-score false alarm");
            prop_assert!(!matches!(c.update(value), Detection::Drift { .. }), "cusum false alarm");
        }
    }

    #[test]
    fn zscore_always_fires_on_huge_outlier(
        baseline in -5.0f64..5.0,
        n in 10usize..50,
    ) {
        let mut z = ZScoreDetector::new(5, 4.0).with_min_std(0.1);
        for _ in 0..n {
            z.update(baseline);
        }
        prop_assert!(matches!(z.update(baseline + 1000.0), Detection::Drift { .. }), "outlier missed");
    }

    #[test]
    fn counter_sums_match(
        increments in proptest::collection::vec(0.0f64..10.0, 1..50),
    ) {
        let r = Registry::new();
        let l = labels(&[("k", "v")]);
        for &inc in &increments {
            r.inc(&QPU_SHOTS, l.clone(), inc);
        }
        let total: f64 = increments.iter().sum();
        prop_assert!((r.get_value("qpu_shots_total", &l).unwrap() - total).abs() < 1e-9);
        // exposition contains the series exactly once
        let text = r.expose();
        let hits = text.lines().filter(|ln| ln.starts_with("qpu_shots_total{")).count();
        prop_assert_eq!(hits, 1);
    }
}
