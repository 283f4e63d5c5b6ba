//! The harness's own arithmetic: order statistics, spreads, `/proc` parsing,
//! window accounting and the ladder's self-time subtraction. Pure functions,
//! unit-tested below, so a wrong number in a report is never a counting bug
//! in the harness.

/// Median of a non-empty sample (mean of the middle pair for even sizes).
/// Sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Median, or 0 for an empty sample (a layer the workload never called).
pub fn median_or_zero(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Nearest-rank percentile `p` in (0, 1] over an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((n as f64 * p).ceil() as usize).clamp(1, n)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it (choosing-metrics §1); `None` below 20 samples, where
/// even the median does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.75, 0.50]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// (max − min) ÷ median: the within-set spread `repeat` gates on.
pub fn range_share(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    let med = median(&mut v);
    (v[v.len() - 1] - v[0]) / med
}

/// Quartile cut points as Python's `statistics.quantiles(xs, n=4)` gives
/// them (the exclusive method), which is what the benchmark driver uses.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// (Q3 − Q1) ÷ median, the driver's steadiness measure.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let q = quartiles(xs);
    (q[2] - q[0]) / q[1]
}

/// utime + stime in clock ticks from the contents of a `/proc/<..>/stat`
/// file. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // after the command name: state is field 3, utime 14, stime 15
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The 1-minute load average from the contents of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// A half-open interval on the harness clock, nanoseconds.
pub type Interval = (u64, u64);

/// A span's self time: its duration minus the part of it that its child
/// spans cover (children may overlap each other and may stick out of the
/// parent; only the covered part inside the parent is subtracted).
pub fn self_time_ns(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = parent.0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// Tally of one measurement window. Tasks submitted before the deadline are
/// drained and counted; throughput runs from the window start to the last
/// completion, so a long drain is not hidden.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowTally {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// Seconds from the window start to the last successful completion.
    pub last_completion_s: f64,
}

impl WindowTally {
    pub fn record(&mut self, ok: bool, completed_at_s: f64) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
            self.last_completion_s = self.last_completion_s.max(completed_at_s);
        } else {
            self.failed += 1;
        }
    }

    /// Checked results per second over the whole window; failures never
    /// count.
    pub fn tasks_per_s(&self) -> f64 {
        if self.succeeded == 0 {
            0.0
        } else {
            self.succeeded as f64 / self.last_completion_s
        }
    }
}

/// Self times of a ladder given its rung medians outermost-in: each rung
/// minus the rung below, the innermost rung kept whole, as measured (so a
/// self time may come out slightly negative). `Err` names the first pair in
/// which an inner layer timed slower than the layer that contains it by more
/// than `noise`, as a share of the inner rung: the ladder mis-measured.
pub fn ladder_self_times(rungs: &[(&str, f64)], noise: f64) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(rungs.len());
    for w in rungs.windows(2) {
        let ((outer, a), (inner, b)) = (w[0], w[1]);
        if a < b * (1.0 - noise) {
            return Err(format!(
                "ladder not monotone: {outer} = {a:.3} < {inner} = {b:.3}"
            ));
        }
        out.push(a - b);
    }
    if let Some(&(_, last)) = rungs.last() {
        out.push(last);
    }
    Ok(out)
}

/// FNV-1a 64 — the program-set hash printed by every run.
pub fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_or_zero(&mut []), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.9), 90.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_choice_needs_ten_samples_beyond() {
        // ~90 samples: p90 is rank 81, nine beyond -> falls back to p75
        assert_eq!(samples_beyond(90, 0.90), 9);
        assert_eq!(supported_tail(90), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(20), Some(0.50));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert!((range_share(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let plain = "4865 (e2e_perf) R 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(150));
        let nasty = "7 (a b) c) 1) S 1 2 3 4 5 6 7 8 9 10 5 6 0 0";
        assert_eq!(parse_stat_cpu_ticks(nasty), Some(11));
        assert_eq!(parse_stat_cpu_ticks("7 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn loadavg_parsing() {
        assert_eq!(parse_loadavg("0.09 0.39 0.59 2/86 4865\n"), Some(0.09));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // overlapping children are not double-counted
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 60)]), 50);
        // a child sticking out of the parent only counts inside it
        assert_eq!(self_time_ns((10, 20), &[(0, 15), (18, 30)]), 3);
        // a nested child changes nothing
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn window_counts_drained_tasks_and_excludes_failures() {
        let mut w = WindowTally::default();
        w.record(true, 1.0);
        w.record(true, 2.5); // drained after a 2.0 s deadline: still counted
        w.record(false, 9.0); // a failure neither counts nor stretches the window
        assert_eq!((w.attempted, w.succeeded, w.failed), (3, 2, 1));
        assert_eq!(w.tasks_per_s(), 2.0 / 2.5);
        assert_eq!(WindowTally::default().tasks_per_s(), 0.0);
    }

    #[test]
    fn ladder_monotonicity() {
        let rungs = [("A", 10.0), ("B", 7.0), ("C", 7.0), ("D", 2.0)];
        assert_eq!(
            ladder_self_times(&rungs, 0.0).unwrap(),
            vec![3.0, 0.0, 5.0, 2.0]
        );
        let err = ladder_self_times(&[("A", 10.0), ("B", 11.0)], 0.05).unwrap_err();
        assert!(err.contains("A") && err.contains("B"), "{err}");
        // inside the noise allowance the difference is reported as measured
        assert_eq!(
            ladder_self_times(&[("A", 10.0), ("B", 10.4)], 0.05).unwrap()[0],
            10.0 - 10.4
        );
        assert!(ladder_self_times(&[], 0.0).unwrap().is_empty());
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a 64 of "a"
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
