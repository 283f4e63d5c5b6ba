//! `pairs` — the paired verdict on interleaved parent/change `e2e_perf` runs.
//!
//! ```text
//! pairs PARENT CHANGE [--first parent|change] [--benchmark BENCHMARK.json]
//!       [--out PATH]
//! ```
//!
//! `PARENT` and `CHANGE` are files of `e2e_perf` result lines (the JSON
//! object a run prints last), one per run, in pair order: the i-th line of a
//! workload in each file is that workload's pair i. Each line names its
//! workload before the object (`tiny_loop {"correct": true, …}`). `--first`
//! names the side that ran first in pair 1 (default `parent`); the order
//! alternates after that.
//!
//! The end-to-end metrics, their directions and bounds come from
//! `BENCHMARK.json`, which is only read. For every workload × metric one
//! markdown row gives:
//! * each side's median [q1–q3] and the parent's (max − min) ÷ median;
//! * the median of the per-pair ratios change ÷ parent and its sign-test
//!   interval [r₍ₖ₎, r₍ₙ₊₁₋ₖ₎], k the largest with P[Bin(n, ½) ≤ k − 1] ≤
//!   0.025: the 2nd–9th ratio at n = 10, the 10th–21st at n = 30;
//! * wins out of n, and how often the run that went first in its pair read
//!   better (a run-order effect shows there);
//! * each side's failed ÷ attempted operations;
//! * the verdict against the bound b. Lower is better: *better* if hi < 1,
//!   *no worse* if hi ≤ 1 + b, *worse* if lo > 1 + b, else *unresolved*;
//!   higher is better mirrors it around 1 − b. Under six pairs no k
//!   qualifies, and the verdict is always *unresolved*.
//!
//! The kit's `Report` envelope goes to `--out` (default `BENCH_pairs.json`):
//! one case per workload, each metric's ratio as interval low / median /
//! interval high beside its win and first-better counts and each side's
//! failed share, and one claim per verdict, which holds unless the verdict
//! is *worse*. The exit status is 1 only on a *worse*.

use hpcqc_bench::{percentile, Case, Claim, HarnessArgs, Report, Stat};
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Better,
    NoWorse,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The paired reading of one workload × metric.
#[derive(Debug, PartialEq)]
struct Paired {
    n: usize,
    median: f64,
    lo: f64,
    hi: f64,
    wins: usize,
    /// Pairs whose first run read better than their second.
    first_better: usize,
    verdict: Verdict,
}

/// The largest k with P[Bin(n, ½) ≤ k − 1] ≤ 0.025, so that
/// [r₍ₖ₎, r₍ₙ₊₁₋ₖ₎] covers the median ratio with ≥ 95 %; 0 when none does.
fn sign_test_k(n: usize) -> usize {
    let (mut cdf, mut term) = (0.0, 0.5f64.powi(n as i32));
    let mut k = 0;
    for j in 0..n {
        cdf += term; // P[Bin(n, ½) ≤ j]
        if cdf > 0.025 {
            break;
        }
        k = j + 1;
        term *= (n - j) as f64 / (j + 1) as f64;
    }
    k
}

fn verdict(lo: f64, hi: f64, lower_is_better: bool, bound: f64) -> Verdict {
    let (better, no_worse, worse) = if lower_is_better {
        (hi < 1.0, hi <= 1.0 + bound, lo > 1.0 + bound)
    } else {
        (lo > 1.0, lo >= 1.0 - bound, hi < 1.0 - bound)
    };
    match (better, no_worse, worse) {
        (true, ..) => Verdict::Better,
        (_, true, _) => Verdict::NoWorse,
        (.., true) => Verdict::Worse,
        _ => Verdict::Unresolved,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of an ascending slice: the mean of the middle two at even n.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Pair `parent[i]` with `change[i]`; `parent_first` says whether the parent
/// ran first in pair 1.
fn paired(parent: &[f64], change: &[f64], parent_first: bool, m: &Metric) -> Paired {
    let n = parent.len();
    let better = |a: f64, b: f64| if m.lower_is_better { a < b } else { a > b };
    let wins = (0..n).filter(|&i| better(change[i], parent[i])).count();
    let first_better = (0..n)
        .filter(|&i| match parent_first == (i % 2 == 0) {
            true => better(parent[i], change[i]),
            false => better(change[i], parent[i]),
        })
        .count();
    let ratios = sorted(&(0..n).map(|i| change[i] / parent[i]).collect::<Vec<_>>());
    let k = sign_test_k(n);
    let (lo, hi) = match k {
        0 => (ratios[0], ratios[n - 1]),
        k => (ratios[k - 1], ratios[n - k]),
    };
    Paired {
        n,
        median: median(&ratios),
        lo,
        hi,
        wins,
        first_better,
        verdict: match k {
            0 => Verdict::Unresolved,
            _ => verdict(lo, hi, m.lower_is_better, m.bound),
        },
    }
}

/// The runs in `text` by workload, in file order.
fn read_runs(text: &str) -> Result<BTreeMap<String, Vec<Value>>, String> {
    let mut runs: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for (i, line) in text.lines().map(str::trim).enumerate() {
        if line.is_empty() {
            continue;
        }
        let (name, json) = line
            .split_once(' ')
            .filter(|(name, _)| !name.starts_with('{'))
            .ok_or(format!("line {}: no workload name", i + 1))?;
        let run = serde_json::from_str(json).map_err(|e| format!("line {}: {e}", i + 1))?;
        runs.entry(name.to_string()).or_default().push(run);
    }
    Ok(runs)
}

fn metric_values(runs: &[Value], metric: &str) -> Result<Vec<f64>, String> {
    let value = |r: &Value| r["metrics"][metric]["value"].as_f64();
    runs.iter()
        .map(|r| value(r).ok_or(format!("a run has no {metric}")))
        .collect()
}

/// Failed ÷ attempted operations over one side's runs.
fn failed_share(runs: &[Value]) -> f64 {
    let sum = |key: &str| runs.iter().filter_map(|r| r[key].as_f64()).sum::<f64>();
    sum("failed") / sum("attempted").max(1.0)
}

fn num(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// `median [q1–q3]` of one side's ascending values.
fn side(s: &[f64]) -> String {
    let q = |p: f64| num(percentile(s, p));
    format!("{} [{}–{}]", num(median(s)), q(0.25), q(0.75))
}

fn point(unit: &str, v: f64) -> Stat {
    Stat {
        unit: unit.to_string(),
        min: v,
        median: v,
        max: v,
    }
}

const HEADER: &str = "| workload | metric (bound) | parent median [q1–q3] \
| change median [q1–q3] | change vs parent | parent (max − min) ÷ median \
| paired ratio [interval] | wins | first of pair better | failed, parent / change \
| verdict |\n|---|---|---|---|---|---|---|---|---|---|---|";

/// Read both files against `BENCHMARK.json`: the report and the table.
fn compare(args: &HarnessArgs) -> Result<(Report, String), String> {
    let (mut files, mut first) = (Vec::new(), "parent".to_string());
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut flags = args.flags.iter();
    while let Some(flag) = flags.next() {
        let mut value = || flags.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--first" => first = value()?,
            "--benchmark" => benchmark = value()?,
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            f => files.push(f.to_string()),
        }
    }
    let parent_first = match first.as_str() {
        "parent" => true,
        "change" => false,
        f => return Err(format!("--first must be parent or change, got {f}")),
    };
    let [parent, change] = files.as_slice() else {
        return Err("usage: pairs PARENT CHANGE [--first parent|change] \
                    [--benchmark BENCHMARK.json] [--out PATH]"
            .into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let parent = read_runs(&read(parent)?)?;
    let change = read_runs(&read(change)?)?;
    let declared: Value =
        serde_json::from_str(&read(&benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?;
    let metrics: Vec<Metric> = declared["end_to_end"]
        .as_array()
        .ok_or(format!("{benchmark}: no end_to_end metrics"))?
        .iter()
        .map(|m| Metric {
            name: m["name"].as_str().unwrap_or_default().to_string(),
            lower_is_better: m["better"].as_str() == Some("lower"),
            bound: m["bound"].as_f64().unwrap_or(0.0),
        })
        .collect();

    let mut report = Report::new("pairs", args);
    let mut table = HEADER.to_string();
    for (w, p_runs) in &parent {
        let c_runs = change.get(w).map_or(&[][..], Vec::as_slice);
        if p_runs.len() != c_runs.len() {
            let (p, c) = (p_runs.len(), c_runs.len());
            return Err(format!("{w}: {p} parent runs against {c} change runs"));
        }
        let failed = [failed_share(p_runs), failed_share(c_runs)];
        let mut stats = BTreeMap::new();
        for m in &metrics {
            let (p, c) = (
                metric_values(p_runs, &m.name)?,
                metric_values(c_runs, &m.name)?,
            );
            let r = paired(&p, &c, parent_first, m);
            let (p, c) = (sorted(&p), sorted(&c));
            let ratio = format!("{:.3} [{:.3}–{:.3}]", r.median, r.lo, r.hi);
            table.push_str(&format!(
                "\n| `{w}` | `{}` ({}) | {} | {} | {:+.1} % | {:.2} | {ratio} | {}/{n} | {}/{n} \
                 | {:.4} / {:.4} | {} |",
                m.name,
                m.bound,
                side(&p),
                side(&c),
                100.0 * (median(&c) / median(&p) - 1.0),
                (p[r.n - 1] - p[0]) / median(&p),
                r.wins,
                r.first_better,
                failed[0],
                failed[1],
                r.verdict.as_str(),
                n = r.n,
            ));
            let ratio_stat = Stat {
                unit: "ratio".into(),
                min: r.lo,
                median: r.median,
                max: r.hi,
            };
            stats.insert(m.name.clone(), ratio_stat);
            stats.insert(format!("{}.wins", m.name), point("count", r.wins as f64));
            let first_better = point("count", r.first_better as f64);
            stats.insert(format!("{}.first_better", m.name), first_better);
            report.claims.push(Claim::new(
                &format!("{w} {}: {}", m.name, r.verdict.as_str()),
                r.verdict != Verdict::Worse,
                format!("ratio {ratio}, {}/{} wins, bound {}", r.wins, r.n, m.bound),
            ));
        }
        stats.insert("failed_share.parent".into(), point("ratio", failed[0]));
        stats.insert("failed_share.change".into(), point("ratio", failed[1]));
        report.runs = p_runs.len();
        report.cases.push(Case {
            name: w.clone(),
            params: serde_json::json!({ "pairs": p_runs.len(), "first": first }),
            metrics: stats,
        });
    }
    Ok((report, table))
}

fn main() {
    let args = HarnessArgs::from_env();
    match compare(&args) {
        Ok((report, table)) => {
            println!("{table}\n");
            report.finish(&args.out_path("pairs"));
        }
        Err(e) => {
            eprintln!("pairs: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // EXPERIMENTS PM-2, series 2: every run's `ttr_p50_ms`, parent first in
    // pair 1, as published (three decimals).
    const TINY_PARENT: [f64; 10] = [
        0.893, 0.909, 0.863, 0.900, 0.936, 0.939, 0.906, 1.086, 1.112, 0.985,
    ];
    const TINY_CHANGE: [f64; 10] = [
        0.919, 0.952, 0.928, 0.896, 0.975, 0.892, 0.917, 0.958, 0.931, 0.882,
    ];
    const BIN_PARENT: [f64; 10] = [
        2.020, 1.927, 1.931, 2.074, 2.014, 2.054, 2.231, 2.441, 2.051, 1.946,
    ];
    const BIN_CHANGE: [f64; 10] = [
        1.924, 1.895, 1.882, 1.971, 1.964, 2.087, 2.232, 2.329, 2.053, 2.013,
    ];

    fn metric(lower_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            lower_is_better,
            bound: 0.1,
        }
    }

    fn reading(r: &Paired) -> (String, usize, Verdict) {
        let ratio = format!("{:.3} [{:.3}–{:.3}]", r.median, r.lo, r.hi);
        (ratio, r.wins, r.verdict)
    }

    #[test]
    fn published_pm2_runs_read_no_worse_on_both_loops() {
        let tiny = paired(&TINY_PARENT, &TINY_CHANGE, true, &metric(true));
        let want = ("1.004 [0.882–1.047]".to_string(), 5, Verdict::NoWorse);
        assert_eq!(reading(&tiny), want);
        let bin = paired(&BIN_PARENT, &BIN_CHANGE, true, &metric(true));
        let want = ("0.979 [0.952–1.016]".to_string(), 6, Verdict::NoWorse);
        assert_eq!(reading(&bin), want);
    }

    #[test]
    fn the_interval_is_the_sign_test_order_statistic() {
        assert_eq!(sign_test_k(10), 2, "2nd–9th of 10");
        assert_eq!(sign_test_k(30), 10, "10th–21st of 30");
        assert_eq!(sign_test_k(5), 0, "no interval under six pairs");
        let few = paired(&[1.0; 5], &[0.5; 5], true, &metric(true));
        assert_eq!(few.verdict, Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_mirrors_around_one_minus_the_bound() {
        use Verdict::*;
        for (lo, hi, want) in [
            (0.90, 0.99, Better),
            (0.95, 1.08, NoWorse),
            (1.12, 1.30, Worse),
            (1.05, 1.15, Unresolved),
        ] {
            assert_eq!(verdict(lo, hi, true, 0.1), want, "{lo}–{hi}");
            assert_eq!(verdict(2.0 - hi, 2.0 - lo, false, 0.1), want, "{lo}–{hi}");
        }
    }

    #[test]
    fn first_of_pair_alternates_and_lines_carry_their_workload() {
        let text = "tiny_loop {\"failed\": 1, \"attempted\": 4}\n\nbin_loop {}\n";
        let runs = read_runs(text).unwrap();
        assert_eq!((runs["tiny_loop"].len(), runs["bin_loop"].len()), (1, 1));
        assert_eq!(failed_share(&runs["tiny_loop"]), 0.25);
        assert!(read_runs("{}").is_err(), "a line names its workload");
        // pair 1: the parent runs first and reads better; pair 2: the
        // change runs first and reads better
        let r = paired(&[1.0, 1.0], &[2.0, 0.5], true, &metric(true));
        assert_eq!((r.wins, r.first_better), (1, 2));
        let r = paired(&[1.0, 1.0], &[2.0, 0.5], false, &metric(true));
        assert_eq!((r.wins, r.first_better), (1, 0));
    }
}
