//! Shared utilities for the experiment harnesses.
//!
//! Each paper artifact (Table 1, Figure 1, Figure 2, the §2.5/§3.6
//! observability claims) has a binary in `src/bin/` that regenerates it and
//! prints the rows EXPERIMENTS.md records; each layer of the stack has a
//! `*_perf` binary that writes a `BENCH_*.json`. This library is what they
//! share: the CLI ([`HarnessArgs`]), seeded statistics and table rendering,
//! the stub daemon the control-plane harnesses drive ([`InstantResource`],
//! [`instant_daemon`], [`drive_fleet`]) and the one report shape every
//! `BENCH_*.json` has ([`Report`]).

use hpcqc_emulator::{Emulator, SampleResult, SvBackend};
use hpcqc_middleware::{DaemonConfig, JournalConfig, MiddlewareService, PriorityClass};
use hpcqc_program::{DeviceSpec, ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qrmi::{AcquisitionToken, QrmiError, QuantumResource, ResourceType, TaskId, TaskStatus};
use hpcqc_scheduler::PatternHint;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Mean and sample standard deviation.
pub fn mean_sd(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Nearest-rank percentile: `p` in [0, 1] over an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// `mean±sd` with fixed precision.
pub fn fmt_pm(xs: &[f64], precision: usize) -> String {
    let (m, s) = mean_sd(xs);
    format!("{m:.precision$}±{s:.precision$}")
}

/// Render a fixed-width table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Harness CLI: `--quick` shrinks the experiment for smoke testing;
/// `--seeds N` overrides the seed (and report run) count; `--out PATH` says
/// where a `*_perf` harness writes its report.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    pub quick: bool,
    pub seeds: usize,
    /// `--out PATH` when given; [`Self::out_path`] resolves the default.
    pub out: Option<String>,
    /// Extra flags (experiment-specific).
    pub flags: Vec<String>,
}

impl HarnessArgs {
    /// Parse from an iterator of arguments (without the binary name). A
    /// `--seeds` or `--out` without a usable value is an error: falling back
    /// to the default would run something other than what was asked for.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<HarnessArgs, String> {
        let mut quick = false;
        let mut seeds = None;
        let mut out = None;
        let mut flags = Vec::new();
        let mut iter = args.into_iter();
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--seeds" => {
                    let v = iter.next().unwrap_or_default();
                    let n = v.parse().ok().filter(|&n: &usize| n >= 1);
                    seeds =
                        Some(n.ok_or(format!("--seeds must be a positive integer, got {v:?}"))?);
                }
                "--out" => {
                    let v = iter
                        .next()
                        .filter(|v| !v.is_empty() && !v.starts_with("--"));
                    out = Some(v.ok_or("--out needs a path")?);
                }
                other => flags.push(other.to_string()),
            }
        }
        Ok(HarnessArgs {
            quick,
            seeds: seeds.unwrap_or(if quick { 2 } else { 5 }),
            out,
            flags,
        })
    }

    /// Parse from the process arguments; exits 2 on a malformed flag.
    pub fn from_env() -> HarnessArgs {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Scale a count down in quick mode.
    pub fn scaled(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Where the report goes: `--out`, else `BENCH_<stem>.json` — in quick
    /// mode `BENCH_<stem>_quick.json`, so a smoke run never overwrites the
    /// checked-in full-mode file.
    pub fn out_path(&self, stem: &str) -> String {
        let quick = if self.quick { "_quick" } else { "" };
        self.out
            .clone()
            .unwrap_or_else(|| format!("BENCH_{stem}{quick}.json"))
    }
}

/// A QRMI resource that completes every task instantly and statelessly: the
/// task id carries the shot count, status is always `Completed`, and the
/// result is deterministic. Zero device time, zero contention — every cycle
/// a harness observes belongs to the layers above the device.
pub struct InstantResource {
    spec: DeviceSpec,
}

impl Default for InstantResource {
    fn default() -> Self {
        InstantResource {
            spec: SvBackend::default().spec(),
        }
    }
}

impl QuantumResource for InstantResource {
    fn resource_id(&self) -> &str {
        "instant-qpu"
    }

    fn resource_type(&self) -> ResourceType {
        ResourceType::QpuDirect
    }

    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        Ok(AcquisitionToken("instant-lease".into()))
    }

    fn release(&self, _token: &AcquisitionToken) -> Result<(), QrmiError> {
        Ok(())
    }

    fn target(&self) -> Result<DeviceSpec, QrmiError> {
        Ok(self.spec.clone())
    }

    fn task_start(&self, _token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError> {
        Ok(TaskId(format!("instant:{}", ir.shots)))
    }

    fn task_status(&self, _task: &TaskId) -> Result<TaskStatus, QrmiError> {
        Ok(TaskStatus::Completed)
    }

    fn task_stop(&self, _task: &TaskId) -> Result<(), QrmiError> {
        Ok(())
    }

    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        let shots: usize = task
            .0
            .strip_prefix("instant:")
            .and_then(|s| s.parse().ok())
            .ok_or(QrmiError::UnknownTask)?;
        Ok(SampleResult::from_shots(2, &vec![0u64; shots], "instant"))
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        BTreeMap::from([("vendor".into(), "bench".into())])
    }
}

/// The two-atom, one-pulse program every control-plane harness submits.
pub fn bench_program(shots: u32) -> ProgramIr {
    let reg = Register::linear(2, 6.0).expect("valid register");
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).expect("valid pulse"));
    ProgramIr::new(b.build().expect("valid sequence"), shots, "bench")
}

/// The daemon configuration of every harness whose subject is the control
/// plane or the wire: no validation/analysis per submit, and a
/// production-style group-commit window when a journal is on.
pub fn bench_daemon_config() -> DaemonConfig {
    DaemonConfig {
        validate_on_submit: false,
        analyze_on_submit: false,
        journal: JournalConfig {
            fsync_every: 64,
            group_max_records: 64,
            compact_every: 0,
        },
        ..DaemonConfig::default()
    }
}

/// A daemon over an [`InstantResource`]: journaled in `journal_dir`, or
/// in-memory when `None`.
pub fn instant_daemon(journal_dir: Option<&Path>) -> MiddlewareService {
    let (resource, cfg) = (Arc::new(InstantResource::default()), bench_daemon_config());
    match journal_dir {
        Some(dir) => MiddlewareService::recover(dir, resource, cfg).expect("daemon recovers"),
        None => MiddlewareService::new(resource, cfg),
    }
}

/// A fresh directory under the system temp dir, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("hpcqc-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one [`drive_fleet`] measured.
pub struct FleetRun {
    /// First submit → last task completed, seconds.
    pub wall_secs: f64,
    /// Every submit's latency in µs, ascending.
    pub submit_lat_us: Vec<f64>,
}

/// `sessions` concurrent production sessions each submit `per_session`
/// [`bench_program`]s while one dispatcher races them, as in the deployed
/// daemon; returns once the queue is drained. Panics unless every submitted
/// task was dispatched exactly once.
pub fn drive_fleet(svc: &MiddlewareService, sessions: usize, per_session: usize) -> FleetRun {
    let tokens: Vec<String> = (0..sessions)
        .map(|u| {
            svc.open_session(&format!("user-{u}"), PriorityClass::Production)
                .expect("session opens")
        })
        .collect();
    let ir = bench_program(8);
    // Release/Acquire: the dispatcher must see every submit that preceded
    // the flag before it trusts an empty queue.
    let done_submitting = AtomicBool::new(false);

    let t0 = Instant::now();
    let (executed, mut submit_lat_us) = std::thread::scope(|s| {
        let dispatcher = s.spawn(|| {
            let mut executed = 0;
            loop {
                let n = svc.pump_batch(16);
                executed += n;
                if n == 0 {
                    if done_submitting.load(Ordering::Acquire) && svc.queue_depth() == 0 {
                        break executed;
                    }
                    std::thread::yield_now();
                }
            }
        });
        let submitters: Vec<_> = tokens
            .iter()
            .map(|tok| {
                let ir = &ir;
                s.spawn(move || {
                    let mut lat_us = Vec::with_capacity(per_session);
                    for _ in 0..per_session {
                        let program = ir.clone();
                        let t = Instant::now();
                        svc.submit(tok, program, PatternHint::None)
                            .expect("submit succeeds");
                        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    lat_us
                })
            })
            .collect();
        let lat_us: Vec<f64> = submitters
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect();
        done_submitting.store(true, Ordering::Release);
        (dispatcher.join().expect("dispatcher thread"), lat_us)
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    assert_eq!(
        executed,
        sessions * per_session,
        "every submitted task must be dispatched exactly once"
    );
    submit_lat_us.sort_by(f64::total_cmp);
    FleetRun {
        wall_secs,
        submit_lat_us,
    }
}

/// One metric of one run, as a case's closure reports it: name, unit, value.
pub type Sample = (&'static str, &'static str, f64);

/// A metric folded over a case's runs. A timing or a rate must come out
/// finite and positive; a tally (`unit == "count"`: errors, reconnects) may
/// be zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stat {
    pub unit: String,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Stat {
    fn fold(unit: &str, mut values: Vec<f64>) -> Stat {
        values.sort_by(f64::total_cmp);
        let n = values.len();
        Stat {
            unit: unit.to_string(),
            min: values[0],
            median: (values[(n - 1) / 2] + values[n / 2]) / 2.0,
            max: values[n - 1],
        }
    }

    fn passes_gate(&self) -> bool {
        let floor_ok = if self.unit == "count" {
            self.min >= 0.0
        } else {
            self.min > 0.0
        };
        floor_ok
            && [self.min, self.median, self.max]
                .iter()
                .all(|v| v.is_finite())
    }
}

/// One measured configuration of a harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Case {
    pub name: String,
    /// What was fixed for every run of the case (sizes, codec, …).
    pub params: serde_json::Value,
    pub metrics: BTreeMap<String, Stat>,
}

/// The one shape of every `BENCH_*.json`: which harness, on which commit and
/// machine, and each case's metrics as min/median/max over `runs` runs —
/// a number from this runner counts only with its cross-run range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    pub harness: String,
    /// `git rev-parse --short HEAD` where the harness ran.
    pub commit: String,
    pub cores: usize,
    pub quick: bool,
    pub runs: usize,
    pub unix_time_secs: u64,
    pub cases: Vec<Case>,
}

impl Report {
    pub fn new(harness: &str, args: &HarnessArgs) -> Report {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or("unknown".to_string(), |s| s.trim().to_string());
        Report {
            harness: harness.to_string(),
            commit,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            quick: args.quick,
            runs: args.seeds,
            unix_time_secs: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            cases: Vec::new(),
        }
    }

    /// Measure one case: `run(i)` is called once per run and returns that
    /// run's metrics (the same set every time), which are folded into
    /// min/median/max.
    pub fn case(
        &mut self,
        name: &str,
        params: serde_json::Value,
        mut run: impl FnMut(usize) -> Vec<Sample>,
    ) {
        let mut folded: BTreeMap<&str, (&str, Vec<f64>)> = BTreeMap::new();
        for i in 0..self.runs {
            eprintln!("{}: {name}, run {}/{} ...", self.harness, i + 1, self.runs);
            for (metric, unit, v) in run(i) {
                folded.entry(metric).or_insert((unit, Vec::new())).1.push(v);
            }
        }
        let metrics = folded
            .into_iter()
            .map(|(metric, (unit, values))| {
                assert_eq!(
                    values.len(),
                    self.runs,
                    "{name}: {metric} missing from a run"
                );
                (metric.to_string(), Stat::fold(unit, values))
            })
            .collect();
        self.cases.push(Case {
            name: name.to_string(),
            params,
            metrics,
        });
    }

    /// Every metric must be finite and — tallies aside — positive: NaN or 0
    /// means a broken clock, an empty sample set or a kernel that did
    /// nothing. The error names each offending case and metric.
    pub fn gate(&self) -> Result<(), String> {
        let bad: Vec<String> = self
            .cases
            .iter()
            .flat_map(|c| c.metrics.iter().map(move |(m, s)| (c, m, s)))
            .filter(|(_, _, s)| !s.passes_gate())
            .map(|(c, m, s)| {
                format!(
                    "non-finite or non-positive measurement: {} {m} = {}/{}/{} {}",
                    c.name, s.min, s.median, s.max, s.unit
                )
            })
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.join("\n"))
        }
    }

    /// One row per case and metric: min / median / max over the runs.
    pub fn table(&self) -> String {
        let fmt = |v: f64| match v.abs() {
            a if a >= 100.0 || v.fract() == 0.0 => format!("{v:.0}"),
            a if a >= 1.0 => format!("{v:.2}"),
            _ => format!("{v:.4}"),
        };
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .flat_map(|c| {
                c.metrics.iter().map(move |(m, s)| {
                    let mut row = vec![c.name.clone(), m.clone(), s.unit.clone()];
                    row.extend([s.min, s.median, s.max].map(fmt));
                    row
                })
            })
            .collect();
        render_table(&["case", "metric", "unit", "min", "median", "max"], &rows)
    }

    /// Gate (exit 1 on failure), print the table, write the JSON to `out`.
    pub fn finish(&self, out: &str) {
        if let Err(e) = self.gate() {
            eprintln!("{e}");
            std::process::exit(1);
        }
        println!(
            "{} @ {}, {} run(s) per case",
            self.harness, self.commit, self.runs
        );
        println!("{}", self.table());
        let json = serde_json::to_string_pretty(self).expect("report serializes");
        std::fs::write(out, json + "\n").expect("write report");
        eprintln!("wrote {out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_sd_basics() {
        let (m, s) = mean_sd(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.138089935).abs() < 1e-6, "sample sd, got {s}");
        assert_eq!(mean_sd(&[]), (0.0, 0.0));
        assert_eq!(mean_sd(&[3.0]), (3.0, 0.0));
    }

    #[test]
    fn fmt_pm_renders() {
        assert_eq!(fmt_pm(&[1.0, 1.0], 2), "1.00±0.00");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["policy", "util"],
            &[
                vec!["fifo".into(), "0.42".into()],
                vec!["pattern-aware".into(), "0.91".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("policy"));
        assert!(lines[2].starts_with("fifo"));
        assert!(lines[3].starts_with("pattern-aware"));
        let col = lines[0].find("util").unwrap();
        assert_eq!(&lines[2][col..col + 4], "0.42");
    }

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_parse() {
        let a = parse(&["--quick", "--gres"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.seeds, 2);
        assert_eq!(a.flags, vec!["--gres".to_string()]);
        let b = parse(&["--seeds", "9"]).unwrap();
        assert!(!b.quick);
        assert_eq!(b.seeds, 9);
        assert_eq!(b.scaled(100, 5), 100);
        assert_eq!(a.scaled(100, 5), 5);
    }

    #[test]
    fn quick_runs_do_not_default_to_the_checked_in_report() {
        assert_eq!(parse(&[]).unwrap().out_path("daemon"), "BENCH_daemon.json");
        assert_eq!(
            parse(&["--quick"]).unwrap().out_path("daemon"),
            "BENCH_daemon_quick.json"
        );
        let explicit = parse(&["--quick", "--out", "x.json", "--codec", "json"]).unwrap();
        assert_eq!(explicit.out_path("daemon"), "x.json");
        assert_eq!(explicit.flags, ["--codec", "json"]);
        for bad in [
            &["--seeds", "x"][..],
            &["--seeds", "0"],
            &["--seeds"],
            &["--out"],
            &["--out", "--quick"],
        ] {
            let err = parse(bad).expect_err("unusable value must not fall back to a default");
            assert!(err.contains(bad[0]), "{err}");
        }
    }

    fn report_with_runs(runs: usize) -> Report {
        Report::new("kit_test", &parse(&["--seeds", &runs.to_string()]).unwrap())
    }

    #[test]
    fn report_folds_runs_and_round_trips() {
        // Out-of-order values: the fold sorts. Odd N takes the middle run,
        // even N the mean of the two middle runs.
        let values = [5.0, 1.0, 4.0, 2.0];
        for (runs, median) in [(3, 4.0), (4, 3.0)] {
            let mut report = report_with_runs(runs);
            report.case("c", serde_json::json!({ "n": 8 }), |run| {
                vec![("t_ms", "ms", values[run]), ("errors", "count", 0.0)]
            });
            let t = &report.cases[0].metrics["t_ms"];
            assert_eq!((t.min, t.median, t.max), (1.0, median, 5.0), "{runs} runs");
            assert_eq!(t.unit, "ms");
            assert_eq!(report.runs, runs);
            assert!(!report.commit.is_empty());
            report.gate().expect("a zero tally passes the gate");

            let json = serde_json::to_string_pretty(&report).unwrap();
            let back: Report = serde_json::from_str(&json).unwrap();
            assert_eq!(back, report);
        }
    }

    #[test]
    fn gate_names_the_case_and_metric_it_rejects() {
        for bad in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let mut report = report_with_runs(2);
            report.case("fine", serde_json::json!(null), |_| {
                vec![("ok_ms", "ms", 1.0)]
            });
            report.case("broken", serde_json::json!(null), |run| {
                vec![("t_ms", "ms", if run == 1 { bad } else { 1.0 })]
            });
            let err = report.gate().expect_err("gate must reject");
            assert!(err.contains("broken t_ms"), "{bad}: {err}");
            assert!(!err.contains("ok_ms"), "{bad}: {err}");
        }
        let mut report = report_with_runs(1);
        report.case("c", serde_json::json!(null), |_| {
            vec![("errors", "count", -1.0)]
        });
        assert!(report.gate().is_err(), "a tally may be zero, not negative");
    }

    #[test]
    fn instant_resource_runs_to_completion() {
        let res = InstantResource::default();
        let tok = res.acquire().unwrap();
        let out = hpcqc_qrmi::run_to_completion(&res, &tok, &bench_program(37), 1).unwrap();
        assert_eq!(out.shots, 37);
        res.release(&tok).unwrap();
    }

    #[test]
    fn drive_fleet_dispatches_every_task() {
        let svc = instant_daemon(None);
        let fleet = drive_fleet(&svc, 4, 20);
        assert_eq!(fleet.submit_lat_us.len(), 80);
        assert!(fleet.submit_lat_us.windows(2).all(|w| w[0] <= w[1]));
        assert!(fleet.wall_secs > 0.0);
        assert_eq!(svc.queue_depth(), 0);
    }

    /// What keeps a fifth report shape from appearing: the four checked-in
    /// baselines are full-mode runs of the one envelope.
    #[test]
    fn checked_in_reports_parse_as_the_envelope() {
        for stem in ["daemon", "emulator", "replication", "rest"] {
            let path = format!("{}/../../BENCH_{stem}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let report: Report =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(!report.quick, "{path} must be a full-mode run");
            assert!(report.runs >= 3, "{path}: {} runs", report.runs);
            assert!(!report.commit.is_empty(), "{path}");
            assert!(!report.cases.is_empty(), "{path}");
            report.gate().unwrap_or_else(|e| panic!("{path}: {e}"));
        }
    }
}
