//! `e2e_perf` — the repo's one end-to-end benchmark. Five closed-loop
//! workloads through SDK → gateway → event-loop REST → journaled daemon →
//! dispatcher → QRMI → emulator → status poll → result fetch, three
//! end-to-end metrics per workload, and a traced run that says where the
//! time went. README.md in this directory defines every name used here.
//!
//! ```text
//! e2e_perf --workload W --seed N --seconds S --trace 0|1    one run, result as the last line
//! e2e_perf run    [--workload W] [--seed N] [--seconds S] [--quick]
//! e2e_perf trace  [--workload W] [--seed N] [--seconds S] [--quick]
//! e2e_perf repeat [N] [--seed N] [--seconds S] [--quick]
//! ```
//!
//! The first form is what `BENCHMARK.json` runs. The other three run each
//! workload in a fresh child process of that form, so allocator and daemon
//! state never carry over from one workload to the next.

mod gen;
mod ladder;
mod measure;
mod stack;
mod stats;
mod trace;
mod window;
mod workloads;

use measure::{bound, Error, Options, Outcome, END_TO_END};
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Window of the suite commands when `--seconds` is not given, and with
/// `--quick`.
const DEFAULT_SECONDS: f64 = 30.0;
const QUICK_SECONDS: f64 = 3.0;
/// How long a suite's child waits for the box to calm down. The one-run
/// form does not wait: its caller's time cap has no room for it.
const SUITE_SETTLE_S: f64 = 30.0;

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    /// One workload in this process.
    One,
    Run,
    Trace,
    Repeat(usize),
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    settle_s: Option<f64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::One,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        settle_s: None,
    };
    let mut it = argv.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => args.mode = Mode::Run,
        Some("trace") => args.mode = Mode::Trace,
        Some("repeat") => args.mode = Mode::Repeat(5),
        _ => {}
    }
    if args.mode != Mode::One {
        it.next();
    }
    if let (Mode::Repeat(_), Some(n)) = (&args.mode, it.peek().and_then(|s| s.parse().ok())) {
        args.mode = Mode::Repeat(n);
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = parse(value("a number")?, flag)?,
            "--seconds" => args.seconds = Some(parse(value("a number")?, flag)?),
            "--settle" => args.settle_s = Some(parse(value("a number")?, flag)?),
            "--trace" => args.trace = parse::<u8>(value("0 or 1")?, flag)? != 0,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s < 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if args.mode == Mode::One && args.workload.is_none() {
        return Err("--workload is required (or use run / trace / repeat)".into());
    }
    if args.mode == Mode::Repeat(0) {
        return Err("repeat needs at least one suite".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}"))
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// The result line: one JSON object, the last line of standard output.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn run_one(args: &Args) -> Result<ExitCode, Error> {
    let outcome = measure::run(&Options {
        workload: args.workload.expect("checked by parse_args"),
        seed: args.seed,
        seconds: args.seconds(),
        traced: args.trace,
        quick: args.quick,
        settle_s: args.settle_s.unwrap_or(0.0),
    })?;
    println!("{}", result_line(&outcome));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload in a fresh child process; its report is passed through and
/// its result line parsed back.
fn child(args: &Args, w: Workload, traced: bool) -> Result<serde_json::Value, Error> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args([
            "--settle",
            &args.settle_s.unwrap_or(SUITE_SETTLE_S).to_string(),
        ]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    let result: serde_json::Value = serde_json::from_str(line)
        .map_err(|e| format!("{}: no result line ({e}); exit {}", w.name(), out.status))?;
    if !out.status.success() || result["correct"].as_bool() != Some(true) {
        return Err(format!("{}: failed operations, see above: {line}", w.name()).into());
    }
    Ok(result)
}

fn suite_workloads(args: &Args) -> Vec<Workload> {
    args.workload.map_or(workloads::ALL.to_vec(), |w| vec![w])
}

fn run_suite(args: &Args, traced: bool) -> Result<ExitCode, Error> {
    for w in suite_workloads(args) {
        child(args, w, traced)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `repeat N`: N suites back to back; min / median / max and
/// (max − min) ÷ median of every (workload, end-to-end metric). A spread
/// beyond the metric's bound fails the command when the workload is one
/// `BENCHMARK.json` gates; the other workloads are reported.
fn run_repeat(args: &Args, n: usize) -> Result<ExitCode, Error> {
    let workloads = suite_workloads(args);
    // values[workload][metric] = one value per suite
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
    for suite in 0..n {
        println!("=== suite {} of {n}", suite + 1);
        for (wi, &w) in workloads.iter().enumerate() {
            let result = child(args, w, false)?;
            for (mi, (name, ..)) in END_TO_END.iter().enumerate() {
                let v = result["metrics"][*name]["value"]
                    .as_f64()
                    .ok_or_else(|| format!("{}: {name} missing", w.name()))?;
                values[wi][mi].push(v);
            }
        }
    }
    println!(
        "=== {n} suites, seed {}, comparable={}",
        args.seed, !args.quick
    );
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6} {:<8}  values",
        "workload", "metric", "min", "median", "max", "spread", "iqr", "bound", "gated"
    );
    let mut steady = true;
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, &(name, _)) in END_TO_END.iter().enumerate() {
            let vs = &values[wi][mi];
            let mut sorted = vs.clone();
            let med = stats::median(&mut sorted);
            let spread = stats::range_share(vs);
            let within = spread <= bound(name);
            steady &= within || !w.gated();
            // (Q3 − Q1) ÷ median, the benchmark driver's own steadiness measure
            let iqr = if vs.len() >= 2 {
                stats::iqr_share(vs)
            } else {
                0.0
            };
            println!(
                "{:<12} {:<12} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>6.2} {:<8}  {:?}{}",
                w.name(),
                name,
                sorted[0],
                med,
                sorted[sorted.len() - 1],
                spread,
                iqr,
                bound(name),
                if w.gated() { "gated" } else { "reported" },
                vs,
                if within { "" } else { "  SPREAD EXCEEDS BOUND" },
            );
        }
    }
    Ok(if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_perf: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match args.mode {
        Mode::One => run_one(&args),
        Mode::Run => run_suite(&args, false),
        Mode::Trace => run_suite(&args, true),
        Mode::Repeat(n) => run_repeat(&args, n),
    };
    done.unwrap_or_else(|e| {
        eprintln!("e2e_perf: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_form_parses() {
        let a = parse_args(&argv(
            "--workload tiny_loop --seed 9 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::One);
        assert_eq!(a.workload, Some(Workload::TinyLoop));
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(20.0), true));
        assert!(parse_args(&argv("--seed 9")).is_err(), "workload required");
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload tiny_loop --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload tiny_loop --bogus")).is_err());
    }

    #[test]
    fn suite_forms_parse() {
        assert_eq!(parse_args(&argv("run")).unwrap().mode, Mode::Run);
        assert_eq!(
            parse_args(&argv("trace --quick")).unwrap().seconds(),
            QUICK_SECONDS
        );
        assert_eq!(parse_args(&argv("repeat")).unwrap().mode, Mode::Repeat(5));
        let r = parse_args(&argv("repeat 3 --seed 7")).unwrap();
        assert_eq!((r.mode, r.seed), (Mode::Repeat(3), 7));
        assert!(parse_args(&argv("repeat 0")).is_err());
    }

    fn repo_file(name: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// `BENCHMARK.json` is the contract; the tables in `measure.rs` and
    /// `Workload::gated` are what the program reports. They must agree.
    #[test]
    fn benchmark_json_declares_what_the_program_reports() {
        let b: serde_json::Value = serde_json::from_str(&repo_file("BENCHMARK.json")).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            b[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m[field].as_str().unwrap().to_string())
                .collect()
        };
        let gated: Vec<&str> = workloads::ALL
            .iter()
            .filter(|w| w.gated())
            .map(|w| w.name())
            .collect();
        assert_eq!(names("workloads", "name"), gated);
        assert_eq!(b["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &measure::PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .collect();
            let reported: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, reported, "{key}");
        }
        for m in b["end_to_end"].as_array().unwrap() {
            assert_eq!(
                m["bound"].as_f64(),
                Some(bound(m["name"].as_str().unwrap()))
            );
        }
    }

    /// The package cannot inherit the root workspace's profile (it is not a
    /// member), so it copies it; the copy must not drift from what `hpcqcd`
    /// is built with.
    #[test]
    fn release_profile_is_the_root_workspaces() {
        fn release_profile(manifest: &str) -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .map(|l| l.split('#').next().unwrap().trim().to_string())
                .filter(|l| !l.is_empty())
                .collect()
        }
        let root = release_profile(&repo_file("Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(release_profile(&repo_file("e2e_perf/Cargo.toml")), root);
    }

    #[test]
    fn result_line_is_one_json_object_with_exactly_four_keys() {
        let line = result_line(&Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![measure::Metric {
                name: "ttr_p50_ms",
                unit: "ms",
                value: 1.25,
            }],
        });
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.as_object().unwrap().len(), 4);
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(10));
        assert_eq!(v["metrics"]["ttr_p50_ms"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["ttr_p50_ms"]["unit"].as_str(), Some("ms"));
    }
}
