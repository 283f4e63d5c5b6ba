//! One benchmark run of one workload: set-up, the timed window, the checks
//! and the metrics. The metric names and units here are the ones
//! `BENCHMARK.json` declares; `finish` refuses to report anything else.

use crate::gen::program_set_hash;
use crate::ladder;
use crate::stack::{Fixture, Stack};
use crate::stats::median;
use crate::trace::Clock;
use crate::window::{loadavg, window};
use crate::workloads::{Driver, Recorder, Stop, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Error = Box<dyn std::error::Error>;

/// Completed tasks in the recovered history (the crash-restart case), and
/// its development-mode size.
const HISTORY: usize = 16384;
const QUICK_HISTORY: usize = 1024;
/// Full set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Generator threads and client connections of every workload. The stack's
/// own threads (gateway, server, dispatcher, emulator) need the other cores.
const GENERATORS: usize = 1;

/// `(name, unit)` of the end-to-end metrics, as `BENCHMARK.json` declares
/// them.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ttr_p50_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
];

/// The bound `BENCHMARK.json` puts on an end-to-end metric: the share of the
/// parent's median by which it may worsen before a change counts as a
/// regression.
pub fn bound(metric: &str) -> f64 {
    if metric == "ttr_p50_ms" {
        0.10
    } else {
        0.15
    }
}

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str); 59] = [
    // client-visible spans of one task; they partition its time to result
    ("core.client.submit_ms", "ms"),
    ("core.client.poll_wait_ms", "ms"),
    ("core.client.status_ms", "ms"),
    ("core.client.result_ms", "ms"),
    ("core.client.classical_ms", "ms"),
    ("core.client.polls_per_task", "count"),
    ("core.client.http_requests_per_task", "count"),
    ("core.client.ttr_p90_ms", "ms"),
    ("core.client.ttr_max_ms", "ms"),
    // stepped journey on a dispatcher-less stack
    ("harness.journey_p50_ms", "ms"),
    ("harness.wait_ms", "ms"),
    // layer ladder, submit side
    ("sdk.build_us", "us"),
    ("core.client.encode_us", "us"),
    ("core.client.json_submit_bytes", "bytes"),
    ("wire.encode_submit_us", "us"),
    ("wire.decode_submit_us", "us"),
    ("wire.submit_bytes", "bytes"),
    ("wire.encode_result_us", "us"),
    ("wire.decode_result_us", "us"),
    ("gateway.self_us", "us"),
    ("server.rtt_us", "us"),
    ("rest.submit_self_us", "us"),
    ("rest.batch_self_us_per_frame", "us"),
    ("rest.status_self_us", "us"),
    ("rest.result_self_us", "us"),
    ("analysis.analyze_us", "us"),
    ("taskqueue.push_us", "us"),
    ("taskqueue.pop_us", "us"),
    ("journal.append_us", "us"),
    ("daemon.submit_self_us", "us"),
    ("daemon.status_us", "us"),
    ("daemon.result_us", "us"),
    // layer ladder, execute side
    ("daemon.dispatch_self_us", "us"),
    ("qrmi.run_self_us", "us"),
    ("emulator.evolve_ms", "ms"),
    ("emulator.sample_ms", "ms"),
    // counts scraped from outside at the end of the window
    ("journal.records_per_task", "count"),
    ("journal.fsyncs_per_task", "count"),
    ("journal.bytes_per_task", "bytes"),
    ("journal.snapshots", "count"),
    ("journal.snapshot_bytes", "bytes"),
    ("daemon.dispatches_per_task", "count"),
    ("daemon.preemptions", "count"),
    ("daemon.dev_cache_hit_frac", "ratio"),
    ("emulator.runs_per_task", "count"),
    ("emulator.busy_frac", "ratio"),
    ("server.keepalive_reuse_frac", "ratio"),
    ("sync.max_lock_wait_p99_us", "us"),
    ("telemetry.scrape_ms", "ms"),
    ("telemetry.scrape_bytes", "bytes"),
    // set-up and harness
    ("daemon.recover_ms", "ms"),
    ("journal.replay_records_per_s", "1/s"),
    ("harness.fixture_s", "s"),
    ("harness.warmup_s", "s"),
    ("harness.cpu_ms_per_task", "ms"),
    ("harness.generator_cpu_ms_per_task", "ms"),
    ("harness.loadavg_start", "load"),
    ("harness.loadavg_end", "load"),
    ("harness.trace_overhead_frac", "ratio"),
];

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Development mode: small history and warm-up; not comparable.
    pub quick: bool,
    /// Longest wait for the 1-minute load to fall below `nproc`/2.
    pub settle_s: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line of one run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Measured values by metric name, in insertion order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Exactly the metrics of `table`, in its order: a missing, repeated,
    /// undeclared or non-finite value is a bug in the harness.
    fn finish(self, table: &[(&'static str, &'static str)]) -> Result<Vec<Metric>, Error> {
        if let Some((name, _)) = self
            .0
            .iter()
            .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
        {
            return Err(format!("metric {name} is measured but not declared").into());
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let mut hits = self.0.iter().filter(|(n, _)| *n == name);
                match (hits.next(), hits.next()) {
                    (Some(&(_, value)), None) if value.is_finite() => {
                        Ok(Metric { name, unit, value })
                    }
                    (Some((_, value)), None) => Err(format!("metric {name} is {value}").into()),
                    (None, _) => Err(format!("metric {name} was not measured").into()),
                    (Some(_), Some(_)) => Err(format!("metric {name} measured twice").into()),
                }
            })
            .collect()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything the benchmark writes lives next to its own executable, inside
/// the build directory (`$CARGO_TARGET_DIR/e2e_perf/`): on a real disk, in
/// the checkout, and ignored by git.
pub fn work_root() -> Result<PathBuf, Error> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable has no build directory above it")?;
    Ok(target.join("e2e_perf"))
}

/// A stack that is up and warm.
struct Ready {
    stack: Stack,
    driver: Box<dyn Driver>,
    setup_s: f64,
    warmup_s: f64,
    program_hash: u64,
}

/// One full set-up: recover the daemon from the crash-restart fixture,
/// dispatcher + REST + gateway + probe, sessions, program generation, and
/// the count-based warm-up.
fn set_up(opts: &Options, fixture: &Fixture, dir: PathBuf, clock: Clock) -> Result<Ready, Error> {
    let t0 = Instant::now();
    let stack = Stack::bring_up(fixture, dir, true)?;
    let mut driver = opts.workload.build(&stack.front.addr(), opts.seed)?;
    let program_hash = program_set_hash(&driver.tables());
    let t_warm = Instant::now();
    let mut warm = Recorder::new(clock, false);
    driver.drive(
        Stop::AfterTasks(opts.workload.warmup_tasks(opts.quick)),
        &mut warm,
    );
    if warm.failed > 0 {
        return Err(format!("warm-up: {} failed: {:?}", warm.failed, warm.failures).into());
    }
    Ok(Ready {
        stack,
        driver,
        setup_s: t0.elapsed().as_secs_f64(),
        warmup_s: t_warm.elapsed().as_secs_f64(),
        program_hash,
    })
}

/// Wait for the 1-minute load to fall below `nproc`/2, at most `settle_s`.
/// Returns whether the box is still loaded: reported, never dropped.
fn settle(settle_s: f64) -> bool {
    let limit = nproc() as f64 / 2.0;
    let deadline = Instant::now() + Duration::from_secs_f64(settle_s);
    while loadavg() >= limit && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(500));
    }
    loadavg() >= limit
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

pub fn run(opts: &Options) -> Result<Outcome, Error> {
    if GENERATORS > nproc() {
        return Err(format!(
            "{GENERATORS} generator thread(s) and connection(s) need as many cores, this box has {}",
            nproc()
        )
        .into());
    }
    let root = work_root()?;
    let history = if opts.quick { QUICK_HISTORY } else { HISTORY };
    let fixture = Fixture::obtain(&root, history)?;
    let scratch = root.join(format!("run-{}", std::process::id()));
    let outcome = run_in(opts, &fixture, &scratch, &root);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_in(
    opts: &Options,
    fixture: &Fixture,
    scratch: &Path,
    root: &Path,
) -> Result<Outcome, Error> {
    let clock = Clock::start();
    let w = opts.workload;
    println!(
        "e2e_perf workload={} seed={} seconds={} trace={} nproc={} comparable={} history={} fixture_s={:.3}",
        w.name(),
        opts.seed,
        opts.seconds,
        opts.traced as u8,
        nproc(),
        !opts.quick,
        fixture.tasks,
        fixture.build_s,
    );

    // A fresh journal directory for every set-up; all but the last stack are
    // torn down again, the last one serves the window.
    let setups = if opts.traced { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut ready = None;
    for rep in 0..setups {
        drop(ready.take());
        let r = set_up(opts, fixture, scratch.join(format!("journal-{rep}")), clock)?;
        setup_s.push(r.setup_s);
        ready = Some(r);
    }
    let mut ready = ready.expect("at least one set-up ran");
    println!(
        "  program_set_hash={:016x} setup_s={:?} warmup_s={:.3} recover_s={:.3}",
        ready.program_hash, setup_s, ready.warmup_s, ready.stack.recover_s
    );
    let loaded = settle(opts.settle_s);

    let mut values = Values::default();
    if !opts.traced {
        let win = window(
            ready.driver.as_mut(),
            &ready.stack,
            clock,
            opts.seconds,
            false,
        )?;
        win.end_to_end(w, &mut values)?;
        values.set("setup_s", median(&mut setup_s));
        win.print_counts(w, loaded);
        // free with every run, for the reader; only `--trace 1` reports them
        let mut layer = Values::default();
        win.client_spans(w, &mut layer);
        win.counts(&mut layer);
        for (name, value) in &layer.0 {
            println!("  {name:<38} {value:>16.4}");
        }
        let metrics = values.finish(&END_TO_END)?;
        print_metrics("end-to-end", &metrics);
        return Ok(Outcome {
            correct: win.tally.failed == 0,
            attempted: win.tally.attempted,
            failed: win.tally.failed,
            metrics,
        });
    }

    // Traced run: a short untraced window for the overhead baseline, the
    // traced window, then the stepped journey and the layer ladder.
    let untraced = window(
        ready.driver.as_mut(),
        &ready.stack,
        clock,
        (opts.seconds / 4.0).max(1.0),
        false,
    )?;
    let traced = window(
        ready.driver.as_mut(),
        &ready.stack,
        clock,
        opts.seconds / 2.0,
        true,
    )?;
    let base_ttr = untraced.ttr_p50_ms(w)?;
    let traced_ttr = traced.ttr_p50_ms(w)?;
    traced.print_counts(w, loaded);
    traced.client_spans(w, &mut values);
    traced.counts(&mut values);
    values.set(
        "harness.trace_overhead_frac",
        (traced_ttr - base_ttr) / base_ttr,
    );
    values.set("daemon.recover_ms", ready.stack.recover_s * 1e3);
    values.set(
        "journal.replay_records_per_s",
        fixture.records as f64 / ready.stack.recover_s,
    );
    values.set("harness.fixture_s", fixture.build_s);
    values.set("harness.warmup_s", ready.warmup_s);
    println!(
        "  trace sanity: self times re-derived from the recorded spans agree with the samples: {}",
        traced.span_self_times_agree(),
    );
    if w.serial() {
        // one task at a time: the generator does nothing but this task's
        // calls and sleeps, and they must add up to its time to result
        println!(
            "  trace sanity: client spans + measured sleeps leave at most {:.4} of a task's time unaccounted",
            traced.unaccounted_share(),
        );
    }

    let mut rec = traced.rec;
    drop(ready);
    let budget = Duration::from_secs_f64(opts.seconds * 0.5);
    ladder::run(
        w,
        opts.seed,
        fixture,
        scratch.join("journal-ladder"),
        budget,
        &mut rec,
        &mut values,
    )?;
    values.set(
        "harness.wait_ms",
        traced_ttr - values.get("harness.journey_p50_ms").expect("ladder ran"),
    );
    let trace_file = root.join(format!("trace_{}.json", w.name()));
    rec.tracer.write_json(&trace_file)?;
    println!(
        "  {} spans written to {}",
        rec.tracer.spans.len(),
        trace_file.display()
    );

    let metrics = values.finish(&PER_LAYER)?;
    print_metrics("per-layer", &metrics);
    let failed = untraced.tally.failed + traced.tally.failed;
    Ok(Outcome {
        correct: failed == 0,
        attempted: untraced.tally.attempted + traced.tally.attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_must_match_the_declared_table() {
        let table = [("a", "ms"), ("b", "s")];
        let mut ok = Values::default();
        ok.set("b", 2.0);
        ok.set("a", 1.0);
        let metrics = ok.finish(&table).unwrap();
        assert_eq!(metrics[0].name, "a"); // table order, not insertion order
        assert_eq!(metrics[1].unit, "s");

        let mut missing = Values::default();
        missing.set("a", 1.0);
        assert!(missing
            .finish(&table)
            .unwrap_err()
            .to_string()
            .contains("b was not"));

        let mut extra = Values::default();
        extra.set("a", 1.0);
        extra.set("b", 1.0);
        extra.set("c", 1.0);
        assert!(extra
            .finish(&table)
            .unwrap_err()
            .to_string()
            .contains("not declared"));

        let mut nan = Values::default();
        nan.set("a", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.finish(&table).is_err());

        let mut twice = Values::default();
        twice.set("a", 1.0);
        twice.set("a", 1.0);
        twice.set("b", 1.0);
        assert!(twice
            .finish(&table)
            .unwrap_err()
            .to_string()
            .contains("twice"));
    }

    #[test]
    fn declared_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
