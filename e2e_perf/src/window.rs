//! The timed window: one closed-loop drive of the workload up to a deadline,
//! the drain after it, and the metrics taken over the whole of it.

use crate::measure::{Error, Values};
use crate::stack::{Counters, Stack};
use crate::stats::{
    median, median_or_zero, parse_loadavg, parse_stat_cpu_ticks, percentile_sorted, self_time_ns,
    supported_tail, Interval, WindowTally,
};
use crate::trace::Clock;
use crate::workloads::{Driver, Recorder, Sample, Stop, Workload};
use hpcqc_middleware::PriorityClass;
use std::collections::HashMap;

/// Linux reports process times in units of 1/100 s whatever the kernel's HZ.
const MS_PER_TICK: f64 = 10.0;

fn read_ticks(path: &str) -> Result<f64, Error> {
    let text = std::fs::read_to_string(path)?;
    let ticks = parse_stat_cpu_ticks(&text).ok_or_else(|| format!("cannot parse {path}"))?;
    Ok(ticks as f64)
}

pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| parse_loadavg(&t))
        .unwrap_or(f64::NAN)
}

/// One timed window and what was read around it.
pub struct Window {
    pub rec: Recorder,
    pub tally: WindowTally,
    /// Process CPU over the window, all threads, and the generator's share.
    cpu_ms: f64,
    generator_cpu_ms: f64,
    before: Counters,
    after: Counters,
    load_start: f64,
    load_end: f64,
    oracle_checked: u64,
}

/// Measure `seconds` of the workload: the driver submits until the deadline,
/// tasks submitted before it are drained and counted, and the window ends
/// with the last completion.
pub fn window(
    driver: &mut dyn Driver,
    stack: &Stack,
    clock: Clock,
    seconds: f64,
    traced: bool,
) -> Result<Window, Error> {
    let load_start = loadavg();
    let before = Counters::scrape(stack);
    let mut rec = Recorder::new(clock, traced);
    let cpu0 = read_ticks("/proc/self/stat")?;
    let gen0 = read_ticks("/proc/thread-self/stat")?;
    let start_ns = clock.now_ns();
    driver.drive(Stop::AtNs(start_ns + (seconds * 1e9) as u64), &mut rec);
    let cpu_ms = (read_ticks("/proc/self/stat")? - cpu0) * MS_PER_TICK;
    let generator_cpu_ms = (read_ticks("/proc/thread-self/stat")? - gen0) * MS_PER_TICK;
    let after = Counters::scrape(stack);
    let load_end = loadavg();
    // outside the window: recompute every 16th result of a serial session
    let oracle_checked = rec.verify_oracle();

    let mut tally = WindowTally::default();
    for s in &rec.samples {
        tally.record(true, (s.end_ns - start_ns) as f64 / 1e9);
    }
    for _ in 0..rec.failed {
        tally.record(false, 0.0);
    }
    Ok(Window {
        rec,
        tally,
        cpu_ms,
        generator_cpu_ms,
        before,
        after,
        load_start,
        load_end,
        oracle_checked,
    })
}

impl Window {
    /// Times to result the workload is judged on, ms, ascending: every task
    /// of the window, or in `site_mix` the production-class tasks.
    fn ttr_ms(&self, workload: Workload) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .rec
            .samples
            .iter()
            .filter(|s| workload != Workload::SiteMix || s.class == PriorityClass::Production)
            .map(|s| s.ttr_ns() as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn tasks(&self) -> f64 {
        self.tally.succeeded as f64
    }

    pub fn ttr_p50_ms(&self, workload: Workload) -> Result<f64, Error> {
        let mut ttr = self.ttr_ms(workload);
        if ttr.is_empty() {
            return Err(format!("no task completed: {:?}", self.rec.failures).into());
        }
        Ok(median(&mut ttr))
    }

    pub fn end_to_end(&self, workload: Workload, out: &mut Values) -> Result<(), Error> {
        out.set("ttr_p50_ms", self.ttr_p50_ms(workload)?);
        out.set("tasks_per_s", self.tally.tasks_per_s());
        Ok(())
    }

    fn span_median_ms(&self, span: impl Fn(&Sample) -> u64) -> f64 {
        let mut v: Vec<f64> = self
            .rec
            .samples
            .iter()
            .map(|s| span(s) as f64 / 1e6)
            .collect();
        median_or_zero(&mut v)
    }

    pub fn client_spans(&self, workload: Workload, out: &mut Values) {
        out.set(
            "core.client.submit_ms",
            self.span_median_ms(|s| s.submit_ns),
        );
        out.set(
            "core.client.poll_wait_ms",
            self.span_median_ms(Sample::poll_wait_ns),
        );
        out.set(
            "core.client.status_ms",
            self.span_median_ms(|s| s.status_ns),
        );
        out.set(
            "core.client.result_ms",
            self.span_median_ms(|s| s.result_ns),
        );
        out.set(
            "core.client.classical_ms",
            self.span_median_ms(|s| s.classical_ns),
        );
        let samples = &self.rec.samples;
        let n = samples.len() as f64;
        let polls: f64 = samples.iter().map(|s| s.polls as f64).sum();
        let requests: f64 = samples.iter().map(|s| s.requests).sum();
        out.set("core.client.polls_per_task", polls / n);
        out.set("core.client.http_requests_per_task", requests / n);
        let ttr = self.ttr_ms(workload);
        out.set("core.client.ttr_p90_ms", percentile_sorted(&ttr, 0.90));
        out.set("core.client.ttr_max_ms", ttr[ttr.len() - 1]);
    }

    /// Counts and CPU over the window, per completed task.
    pub fn counts(&self, out: &mut Values) {
        let (a, b) = (&self.after, &self.before);
        let tasks = self.tasks();
        out.set(
            "journal.records_per_task",
            (a.journal_appends - b.journal_appends) / tasks,
        );
        out.set(
            "journal.fsyncs_per_task",
            (a.journal_fsyncs - b.journal_fsyncs) / tasks,
        );
        out.set(
            "journal.bytes_per_task",
            (a.journal_bytes - b.journal_bytes) / tasks,
        );
        out.set(
            "journal.snapshots",
            a.journal_snapshots - b.journal_snapshots,
        );
        out.set("journal.snapshot_bytes", a.snapshot_bytes);
        out.set("daemon.dispatches_per_task", a.dispatches_since(b) / tasks);
        out.set("daemon.preemptions", a.preemptions - b.preemptions);
        out.set(
            "daemon.dev_cache_hit_frac",
            (a.dev_cache_hits - b.dev_cache_hits) / tasks,
        );
        out.set(
            "emulator.runs_per_task",
            (a.kernel_runs - b.kernel_runs) / tasks,
        );
        out.set(
            "emulator.busy_frac",
            (a.kernel_secs - b.kernel_secs) / self.tally.last_completion_s,
        );
        out.set(
            "server.keepalive_reuse_frac",
            (a.keepalive_reuse - b.keepalive_reuse) / (a.http_requests - b.http_requests),
        );
        out.set("sync.max_lock_wait_p99_us", a.max_lock_wait_p99_s * 1e6);
        out.set("telemetry.scrape_ms", a.scrape_s * 1e3);
        out.set("telemetry.scrape_bytes", a.scrape_bytes);
        out.set(
            "harness.cpu_ms_per_task",
            (self.cpu_ms - self.generator_cpu_ms) / tasks,
        );
        out.set(
            "harness.generator_cpu_ms_per_task",
            self.generator_cpu_ms / tasks,
        );
        out.set("harness.loadavg_start", self.load_start);
        out.set("harness.loadavg_end", self.load_end);
    }

    /// Re-derive every traced task's self time from its recorded spans (the
    /// `task` span minus what its children cover); it must equal the
    /// sample's `poll_wait`.
    pub fn span_self_times_agree(&self) -> bool {
        let spans = &self.rec.tracer.spans;
        let mut children: HashMap<u64, Vec<Interval>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent == "task") {
            children
                .entry(s.trace_id)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        // `finish` records a task's root span when it pushes the sample
        let roots = spans.iter().filter(|s| s.span == "task");
        roots.zip(&self.rec.samples).all(|(root, sample)| {
            let kids = children.get(&root.trace_id).map_or(&[][..], Vec::as_slice);
            self_time_ns((root.start_ns, root.end_ns), kids) == sample.poll_wait_ns()
        })
    }

    /// Largest share of a task's time the client spans and the generator's
    /// measured sleeps leave unexplained. In the one-task-at-a-time loops
    /// the generator does nothing else, so this must stay under 1 %.
    pub fn unaccounted_share(&self) -> f64 {
        self.rec
            .samples
            .iter()
            .map(|s| (s.poll_wait_ns() as f64 - s.slept_ns as f64) / s.ttr_ns() as f64)
            .fold(0.0, f64::max)
    }

    /// `loaded`: the 1-minute load was still at or above `nproc`/2 when the
    /// window started.
    pub fn print_counts(&self, workload: Workload, loaded: bool) {
        let ttr = self.ttr_ms(workload);
        println!(
            "  attempted={} succeeded={} failed={} window_s={:.3} ttr_samples={} oracle_recomputed={} best_energy={:.4}",
            self.tally.attempted,
            self.tally.succeeded,
            self.tally.failed,
            self.tally.last_completion_s,
            ttr.len(),
            self.oracle_checked,
            self.rec.best_energy,
        );
        println!(
            "  disturbed={loaded} loadavg={:.2}->{:.2}",
            self.load_start, self.load_end,
        );
        if workload == Workload::SiteMix {
            let by_class: Vec<String> = [
                PriorityClass::Production,
                PriorityClass::Test,
                PriorityClass::Development,
            ]
            .into_iter()
            .map(|class| {
                let mut v: Vec<f64> = self
                    .rec
                    .samples
                    .iter()
                    .filter(|s| s.class == class)
                    .map(|s| s.ttr_ns() as f64 / 1e6)
                    .collect();
                format!(
                    "{}={:.3}ms(n={})",
                    class.as_str(),
                    median_or_zero(&mut v),
                    v.len()
                )
            })
            .collect();
            println!("  ttr_p50_by_class: {}", by_class.join(" "));
        }
        if let Some(p) = supported_tail(ttr.len()) {
            println!(
                "  highest percentile with ten samples beyond it: p{} = {:.3} ms",
                p * 100.0,
                percentile_sorted(&ttr, p)
            );
        }
        for f in &self.rec.failures {
            println!("  FAILED: {f}");
        }
    }
}
