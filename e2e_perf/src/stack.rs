//! Bring-up and tear-down of the stack under test, wired exactly as
//! `src/bin/hpcqcd.rs` wires the daemon — `MiddlewareService::recover` with
//! `DaemonConfig::default()`, `spawn_dispatcher(20 ms)`, `rest::serve_on` —
//! fronted by a one-shard `Gateway`, with `LocalEmulatorResource` over
//! `SvBackend::default()` as the device. No knob is turned and no
//! environment variable is set: this is what a user of the shipped daemon
//! gets.

use crate::gen::{ProgramTable, Shape};
use hpcqc_emulator::SvBackend;
use hpcqc_middleware::daemon::SubmitItem;
use hpcqc_middleware::rest::serve_on;
use hpcqc_middleware::{
    DaemonConfig, DispatcherHandle, Gateway, GatewayConfig, HttpServer, JournalConfig,
    MiddlewareService, PriorityClass, ShardConfig,
};
use hpcqc_qrmi::LocalEmulatorResource;
use hpcqc_scheduler::PatternHint;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The dispatcher's idle sleep, as in `hpcqcd`.
pub const DISPATCH_IDLE: Duration = Duration::from_millis(20);
/// First seed of the resource's per-task seed counter. Task `k` of a single
/// serial session runs with `RESOURCE_SEED + k`, which is what lets the
/// oracle recompute results bit for bit.
pub const RESOURCE_SEED: u64 = 1;

type Error = Box<dyn std::error::Error>;

/// A journal directory holding the un-compacted WAL of a daemon that ran
/// `tasks` small tasks to completion and then died: the crash-restart case
/// every set-up recovers from. Written by a throwaway daemon, kept in the
/// build directory for later runs of the same checkout, and copied for each
/// set-up (recovery compacts the directory it opens).
pub struct Fixture {
    pub dir: PathBuf,
    pub tasks: usize,
    /// Journal records in the WAL (session + submit/dispatch/complete per task).
    pub records: u64,
    /// Seconds spent writing it; 0 when an earlier run's fixture was reused.
    pub build_s: f64,
}

impl Fixture {
    /// The fixture of `tasks` tasks under `root`, written now unless an
    /// earlier run left it there.
    pub fn obtain(root: &Path, tasks: usize) -> Result<Fixture, Error> {
        let dir = root.join(format!("fixture-{tasks}"));
        let mut build_s = 0.0;
        if !dir.join("wal.log").exists() {
            // Write aside and rename, so a killed run never leaves half a
            // fixture under the final name.
            let tmp = root.join(format!("fixture-{tasks}.tmp-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&tmp);
            let t0 = Instant::now();
            Self::write(&tmp, tasks)?;
            build_s = t0.elapsed().as_secs_f64();
            if std::fs::rename(&tmp, &dir).is_err() {
                // another run got there first: use its copy
                let _ = std::fs::remove_dir_all(&tmp);
            }
        }
        Ok(Fixture {
            dir,
            tasks,
            records: 1 + 3 * tasks as u64,
            build_s,
        })
    }

    fn write(dir: &Path, tasks: usize) -> Result<(), Error> {
        std::fs::create_dir_all(dir)?;
        // Group commit without fsync or compaction: only the bytes of the
        // WAL matter here, not how durably the throwaway daemon wrote them.
        let cfg = DaemonConfig {
            journal: JournalConfig {
                fsync_every: 0,
                compact_every: 0,
                group_max_records: 512,
                ..JournalConfig::default()
            },
            ..DaemonConfig::default()
        };
        let svc = MiddlewareService::recover(dir, emulator(), cfg)?;
        let token = svc.open_session("history", PriorityClass::Production)?;
        // A fixed seed: the history is part of the harness, not of the
        // seeded inputs, so set-up does the same work for every `--seed`.
        let shape = Shape {
            qubits: 3,
            shots: 20,
        };
        let table = ProgramTable::scatter(0x5e70_ff1c, 0, shape, tasks);
        for start in (0..tasks).step_by(64) {
            let items = (start..tasks.min(start + 64))
                .map(|k| SubmitItem {
                    token: token.clone(),
                    ir: table.program(k),
                    hint: PatternHint::None,
                    idempotency_key: None,
                })
                .collect();
            for outcome in svc.submit_batch(items) {
                outcome?;
            }
            svc.pump();
        }
        svc.sync_journal();
        Ok(())
    }
}

/// The device of every stack: the local emulator resource over the default
/// state-vector backend.
pub fn emulator() -> Arc<LocalEmulatorResource> {
    Arc::new(LocalEmulatorResource::new(
        "emu-sv",
        Arc::new(SvBackend::default()),
        RESOURCE_SEED,
    ))
}

/// The running stack. Fields drop in declaration order: front door first,
/// then the shard's server, then the dispatcher; the journal directory is
/// removed last.
pub struct Stack {
    pub front: HttpServer,
    pub shard: HttpServer,
    _dispatcher: Option<DispatcherHandle>,
    pub svc: Arc<MiddlewareService>,
    pub resource: Arc<LocalEmulatorResource>,
    pub recover_s: f64,
    journal: JournalDir,
}

struct JournalDir(PathBuf);

impl Drop for JournalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Stack {
    /// Recover a daemon from a copy of `fixture` in `dir` and put the
    /// servers in front of it. `dispatcher: false` leaves the queue to the
    /// caller's `pump_once` (the stepped journey and the ladder).
    pub fn bring_up(fixture: &Fixture, dir: PathBuf, dispatcher: bool) -> Result<Stack, Error> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&fixture.dir)? {
            let entry = entry?;
            std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
        }
        let journal = JournalDir(dir);

        let t0 = Instant::now();
        let resource = emulator();
        let svc = Arc::new(MiddlewareService::recover(
            &journal.0,
            resource.clone(),
            DaemonConfig::default(),
        )?);
        let recover_s = t0.elapsed().as_secs_f64();
        let _dispatcher = dispatcher.then(|| svc.spawn_dispatcher(DISPATCH_IDLE));
        let shard = serve_on(Arc::clone(&svc), 0)?;
        let gateway = Arc::new(Gateway::new(GatewayConfig {
            shards: vec![ShardConfig {
                name: "shard-0".into(),
                primary: shard.addr(),
                follower: None,
            }],
            ..GatewayConfig::default()
        }));
        let front = gateway.serve(0)?;
        if gateway.probe_once() != 1 {
            return Err("gateway probe: the shard is not ready".into());
        }
        Ok(Stack {
            front,
            shard,
            _dispatcher,
            svc,
            resource,
            recover_s,
            journal,
        })
    }

    pub fn journal_dir(&self) -> &Path {
        &self.journal.0
    }
}

/// Counts read from outside the program at one instant: the daemon's own
/// `/metrics` exposition, the resource's kernel profile and the journal
/// directory. Windows report differences of two of these.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub journal_appends: f64,
    pub journal_bytes: f64,
    pub journal_fsyncs: f64,
    pub journal_snapshots: f64,
    pub submitted: f64,
    pub completed: f64,
    pub dev_cache_hits: f64,
    pub preemptions: f64,
    pub http_requests: f64,
    pub keepalive_reuse: f64,
    pub kernel_runs: f64,
    pub kernel_secs: f64,
    /// Highest `lock_wait_seconds{quantile="0.99"}` over all tracked locks.
    pub max_lock_wait_p99_s: f64,
    pub snapshot_bytes: f64,
    pub scrape_s: f64,
    pub scrape_bytes: f64,
}

impl Counters {
    pub fn scrape(stack: &Stack) -> Counters {
        let t0 = Instant::now();
        let text = stack.svc.metrics_text();
        let scrape_s = t0.elapsed().as_secs_f64();
        let kernel = stack.resource.kernel_profile();
        let snapshot_bytes = std::fs::metadata(stack.journal_dir().join("snapshot.json"))
            .map(|m| m.len() as f64)
            .unwrap_or(0.0);
        let mut c = Counters {
            kernel_runs: kernel.runs as f64,
            kernel_secs: kernel.total_secs,
            snapshot_bytes,
            scrape_s,
            scrape_bytes: text.len() as f64,
            ..Counters::default()
        };
        c.absorb(&text);
        c
    }

    /// Fold one Prometheus text exposition into the counters (series of one
    /// family are summed over their labels).
    fn absorb(&mut self, text: &str) {
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let name = series.split('{').next().unwrap_or(series);
            let slot = match name {
                "journal_appends_total" => &mut self.journal_appends,
                "journal_bytes_total" => &mut self.journal_bytes,
                "journal_fsyncs_total" => &mut self.journal_fsyncs,
                "journal_snapshots_total" => &mut self.journal_snapshots,
                "daemon_tasks_submitted_total" => &mut self.submitted,
                "daemon_tasks_completed_total" => &mut self.completed,
                "daemon_dev_cache_hits_total" => &mut self.dev_cache_hits,
                "daemon_preemptions_total" => &mut self.preemptions,
                "http_requests_total" => &mut self.http_requests,
                "http_keepalive_reuse_total" => &mut self.keepalive_reuse,
                "lock_wait_seconds" if series.contains("quantile=\"0.99\"") => {
                    self.max_lock_wait_p99_s = self.max_lock_wait_p99_s.max(value);
                    continue;
                }
                _ => continue,
            };
            *slot += value;
        }
    }

    /// Dispatches in the interval `self − earlier`, from the journal's own
    /// record count: every task writes one submit record, every dispatch one
    /// dispatch record plus one completion or requeue record, and a dev-cache
    /// hit writes submit + completion with no dispatch at all.
    pub fn dispatches_since(&self, earlier: &Counters) -> f64 {
        let appends = self.journal_appends - earlier.journal_appends;
        let submits = self.submitted - earlier.submitted;
        let hits = self.dev_cache_hits - earlier.dev_cache_hits;
        (appends - submits - 2.0 * hits) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPOSITION: &str = "\
# HELP journal_appends_total Records appended
# TYPE journal_appends_total counter
journal_appends_total 31
daemon_tasks_submitted_total{class=\"production\"} 4
daemon_tasks_submitted_total{class=\"test\"} 2
daemon_dev_cache_hits_total{class=\"development\"} 3
lock_wait_seconds{lock=\"a\",quantile=\"0.5\"} 9
lock_wait_seconds{lock=\"a\",quantile=\"0.99\"} 0.002
lock_wait_seconds{lock=\"b\",quantile=\"0.99\"} 0.0005
garbage line without a number x
";

    #[test]
    fn exposition_is_summed_over_labels() {
        let mut c = Counters::default();
        c.absorb(EXPOSITION);
        assert_eq!(c.journal_appends, 31.0);
        assert_eq!(c.submitted, 6.0);
        assert_eq!(c.dev_cache_hits, 3.0);
        assert_eq!(c.max_lock_wait_p99_s, 0.002);
    }

    #[test]
    fn dispatches_follow_from_the_record_count() {
        // 6 queued tasks, 3 cache hits; 5 of the 6 ran in one dispatch and
        // one was sliced into four: 9 dispatches.
        // records = 6 submits + 3*2 hit records + 9 dispatched + 9 outcome
        let later = Counters {
            journal_appends: 6.0 + 6.0 + 18.0,
            submitted: 6.0,
            dev_cache_hits: 3.0,
            ..Counters::default()
        };
        assert_eq!(later.dispatches_since(&Counters::default()), 9.0);
    }
}
