//! Experiment DP — daemon control-plane throughput, and Experiment LK — the
//! per-lock hold-time/contention table of the same fleet.
//!
//! Drives N concurrent sessions submitting M tasks each through a journaled
//! `MiddlewareService` wired to a stub QRMI resource that completes every
//! task instantly (`hpcqc_bench::drive_fleet`). With device time out of the
//! picture, the wall clock measures only the control plane: submission
//! (journal append under group commit), queue maintenance, dispatch, and
//! completion bookkeeping.
//!
//! The headline number is end-to-end tasks/sec at 64 sessions × 1000 tasks
//! with journaling on. Per-submit latency percentiles catch regressions that
//! throughput alone would hide (e.g. a submitter stalled behind the
//! dispatcher on a coarse lock).
//!
//! The second printout is every tracked lock's acquisition count, contention
//! ratio, and wait/hold-time quantiles from the always-on `hpcqc_sync`
//! histograms, for the last fleet driven. This is the tool that localizes a
//! tail-latency problem to a specific lock *and* a specific critical section
//! (long holds vs many waiters), instead of guessing from end-to-end
//! percentiles.
//!
//! Run: `cargo run --release -p hpcqc-bench --bin daemon_perf [--quick]
//!       [--out PATH]`
//!
//! `--quick` shrinks the fleet for the CI smoke jobs; the harness exits
//! non-zero if any measurement comes back non-finite or non-positive.

use hpcqc_bench::{
    drive_fleet, instant_daemon, percentile, render_table, HarnessArgs, Report, ScratchDir,
};
use hpcqc_sync::{all_lock_stats, histogram_quantile_ns, BUCKETS};
use std::collections::BTreeMap;

/// Every live tracked lock, aggregated per lock name and ranked by where
/// waiters actually burn time (contended acquisitions × wait p99).
fn lock_table() -> String {
    struct Agg {
        acq: u64,
        cont: u64,
        wait: [u64; BUCKETS],
        hold: [u64; BUCKETS],
    }
    let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in all_lock_stats() {
        let a = by_name.entry(s.name).or_insert(Agg {
            acq: 0,
            cont: 0,
            wait: [0; BUCKETS],
            hold: [0; BUCKETS],
        });
        a.acq += s.acquisitions();
        a.cont += s.contended();
        let (w, h) = (s.wait_histogram(), s.hold_histogram());
        for i in 0..BUCKETS {
            a.wait[i] += w[i];
            a.hold[i] += h[i];
        }
    }
    let mut rows: Vec<(&str, Agg)> = by_name.into_iter().filter(|(_, a)| a.acq > 0).collect();
    let burn = |a: &Agg| histogram_quantile_ns(&a.wait, 0.99) * a.cont as f64;
    rows.sort_by(|a, b| burn(&b.1).total_cmp(&burn(&a.1)));

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, a)| {
            vec![
                name.to_string(),
                a.acq.to_string(),
                format!("{:.2}%", 100.0 * a.cont as f64 / a.acq as f64),
                format!("{:.1}", histogram_quantile_ns(&a.wait, 0.99) / 1_000.0),
                format!("{:.1}", histogram_quantile_ns(&a.hold, 0.50) / 1_000.0),
                format!("{:.1}", histogram_quantile_ns(&a.hold, 0.99) / 1_000.0),
            ]
        })
        .collect();
    render_table(
        &[
            "lock",
            "acquires",
            "contended",
            "wait p99(us)",
            "hold p50(us)",
            "hold p99(us)",
        ],
        &table,
    )
}

fn main() {
    let args = HarnessArgs::from_env();
    // (sessions, tasks per session, fleets back to back per run): one 8 x 125
    // fleet lasts ≈ 25 ms, less than a scheduler slice; ten in a row do not.
    let fleets: &[(usize, usize, usize)] = if args.quick {
        &[(8, 50, 1)]
    } else {
        &[(8, 125, 10), (64, 1000, 1)]
    };

    let mut report = Report::new("daemon_perf", &args);
    // The last daemon driven stays alive past its run: a tracked lock's
    // stats live only as long as the lock does.
    let mut last = None;
    for &(sessions, per_session, back_to_back) in fleets {
        let name = match back_to_back {
            1 => format!("{sessions}x{per_session}"),
            n => format!("{sessions}x{per_session}x{n}"),
        };
        let params = serde_json::json!({
            "sessions": sessions, "tasks_per_session": per_session, "fleets": back_to_back,
        });
        report.case(&name, params, |_| {
            let dir = ScratchDir::new(&format!("daemon-perf-{name}"));
            let svc = instant_daemon(Some(dir.path()));
            let (mut wall_secs, mut lat) = (0.0, Vec::new());
            for _ in 0..back_to_back {
                let fleet = drive_fleet(&svc, sessions, per_session);
                wall_secs += fleet.wall_secs;
                lat.extend(fleet.submit_lat_us);
            }
            svc.sync_journal();
            last = Some((svc, dir));
            lat.sort_by(f64::total_cmp);
            let lat = &lat;
            vec![
                ("wall_secs", "s", wall_secs),
                // End-to-end submit→dispatch→complete rate.
                (
                    "tasks_per_sec",
                    "1/s",
                    (back_to_back * sessions * per_session) as f64 / wall_secs,
                ),
                ("submit_p50_us", "us", percentile(lat, 0.50)),
                ("submit_p90_us", "us", percentile(lat, 0.90)),
                ("submit_p99_us", "us", percentile(lat, 0.99)),
                ("submit_max_us", "us", percentile(lat, 1.0)),
            ]
        });
    }
    report.finish(&args.out_path("daemon"));

    let (sessions, per_session, _) = fleets[fleets.len() - 1];
    println!("== tracked locks: {sessions} sessions x {per_session} tasks, journaled daemon ==\n");
    println!("{}", lock_table());
    drop(last);
}
