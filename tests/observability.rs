//! Integration: the §2.5/§3.6 observability loop across crates.
//!
//! QPU calibration → telemetry → drift detection → alert → admin
//! recalibration, with the QA probe closing the loop.

use hpcqc::core::DaemonClient;
use hpcqc::emulator::SvBackend;
use hpcqc::middleware::rest::serve_on;
use hpcqc::middleware::{DaemonConfig, JournalConfig, MiddlewareService, PriorityClass};
use hpcqc::program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc::qpu::{run_qa, VirtualQpu};
use hpcqc::qrmi::LocalEmulatorResource;
use hpcqc::scheduler::PatternHint;
use hpcqc::telemetry::{
    Agg, AlertManager, AlertRule, AlertState, Cmp, CusumDetector, Detection, ZScoreDetector,
};
use std::sync::Arc;

#[test]
fn injected_fade_is_detected_before_the_qa_probe_notices() {
    let qpu = VirtualQpu::new("fresnel-1", 404);
    let mut cusum = CusumDetector::new(40, 3e-3, 2e-2);
    let fault_start = 100usize;
    let mut detected: Option<usize> = None;
    for t in 0..240 {
        if (fault_start..fault_start + 30).contains(&t) {
            qpu.inject_rabi_fault(0.003); // ~9% fade over 30 ticks
        }
        qpu.advance_time(60.0);
        let v = qpu.tsdb().last("qpu_rabi_scale").unwrap().value;
        if detected.is_none() {
            if let Detection::Drift { .. } = cusum.update(v) {
                detected = Some(t);
            }
        }
    }
    let t = detected.expect("fade detected");
    assert!(
        t >= fault_start,
        "no false alarm before the fault (fired at {t})"
    );
    assert!(
        t < fault_start + 30,
        "caught during the fade, not after (fired at {t})"
    );
    // QA health barely moves for a ~9% Rabi error (quadratic suppression)
    let report = run_qa(&qpu, 2000, 0.03, 5).unwrap();
    assert!(
        report.health > 0.95,
        "QA probe insensitive to this fade: health {}",
        report.health
    );
}

#[test]
fn step_fault_caught_by_zscore_immediately() {
    let qpu = VirtualQpu::new("fresnel-1", 405);
    let mut z = ZScoreDetector::new(40, 5.0).with_min_std(1e-3);
    let mut fired_at = None;
    for t in 0..120 {
        if t == 60 {
            qpu.inject_rabi_fault(0.10);
        }
        qpu.advance_time(60.0);
        let v = qpu.tsdb().last("qpu_rabi_scale").unwrap().value;
        if fired_at.is_none() {
            if let Detection::Drift { .. } = z.update(v) {
                fired_at = Some(t);
            }
        }
    }
    assert_eq!(
        fired_at,
        Some(60),
        "step caught on the very first faulty sample"
    );
}

#[test]
fn alert_drives_recalibration_and_resolves() {
    let qpu = VirtualQpu::new("fresnel-1", 406);
    let mut mgr = AlertManager::new(qpu.tsdb().clone());
    mgr.add_rule(AlertRule {
        name: "rabi_low".into(),
        series: "qpu_rabi_scale".into(),
        window_secs: 600.0,
        cmp: Cmp::LessThan,
        threshold: 0.95,
        for_secs: 600.0,
    });
    let mut fired = false;
    let mut resolved = false;
    for t in 0..200 {
        if t == 50 {
            qpu.inject_rabi_fault(0.12);
        }
        qpu.advance_time(60.0);
        for ev in mgr.evaluate(qpu.now()) {
            match ev.state {
                AlertState::Firing => {
                    fired = true;
                    qpu.recalibrate(300.0);
                }
                AlertState::Inactive if fired => resolved = true,
                _ => {}
            }
        }
    }
    assert!(fired, "alert fired on the fault");
    assert!(resolved, "alert resolved after recalibration");
    let spec = qpu.current_spec();
    assert_eq!(
        spec.revision, 2,
        "recalibration bumped the advertised revision"
    );
}

#[test]
fn telemetry_supports_dashboard_queries() {
    let qpu = VirtualQpu::new("fresnel-1", 407);
    for _ in 0..100 {
        qpu.advance_time(60.0);
    }
    let db = qpu.tsdb();
    // all calibration series recorded
    for series in [
        "qpu_rabi_scale",
        "qpu_detuning_offset",
        "qpu_detection_error",
        "qpu_detection_error_prime",
    ] {
        assert_eq!(db.len(series), 100, "{series}");
    }
    // downsampled panel has one point per 10-minute window
    let panel = db.downsample("qpu_rabi_scale", 0.0, 6000.0, 600.0, Agg::Mean);
    assert_eq!(panel.len(), 10);
    // healthy stats: mean near 1, tight spread
    let (mean, std) = db.stats("qpu_rabi_scale", 0.0, 6000.0).unwrap();
    assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    assert!(std < 0.01, "std {std}");
}

#[test]
fn prometheus_exposition_is_scrape_compatible() {
    let qpu = VirtualQpu::new("fresnel-1", 408);
    qpu.advance_time(60.0);
    run_qa(&qpu, 50, 0.03, 1).unwrap();
    let text = qpu.registry().expose();
    // every series has HELP and TYPE preceding its samples
    let mut seen_meta: std::collections::HashSet<String> = Default::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap().to_string();
            seen_meta.insert(name);
        } else if !line.starts_with('#') && !line.is_empty() {
            let metric = line
                .split(['{', ' '])
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                seen_meta.iter().any(|m| metric.starts_with(m.as_str())),
                "sample {line:?} lacks TYPE metadata"
            );
        }
    }
    assert!(text.contains("qpu_qa_health"));
}

/// The series `e2e_perf` reads off `GET /metrics`, with the label keys it
/// (and every dashboard) found there before the metric catalog: a renamed
/// series or a changed label set would zero a benchmark counter silently.
#[test]
fn daemon_scrape_carries_every_series_the_benchmark_reads() {
    let dir = std::env::temp_dir().join(format!("hpcqc-obs-scrape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let resource = Arc::new(LocalEmulatorResource::new(
        "emu",
        Arc::new(SvBackend::default()),
        1,
    ));
    let cfg = DaemonConfig {
        preempt_chunk_shots: 5,
        journal: JournalConfig {
            compact_every: 4,
            ..JournalConfig::default()
        },
        ..DaemonConfig::default()
    };
    let svc = Arc::new(MiddlewareService::recover(&dir, resource, cfg).unwrap());
    let idle = std::time::Duration::from_millis(20);
    let dispatcher = svc.spawn_dispatcher(idle);
    let server = serve_on(Arc::clone(&svc), 0).unwrap();
    let client = DaemonClient::new(server.addr());
    let program = |shots| {
        let mut b = SequenceBuilder::new(Register::linear(2, 6.0).unwrap());
        b.add_global_pulse(Pulse::constant(0.3, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "scrape")
    };
    // submit → dispatch → result; the same development program again is a
    // result-cache hit
    let dev = client
        .open_session("dana", PriorityClass::Development)
        .unwrap();
    for _ in 0..2 {
        assert_eq!(dev.run(&program(10), PatternHint::None).unwrap().shots, 10);
    }
    // a test task aged to the head with a production task queued behind it
    // is preempted at its first slice boundary; both are queued before a
    // dispatcher sees either, or the test task could finish unpreempted
    drop(dispatcher);
    let test = client.open_session("tess", PriorityClass::Test).unwrap();
    let sliced = test.submit(&program(20), PatternHint::None).unwrap();
    svc.advance_time(2.0 * 3600.0);
    let prod = client
        .open_session("pat", PriorityClass::Production)
        .unwrap();
    let urgent = prod.submit(&program(10), PatternHint::None).unwrap();
    let dispatcher = svc.spawn_dispatcher(idle);
    assert_eq!(prod.wait(urgent, 500).unwrap().shots, 10);
    assert_eq!(test.wait(sliced, 500).unwrap().shots, 20);

    let text = client.metrics().unwrap();
    let label_keys = |name: &str| -> Option<Vec<&str>> {
        let line = text.lines().find(|l| {
            l.strip_prefix(name)
                .is_some_and(|r| r.starts_with(['{', ' ']))
        })?;
        let labels = line[name.len()..].split(' ').next().unwrap();
        let inner = labels.trim_start_matches('{').trim_end_matches('}');
        Some(
            inner
                .split(',')
                .filter_map(|kv| kv.split_once('=').map(|(k, _)| k))
                .collect(),
        )
    };
    for (name, keys) in [
        ("journal_appends_total", vec![]),
        ("journal_bytes_total", vec![]),
        ("journal_fsyncs_total", vec![]),
        ("journal_snapshots_total", vec![]),
        ("daemon_tasks_submitted_total", vec!["class"]),
        ("daemon_tasks_completed_total", vec!["class"]),
        ("daemon_dev_cache_hits_total", vec!["class"]),
        ("daemon_preemptions_total", vec!["class"]),
        ("http_requests_total", vec!["code"]),
        ("http_keepalive_reuse_total", vec![]),
        ("lock_wait_seconds", vec!["lock", "quantile"]),
    ] {
        assert_eq!(label_keys(name), Some(keys), "{name}");
    }
    drop((dispatcher, server));
    let _ = std::fs::remove_dir_all(&dir);
}
