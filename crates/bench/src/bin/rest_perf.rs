//! Experiment RP — REST front-end throughput and tail latency.
//!
//! Open-loop (arrival-rate-driven) load against the daemon's HTTP surface:
//! a single-threaded mio-multiplexed client drives N concurrent keep-alive
//! connections, each issuing `POST /v1/tasks` submits against an
//! instant-completion QRMI stub (validation/analysis off, journal off — the
//! wire and the HTTP layer are the subject, the control plane was measured
//! by `daemon_perf`). Arrivals follow a fixed global schedule at the target
//! rate; a connection that is still waiting for a response when its next
//! arrival fires accrues *debt*, and the replacement request's latency is
//! measured from the **scheduled** time, not the send time — the classic
//! open-loop correction for coordinated omission, so queueing delay shows
//! up in p99 instead of being silently absorbed by the load generator.
//!
//! Each rate case reports achieved RPS and latency percentiles; the
//! headline "sustained" figure is the highest rate where the achieved rate
//! stays within 3% of target and p99 < 10 ms. Connections reconnect
//! transparently when the server closes them (`connection: close`), so the
//! same harness measured the pre-PR thread-per-connection server — those
//! numbers are kept below as the baseline.
//!
//! # Codec and batch axes
//!
//! `--codec json|binary` selects the submit encoding (JSON bodies against
//! `POST /v1/tasks`, or `application/x-hpcqc-bin` wire frames), `--batch N`
//! packs N submits into one `POST /v1/tasks:batch` request. Rates are always
//! **submits**/s, so a batch case at the same rate issues 1/N as many HTTP
//! requests; latency percentiles are per *request* (i.e. per batch), still
//! measured from the scheduled arrival (coordinated-omission-corrected).
//! The default full ladder runs a matched JSON-vs-binary, single-vs-batch
//! matrix and reports the headline ingest comparison.
//!
//! `--shards K` serves the daemon on K SO_REUSEPORT event loops. On a
//! 1-core runner this measures ~1× (no spare cores to run the extra
//! loops); EXPERIMENTS.md RP-2 has the interleaved `--shards 1|2` runs on a
//! 2-core one.
//!
//! Run: `cargo run --release -p hpcqc-bench --bin rest_perf [--quick]
//!       [--codec json|binary] [--batch N] [--shards K] [--out PATH]`

use hpcqc_bench::{percentile, render_table, HarnessArgs};
use hpcqc_emulator::{Emulator, SampleResult, SvBackend};
use hpcqc_middleware::rest::serve_with;
use hpcqc_middleware::ServerConfig;
use hpcqc_middleware::{DaemonConfig, HttpClient, MiddlewareService};
use hpcqc_program::{DeviceSpec, ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qrmi::{AcquisitionToken, QrmiError, QuantumResource, ResourceType, TaskId};
use mio::{Events, Interest, Poll, Token};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-PR reference, measured with this same harness against the
/// thread-per-connection `Connection: close` server at commit 29bbd49
/// (same machine class: 1 CPU). Every request paid a fresh TCP connect plus
/// an OS thread spawn: the legacy server held 6k submits/s at 1000
/// connections (p99 5.9 ms) and collapsed at 8k (p99 4.2 s, arrival debt
/// diverging).
const PRE_PR_SUSTAINED_RPS_1K: f64 = 6000.0;
const PRE_PR_BEST_RPS_1K: f64 = 6000.0;
const PRE_PR_P99_MS_AT_BEST: f64 = 5.94;

/// QRMI stub completing every task instantly (same shape as `daemon_perf`):
/// all measured cycles belong to the HTTP layer and the daemon bookkeeping.
struct InstantResource {
    spec: DeviceSpec,
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

    fn task_status(&self, _task: &TaskId) -> Result<hpcqc_qrmi::TaskStatus, QrmiError> {
        Ok(hpcqc_qrmi::TaskStatus::Completed)
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

/// Submit encoding for one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Codec {
    Json,
    Binary,
}

impl Codec {
    fn as_str(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }

    fn parse(s: &str) -> Option<Codec> {
        match s {
            "json" => Some(Codec::Json),
            "binary" | "bin" => Some(Codec::Binary),
            _ => None,
        }
    }
}

/// One load case: `rate` is in **submits**/s; with `batch > 1` the request
/// arrival rate is `rate / batch`.
#[derive(Debug, Clone, Copy)]
struct CaseSpec {
    connections: usize,
    rate: f64,
    secs: f64,
    codec: Codec,
    batch: usize,
}

#[derive(Debug, Serialize)]
struct CaseResult {
    connections: usize,
    codec: &'static str,
    /// Submits per HTTP request (1 = single `POST /v1/tasks`).
    batch: usize,
    /// Target rate in submits/s.
    target_rps: f64,
    duration_secs: f64,
    /// Completed HTTP requests (each carrying `batch` submits).
    samples: usize,
    /// Achieved submits/s (`samples * batch / wall`).
    achieved_rps: f64,
    latency_p50_ms: f64,
    latency_p90_ms: f64,
    latency_p99_ms: f64,
    latency_max_ms: f64,
    /// Non-201 responses + transport failures (lost samples).
    errors: usize,
    /// Connections re-established mid-run: 0 on a keep-alive server.
    reconnects: usize,
    /// The case was aborted early: arrival debt exceeded two seconds of
    /// target load, i.e. the server cannot keep up at this rate.
    unsustainable: bool,
}

#[derive(Debug, Serialize)]
struct Baseline {
    commit: String,
    sustained_rps_1k_conns: f64,
    best_achieved_rps_1k_conns: f64,
    latency_p99_ms_at_best: f64,
}

/// The headline ingest comparison: matched JSON single-submit vs binary
/// batched cases from the same run (same harness, same CO correction).
#[derive(Debug, Serialize)]
struct IngestComparison {
    json_single_best_rps: f64,
    binary_single_best_rps: f64,
    json_batched_best_rps: f64,
    binary_batched_best_rps: f64,
    /// `binary_batched_best_rps / json_single_best_rps`.
    binary_batched_vs_json_single: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    commit_note: String,
    quick: bool,
    unix_time_secs: u64,
    /// SO_REUSEPORT event-loop shards the server ran with. Results in this
    /// file were measured with shards=1 on a 1-core runner; the sharded
    /// path is exercised (and its wiring benched) but cannot show scaling
    /// without spare cores.
    shards: usize,
    cases: Vec<CaseResult>,
    /// Highest probed rate at 1k connections (JSON, single-submit — the
    /// historical axis) with achieved ≥ 97% of target and p99 < 10 ms;
    /// `null` in quick mode.
    sustained_rps_1k_conns: Option<f64>,
    /// `null` when the run had no matched comparison cases (quick mode).
    ingest_comparison: Option<IngestComparison>,
    baseline_pre_pr: Baseline,
}

fn bench_program(shots: u32) -> ProgramIr {
    let reg = Register::linear(2, 6.0).expect("valid register");
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).expect("valid pulse"));
    ProgramIr::new(b.build().expect("valid sequence"), shots, "rest-bench")
}

/// One multiplexed keep-alive connection of the load generator.
struct Conn {
    stream: Option<TcpStream>,
    registered: bool,
    want_write: bool,
    rbuf: Vec<u8>,
    wbuf: Arc<Vec<u8>>,
    wpos: usize,
    /// Scheduled arrival time (secs since case start) of the in-flight
    /// request, if any.
    outstanding: Option<f64>,
    /// Arrivals that fired while a request was in flight.
    debt: VecDeque<f64>,
}

impl Conn {
    fn new(request: Arc<Vec<u8>>) -> Conn {
        Conn {
            stream: None,
            registered: false,
            want_write: false,
            rbuf: Vec::with_capacity(512),
            wbuf: request,
            wpos: usize::MAX, // nothing pending

            outstanding: None,
            debt: VecDeque::new(),
        }
    }
}

/// Scan an accumulated response buffer; returns
/// `Some((status, total_len, close))` once one full response is buffered.
fn try_parse_response(buf: &[u8]) -> Option<(u16, usize, bool)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().ok()?;
            } else if k.eq_ignore_ascii_case("connection") && v.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    let total = head_end + content_length;
    (buf.len() >= total).then_some((status, total, close))
}

struct CaseStats {
    latencies_ms: Vec<f64>,
    errors: usize,
    reconnects: usize,
}

/// Serialize one prebuilt submit request for `token` (the per-connection
/// request buffer the load generator replays).
fn build_request(codec: Codec, batch: usize, token: &str, ir: &ProgramIr) -> Vec<u8> {
    let (path, content_type, body): (&str, &str, Vec<u8>) = match (codec, batch) {
        (Codec::Json, 1) => {
            let ir_json = serde_json::to_string(ir).expect("ir serializes");
            (
                "/v1/tasks",
                "application/json",
                format!(r#"{{"token":"{token}","ir":{ir_json}}}"#).into_bytes(),
            )
        }
        (Codec::Json, n) => {
            let ir_json = serde_json::to_string(ir).expect("ir serializes");
            let one = format!(r#"{{"token":"{token}","ir":{ir_json}}}"#);
            (
                "/v1/tasks:batch",
                "application/json",
                format!("[{}]", vec![one; n].join(",")).into_bytes(),
            )
        }
        (Codec::Binary, n) => {
            let frame = hpcqc_wire::SubmitFrame {
                token: token.to_string(),
                hint: None,
                idempotency_key: None,
                ir: ir.clone(),
            };
            if n == 1 {
                (
                    "/v1/tasks",
                    hpcqc_wire::CONTENT_TYPE_BIN,
                    hpcqc_wire::encode_submit(&frame),
                )
            } else {
                (
                    "/v1/tasks:batch",
                    hpcqc_wire::CONTENT_TYPE_BIN,
                    hpcqc_wire::encode_submit_batch(&vec![frame; n]),
                )
            }
        }
    };
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(&body);
    req
}

/// Drive `spec.connections` connections at aggregate `spec.rate` submits/s
/// for `spec.secs` (request arrivals fire at `rate / batch`).
fn run_case(addr: &str, spec: CaseSpec) -> CaseResult {
    let CaseSpec {
        connections,
        rate,
        secs,
        codec,
        batch,
    } = spec;
    // one session per 16 connections, capped — token reuse is realistic
    // (users hold sessions open) and keeps setup fast
    let n_sessions = (connections / 16).clamp(1, 256);
    let tokens: Vec<String> = (0..n_sessions)
        .map(|u| {
            let body = format!(r#"{{"user":"bench-{u}","class":"production"}}"#);
            let (st, body) = HttpClient::new(addr)
                .request("POST", "/v1/sessions", Some(&body))
                .expect("session opens over HTTP");
            assert_eq!(st, 201, "{body}");
            let v: serde_json::Value = serde_json::from_str(&body).expect("session json");
            v["token"].as_str().expect("token").to_string()
        })
        .collect();

    let ir = bench_program(1);
    let ok_status = if batch > 1 { 200 } else { 201 };
    let requests: Vec<Arc<Vec<u8>>> = (0..connections)
        .map(|i| Arc::new(build_request(codec, batch, &tokens[i % tokens.len()], &ir)))
        .collect();

    let mut poll = Poll::new().expect("poller");
    let mut events = Events::with_capacity(1024);
    let mut conns: Vec<Conn> = requests.into_iter().map(Conn::new).collect();

    // Arrivals are *requests*: a batch case at the same submit rate fires
    // 1/batch as many of them.
    let req_rate = rate / batch as f64;
    let mut stats = CaseStats {
        latencies_ms: Vec::with_capacity((req_rate * secs) as usize + 16),
        errors: 0,
        reconnects: 0,
    };
    let mut debt_total: usize = 0;
    let mut unsustainable = false;
    let debt_cap = ((req_rate * 2.0) as usize).max(1000);

    let t0 = Instant::now();
    let interval = 1.0 / req_rate;
    let mut next_k: u64 = 0; // arrival k fires at k * interval, on conn k % C

    macro_rules! teardown {
        ($conn:expr, $poll:expr) => {{
            if let Some(s) = $conn.stream.take() {
                if $conn.registered {
                    let _ = $poll.registry().deregister(&s);
                }
            }
            $conn.registered = false;
            $conn.want_write = false;
            $conn.rbuf.clear();
            $conn.wpos = usize::MAX;
        }};
    }

    // Start (or restart) the request whose arrival was scheduled at `sched`.
    fn start_request(
        conn: &mut Conn,
        idx: usize,
        sched: f64,
        addr: &str,
        poll: &Poll,
        stats: &mut CaseStats,
    ) {
        if conn.stream.is_none() {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    s.set_nonblocking(true).expect("nonblocking client socket");
                    poll.registry()
                        .register(&s, Token(idx), Interest::READABLE)
                        .expect("register client conn");
                    conn.stream = Some(s);
                    conn.registered = true;
                }
                Err(_) => {
                    stats.errors += 1;
                    conn.outstanding = None;
                    return;
                }
            }
        }
        conn.wpos = 0;
        conn.outstanding = Some(sched);
        conn.rbuf.clear();
        flush_write(conn, idx, poll, stats);
    }

    fn flush_write(conn: &mut Conn, idx: usize, poll: &Poll, stats: &mut CaseStats) {
        let Some(stream) = conn.stream.as_mut() else {
            return;
        };
        while conn.wpos < conn.wbuf.len() {
            match stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => break,
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    // connection died mid-send: drop the sample, reconnect
                    // lazily on the next arrival
                    stats.errors += 1;
                    stats.reconnects += 1;
                    if let Some(s) = conn.stream.take() {
                        let _ = poll.registry().deregister(&s);
                    }
                    conn.registered = false;
                    conn.want_write = false;
                    conn.outstanding = None;
                    conn.wpos = usize::MAX;
                    return;
                }
            }
        }
        let pending = conn.wpos < conn.wbuf.len();
        if pending != conn.want_write {
            conn.want_write = pending;
            let interest = if pending {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if let Some(s) = conn.stream.as_ref() {
                let _ = poll.registry().reregister(s, Token(idx), interest);
            }
        }
    }

    let mut scratch = [0u8; 16 << 10];
    let deadline_extra = Duration::from_secs_f64(secs) + Duration::from_secs(2);

    loop {
        let now = t0.elapsed().as_secs_f64();

        // fire due arrivals
        while (next_k as f64) * interval <= now {
            let sched = (next_k as f64) * interval;
            if sched >= secs {
                break;
            }
            let idx = (next_k as usize) % connections;
            next_k += 1;
            let conn = &mut conns[idx];
            if conn.outstanding.is_none() {
                start_request(conn, idx, sched, addr, &poll, &mut stats);
            } else {
                conn.debt.push_back(sched);
                debt_total += 1;
            }
        }
        if debt_total > debt_cap {
            unsustainable = true;
            break;
        }

        let done_scheduling = (next_k as f64) * interval >= secs;
        if done_scheduling
            && (conns
                .iter()
                .all(|c| c.outstanding.is_none() && c.debt.is_empty())
                || t0.elapsed() > deadline_extra)
        {
            break;
        }

        // sleep until the next arrival (bounded)
        let timeout = if done_scheduling {
            Duration::from_millis(50)
        } else {
            let next_due = (next_k as f64) * interval;
            Duration::from_secs_f64((next_due - t0.elapsed().as_secs_f64()).clamp(0.0, 0.05))
        };
        poll.poll(&mut events, Some(timeout)).expect("client poll");

        let mut ready: Vec<usize> = Vec::with_capacity(events.iter().count());
        for ev in &events {
            ready.push(ev.token().0);
        }
        for idx in ready {
            let conn = &mut conns[idx];
            if conn.stream.is_none() {
                continue;
            }
            if conn.want_write {
                flush_write(conn, idx, &poll, &mut stats);
            }
            // read everything available
            let mut eof = false;
            while let Some(stream) = conn.stream.as_mut() {
                match stream.read(&mut scratch) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => conn.rbuf.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            // complete response?
            if let Some((status, total, close)) = try_parse_response(&conn.rbuf) {
                let now = t0.elapsed().as_secs_f64();
                if let Some(sched) = conn.outstanding.take() {
                    if status == ok_status {
                        stats.latencies_ms.push((now - sched) * 1e3);
                    } else {
                        stats.errors += 1;
                    }
                }
                conn.rbuf.drain(..total);
                if close {
                    teardown!(conn, poll);
                    stats.reconnects += 1;
                }
                if let Some(next_sched) = conn.debt.pop_front() {
                    debt_total -= 1;
                    start_request(conn, idx, next_sched, addr, &poll, &mut stats);
                }
            } else if eof {
                if conn.outstanding.take().is_some() {
                    stats.errors += 1;
                }
                teardown!(conn, poll);
                stats.reconnects += 1;
                if let Some(next_sched) = conn.debt.pop_front() {
                    debt_total -= 1;
                    start_request(conn, idx, next_sched, addr, &poll, &mut stats);
                }
            }
        }
    }

    let wall = t0.elapsed().as_secs_f64().min(secs.max(0.001));
    stats.latencies_ms.sort_by(f64::total_cmp);
    CaseResult {
        connections,
        codec: codec.as_str(),
        batch,
        target_rps: rate,
        duration_secs: secs,
        samples: stats.latencies_ms.len(),
        achieved_rps: stats.latencies_ms.len() as f64 * batch as f64 / wall,
        latency_p50_ms: percentile(&stats.latencies_ms, 0.50),
        latency_p90_ms: percentile(&stats.latencies_ms, 0.90),
        latency_p99_ms: percentile(&stats.latencies_ms, 0.99),
        latency_max_ms: stats.latencies_ms.last().copied().unwrap_or(f64::NAN),
        errors: stats.errors,
        reconnects: stats.reconnects,
        unsustainable,
    }
}

/// Clamp a connection count to what the fd limit allows (client + server
/// side of every connection live in this one process).
fn fd_clamped(conns: usize) -> usize {
    let soft_limit = std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))?
                .split_whitespace()
                .nth(3)?
                .parse::<usize>()
                .ok()
        })
        .unwrap_or(1024);
    let max = soft_limit.saturating_sub(512) / 2;
    if conns > max {
        eprintln!("clamping {conns} connections to {max} (fd limit {soft_limit})");
    }
    conns.min(max)
}

fn main() {
    let args = HarnessArgs::from_env();
    let flag_val = |name: &str| {
        args.flags
            .iter()
            .position(|f| f == name)
            .and_then(|i| args.flags.get(i + 1).cloned())
    };
    let out_path = flag_val("--out").unwrap_or_else(|| "BENCH_rest.json".to_string());
    let codec_override = flag_val("--codec").map(|v| {
        Codec::parse(&v).unwrap_or_else(|| {
            eprintln!("--codec must be json|binary, got {v:?}");
            std::process::exit(2);
        })
    });
    let batch_override: Option<usize> = flag_val("--batch").map(|v| {
        v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
            eprintln!("--batch must be a positive integer, got {v:?}");
            std::process::exit(2);
        })
    });
    let shards: usize = flag_val("--shards")
        .map(|v| {
            v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                eprintln!("--shards must be a positive integer, got {v:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(1);

    // The wire is the subject: control-plane extras off, journal off.
    let cfg = DaemonConfig {
        validate_on_submit: false,
        analyze_on_submit: false,
        ..DaemonConfig::default()
    };
    let resource = Arc::new(InstantResource {
        spec: SvBackend::default().spec(),
    });
    let svc = Arc::new(MiddlewareService::new(resource, cfg));
    // Sized for the 10k-connection case: the default 4096-connection cap is
    // a DoS guard, not a bench subject — at 10k conns it would turn the run
    // into a 503/reconnect storm.
    let server = serve_with(
        Arc::clone(&svc),
        0,
        ServerConfig {
            max_connections: 16_384,
            shards,
            ..Default::default()
        },
    )
    .expect("REST server binds");
    let addr = server.addr();
    if shards > 1 {
        eprintln!(
            "serving on {} SO_REUSEPORT shard(s) (requested {shards})",
            server.shards()
        );
    }

    // dispatcher draining the queue, as deployed
    let stop = Arc::new(AtomicBool::new(false));
    let dispatcher = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if svc.pump_batch(64) == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        })
    };

    // REST_PERF_CASES="conns:rps:secs[:codec[:batch]],..." overrides the
    // ladder for exploratory runs; --codec/--batch override those axes on
    // whatever ladder is selected.
    let case = |connections: usize, rate: f64, codec: Codec, batch: usize| CaseSpec {
        connections,
        rate,
        secs: 4.0,
        codec,
        batch,
    };
    let mut cases_spec: Vec<CaseSpec> = if let Ok(spec) = std::env::var("REST_PERF_CASES") {
        spec.split(',')
            .filter_map(|c| {
                let mut it = c.split(':');
                Some(CaseSpec {
                    connections: it.next()?.parse().ok()?,
                    rate: it.next()?.parse().ok()?,
                    secs: it.next()?.parse().ok()?,
                    codec: it.next().map_or(Some(Codec::Json), Codec::parse)?,
                    batch: it.next().map_or(Some(1), |b| b.parse().ok())?,
                })
            })
            .collect()
    } else if args.quick {
        vec![CaseSpec {
            connections: 64,
            rate: 1000.0,
            secs: 2.0,
            codec: Codec::Json,
            batch: 1,
        }]
    } else {
        vec![
            // JSON single-submit ladder (historical axis; feeds `sustained`)
            case(1000, 10_000.0, Codec::Json, 1),
            case(1000, 15_000.0, Codec::Json, 1),
            case(1000, 20_000.0, Codec::Json, 1),
            case(1000, 25_000.0, Codec::Json, 1),
            case(1000, 30_000.0, Codec::Json, 1),
            case(1000, 40_000.0, Codec::Json, 1),
            case(1000, 50_000.0, Codec::Json, 1),
            // binary single-submit: same arrival pattern, cheaper parse
            case(1000, 20_000.0, Codec::Binary, 1),
            case(1000, 30_000.0, Codec::Binary, 1),
            case(1000, 40_000.0, Codec::Binary, 1),
            case(1000, 50_000.0, Codec::Binary, 1),
            // batched ingest: 16 submits per request, both codecs
            case(1000, 40_000.0, Codec::Json, 16),
            case(1000, 80_000.0, Codec::Json, 16),
            case(1000, 40_000.0, Codec::Binary, 16),
            case(1000, 80_000.0, Codec::Binary, 16),
            case(1000, 120_000.0, Codec::Binary, 16),
            case(1000, 160_000.0, Codec::Binary, 16),
            // high-connection case (historical)
            CaseSpec {
                connections: 10_000,
                rate: 10_000.0,
                secs: 4.0,
                codec: Codec::Json,
                batch: 1,
            },
        ]
    };
    if let Some(codec) = codec_override {
        for c in &mut cases_spec {
            c.codec = codec;
        }
    }
    if let Some(batch) = batch_override {
        for c in &mut cases_spec {
            c.batch = batch;
        }
    }

    // Discarded warmup: pre-faults lazy allocations (connection slab, page
    // cache, per-thread state) and absorbs the first connect storm so the
    // first measured case doesn't start with a cold-start debt spiral.
    {
        let first = cases_spec.first().copied().unwrap_or(CaseSpec {
            connections: 64,
            rate: 2_000.0,
            secs: 2.0,
            codec: Codec::Json,
            batch: 1,
        });
        let conns = fd_clamped(first.connections);
        eprintln!(
            "warmup: {conns} connections at 2000 submits/s ({}, batch {}) for 2s (discarded) ...",
            first.codec.as_str(),
            first.batch
        );
        let _ = run_case(
            &addr,
            CaseSpec {
                connections: conns,
                rate: 2_000.0,
                secs: 2.0,
                codec: first.codec,
                batch: first.batch,
            },
        );
    }

    // Inter-case barrier: an aborted case can leave seconds of queued
    // backlog; let the dispatcher drain it so the next rung starts clean
    // instead of competing with leftover work.
    let drain = |svc: &MiddlewareService| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.queue_depth() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    let mut cases = Vec::new();
    for spec in cases_spec {
        let spec = CaseSpec {
            connections: fd_clamped(spec.connections),
            ..spec
        };
        drain(&svc);
        eprintln!(
            "driving {} connections at {:.0} submits/s ({}, batch {}) for {:.0}s ...",
            spec.connections,
            spec.rate,
            spec.codec.as_str(),
            spec.batch,
            spec.secs
        );
        cases.push(run_case(&addr, spec));
    }

    // Gate: finite, positive measurements on every completed case.
    for c in &cases {
        if c.unsustainable {
            continue;
        }
        for (label, v) in [
            ("achieved_rps", c.achieved_rps),
            ("latency_p50_ms", c.latency_p50_ms),
            ("latency_p99_ms", c.latency_p99_ms),
        ] {
            if !v.is_finite() || v <= 0.0 {
                eprintln!(
                    "non-finite or non-positive measurement: {}c@{} {label}={v}",
                    c.connections, c.target_rps
                );
                std::process::exit(1);
            }
        }
    }

    // A case "qualifies" when it kept up with its target at sane tails —
    // the same bar the historical sustained figure uses.
    let qualifies = |c: &CaseResult| {
        !c.unsustainable && c.achieved_rps >= 0.97 * c.target_rps && c.latency_p99_ms < 10.0
    };
    let sustained = cases
        .iter()
        .filter(|c| c.connections == 1000 && c.codec == "json" && c.batch == 1 && qualifies(c))
        .map(|c| c.target_rps)
        .fold(None::<f64>, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))));

    // Headline comparison: best qualifying submits/s per (codec, batched)
    // axis, from this same run.
    let best = |codec: &str, batched: bool| {
        cases
            .iter()
            .filter(|c| c.codec == codec && (c.batch > 1) == batched && qualifies(c))
            .map(|c| c.achieved_rps)
            .fold(None::<f64>, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    };
    let ingest_comparison = match (best("json", false), best("binary", true)) {
        (Some(json_single), Some(binary_batched)) => Some(IngestComparison {
            json_single_best_rps: json_single,
            binary_single_best_rps: best("binary", false).unwrap_or(0.0),
            json_batched_best_rps: best("json", true).unwrap_or(0.0),
            binary_batched_best_rps: binary_batched,
            binary_batched_vs_json_single: binary_batched / json_single,
        }),
        _ => None,
    };

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.connections),
                c.codec.to_string(),
                format!("{}", c.batch),
                format!("{:.0}", c.target_rps),
                if c.unsustainable {
                    "UNSUSTAINABLE".into()
                } else {
                    format!("{:.0}", c.achieved_rps)
                },
                format!("{:.2}", c.latency_p50_ms),
                format!("{:.2}", c.latency_p99_ms),
                format!("{}", c.errors),
                format!("{}", c.reconnects),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "conns",
                "codec",
                "batch",
                "target/s",
                "achieved/s",
                "p50(ms)",
                "p99(ms)",
                "errs",
                "reconn"
            ],
            &rows
        )
    );
    if let Some(s) = sustained {
        println!(
            "sustained at 1k conns (json, single): {s:.0} submits/s (p99 < 10 ms); pre-PR best {:.0}/s (sustained)",
            PRE_PR_BEST_RPS_1K
        );
    }
    if let Some(cmp) = &ingest_comparison {
        println!(
            "ingest: binary batched {:.0}/s vs json single {:.0}/s = {:.2}x",
            cmp.binary_batched_best_rps,
            cmp.json_single_best_rps,
            cmp.binary_batched_vs_json_single
        );
    }

    let report = BenchReport {
        benchmark: "rest_perf".into(),
        commit_note: "binary wire codec + batched ingest over the epoll keep-alive front end"
            .into(),
        quick: args.quick,
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        shards: server.shards(),
        cases,
        sustained_rps_1k_conns: sustained,
        ingest_comparison,
        baseline_pre_pr: Baseline {
            commit: "29bbd49".into(),
            sustained_rps_1k_conns: PRE_PR_SUSTAINED_RPS_1K,
            best_achieved_rps_1k_conns: PRE_PR_BEST_RPS_1K,
            latency_p99_ms_at_best: PRE_PR_P99_MS_AT_BEST,
        },
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark json");
    eprintln!("wrote {out_path}");

    stop.store(true, Ordering::Release);
    dispatcher.join().expect("dispatcher thread");
}
