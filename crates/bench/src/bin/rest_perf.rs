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
//! stays within 3% of target and p99 < 10 ms, read off the medians over the
//! runs. Connections reconnect transparently when the server closes them
//! (`connection: close`), so the same harness can measure a
//! thread-per-connection server (EXPERIMENTS.md RP has those numbers).
//!
//! # Codec and batch axes
//!
//! `--codec json|binary` selects the submit encoding (JSON bodies against
//! `POST /v1/tasks`, or `application/x-hpcqc-bin` wire frames), `--batch N`
//! packs N submits into one `POST /v1/tasks:batch` request. Bodies are
//! encoded by the daemon's own `protocol::Codec` and responses framed by
//! its `http::extract_response`, so the load generator speaks exactly what
//! the SDK does. Rates are always **submits**/s, so a batch case at the
//! same rate issues 1/N as many HTTP requests; latency percentiles are per
//! *request* (i.e. per batch), still measured from the scheduled arrival
//! (coordinated-omission-corrected).
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

use hpcqc_bench::{bench_program, instant_daemon, percentile, Case, HarnessArgs, Report, Sample};
use hpcqc_middleware::http::extract_response;
use hpcqc_middleware::protocol::Codec;
use hpcqc_middleware::rest::serve_with;
use hpcqc_middleware::{HttpClient, ServerConfig};
use hpcqc_program::ProgramIr;
use hpcqc_wire::SubmitFrame;
use mio::{Events, Interest, Poll, Token};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `--codec` spelling of a codec.
fn codec_name(codec: Codec) -> &'static str {
    match codec {
        Codec::Json => "json",
        Codec::Binary => "binary",
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

struct CaseStats {
    latencies_ms: Vec<f64>,
    errors: usize,
    reconnects: usize,
}

/// Serialize one prebuilt submit request for `token` (the per-connection
/// request buffer the load generator replays).
fn build_request(codec: Codec, batch: usize, token: &str, ir: &ProgramIr) -> Vec<u8> {
    let frame = SubmitFrame {
        token: token.to_string(),
        hint: None,
        idempotency_key: None,
        ir: ir.clone(),
    };
    let (path, body) = match batch {
        1 => ("/v1/tasks", codec.encode(&frame)),
        n => ("/v1/tasks:batch", codec.encode(&vec![frame; n])),
    };
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: {}\r\n\
         content-length: {}\r\n\r\n",
        codec.content_type(),
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(&body);
    req
}

/// Drive `spec.connections` connections at aggregate `spec.rate` submits/s
/// for `spec.secs` (request arrivals fire at `rate / batch`). Latency
/// percentiles are per HTTP request (each carrying `batch` submits).
fn run_case(addr: &str, spec: CaseSpec) -> Vec<Sample> {
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
            // complete response? (one the framer refuses ends the connection)
            let framed = extract_response(&conn.rbuf);
            if let Ok(Some(head)) = framed {
                let (status, end, close) = (head.status, head.end(), head.close);
                let now = t0.elapsed().as_secs_f64();
                if let Some(sched) = conn.outstanding.take() {
                    if status == ok_status {
                        stats.latencies_ms.push((now - sched) * 1e3);
                    } else {
                        stats.errors += 1;
                    }
                }
                conn.rbuf.drain(..end);
                if close {
                    teardown!(conn, poll);
                    stats.reconnects += 1;
                }
                if let Some(next_sched) = conn.debt.pop_front() {
                    debt_total -= 1;
                    start_request(conn, idx, next_sched, addr, &poll, &mut stats);
                }
            } else if eof || framed.is_err() {
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
    let lat = &mut stats.latencies_ms;
    lat.sort_by(f64::total_cmp);
    vec![
        // Achieved submits/s (`samples * batch / wall`).
        (
            "achieved_rps",
            "1/s",
            lat.len() as f64 * batch as f64 / wall,
        ),
        ("latency_p50_ms", "ms", percentile(lat, 0.50)),
        ("latency_p90_ms", "ms", percentile(lat, 0.90)),
        ("latency_p99_ms", "ms", percentile(lat, 0.99)),
        ("latency_max_ms", "ms", percentile(lat, 1.0)),
        // Completed HTTP requests.
        ("samples", "count", lat.len() as f64),
        // Non-2xx responses + transport failures (lost samples).
        ("errors", "count", stats.errors as f64),
        // Connections re-established mid-run: 0 on a keep-alive server.
        ("reconnects", "count", stats.reconnects as f64),
        // 1 when the run was aborted early: arrival debt exceeded two
        // seconds of target load, i.e. the server cannot keep up.
        ("unsustainable", "count", f64::from(u8::from(unsustainable))),
    ]
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

/// One measured run of `spec` on a stack of its own: daemon, REST server on
/// `shards` event loops, and a dispatcher draining the queue as deployed.
/// Nothing evicts a completed task from the daemon's table, so a stack kept
/// across runs would hand each run the table (and any aborted run's
/// backlog) of all the runs before it, and grow by gigabytes over a ladder.
fn run_fresh(spec: CaseSpec, shards: usize) -> Vec<Sample> {
    // The wire is the subject: control-plane extras off, journal off.
    let svc = Arc::new(instant_daemon(None));
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
    if server.shards() != shards {
        eprintln!(
            "serving on {} shard(s), not the {shards} requested",
            server.shards()
        );
    }
    let addr = server.addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if svc.pump_batch(64) == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        });
        // Discarded warmup: pre-faults lazy allocations (connection slab,
        // page cache, per-thread state) and absorbs the first connect storm
        // so the measured run doesn't start with a cold-start debt spiral.
        let warmup = CaseSpec {
            rate: 2_000.0,
            secs: 2.0,
            ..spec
        };
        let _ = run_case(&addr, warmup);
        let samples = run_case(&addr, spec);
        stop.store(true, Ordering::Release);
        samples
    })
}

fn main() {
    let args = HarnessArgs::from_env();
    let flag_val = |name: &str| {
        args.flags
            .iter()
            .position(|f| f == name)
            .and_then(|i| args.flags.get(i + 1).cloned())
    };
    let codec_override = flag_val("--codec").map(|v| match v.as_str() {
        "json" => Codec::Json,
        "binary" | "bin" => Codec::Binary,
        _ => {
            eprintln!("--codec must be json|binary, got {v:?}");
            std::process::exit(2);
        }
    });
    let positive = |name: &str| -> Option<usize> {
        flag_val(name).map(|v| {
            v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                eprintln!("{name} must be a positive integer, got {v:?}");
                std::process::exit(2);
            })
        })
    };
    let batch_override = positive("--batch");
    let shards = positive("--shards").unwrap_or(1);

    // --codec/--batch override those axes on whichever ladder is selected.
    let case = |connections: usize, rate: f64, codec: Codec, batch: usize| CaseSpec {
        connections,
        rate,
        secs: 4.0,
        codec,
        batch,
    };
    let mut ladder: Vec<CaseSpec> = if args.quick {
        vec![CaseSpec {
            secs: 2.0,
            ..case(64, 1000.0, Codec::Json, 1)
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
            case(10_000, 10_000.0, Codec::Json, 1),
        ]
    };
    for c in &mut ladder {
        c.codec = codec_override.unwrap_or(c.codec);
        c.batch = batch_override.unwrap_or(c.batch);
        c.connections = fd_clamped(c.connections);
    }

    let mut report = Report::new("rest_perf", &args);
    for spec in ladder {
        let name = format!(
            "{}c-{}-b{}@{:.0}",
            spec.connections,
            codec_name(spec.codec),
            spec.batch,
            spec.rate
        );
        let params = serde_json::json!({
            "connections": spec.connections,
            "codec": codec_name(spec.codec),
            "batch": spec.batch,
            "target_rps": spec.rate,
            "duration_secs": spec.secs,
            "shards": shards
        });
        report.case(&name, params, |_| run_fresh(spec, shards));
    }
    report.finish(&args.out_path("rest"));

    // Headlines, read off the medians: the best 1k-connection case per
    // (codec, batched) axis that kept up with its target at sane tails.
    let med = |c: &Case, m: &str| c.metrics[m].median;
    let target = |c: &Case| c.params["target_rps"].as_f64().expect("target_rps");
    let best = |codec: &str, batched: bool| {
        report
            .cases
            .iter()
            .filter(|c| {
                c.params["connections"].as_u64() == Some(1000)
                    && c.params["codec"].as_str() == Some(codec)
                    && (c.params["batch"].as_u64() > Some(1)) == batched
            })
            .filter(|c| {
                med(c, "unsustainable") == 0.0
                    && med(c, "achieved_rps") >= 0.97 * target(c)
                    && med(c, "latency_p99_ms") < 10.0
            })
            .max_by(|a, b| med(a, "achieved_rps").total_cmp(&med(b, "achieved_rps")))
    };
    if let Some(json) = best("json", false) {
        println!(
            "sustained at 1k conns (json, single): {:.0} submits/s (p99 < 10 ms)",
            target(json)
        );
        if let Some(bin) = best("binary", true) {
            let (b, j) = (med(bin, "achieved_rps"), med(json, "achieved_rps"));
            println!(
                "ingest: binary batched {b:.0}/s vs json single {j:.0}/s = {:.2}x",
                b / j
            );
        }
    }
}
