//! The traced run's two decompositions, both taken from outside the program
//! on a second, dispatcher-less stack recovered from the same fixture:
//!
//! * the **stepped journey** — the harness itself calls, per task, SDK build
//!   → `DaemonSession::submit` → `MiddlewareService::pump_once` → `status` →
//!   `result`, so the five spans partition a journey with no waiting in it;
//! * the **layer ladder** — the workload's own generated programs replayed
//!   against each layer's public entry point, outermost in. A layer's self
//!   time is its rung minus the rung below.
//!
//! Every value is a median over `SUBMIT_CALLS` calls on the submit side and
//! over as many executions as the time budget allows on the execute side.

use crate::gen::ProgramTable;
use crate::measure::{Error, Values};
use crate::stack::{emulator, Fixture, Stack};
use crate::stats::{ladder_self_times, median_or_zero};
use crate::workloads::{check_result, Recorder, Workload, FRAME};
use hpcqc_core::DaemonSession;
use hpcqc_emulator::{SampleResult, SvBackend};
use hpcqc_middleware::daemon::SubmitItem;
use hpcqc_middleware::http::{HttpClient, Request};
use hpcqc_middleware::journal::SharedJournal;
use hpcqc_middleware::{
    rest, DaemonConfig, DaemonTaskStatus, JournalConfig, JournalRecord, MiddlewareService,
    PriorityClass, QuantumTask, QueueConfig, TaskQueue,
};
use hpcqc_program::ProgramIr;
use hpcqc_qrmi::QuantumResource;
use hpcqc_scheduler::PatternHint;
use hpcqc_wire as wire;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per submit-side rung.
const SUBMIT_CALLS: usize = 200;
/// Executions the execute side makes at least, whatever the budget.
const MIN_EXECUTIONS: usize = 3;
/// Queue depth of the deep `TaskQueue` measurement (a whole sweep queued).
const DEEP_QUEUE: usize = 64;
/// Trace ids of ladder and journey spans start here, clear of task ordinals.
const LADDER_TRACE: u64 = 1 << 40;
const JOURNEY_TRACE: u64 = 1 << 41;

/// Rungs A to D are each one fsync and little else, so two neighbouring
/// medians may swap by the fsync's own run-to-run noise: an inner rung up to
/// this share slower than the rung containing it is not yet a mis-measurement.
const RUNG_NOISE: f64 = 0.05;

const CLASS: PriorityClass = PriorityClass::Production;

/// Times calls into the layers: every call is a span in the trace and a
/// sample, in µs, in the series of the same name.
struct Probe<'a> {
    rec: &'a mut Recorder,
    series: BTreeMap<&'static str, Vec<f64>>,
}

impl Probe<'_> {
    fn call<T>(
        &mut self,
        trace_id: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = self.rec.clock.now_ns();
        let out = f();
        let t1 = self.rec.clock.now_ns();
        self.rec.tracer.record(trace_id, name, parent, t0, t1);
        self.push(name, (t1 - t0) as f64 / 1e3);
        out
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    fn last(&self, name: &str) -> f64 {
        *self.series[name].last().expect("a call was just timed")
    }

    fn median(&mut self, name: &str) -> f64 {
        self.series.get_mut(name).map_or(0.0, |v| median_or_zero(v))
    }

    /// Median of `outer` less median of `inner`, as measured: a negative
    /// value means the ladder mis-measured, and `report` says so.
    fn below(&mut self, outer: &str, inner: &str) -> f64 {
        self.median(outer) - self.median(inner)
    }

    /// What the call just timed as `call` took on top of the emulator run
    /// inside it: the resource timed that run itself, within the same call,
    /// so this is not a difference of two separately noisy runs.
    fn push_above_kernel(&mut self, name: &'static str, call: &str, stack: &Stack) {
        let kernel_us = stack.resource.kernel_profile().last_secs * 1e6;
        self.push(name, self.last(call) - kernel_us);
    }
}

/// The JSON submit body exactly as `DaemonSession::submit` builds it.
fn json_submit_body(token: &str, ir: &ProgramIr) -> String {
    serde_json::json!({
        "token": token,
        "ir": ir,
        "hint": Option::<&str>::None,
        "idempotency_key": Option::<&str>::None,
    })
    .to_string()
}

fn submit_frame(token: &str, ir: &ProgramIr) -> wire::SubmitFrame {
    wire::SubmitFrame {
        token: token.to_string(),
        hint: None,
        idempotency_key: None,
        ir: ir.clone(),
    }
}

/// A single-submit request in the workload's codec.
fn submit_request(binary: bool, token: &str, ir: &ProgramIr) -> Request {
    let body = if binary {
        wire::encode_submit(&submit_frame(token, ir))
    } else {
        json_submit_body(token, ir).into_bytes()
    };
    request("POST", "/v1/tasks".into(), binary, token, body)
}

fn request(method: &str, path: String, binary: bool, token: &str, body: Vec<u8>) -> Request {
    let mut headers = BTreeMap::new();
    if binary {
        headers.insert(
            "content-type".to_string(),
            wire::CONTENT_TYPE_BIN.to_string(),
        );
        headers.insert("accept".to_string(), wire::CONTENT_TYPE_BIN.to_string());
    } else {
        headers.insert("content-type".to_string(), "application/json".to_string());
    }
    Request {
        method: method.to_string(),
        path,
        query: [("token".to_string(), token.to_string())].into(),
        headers,
        body,
    }
}

fn task_id_of(resp: &hpcqc_middleware::Response, binary: bool) -> Result<u64, Error> {
    if resp.status != 201 {
        return Err(format!("in-process submit answered {}", resp.status).into());
    }
    if binary {
        Ok(wire::decode_task_id(&resp.body)?)
    } else {
        let v: serde_json::Value = serde_json::from_slice(&resp.body)?;
        v["task_id"].as_u64().ok_or_else(|| "no task_id".into())
    }
}

fn queued_task(id: u64, ir: &Arc<ProgramIr>) -> QuantumTask {
    QuantumTask {
        id,
        session: "ladder".into(),
        user: "ladder".into(),
        class: CLASS,
        ir: Arc::clone(ir),
        hint: PatternHint::None,
        submitted_at: id as f64 * 1e-3,
    }
}

/// A service with one open production session.
struct Daemon {
    svc: MiddlewareService,
    token: String,
}

impl Daemon {
    /// An in-memory daemon: what submit costs when nothing is synced.
    fn in_memory(analyze_on_submit: bool) -> Result<Daemon, Error> {
        let cfg = DaemonConfig {
            analyze_on_submit,
            ..DaemonConfig::default()
        };
        let svc = MiddlewareService::new(emulator(), cfg);
        let token = svc.open_session("twin", CLASS)?;
        Ok(Daemon { svc, token })
    }

    fn submit(&self, ir: &ProgramIr) -> Result<u64, Error> {
        Ok(self
            .svc
            .submit_with_key(&self.token, ir.clone(), PatternHint::None, None)?)
    }

    /// Take a just-submitted task out again, so the queue stays empty.
    fn cancel(&self, task: u64) -> Result<(), Error> {
        Ok(self.svc.cancel(&self.token, task)?)
    }
}

/// Everything the rungs are measured on.
struct Ladder<'a> {
    stack: &'a Stack,
    table: ProgramTable,
    binary: bool,
    via_gateway: DaemonSession,
    direct: DaemonSession,
    /// The journaled daemon's in-process token (rungs C and D).
    token: String,
    shard_http: HttpClient,
    /// In-memory twins with analysis on and off. Differences of
    /// fsync-sized medians would be all noise, so every self time that is
    /// small next to an fsync is taken on these.
    analyzed: Daemon,
    plain: Daemon,
    journal: SharedJournal,
    queue: TaskQueue,
    deep_queue: TaskQueue,
    backend: SvBackend,
    probe: Probe<'a>,
}

impl Ladder<'_> {
    /// One stepped journey on program `j`, then the QRMI and emulator rungs
    /// on the same program. Returns the completed task and its result.
    fn journey(&mut self, j: usize) -> Result<(u64, SampleResult), Error> {
        let Ladder {
            stack,
            table,
            via_gateway,
            backend,
            probe,
            ..
        } = self;
        let id = JOURNEY_TRACE + j as u64;
        let t0 = probe.rec.clock.now_ns();
        let ir = probe.call(id, "journey.build", "journey", || table.program(j));
        let task = probe.call(id, "journey.submit", "journey", || {
            via_gateway.submit(&ir, PatternHint::None)
        })?;
        probe.call(id, "journey.pump", "journey", || stack.svc.pump_once());
        probe.push_above_kernel("pump_above_kernel", "journey.pump", stack);
        let status = probe.call(id, "journey.status", "journey", || via_gateway.status(task))?;
        if status != DaemonTaskStatus::Completed {
            return Err(format!("journey task {task} is {status:?} after one pump").into());
        }
        let result = probe.call(id, "journey.result", "journey", || via_gateway.result(task))?;
        let t1 = probe.rec.clock.now_ns();
        probe.rec.tracer.record(id, "journey", "", t0, t1);
        let total_us: f64 = [
            "journey.build",
            "journey.submit",
            "journey.pump",
            "journey.status",
            "journey.result",
        ]
        .iter()
        .map(|s| probe.last(s))
        .sum();
        probe.push("journey_ms", total_us / 1e3);
        check_result(&result, table.shape)?;

        let lease = stack.resource.acquire()?;
        probe.call(id, "ladder.qrmi_run", "journey", || {
            hpcqc_qrmi::run_to_completion(stack.resource.as_ref(), &lease, &ir, 10_000)
        })?;
        probe.push_above_kernel("qrmi_above_kernel", "ladder.qrmi_run", stack);
        stack.resource.release(&lease)?;
        let (_, phases) = probe.call(id, "ladder.emulator_run", "journey", || {
            backend.run_timed(&ir, j as u64)
        })?;
        probe.push("evolve_ms", phases.evolve_ms);
        probe.push("sample_ms", phases.sample_ms);
        Ok((task, result))
    }

    /// Round `i` of the submit side: program `i` against every rung.
    fn submit_round(&mut self, i: usize) -> Result<(), Error> {
        let Ladder {
            stack,
            table,
            binary,
            via_gateway,
            direct,
            token,
            analyzed,
            plain,
            journal,
            queue,
            deep_queue,
            probe,
            ..
        } = self;
        let (svc, binary) = (&stack.svc, *binary);
        let id = LADDER_TRACE + i as u64;
        let ir = probe.call(id, "sdk.build", "ladder", || table.program(i));

        // (A) SDK submit via the gateway, (B) straight to the shard
        let a = probe.call(id, "A.gateway_submit", "ladder", || {
            via_gateway.submit(&ir, PatternHint::None)
        })?;
        svc.cancel(&via_gateway.token, a)?;
        let b = probe.call(id, "B.shard_submit", "ladder", || {
            direct.submit(&ir, PatternHint::None)
        })?;
        svc.cancel(&direct.token, b)?;

        // the two encodings of the submit body, whichever the workload uses
        let json = probe.call(id, "client.encode_json", "ladder", || {
            json_submit_body(token, &ir)
        });
        let frame = submit_frame(token, &ir);
        let bin = probe.call(id, "wire.encode_submit", "ladder", || {
            wire::encode_submit(&frame)
        });
        probe.call(id, "wire.decode_submit", "ladder", || {
            wire::decode_submit(&bin)
        })?;
        probe.push("json_bytes", json.len() as f64);
        probe.push("wire_bytes", bin.len() as f64);

        // (C) rest::route in-process, (D) the daemon's own entry point
        let req = submit_request(binary, token, &ir);
        let resp = probe.call(id, "C.rest_route", "ladder", || rest::route(svc, &req));
        svc.cancel(token, task_id_of(&resp, binary)?)?;
        let program = ir.clone();
        let d = probe.call(id, "D.daemon_submit", "ladder", || {
            svc.submit_with_key(token, program, PatternHint::None, None)
        })?;
        svc.cancel(token, d)?;

        // The same pair on the in-memory twin gives REST's own share. One
        // untimed call first: whichever in-memory call follows the syncing
        // ones finds the caches cold and would be charged some 20 µs for it.
        plain.cancel(plain.submit(&ir)?)?;
        let req = submit_request(binary, &analyzed.token, &ir);
        let resp = probe.call(id, "C.rest_route_twin", "ladder", || {
            rest::route(&analyzed.svc, &req)
        });
        analyzed.cancel(task_id_of(&resp, binary)?)?;

        // (E) the parts of D: analysis (on/off differential), the journal
        // append, the queue
        for (name, twin) in [
            ("E.submit_analyzed", &*analyzed),
            ("E.submit_plain", &*plain),
        ] {
            let task = probe.call(id, name, "ladder", || twin.submit(&ir))?;
            twin.cancel(task)?;
        }
        let shared = Arc::new(ir);
        let record = JournalRecord::TaskSubmitted {
            task: queued_task(i as u64, &shared),
            idempotency_key: None,
            warnings: Vec::new(),
        };
        probe.call(id, "E.journal_append", "ladder", || journal.append(&record))?;
        let task = queued_task(i as u64, &shared);
        probe.call(id, "E.queue_push", "ladder", || queue.push(task))?;
        probe.call(id, "E.queue_pop", "ladder", || queue.pop(0.0));
        while deep_queue.len() < DEEP_QUEUE - 1 {
            deep_queue.push(queued_task(1_000_000 + deep_queue.len() as u64, &shared))?;
        }
        let task = queued_task(i as u64, &shared);
        probe.call(id, "E.queue_push_deep", "ladder", || deep_queue.push(task))?;
        probe.call(id, "E.queue_pop_deep", "ladder", || deep_queue.pop(0.0));

        // the batch form, one frame of 16 every fourth round, on the twin
        if i.is_multiple_of(4) {
            let programs: Vec<ProgramIr> = (i..i + FRAME).map(|k| table.program(k)).collect();
            let frames: Vec<wire::SubmitFrame> = programs
                .iter()
                .map(|ir| submit_frame(&analyzed.token, ir))
                .collect();
            let req = request(
                "POST",
                "/v1/tasks:batch".into(),
                true,
                &analyzed.token,
                wire::encode_submit_batch(&frames),
            );
            let resp = probe.call(id, "C.rest_batch_twin", "ladder", || {
                rest::route(&analyzed.svc, &req)
            });
            for slot in wire::decode_batch_reply(&resp.body)? {
                match slot {
                    wire::BatchSlot::Ok { task_id } => analyzed.cancel(task_id)?,
                    wire::BatchSlot::Err { message, .. } => return Err(message.into()),
                }
            }
            let items: Vec<SubmitItem> = programs
                .into_iter()
                .map(|ir| SubmitItem {
                    token: analyzed.token.clone(),
                    ir,
                    hint: PatternHint::None,
                    idempotency_key: None,
                })
                .collect();
            let slots = probe.call(id, "E.batch_analyzed", "ladder", || {
                analyzed.svc.submit_batch(items)
            });
            for slot in slots {
                analyzed.cancel(slot?)?;
            }
        }
        Ok(())
    }

    /// Round `i` of the read side, on a task a journey completed.
    fn read_round(&mut self, i: usize, done: u64, result: &SampleResult) -> Result<(), Error> {
        let Ladder {
            stack,
            binary,
            token,
            shard_http,
            probe,
            ..
        } = self;
        let (svc, binary) = (&stack.svc, *binary);
        let id = LADDER_TRACE + i as u64;
        let path = format!("/v1/tasks/{done}");
        let req = request("GET", path.clone(), binary, token, Vec::new());
        probe.call(id, "C.rest_status", "ladder", || rest::route(svc, &req));
        probe.call(id, "D.daemon_status", "ladder", || svc.task_status(done))?;
        let req = request("GET", path + "/result", binary, token, Vec::new());
        probe.call(id, "C.rest_result", "ladder", || rest::route(svc, &req));
        probe.call(id, "D.daemon_result", "ladder", || svc.task_result(done))?;
        let encoded = probe.call(id, "wire.encode_result", "ladder", || {
            wire::encode_result(result)
        });
        probe.call(id, "wire.decode_result", "ladder", || {
            wire::decode_result(&encoded)
        })?;
        probe.call(id, "server.rtt", "ladder", || {
            shard_http.request("GET", "/v1/healthz", None)
        })?;
        Ok(())
    }

    /// Print the rungs and set every ladder and journey metric. Self times
    /// are reported as measured; a ladder that is not monotone or a negative
    /// self time is flagged in the report, never floored away.
    fn report(&mut self, executions: usize, out: &mut Values) {
        let probe = &mut self.probe;
        // A to D nest, each call containing the next; the parts of D are
        // measured on objects of their own and only add up to it approximately
        let rungs = [
            ("A gateway submit", probe.median("A.gateway_submit")),
            ("B shard submit", probe.median("B.shard_submit")),
            ("C rest::route", probe.median("C.rest_route")),
            ("D submit_with_key", probe.median("D.daemon_submit")),
        ];
        println!("  ladder: {SUBMIT_CALLS} calls per submit-side rung, {executions} executions");
        for (name, us) in rungs {
            println!("    {name:<26} {us:>12.2} us");
        }
        for (name, series) in [
            ("E journal append", "E.journal_append"),
            ("E submit, in memory", "E.submit_analyzed"),
            ("E same, analysis off", "E.submit_plain"),
            ("E queue push, depth 1", "E.queue_push"),
            ("E queue pop, depth 1", "E.queue_pop"),
        ] {
            println!("    {name:<26} {:>12.2} us", probe.median(series));
        }

        for (metric, series) in [
            ("harness.journey_p50_ms", "journey_ms"),
            ("sdk.build_us", "sdk.build"),
            ("core.client.encode_us", "client.encode_json"),
            ("core.client.json_submit_bytes", "json_bytes"),
            ("wire.encode_submit_us", "wire.encode_submit"),
            ("wire.decode_submit_us", "wire.decode_submit"),
            ("wire.submit_bytes", "wire_bytes"),
            ("wire.encode_result_us", "wire.encode_result"),
            ("wire.decode_result_us", "wire.decode_result"),
            ("server.rtt_us", "server.rtt"),
            ("taskqueue.push_us", "E.queue_push_deep"),
            ("taskqueue.pop_us", "E.queue_pop_deep"),
            ("journal.append_us", "E.journal_append"),
            ("daemon.status_us", "D.daemon_status"),
            ("daemon.result_us", "D.daemon_result"),
            ("emulator.evolve_ms", "evolve_ms"),
            ("emulator.sample_ms", "sample_ms"),
        ] {
            out.set(metric, probe.median(series));
        }
        // self times: a rung less the rung below it
        let qrmi_self = probe.median("qrmi_above_kernel");
        let self_times = [
            (
                "gateway.self_us",
                probe.below("A.gateway_submit", "B.shard_submit"),
            ),
            (
                "rest.submit_self_us",
                probe.below("C.rest_route_twin", "E.submit_analyzed"),
            ),
            (
                "rest.batch_self_us_per_frame",
                probe.below("C.rest_batch_twin", "E.batch_analyzed") / FRAME as f64,
            ),
            (
                "rest.status_self_us",
                probe.below("C.rest_status", "D.daemon_status"),
            ),
            (
                "rest.result_self_us",
                probe.below("C.rest_result", "D.daemon_result"),
            ),
            (
                "analysis.analyze_us",
                probe.below("E.submit_analyzed", "E.submit_plain"),
            ),
            // submit with neither analysis nor journal, less the push
            (
                "daemon.submit_self_us",
                probe.below("E.submit_plain", "E.queue_push"),
            ),
            ("qrmi.run_self_us", qrmi_self),
            (
                "daemon.dispatch_self_us",
                probe.median("pump_above_kernel") - qrmi_self,
            ),
        ];
        let mut flaws: Vec<String> = ladder_self_times(&rungs, RUNG_NOISE)
            .err()
            .into_iter()
            .collect();
        for (metric, us) in self_times {
            out.set(metric, us);
            if us < 0.0 {
                flaws.push(format!("{metric} = {us:.3} us is negative"));
            }
        }
        println!(
            "  trace sanity: ladder A >= B >= C >= D (within {RUNG_NOISE}) and every self time non-negative: {}",
            flaws.is_empty()
        );
        for flaw in flaws {
            println!("  LADDER MIS-MEASURED: {flaw}");
        }
    }
}

/// Run the journey and the ladder for `w`. A call that fails or returns a
/// wrong result aborts the run.
pub fn run(
    w: Workload,
    seed: u64,
    fixture: &Fixture,
    dir: PathBuf,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Values,
) -> Result<(), Error> {
    let started = Instant::now();
    let stack = Stack::bring_up(fixture, dir, false)?;
    let mut ladder = Ladder {
        table: w.primary(seed),
        binary: w.binary(),
        via_gateway: w.client(&stack.front.addr()).open_session("a", CLASS)?,
        direct: w.client(&stack.shard.addr()).open_session("b", CLASS)?,
        token: stack.svc.open_session("cd", CLASS)?,
        shard_http: HttpClient::new(stack.shard.addr()),
        analyzed: Daemon::in_memory(true)?,
        plain: Daemon::in_memory(false)?,
        journal: SharedJournal::open(
            stack.journal_dir().join("standalone"),
            JournalConfig::default(),
        )?,
        queue: TaskQueue::new(QueueConfig::default()),
        deep_queue: TaskQueue::new(QueueConfig::default()),
        backend: SvBackend::default(),
        probe: Probe {
            rec,
            series: BTreeMap::new(),
        },
        stack: &stack,
    };
    // one journey first: the read-side rungs need a completed task
    let (done, result) = ladder.journey(0)?;
    for i in 0..SUBMIT_CALLS {
        ladder.submit_round(i)?;
        ladder.read_round(i, done, &result)?;
    }
    // the rest of the execute side, as far as the budget goes
    let mut executions = 1;
    while executions < SUBMIT_CALLS && (executions < MIN_EXECUTIONS || started.elapsed() < budget) {
        ladder.journey(executions)?;
        executions += 1;
    }
    ladder.report(executions, out);
    Ok(())
}
