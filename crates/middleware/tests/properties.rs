//! Property-based tests on the middleware: HTTP-parser totality, queue
//! ordering invariants, exact conservation laws in the co-simulation, and
//! recovery landing on the live daemon's state.

mod common;
#[path = "common/reference_queue.rs"]
mod reference_queue;

use hpcqc_middleware::http::{extract_request, HttpError, Request};
use hpcqc_middleware::{
    DaemonConfig, FairshareTracker, JournalConfig, MiddlewareService, PriorityClass, QuantumTask,
    QueueConfig, TaskQueue,
};
use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_scheduler::{
    AdmissionPolicy, Cosim, CosimConfig, HybridJob, PatternHint, Phase, QpuPolicy,
};
use hpcqc_telemetry::Labels;
use proptest::prelude::*;
use reference_queue::ReferenceTaskQueue;
use std::sync::Arc;

/// Deliver `bytes` to the server's request parser as the two segments
/// `bytes[..cut]` and `bytes[cut..]`, framing after each arrival as the
/// event loop does: the first outcome that is not "need more bytes", and
/// what is left in the connection buffer once everything has arrived.
fn frame(bytes: &[u8], cut: usize) -> (Result<Option<Request>, HttpError>, Vec<u8>) {
    let (mut buf, mut pending) = (Vec::new(), None);
    let mut outcome = Ok(None);
    for segment in [&bytes[..cut], &bytes[cut..]] {
        buf.extend_from_slice(segment);
        if outcome == Ok(None) {
            outcome = extract_request(&mut buf, &mut pending).map(|h| h.map(|h| h.request));
        }
    }
    (outcome, buf)
}

fn dummy_ir() -> Arc<ProgramIr> {
    let reg = Register::linear(2, 6.0).unwrap();
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.1, 1.0, 0.0, 0.0).unwrap());
    Arc::new(ProgramIr::new(b.build().unwrap(), 1, "prop"))
}

fn arb_class() -> impl Strategy<Value = PriorityClass> {
    prop_oneof![
        Just(PriorityClass::Production),
        Just(PriorityClass::Test),
        Just(PriorityClass::Development),
    ]
}

/// One step of the differential queue test.
#[derive(Debug, Clone)]
enum QueueOp {
    Push {
        class: PriorityClass,
        session: u8,
        user: u8,
        at: f64,
    },
    Pop {
        now: f64,
    },
    Cancel {
        pick: u8,
    },
    /// Device time charged `before` seconds ahead of the clock the parity
    /// checks read, so the charge has not decayed away when they look.
    Charge {
        user: u8,
        secs: f64,
        before: f64,
    },
}

/// Submission timestamps: mostly plausible, sometimes non-finite (which
/// both queues must reject identically at push). The finite arm is repeated
/// for weight — the shim's `prop_oneof!` is an unweighted union.
fn arb_stamp() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1e6,
        0.0f64..1e6,
        0.0f64..1e6,
        0.0f64..1e6,
        0.0f64..1e6,
        0.0f64..1e6,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// Clock values for ordering queries, including corrupted ones.
fn arb_now() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e3f64..1e7,
        -1e3f64..1e7,
        -1e3f64..1e7,
        -1e3f64..1e7,
        -1e3f64..1e7,
        -1e3f64..1e7,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn arb_push_op() -> impl Strategy<Value = QueueOp> {
    (arb_class(), 0u8..4, 0u8..3, arb_stamp()).prop_map(|(class, session, user, at)| {
        QueueOp::Push {
            class,
            session,
            user,
            at,
        }
    })
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        arb_push_op(),
        arb_push_op(),
        arb_push_op(),
        arb_push_op(),
        arb_now().prop_map(|now| QueueOp::Pop { now }),
        arb_now().prop_map(|now| QueueOp::Pop { now }),
        any::<u8>().prop_map(|pick| QueueOp::Cancel { pick }),
        (0u8..3, 0.1f64..100.0, 0.0f64..300.0)
            .prop_map(|(user, secs, before)| { QueueOp::Charge { user, secs, before } }),
    ]
}

fn arb_hybrid_job(id: u64) -> impl Strategy<Value = HybridJob> {
    (
        arb_class(),
        proptest::collection::vec((any::<bool>(), 1.0f64..200.0), 1..6),
        0.0f64..500.0,
        1u32..4,
    )
        .prop_map(move |(class, phases, arrival, nodes)| HybridJob {
            id,
            class,
            hint: PatternHint::None,
            nodes,
            phases: phases
                .into_iter()
                .map(|(q, secs)| {
                    if q {
                        Phase::Quantum(secs)
                    } else {
                        Phase::Classical(secs)
                    }
                })
                .collect(),
            arrival,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn http_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // totality: arbitrary byte soup produces a request, "need more" or a
        // typed error, never a panic — and the same one however the bytes
        // were segmented on the way in
        let whole = frame(&bytes, bytes.len());
        for cut in 0..bytes.len() {
            prop_assert_eq!(frame(&bytes, cut), whole.clone(), "split at byte {}", cut);
        }
    }

    #[test]
    fn http_parser_accepts_what_it_should(
        path in "[a-z0-9/]{1,30}",
        body in "[ -~]{0,100}",
        pipelined in "[ -~]{0,40}",
    ) {
        let raw = format!(
            "POST /{path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}{pipelined}",
            body.len()
        )
        .into_bytes();
        for cut in 0..=raw.len() {
            let (outcome, rest) = frame(&raw, cut);
            let req = outcome.unwrap().expect("a complete request");
            prop_assert_eq!(req.method, "POST");
            prop_assert_eq!(req.body, body.as_bytes(), "body cut at content-length");
            prop_assert_eq!(rest, pipelined.as_bytes(), "bytes behind it stay buffered");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_pop_respects_class_order_without_aging(
        classes in proptest::collection::vec(arb_class(), 1..20),
    ) {
        let mut q = TaskQueue::new(QueueConfig { aging_secs: 0.0, max_tasks_per_session: 0, ..QueueConfig::default() });
        for (i, &class) in classes.iter().enumerate() {
            q.push(QuantumTask {
                id: i as u64,
                session: format!("s{i}"),
                user: "u".into(),
                class,
                ir: dummy_ir(),
                hint: PatternHint::None,
                submitted_at: i as f64,
            })
            .unwrap();
        }
        let mut last_rank = 0u8;
        let mut last_submit_within_rank = f64::NEG_INFINITY;
        while let Some(t) = q.pop(1e9) {
            let rank = t.class.rank();
            prop_assert!(rank >= last_rank, "rank regressed: {rank} after {last_rank}");
            if rank > last_rank {
                last_rank = rank;
                last_submit_within_rank = f64::NEG_INFINITY;
            }
            prop_assert!(
                t.submitted_at >= last_submit_within_rank,
                "FIFO violated within class"
            );
            last_submit_within_rank = t.submitted_at;
        }
    }

    #[test]
    fn queue_never_panics_for_arbitrary_timestamps(
        stamps in proptest::collection::vec(
            prop_oneof![
                any::<f64>(),                       // includes NaN and ±inf
                -1e12f64..1e12,                     // plausible clock values
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
            1..20,
        ),
        classes in proptest::collection::vec(arb_class(), 20),
        now in prop_oneof![any::<f64>(), Just(f64::NAN)],
    ) {
        let mut q = TaskQueue::new(QueueConfig::default());
        let mut admitted = 0usize;
        for (i, &at) in stamps.iter().enumerate() {
            let r = q.push(QuantumTask {
                id: i as u64,
                session: format!("s{i}"),
                user: "u".into(),
                class: classes[i],
                ir: dummy_ir(),
                hint: PatternHint::None,
                submitted_at: at,
            });
            // push admits exactly the finite timestamps
            prop_assert_eq!(r.is_ok(), at.is_finite());
            admitted += usize::from(at.is_finite());
        }
        prop_assert_eq!(q.len(), admitted);
        // ordering queries never panic, whatever "now" is
        prop_assert_eq!(q.snapshot(now).len(), admitted);
        let _ = q.should_preempt(PriorityClass::Development, now);
        let mut popped = 0usize;
        while q.pop(now).is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, admitted, "every admitted task pops exactly once");
    }

    #[test]
    fn indexed_queue_matches_reference_oracle(
        ops in proptest::collection::vec(arb_queue_op(), 1..60),
        quota in 0usize..4,
        aging in prop_oneof![Just(0.0f64), Just(50.0), Just(3600.0)],
        weight in prop_oneof![Just(0.0f64), Just(0.9)],
        check_now in arb_now(),
    ) {
        // Differential test: the indexed queue must be *bit-for-bit*
        // equivalent to the legacy linear-scan implementation — identical
        // pop order, quota errors, fair-share demotions, and preemption
        // answers over arbitrary interleavings and clocks (incl. NaN/±inf).
        let cfg = QueueConfig {
            aging_secs: aging,
            max_tasks_per_session: quota,
            fairshare_weight: weight,
            fairshare_scale_secs: 10.0,
        };
        // each queue owns a tracker; `Charge` moves both in lockstep
        let mut indexed = TaskQueue::new(cfg).with_fairshare(FairshareTracker::new(100.0));
        let mut oracle = ReferenceTaskQueue::new(cfg).with_fairshare(FairshareTracker::new(100.0));
        let ir = dummy_ir();
        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                QueueOp::Push { class, session, user, at } => {
                    let t = QuantumTask {
                        id: next_id,
                        session: format!("s{session}"),
                        user: format!("u{user}"),
                        class,
                        ir: ir.clone(),
                        hint: PatternHint::None,
                        submitted_at: at,
                    };
                    next_id += 1;
                    let a = indexed.push(t.clone());
                    let b = oracle.push(t);
                    prop_assert_eq!(&a, &b, "push admission/error parity");
                    if a.is_ok() {
                        live.push(next_id - 1);
                    }
                }
                QueueOp::Pop { now } => {
                    let a = indexed.pop(now).map(|t| t.id);
                    let b = oracle.pop(now).map(|t| t.id);
                    prop_assert_eq!(a, b, "pop order parity");
                    if let Some(id) = a {
                        live.retain(|&x| x != id);
                    }
                }
                QueueOp::Cancel { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[pick as usize % live.len()];
                    let a = indexed.remove(id).map(|t| t.id);
                    let b = oracle.remove(id).map(|t| t.id);
                    prop_assert_eq!(a, b, "cancel parity");
                    live.retain(|&x| x != id);
                }
                QueueOp::Charge { user, secs, before } => {
                    let now = check_now - before;
                    indexed.charge(&format!("u{user}"), secs, now);
                    oracle.charge(&format!("u{user}"), secs, now);
                }
            }
            prop_assert_eq!(indexed.len(), oracle.len());
            let order: Vec<u64> = oracle.snapshot(check_now).iter().map(|t| t.id).collect();
            for (at, &id) in order.iter().enumerate() {
                prop_assert_eq!(indexed.position(id, check_now), Some(at), "position parity");
            }
            prop_assert_eq!(
                indexed.peek(check_now).map(|t| t.id),
                oracle.peek(check_now).map(|t| t.id),
                "peek parity after each op"
            );
            for class in [
                PriorityClass::Production,
                PriorityClass::Test,
                PriorityClass::Development,
            ] {
                prop_assert_eq!(
                    indexed.should_preempt(class, check_now),
                    oracle.should_preempt(class, check_now),
                    "preemption parity"
                );
            }
        }
        let a: Vec<u64> = indexed.snapshot(check_now).iter().map(|t| t.id).collect();
        let b: Vec<u64> = oracle.snapshot(check_now).iter().map(|t| t.id).collect();
        prop_assert_eq!(a, b, "snapshot (dispatch-order) parity");
        loop {
            let x = indexed.pop(check_now).map(|t| t.id);
            let y = oracle.pop(check_now).map(|t| t.id);
            prop_assert_eq!(x, y, "full-drain parity");
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn cosim_conservation_laws(
        raw_jobs in proptest::collection::vec((any::<bool>(), 1.0f64..200.0), 1..6)
            .prop_flat_map(|_| proptest::collection::vec(arb_hybrid_job(0), 1..15)),
        seq in any::<bool>(),
    ) {
        // re-id jobs uniquely
        let jobs: Vec<HybridJob> = raw_jobs
            .into_iter()
            .enumerate()
            .map(|(i, mut j)| {
                j.id = i as u64;
                j.nodes = j.nodes.min(4);
                j
            })
            .collect();
        let total_q: f64 = jobs.iter().map(|j| j.qpu_secs()).sum();
        let n = jobs.len();
        let admission = if seq { AdmissionPolicy::Sequential } else { AdmissionPolicy::NodeLimited };
        let report = Cosim::new(
            CosimConfig {
                nodes: 8,
                admission,
                qpu_policy: QpuPolicy::Priority { preemption: true },
                chunk_secs: 25.0,
            },
            jobs,
        )
        .run();
        // conservation: the QPU executed exactly the submitted quantum work
        prop_assert!(
            (report.qpu_busy_secs - total_q).abs() < 1e-6,
            "busy {} vs submitted {total_q}",
            report.qpu_busy_secs
        );
        prop_assert_eq!(report.completed, n, "no job lost or stuck");
        prop_assert!((0.0..=1.0 + 1e-9).contains(&report.qpu_utilization));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&report.node_waste_frac));
        // turnaround = end − arrival ≤ end ≤ makespan for every class
        let longest: f64 = report
            .turnaround_by_class
            .values()
            .fold(0.0f64, |a, &b| a.max(b));
        prop_assert!(
            report.makespan_secs + 1e-6 >= longest,
            "makespan {} < mean turnaround {longest}",
            report.makespan_secs
        );
    }
}

/// One client or operator action against a journaled daemon.
#[derive(Debug, Clone)]
enum DaemonOp {
    /// Submit from session `session` (0 production, 1 test — sliced —,
    /// 2 development — cached); `key` resubmits collide on purpose.
    Submit {
        session: usize,
        shots: u32,
        program: u8,
        key: Option<u8>,
    },
    /// Cancel the `pick`-th task submitted so far (whatever state it is in).
    Cancel {
        pick: u8,
    },
    /// One dispatch.
    Pump,
    /// The next `n` device runs fail.
    FailNext {
        n: u32,
    },
    Idle {
        secs: f64,
    },
}

fn arb_daemon_op() -> impl Strategy<Value = DaemonOp> {
    let submit = || {
        (0usize..3, 1u32..14, 0u8..2, any::<bool>(), 0u8..4).prop_map(
            |(session, shots, program, keyed, key)| DaemonOp::Submit {
                session,
                shots,
                program,
                key: keyed.then_some(key),
            },
        )
    };
    prop_oneof![
        submit(),
        submit(),
        submit(),
        Just(DaemonOp::Pump),
        Just(DaemonOp::Pump),
        Just(DaemonOp::Pump),
        any::<u8>().prop_map(|pick| DaemonOp::Cancel { pick }),
        (1u32..3).prop_map(|n| DaemonOp::FailNext { n }),
        (0.5f64..20.0).prop_map(|secs| DaemonOp::Idle { secs }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Live and replayed state are the same state machine: after any
    /// sequence of submits, keyed resubmits, cancels, dispatches, injected
    /// failures and sliced runs, a daemon recovered from the journal
    /// directory snapshots to exactly what the live one did.
    #[test]
    fn recovered_state_equals_live_state(
        ops in proptest::collection::vec(arb_daemon_op(), 1..40),
        compact_every in prop_oneof![Just(0usize), Just(5), Just(13)],
    ) {
        let dir = common::scratch_dir("recovered-equals-live");
        let cfg = DaemonConfig {
            preempt_chunk_shots: 5,
            max_task_retries: 1,
            journal: JournalConfig {
                fsync_every: 0,
                compact_every,
                ..JournalConfig::default()
            },
            ..DaemonConfig::default()
        };
        let res = common::ScriptedResource::new();
        let d = MiddlewareService::recover(&dir, res.clone(), cfg.clone()).unwrap();
        let sessions = [
            d.open_session("prod", PriorityClass::Production).unwrap(),
            d.open_session("test", PriorityClass::Test).unwrap(),
            d.open_session("dev", PriorityClass::Development).unwrap(),
        ];
        let mut submitted: Vec<(usize, u64)> = Vec::new();
        let (mut snapshots, mut compacted_at, mut snap_len) = (0.0, 0, 0);
        for op in ops {
            match op {
                DaemonOp::Submit { session, shots, program, key } => {
                    let ir = common::program(shots, 3.0 + f64::from(program));
                    let key = key.map(|k| format!("key-{k}"));
                    let id = d
                        .submit_with_key(&sessions[session], ir, PatternHint::None, key.as_deref())
                        .unwrap();
                    submitted.push((session, id));
                }
                DaemonOp::Cancel { pick } if !submitted.is_empty() => {
                    let (session, id) = submitted[pick as usize % submitted.len()];
                    // refused unless the task is still queued: both fine
                    let _ = d.cancel(&sessions[session], id);
                }
                DaemonOp::Cancel { .. } => {}
                DaemonOp::Pump => {
                    d.pump_once();
                }
                DaemonOp::FailNext { n } => res.fail_next(n),
                DaemonOp::Idle { secs } => d.advance_time(secs),
            }
            // DESIGN §9's replay bound: compaction waits for a snapshot-sized
            // WAL, and at rest the WAL is below the snapshot or the floor
            let len = |f: &str| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len());
            let counter = |c: &str| d.registry().get_value(c, &Labels::new()).unwrap_or(0.0);
            let before_wal = counter("journal_bytes_total") as u64 - len("wal.log");
            if counter("journal_snapshots_total") > snapshots {
                prop_assert!(before_wal - compacted_at >= snap_len, "compacted early");
                snapshots = counter("journal_snapshots_total");
                (compacted_at, snap_len) = (before_wal, len("snapshot.json"));
            }
            let records = hpcqc_middleware::journal::Journal::load(&dir).unwrap().records.len();
            let bounded = compact_every == 0 || records < compact_every || len("wal.log") < snap_len;
            prop_assert!(bounded, "{records} records past a {snap_len} B snapshot");
        }
        // what no journal record carries: the sessions' idle clocks
        let comparable = |d: &MiddlewareService| {
            let mut snap = d.snapshot_state();
            snap.sessions.iter_mut().for_each(|s| s.last_active = 0.0);
            snap
        };
        let live = comparable(&d);
        drop(d); // crash
        let d2 = MiddlewareService::recover(&dir, common::ScriptedResource::new(), cfg).unwrap();
        prop_assert_eq!(comparable(&d2), live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
