//! REST API: routes over the daemon service.
//!
//! The protocol spoken between the runtime's session client and the
//! daemon. Routes (all JSON unless noted):
//!
//! ```text
//! POST   /v1/sessions                {user, class}        → {token}
//! DELETE /v1/sessions/{token}                             → {}
//! GET    /v1/sessions                                     → [Session]   (admin)
//! GET    /v1/target                                       → DeviceSpec
//! POST   /v1/tasks                   submit               → task id      (both codecs)
//! POST   /v1/tasks:batch             [submit, ...]        → [slot, ...]  (both codecs)
//! GET    /v1/tasks/{id}                                   → status       (both codecs)
//! GET    /v1/tasks/{id}/warnings                          → {warnings: [str]}
//! GET    /v1/tasks/{id}/result                            → result       (both codecs)
//! DELETE /v1/tasks/{id}?token=T                           → {}
//! GET    /v1/healthz                                      → {status} (503 while draining)
//! GET    /v1/readyz                                       → ReadinessReport (503 unless a serving leader)
//! GET    /metrics                                         → Prometheus text
//! GET    /v1/admin/qpu/status                             → {status}
//! POST   /v1/admin/qpu/status        {status}             → {}
//! POST   /v1/admin/qpu/recalibrate   {duration_secs}      → {}
//! GET    /v1/telemetry/{series}?from=&to=                 → [Point]
//! ```
//!
//! **Content negotiation.** The four codec-aware routes are one arm each:
//! pick the [`Codec`] (the body's `Content-Type` on the submit routes,
//! which answer in the same codec; `Accept` on the two reads), decode,
//! call the daemon, encode. Both encodings of every message live in
//! [`crate::protocol`]. JSON is the default everywhere; an unrecognized
//! `Content-Type` on a submit route is refused with `415` so older clients
//! (and clients probing a JSON-only deployment) can fall back
//! deterministically. A query string (`?token=`) is placement metadata
//! for the gateway and is ignored here.
//!
//! No route drives the queue: the dispatcher does, started by [`crate::Site`].

use crate::daemon::{DaemonError, MiddlewareService, SubmitItem};
use crate::http::{Handler, Request, Response};
use crate::protocol::{Codec, Message, OpenSessionReq};
use crate::server::{HttpServer, ServerConfig};
use crate::session::PriorityClass;
use hpcqc_qpu::QpuStatus;
use hpcqc_scheduler::PatternHint;
use hpcqc_wire::{BatchSlot, SubmitFrame};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

#[derive(Debug, Serialize, Deserialize)]
struct StatusReq {
    status: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct RecalibrateReq {
    duration_secs: f64,
}

fn daemon_status(e: &DaemonError) -> u16 {
    match e {
        DaemonError::Session(_) => 401,
        DaemonError::Forbidden(_) => 403,
        DaemonError::UnknownTask(_) => 404,
        DaemonError::Validation(_) => 422,
        DaemonError::Queue(_) => 409,
        DaemonError::Unavailable(_) => 503,
        DaemonError::Internal(_) => 500,
    }
}

/// A daemon read's outcome as a reply in `codec`: the message, or the
/// error with its status.
fn answer<M: Message>(codec: Codec, outcome: Result<M, DaemonError>) -> Response {
    match outcome {
        Ok(msg) => codec.reply(200, codec.encode(&msg)),
        Err(e) => codec.error(daemon_status(&e), &e.to_string()),
    }
}

fn err_response(e: &DaemonError) -> Response {
    Codec::Json.error(daemon_status(e), &e.to_string())
}

fn bad_request(msg: &str) -> Response {
    Codec::Json.error(400, msg)
}

const HINT_ERR: &str = "hint must be qc-heavy|cc-heavy|qc-balanced|none";

/// Run a batch of submit frames through [`MiddlewareService::submit_batch`],
/// producing one order-preserving slot per frame. Frames with an
/// unparseable hint get their error slot here and never reach the daemon.
fn submit_frames(svc: &MiddlewareService, frames: Vec<SubmitFrame>) -> Vec<BatchSlot> {
    let mut slots: Vec<Option<BatchSlot>> = (0..frames.len()).map(|_| None).collect();
    let mut items = Vec::with_capacity(frames.len());
    let mut item_slot = Vec::with_capacity(frames.len());
    for (i, f) in frames.into_iter().enumerate() {
        let hint = match f.hint.as_deref() {
            None => Some(PatternHint::None),
            Some(h) => PatternHint::parse(h),
        };
        match hint {
            Some(hint) => {
                items.push(SubmitItem {
                    token: f.token,
                    ir: f.ir,
                    hint,
                    idempotency_key: f.idempotency_key,
                });
                item_slot.push(i);
            }
            None => {
                slots[i] = Some(BatchSlot::Err {
                    status: 400,
                    message: HINT_ERR.into(),
                });
            }
        }
    }
    for (j, outcome) in svc.submit_batch(items).into_iter().enumerate() {
        slots[item_slot[j]] = Some(match outcome {
            Ok(task_id) => BatchSlot::Ok { task_id },
            Err(e) => BatchSlot::Err {
                status: daemon_status(&e),
                message: e.to_string(),
            },
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("every frame got a slot"))
        .collect()
}

/// Route one request against the service.
pub fn route(svc: &MiddlewareService, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let header = |name: &str| req.headers.get(name).map(String::as_str);
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "sessions"]) => {
            let Ok(body) = req.body_str() else {
                return bad_request("body not UTF-8");
            };
            let Ok(open): Result<OpenSessionReq, _> = serde_json::from_str(body) else {
                return bad_request("expected {user, class}");
            };
            let Some(class) = PriorityClass::parse(&open.class) else {
                return bad_request("class must be production|test|development");
            };
            match svc.open_session(&open.user, class) {
                Ok(token) => Response::json(201, serde_json::json!({ "token": token }).to_string()),
                Err(e) => err_response(&e),
            }
        }
        ("DELETE", ["v1", "sessions", token]) => match svc.close_session(token) {
            Ok(()) => Response::json(200, "{}"),
            Err(e) => err_response(&e),
        },
        ("GET", ["v1", "sessions"]) => {
            let sessions = svc.list_sessions();
            Response::json(
                200,
                serde_json::to_string(&sessions).expect("sessions serialize"),
            )
        }
        ("GET", ["v1", "target"]) => match svc.device_spec() {
            Ok(spec) => Response::json(200, serde_json::to_string(&spec).expect("spec serializes")),
            Err(e) => err_response(&e),
        },
        // A single submit is the batch of one, as it is inside the daemon.
        ("POST", ["v1", "tasks"]) => {
            let codec = match Codec::of_content_type(header("content-type")) {
                Ok(codec) => codec,
                Err(refused) => return refused,
            };
            match codec.decode::<SubmitFrame>(&req.body) {
                Err(e) => codec.error(400, &e),
                Ok(frame) => match submit_frames(svc, vec![frame]).pop().expect("a slot") {
                    BatchSlot::Ok { task_id } => codec.reply(201, codec.encode(&task_id)),
                    BatchSlot::Err { status, message } => codec.error(status, &message),
                },
            }
        }
        ("POST", ["v1", "tasks:batch"]) => {
            let codec = match Codec::of_content_type(header("content-type")) {
                Ok(codec) => codec,
                Err(refused) => return refused,
            };
            match codec.decode::<Vec<SubmitFrame>>(&req.body) {
                Err(e) => codec.error(400, &e),
                Ok(frames) => codec.reply(200, codec.encode(&submit_frames(svc, frames))),
            }
        }
        ("GET", ["v1", "tasks", id]) => {
            let Ok(id) = id.parse::<u64>() else {
                return bad_request("task id must be a number");
            };
            answer(Codec::of_accept(header("accept")), svc.task_status(id))
        }
        ("GET", ["v1", "tasks", id, "warnings"]) => {
            let Ok(id) = id.parse::<u64>() else {
                return bad_request("task id must be a number");
            };
            match svc.task_warnings(id) {
                Ok(warnings) => {
                    Response::json(200, serde_json::json!({ "warnings": warnings }).to_string())
                }
                Err(e) => err_response(&e),
            }
        }
        ("GET", ["v1", "tasks", id, "result"]) => {
            let Ok(id) = id.parse::<u64>() else {
                return bad_request("task id must be a number");
            };
            answer(Codec::of_accept(header("accept")), svc.task_result(id))
        }
        ("DELETE", ["v1", "tasks", id]) => {
            let Ok(id) = id.parse::<u64>() else {
                return bad_request("task id must be a number");
            };
            let Some(token) = req.query.get("token") else {
                return bad_request("missing token query parameter");
            };
            match svc.cancel(token, id) {
                Ok(()) => Response::json(200, "{}"),
                Err(e) => err_response(&e),
            }
        }
        ("GET", ["v1", "healthz"]) => {
            let health = svc.health();
            let body = serde_json::json!({ "status": health.as_str() }).to_string();
            match health {
                crate::daemon::DaemonHealth::Ok => Response::json(200, body),
                _ => Response::json(503, body),
            }
        }
        // Liveness vs readiness: healthz answers "is the process up", readyz
        // answers "should traffic come here" — a healthy follower is 200 on
        // the former and 503 on the latter. The gateway routes on this one.
        ("GET", ["v1", "readyz"]) => {
            let report = svc.readiness();
            let body = serde_json::to_string(&report).unwrap_or_else(|_| "{}".into());
            if report.ready {
                Response::json(200, body)
            } else {
                Response::json(503, body)
            }
        }
        ("GET", ["metrics"]) => Response::text(200, svc.metrics_text()),
        ("GET", ["v1", "admin", "qpu", "status"]) => match svc.qpu_status() {
            Some(s) => Response::json(200, serde_json::json!({ "status": s.as_str() }).to_string()),
            None => Response::json(404, r#"{"error":"no admin access to a device"}"#),
        },
        ("POST", ["v1", "admin", "qpu", "status"]) => {
            let Ok(body) = req.body_str() else {
                return bad_request("body not UTF-8");
            };
            let Ok(sr): Result<StatusReq, _> = serde_json::from_str(body) else {
                return bad_request("expected {status}");
            };
            let Some(status) = QpuStatus::parse(&sr.status) else {
                return bad_request("status must be operational|calibrating|maintenance|down");
            };
            match svc.set_qpu_status(status) {
                Ok(()) => Response::json(200, "{}"),
                Err(e) => err_response(&e),
            }
        }
        ("POST", ["v1", "admin", "qpu", "recalibrate"]) => {
            let Ok(body) = req.body_str() else {
                return bad_request("body not UTF-8");
            };
            let Ok(rr): Result<RecalibrateReq, _> = serde_json::from_str(body) else {
                return bad_request("expected {duration_secs}");
            };
            match svc.recalibrate(rr.duration_secs) {
                Ok(()) => Response::json(200, "{}"),
                Err(e) => err_response(&e),
            }
        }
        ("GET", ["v1", "telemetry", series]) => {
            let from: f64 = req
                .query
                .get("from")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0);
            let to: f64 = req
                .query
                .get("to")
                .and_then(|s| s.parse().ok())
                .unwrap_or(f64::MAX);
            let pts = svc.telemetry_range(series, from, to);
            Response::json(200, serde_json::to_string(&pts).expect("points serialize"))
        }
        _ => Response::not_found(),
    }
}

/// Serve the daemon over HTTP on a specific localhost port (0 = ephemeral).
pub fn serve_on(svc: Arc<MiddlewareService>, port: u16) -> std::io::Result<HttpServer> {
    serve_with(svc, port, ServerConfig::default())
}

/// [`serve_on`] with explicit transport tuning (connection cap, deadlines,
/// worker count). Transport telemetry (connection lifecycle, keep-alive
/// reuse, backpressure, deadline closes) lands in the daemon's own registry
/// unless `cfg.metrics` names another, so it shows up on `GET /metrics`
/// next to the scheduler counters.
pub fn serve_with(
    svc: Arc<MiddlewareService>,
    port: u16,
    mut cfg: ServerConfig,
) -> std::io::Result<HttpServer> {
    if cfg.metrics.is_none() {
        cfg.metrics = Some(svc.registry().clone());
    }
    let handler: Handler = Arc::new(move |req: Request| route(&svc, &req));
    HttpServer::spawn_with(port, handler, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use crate::http::HttpClient;
    use hpcqc_emulator::SvBackend;
    use hpcqc_program::ProgramIr;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};
    use hpcqc_qrmi::LocalEmulatorResource;
    use hpcqc_wire as wire;

    fn service() -> Arc<MiddlewareService> {
        let res = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        Arc::new(MiddlewareService::new(res, DaemonConfig::default()))
    }

    fn ir_json(shots: u32) -> String {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        let ir = ProgramIr::new(b.build().unwrap(), shots, "rest-test");
        serde_json::to_string(&ir).unwrap()
    }

    #[test]
    fn full_rest_workflow_over_sockets() {
        let svc = service();
        let server = serve_on(Arc::clone(&svc), 0).unwrap();
        let addr = server.addr();
        let client = HttpClient::new(&addr);

        // open session
        let (st, body) = client
            .request(
                "POST",
                "/v1/sessions",
                Some(r#"{"user":"ada","class":"production"}"#),
            )
            .unwrap();
        assert_eq!(st, 201, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let token = v["token"].as_str().unwrap().to_string();

        // fetch target spec
        let (st, body) = client.request("GET", "/v1/target", None).unwrap();
        assert_eq!(st, 200);
        assert!(body.contains("max_qubits"));

        // submit task
        let submit = format!(
            r#"{{"token":"{token}","ir":{},"hint":"qc-heavy"}}"#,
            ir_json(25)
        );
        let (st, body) = client.request("POST", "/v1/tasks", Some(&submit)).unwrap();
        assert_eq!(st, 201, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let task_id = v["task_id"].as_u64().unwrap();

        // queued
        let (st, body) = client
            .request("GET", &format!("/v1/tasks/{task_id}"), None)
            .unwrap();
        assert_eq!(st, 200);
        assert!(body.contains("Queued"), "{body}");

        // drive the queue in process, so Queued → Completed is one step
        assert_eq!(svc.pump(), 1);

        // completed + result
        let (_, body) = client
            .request("GET", &format!("/v1/tasks/{task_id}"), None)
            .unwrap();
        assert!(body.contains("Completed"), "{body}");
        let (st, body) = client
            .request("GET", &format!("/v1/tasks/{task_id}/result"), None)
            .unwrap();
        assert_eq!(st, 200);
        let res: hpcqc_emulator::SampleResult = serde_json::from_str(&body).unwrap();
        assert_eq!(res.shots, 25);

        // metrics
        let (st, body) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(st, 200);
        assert!(body.contains("daemon_tasks_submitted_total"));

        // close session
        let (st, _) = client
            .request("DELETE", &format!("/v1/sessions/{token}"), None)
            .unwrap();
        assert_eq!(st, 200);
    }

    #[test]
    fn warnings_route_exposes_analyzer_findings() {
        let server = serve_on(service(), 0).unwrap();
        let addr = server.addr();
        let client = HttpClient::new(&addr);
        let (_, body) = client
            .request(
                "POST",
                "/v1/sessions",
                Some(r#"{"user":"ada","class":"production"}"#),
            )
            .unwrap();
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let token = v["token"].as_str().unwrap().to_string();

        // stale client-side validation → accepted, but with a HQ0701 warning
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        let ir = ProgramIr::new(b.build().unwrap(), 25, "rest-test").with_validation_revision(999);
        let submit = format!(
            r#"{{"token":"{token}","ir":{}}}"#,
            serde_json::to_string(&ir).unwrap()
        );
        let (st, body) = client.request("POST", "/v1/tasks", Some(&submit)).unwrap();
        assert_eq!(st, 201, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let task_id = v["task_id"].as_u64().unwrap();

        let (st, body) = client
            .request("GET", &format!("/v1/tasks/{task_id}/warnings"), None)
            .unwrap();
        assert_eq!(st, 200);
        assert!(body.contains("HQ0701"), "{body}");

        // a task with no findings returns an empty list, not an error
        let submit = format!(r#"{{"token":"{token}","ir":{}}}"#, ir_json(25));
        let (_, body) = client.request("POST", "/v1/tasks", Some(&submit)).unwrap();
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let clean_id = v["task_id"].as_u64().unwrap();
        let (st, body) = client
            .request("GET", &format!("/v1/tasks/{clean_id}/warnings"), None)
            .unwrap();
        assert_eq!(st, 200);
        assert_eq!(body, r#"{"warnings":[]}"#);
    }

    fn ir(shots: u32) -> ProgramIr {
        serde_json::from_str(&ir_json(shots)).unwrap()
    }

    fn open_token(addr: &str) -> String {
        let (st, body) = HttpClient::new(addr)
            .request(
                "POST",
                "/v1/sessions",
                Some(r#"{"user":"bin","class":"production"}"#),
            )
            .unwrap();
        assert_eq!(st, 201, "{body}");
        serde_json::from_str::<serde_json::Value>(&body).unwrap()["token"]
            .as_str()
            .unwrap()
            .to_string()
    }

    /// The full binary round trip over a real socket: Submit frame in,
    /// TaskId frame out, Status and Result frames via `Accept`.
    #[test]
    fn binary_submit_status_result_round_trip() {
        let svc = service();
        let server = serve_on(Arc::clone(&svc), 0).unwrap();
        let addr = server.addr();
        let token = open_token(&addr);
        let client = HttpClient::new(addr.clone());

        let frame = wire::SubmitFrame {
            token: token.clone(),
            hint: Some("qc-heavy".into()),
            idempotency_key: Some("bin-key-1".into()),
            ir: ir(25),
        };
        let raw = client
            .request_bytes_accept(
                "POST",
                "/v1/tasks",
                wire::CONTENT_TYPE_BIN,
                None,
                Some(&wire::encode_submit(&frame)),
            )
            .unwrap();
        assert_eq!(raw.status, 201, "{:?}", raw);
        assert_eq!(raw.content_type, wire::CONTENT_TYPE_BIN);
        let id = wire::decode_task_id(&raw.body).unwrap();

        // same idempotency key replays to the same id
        let raw = client
            .request_bytes_accept(
                "POST",
                "/v1/tasks",
                wire::CONTENT_TYPE_BIN,
                None,
                Some(&wire::encode_submit(&frame)),
            )
            .unwrap();
        assert_eq!(wire::decode_task_id(&raw.body).unwrap(), id);

        // binary status frame via Accept
        let raw = client
            .request_bytes_accept(
                "GET",
                &format!("/v1/tasks/{id}"),
                "application/json",
                Some(wire::CONTENT_TYPE_BIN),
                None,
            )
            .unwrap();
        assert_eq!(raw.status, 200);
        assert!(matches!(
            wire::decode_status(&raw.body).unwrap(),
            wire::WireStatus::Queued { .. }
        ));

        assert_eq!(svc.pump(), 1);

        let raw = client
            .request_bytes_accept(
                "GET",
                &format!("/v1/tasks/{id}/result"),
                "application/json",
                Some(wire::CONTENT_TYPE_BIN),
                None,
            )
            .unwrap();
        assert_eq!(raw.status, 200);
        let result = wire::decode_result(&raw.body).unwrap();
        assert_eq!(result.shots, 25);

        // binary errors carry an Error frame, not JSON
        let raw = client
            .request_bytes_accept(
                "GET",
                "/v1/tasks/999999",
                "application/json",
                Some(wire::CONTENT_TYPE_BIN),
                None,
            )
            .unwrap();
        assert_eq!(raw.status, 404);
        let e = wire::decode_error(&raw.body).unwrap();
        assert_eq!(e.status, 404);
    }

    /// Batch submit in both codecs: per-frame slots, order preserved, one
    /// bad frame does not poison its neighbours.
    #[test]
    fn batch_submit_binary_and_json() {
        let server = serve_on(service(), 0).unwrap();
        let addr = server.addr();
        let token = open_token(&addr);
        let client = HttpClient::new(addr.clone());

        let good = |key: &str| wire::SubmitFrame {
            token: token.clone(),
            hint: None,
            idempotency_key: Some(key.into()),
            ir: ir(10),
        };
        let frames = vec![
            good("batch-a"),
            wire::SubmitFrame {
                token: "sess-0-bogus".into(),
                hint: None,
                idempotency_key: None,
                ir: ir(10),
            },
            good("batch-b"),
        ];
        let raw = client
            .request_bytes_accept(
                "POST",
                "/v1/tasks:batch",
                wire::CONTENT_TYPE_BIN,
                None,
                Some(&wire::encode_submit_batch(&frames)),
            )
            .unwrap();
        assert_eq!(raw.status, 200, "{:?}", raw);
        let slots = wire::decode_batch_reply(&raw.body).unwrap();
        assert_eq!(slots.len(), 3);
        let wire::BatchSlot::Ok { task_id: id_a } = slots[0] else {
            panic!("slot 0 should be Ok: {:?}", slots[0]);
        };
        assert!(
            matches!(&slots[1], wire::BatchSlot::Err { status: 401, .. }),
            "bogus token must fail alone: {:?}",
            slots[1]
        );
        let wire::BatchSlot::Ok { task_id: id_b } = slots[2] else {
            panic!("slot 2 should be Ok: {:?}", slots[2]);
        };
        assert!(id_b > id_a, "submission order preserved");

        // JSON flavor of the same route
        let body = format!(
            r#"[{{"token":"{token}","ir":{}}},{{"token":"nope","ir":{}}}]"#,
            ir_json(5),
            ir_json(5)
        );
        let (st, body) = client
            .request("POST", "/v1/tasks:batch", Some(&body))
            .unwrap();
        assert_eq!(st, 200, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert!(arr[0]["task_id"].as_u64().is_some(), "{body}");
        assert_eq!(arr[1]["status"].as_u64(), Some(401), "{body}");

        // idempotency keys replay per-frame across batches
        let raw = client
            .request_bytes_accept(
                "POST",
                "/v1/tasks:batch",
                wire::CONTENT_TYPE_BIN,
                None,
                Some(&wire::encode_submit_batch(&[good("batch-a")])),
            )
            .unwrap();
        let slots = wire::decode_batch_reply(&raw.body).unwrap();
        assert_eq!(slots[0], wire::BatchSlot::Ok { task_id: id_a });
    }

    /// An unrecognized submit content type is refused with 415 — the
    /// signal the SDK keys its JSON fallback on.
    #[test]
    fn unknown_submit_content_type_is_415() {
        let server = serve_on(service(), 0).unwrap();
        let client = HttpClient::new(server.addr());
        for path in ["/v1/tasks", "/v1/tasks:batch"] {
            let raw = client
                .request_bytes_accept(
                    "POST",
                    path,
                    "application/x-msgpack",
                    None,
                    Some(b"\x00\x01"),
                )
                .unwrap();
            assert_eq!(raw.status, 415, "{path}");
        }
        // a truncated binary frame is a 400 (bad frame), not a hang or 500
        let raw = client
            .request_bytes_accept(
                "POST",
                "/v1/tasks",
                wire::CONTENT_TYPE_BIN,
                None,
                Some(b"HQ\x01"),
            )
            .unwrap();
        assert_eq!(raw.status, 400);
        assert!(wire::decode_error(&raw.body).is_ok());
    }

    #[test]
    fn auth_errors_map_to_http_codes() {
        let server = serve_on(service(), 0).unwrap();
        let addr = server.addr();
        let client = HttpClient::new(&addr);
        // submit with a bogus token → 401
        let submit = format!(r#"{{"token":"bogus","ir":{}}}"#, ir_json(5));
        let (st, _) = client.request("POST", "/v1/tasks", Some(&submit)).unwrap();
        assert_eq!(st, 401);
        // unknown task → 404
        let (st, _) = client.request("GET", "/v1/tasks/999", None).unwrap();
        assert_eq!(st, 404);
        // bad class → 400
        let (st, _) = client
            .request(
                "POST",
                "/v1/sessions",
                Some(r#"{"user":"x","class":"vip"}"#),
            )
            .unwrap();
        assert_eq!(st, 400);
        // unknown route → 404
        let (st, _) = client.request("GET", "/v2/everything", None).unwrap();
        assert_eq!(st, 404);
    }

    #[test]
    fn validation_errors_are_422() {
        let svc = service();
        let server = serve_on(svc, 0).unwrap();
        let addr = server.addr();
        let client = HttpClient::new(&addr);
        let (_, body) = client
            .request(
                "POST",
                "/v1/sessions",
                Some(r#"{"user":"x","class":"test"}"#),
            )
            .unwrap();
        let token = serde_json::from_str::<serde_json::Value>(&body).unwrap()["token"]
            .as_str()
            .unwrap()
            .to_string();
        // an over-amplitude program: violates even the permissive emulator spec
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 1e6, 0.0, 0.0).unwrap());
        let bad = ProgramIr::new(b.build().unwrap(), 10, "t");
        let submit = format!(
            r#"{{"token":"{token}","ir":{}}}"#,
            serde_json::to_string(&bad).unwrap()
        );
        let (st, body) = client.request("POST", "/v1/tasks", Some(&submit)).unwrap();
        assert_eq!(st, 422, "{body}");
    }

    #[test]
    fn cancel_via_rest_requires_token() {
        let server = serve_on(service(), 0).unwrap();
        let addr = server.addr();
        let client = HttpClient::new(&addr);
        let (_, body) = client
            .request(
                "POST",
                "/v1/sessions",
                Some(r#"{"user":"x","class":"test"}"#),
            )
            .unwrap();
        let token = serde_json::from_str::<serde_json::Value>(&body).unwrap()["token"]
            .as_str()
            .unwrap()
            .to_string();
        let submit = format!(r#"{{"token":"{token}","ir":{}}}"#, ir_json(5));
        let (_, body) = client.request("POST", "/v1/tasks", Some(&submit)).unwrap();
        let id = serde_json::from_str::<serde_json::Value>(&body).unwrap()["task_id"]
            .as_u64()
            .unwrap();
        let (st, _) = client
            .request("DELETE", &format!("/v1/tasks/{id}"), None)
            .unwrap();
        assert_eq!(st, 400, "token required");
        let (st, _) = client
            .request("DELETE", &format!("/v1/tasks/{id}?token={token}"), None)
            .unwrap();
        assert_eq!(st, 200);
    }

    /// What `GET /v1/admin/qpu/status` answers, `POST` takes back as is.
    #[test]
    fn admin_status_read_posts_back_unchanged() {
        let qpu = hpcqc_qpu::VirtualQpu::new("fresnel-1", 7);
        qpu.set_status(QpuStatus::Maintenance);
        let res = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        let svc = MiddlewareService::new(res, DaemonConfig::default()).with_qpu_admin(qpu);
        let call = |method: &str, body: &[u8]| {
            let req = Request {
                method: method.into(),
                path: "/v1/admin/qpu/status".into(),
                query: Default::default(),
                headers: Default::default(),
                body: body.to_vec(),
            };
            route(&svc, &req)
        };
        let read = call("GET", b"");
        assert_eq!(read.status, 200);
        let posted = call("POST", &read.body);
        assert_eq!(
            posted.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&posted.body)
        );
        assert_eq!(svc.qpu_status(), Some(QpuStatus::Maintenance));
        assert_eq!(call("GET", b"").body, read.body);
    }

    #[test]
    fn admin_routes_404_without_device() {
        let server = serve_on(service(), 0).unwrap();
        let client = HttpClient::new(server.addr());
        let (st, _) = client.request("GET", "/v1/admin/qpu/status", None).unwrap();
        assert_eq!(st, 404);
    }

    #[test]
    fn malformed_submit_json_is_400() {
        let server = serve_on(service(), 0).unwrap();
        let client = HttpClient::new(server.addr());
        let (st, body) = client
            .request("POST", "/v1/tasks", Some("{not json"))
            .unwrap();
        assert_eq!(st, 400, "{body}");
        // structurally valid JSON missing required fields is still a 400
        let (st, _) = client.request("POST", "/v1/tasks", Some("{}")).unwrap();
        assert_eq!(st, 400);
    }

    #[test]
    fn unknown_session_token_is_401() {
        let server = serve_on(service(), 0).unwrap();
        let client = HttpClient::new(server.addr());
        let submit = format!(r#"{{"token":"sess-0-doesnotexist","ir":{}}}"#, ir_json(5));
        let (st, body) = client.request("POST", "/v1/tasks", Some(&submit)).unwrap();
        assert_eq!(st, 401, "{body}");
    }

    #[test]
    fn cancel_of_completed_task_is_409() {
        let svc = service();
        let server = serve_on(Arc::clone(&svc), 0).unwrap();
        let addr = server.addr();
        let client = HttpClient::new(&addr);
        let (_, body) = client
            .request(
                "POST",
                "/v1/sessions",
                Some(r#"{"user":"x","class":"test"}"#),
            )
            .unwrap();
        let token = serde_json::from_str::<serde_json::Value>(&body).unwrap()["token"]
            .as_str()
            .unwrap()
            .to_string();
        let submit = format!(r#"{{"token":"{token}","ir":{}}}"#, ir_json(5));
        let (_, body) = client.request("POST", "/v1/tasks", Some(&submit)).unwrap();
        let id = serde_json::from_str::<serde_json::Value>(&body).unwrap()["task_id"]
            .as_u64()
            .unwrap();
        assert_eq!(svc.pump(), 1);
        let (st, body) = client
            .request("DELETE", &format!("/v1/tasks/{id}?token={token}"), None)
            .unwrap();
        assert_eq!(st, 409, "{body}");
    }

    #[test]
    fn healthz_is_200_serving_503_draining() {
        let svc = service();
        let server = serve_on(Arc::clone(&svc), 0).unwrap();
        let addr = server.addr().to_string();
        let client = HttpClient::new(&addr);
        let (st, body) = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(st, 200);
        assert!(body.contains("ok"), "{body}");
        // readiness agrees while serving as leader
        let (st, body) = client.request("GET", "/v1/readyz", None).unwrap();
        assert_eq!(st, 200, "{body}");
        assert!(body.contains(r#""role":"leader""#), "{body}");
        svc.shutdown(std::time::Duration::from_millis(50));
        let (st, body) = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(st, 503, "{body}");
        assert!(body.contains("stopped"), "{body}");
        let (st, body) = client.request("GET", "/v1/readyz", None).unwrap();
        assert_eq!(st, 503, "{body}");
        assert!(body.contains(r#""role":"stopped""#), "{body}");
        // a stopped daemon refuses new sessions with 503 too
        let (st, _) = client
            .request(
                "POST",
                "/v1/sessions",
                Some(r#"{"user":"x","class":"test"}"#),
            )
            .unwrap();
        assert_eq!(st, 503);
    }

    /// Liveness and readiness split: a healthy *follower* is alive (healthz
    /// 200) but must not take traffic (readyz 503) — and it refuses client
    /// work with 503 until promoted.
    #[test]
    fn follower_is_live_but_not_ready() {
        let svc = service();
        svc.set_role(crate::daemon::ReplicaRole::Follower);
        let server = serve_on(Arc::clone(&svc), 0).unwrap();
        let addr = server.addr().to_string();
        let client = HttpClient::new(&addr);
        let (st, body) = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(st, 200, "{body}");
        let (st, body) = client.request("GET", "/v1/readyz", None).unwrap();
        assert_eq!(st, 503, "{body}");
        assert!(body.contains(r#""role":"follower""#), "{body}");
        let (st, _) = client
            .request(
                "POST",
                "/v1/sessions",
                Some(r#"{"user":"x","class":"test"}"#),
            )
            .unwrap();
        assert_eq!(st, 503, "followers admit no client work");
        svc.set_role(crate::daemon::ReplicaRole::Leader);
        let (st, body) = client.request("GET", "/v1/readyz", None).unwrap();
        assert_eq!(st, 200, "{body}");
        assert!(body.contains(r#""ready":true"#), "{body}");
    }

    /// Regression: `status_text` used to miss 503/429, so backpressure
    /// responses went out as `HTTP/1.1 503 Unknown`. Assert the raw status
    /// line on the wire.
    #[test]
    fn status_lines_carry_reason_phrases() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        let svc = service();
        let server = serve_on(Arc::clone(&svc), 0).unwrap();
        svc.shutdown(std::time::Duration::from_millis(10));
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "HTTP/1.1 503 Service Unavailable");
        let wire = String::from_utf8(Response::json(429, "{}").encode(false)).unwrap();
        assert!(
            wire.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "got: {wire}"
        );
    }

    /// The REST transport reports its connection counters into the daemon
    /// registry: they are visible on `GET /metrics` like every other
    /// subsystem.
    #[test]
    fn transport_counters_show_up_on_metrics_route() {
        let server = serve_on(service(), 0).unwrap();
        let addr = server.addr();
        let client = HttpClient::new(&addr);
        let (st, _) = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(st, 200);
        let (st, body) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(st, 200);
        assert!(
            body.contains("http_connections_accepted_total"),
            "transport counters missing from /metrics"
        );
        assert!(body.contains("http_requests_total"));
    }

    /// Per-lock contention/hold-time gauges from `hpcqc_sync` reach the real
    /// `GET /metrics` route: the queue lock (acquired on every submit/pump)
    /// must show up with acquisition counts and hold-time quantiles.
    #[test]
    fn lock_contention_metrics_show_up_on_metrics_route() {
        let svc = service();
        let tok = svc
            .open_session("lisa", crate::session::PriorityClass::Production)
            .unwrap();
        let ir: ProgramIr = serde_json::from_str(&ir_json(5)).unwrap();
        svc.submit(&tok, ir, hpcqc_scheduler::PatternHint::None)
            .unwrap();
        svc.pump();
        let server = serve_on(svc, 0).unwrap();
        let client = HttpClient::new(server.addr());
        let (st, body) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(st, 200);
        assert!(
            body.contains("lock_acquisitions{lock=\"middleware.daemon.tasks\"}"),
            "task-table lock stats missing from /metrics:\n{body}"
        );
        assert!(
            body.contains("lock_hold_seconds{lock=\"middleware.daemon.tasks\",quantile=\"0.99\"}"),
            "hold-time quantiles missing from /metrics"
        );
        assert!(
            body.contains("lock_contended_acquisitions{lock=\"middleware.daemon.dispatch\"}"),
            "contention gauge missing from /metrics"
        );
    }
}
