//! Golden replies of the codec-aware REST routes.
//!
//! Every route that speaks both codecs (`POST /v1/tasks`, `POST
//! /v1/tasks:batch`, `GET /v1/tasks/{id}`, `GET /v1/tasks/{id}/result`) ×
//! {JSON, binary} × {success, daemon error, malformed body, bad hint,
//! unknown content type}, answered by `rest::route` in process. Each row
//! pins the status, the content type and the body bytes: JSON bodies as
//! text, binary bodies as hex. A conforming peer depends on exactly these
//! bytes, so a refactor of the protocol layer must leave the table green
//! without editing it.
//!
//! Every row runs on a fresh daemon with one session, task 1 completed and
//! task 2 queued; a submit in a row is therefore task 3.

use hpcqc_emulator::SvBackend;
use hpcqc_middleware::http::Request;
use hpcqc_middleware::{rest, DaemonConfig, MiddlewareService, PriorityClass};
use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc_qrmi::LocalEmulatorResource;
use hpcqc_scheduler::PatternHint;
use hpcqc_wire as wire;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

const JSON: &str = "application/json";
const BIN: &str = "application/x-hpcqc-bin";

/// One program in a submit body.
#[derive(Clone, Copy)]
enum Frame {
    /// Valid, with the row's session token.
    Good,
    /// A token no session has.
    BadToken,
    /// Over the emulator's amplitude limit: refused by validation.
    Invalid,
    /// A pattern hint the daemon does not know.
    BadHint,
}

enum Body {
    Empty,
    /// One submit, encoded in the row's request codec.
    Submit(Frame),
    /// Good, BadToken, Invalid, BadHint as one batch in the row's codec.
    Batch,
    Raw(&'static [u8]),
}

struct Row {
    method: &'static str,
    path: &'static str,
    /// Request `content-type`; binary bodies are encoded when it is `BIN`.
    content_type: Option<&'static str>,
    accept: Option<&'static str>,
    body: Body,
    status: u16,
    reply_type: &'static str,
    /// JSON replies as text, binary replies as lowercase hex.
    reply: &'static str,
}

fn program(omega: f64) -> ProgramIr {
    let reg = Register::linear(2, 6.0).unwrap();
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, omega, 0.0, 0.0).unwrap());
    ProgramIr::new(b.build().unwrap(), 20, "golden")
}

fn frame(kind: Frame, token: &str) -> wire::SubmitFrame {
    let (token, omega, hint) = match kind {
        Frame::Good => (token, 4.0, Some("qc-heavy")),
        Frame::BadToken => ("sess-0-bogus", 4.0, None),
        Frame::Invalid => (token, 1e6, None),
        Frame::BadHint => (token, 4.0, Some("gpu-heavy")),
    };
    wire::SubmitFrame {
        token: token.to_string(),
        hint: hint.map(String::from),
        idempotency_key: matches!(kind, Frame::Good).then(|| "golden-key".to_string()),
        ir: program(omega),
    }
}

fn json_frame(f: &wire::SubmitFrame) -> String {
    serde_json::json!({
        "token": f.token,
        "ir": f.ir,
        "hint": f.hint,
        "idempotency_key": f.idempotency_key,
    })
    .to_string()
}

fn body_bytes(body: &Body, binary: bool, token: &str) -> Vec<u8> {
    match body {
        Body::Empty => Vec::new(),
        Body::Raw(b) => b.to_vec(),
        Body::Submit(kind) if binary => wire::encode_submit(&frame(*kind, token)),
        Body::Submit(kind) => json_frame(&frame(*kind, token)).into_bytes(),
        Body::Batch => {
            let frames: Vec<_> = [Frame::Good, Frame::BadToken, Frame::Invalid, Frame::BadHint]
                .into_iter()
                .map(|k| frame(k, token))
                .collect();
            if binary {
                wire::encode_submit_batch(&frames)
            } else {
                let items: Vec<String> = frames.iter().map(json_frame).collect();
                format!("[{}]", items.join(",")).into_bytes()
            }
        }
    }
}

/// A daemon with one session, task 1 completed and task 2 queued.
fn daemon() -> (MiddlewareService, String) {
    let res = Arc::new(LocalEmulatorResource::new(
        "emu",
        Arc::new(SvBackend::default()),
        1,
    ));
    let svc = MiddlewareService::new(res, DaemonConfig::default());
    let token = svc
        .open_session("golden", PriorityClass::Production)
        .unwrap();
    assert_eq!(svc.submit(&token, program(4.0), PatternHint::None), Ok(1));
    svc.pump();
    assert_eq!(svc.submit(&token, program(4.0), PatternHint::None), Ok(2));
    (svc, token)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

/// What `row` gets back: status, content type, body as text or hex.
fn answer(row: &Row) -> (u16, String, String) {
    let (svc, token) = daemon();
    let mut headers = BTreeMap::new();
    if let Some(ct) = row.content_type {
        headers.insert("content-type".to_string(), ct.to_string());
    }
    if let Some(accept) = row.accept {
        headers.insert("accept".to_string(), accept.to_string());
    }
    let req = Request {
        method: row.method.to_string(),
        path: row.path.to_string(),
        query: BTreeMap::new(),
        headers,
        body: body_bytes(&row.body, row.content_type == Some(BIN), &token),
    };
    let resp = rest::route(&svc, &req);
    let body = if resp.content_type == BIN {
        hex(&resp.body)
    } else {
        String::from_utf8(resp.body).unwrap()
    };
    (resp.status, resp.content_type.to_string(), body)
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // ---- POST /v1/tasks, JSON ----
    Row { method: "POST", path: "/v1/tasks", content_type: Some(JSON), accept: None, body: Body::Submit(Frame::Good),
          status: 201, reply_type: JSON, reply: r#"{"task_id":3}"# },
    Row { method: "POST", path: "/v1/tasks", content_type: None, accept: None, body: Body::Submit(Frame::Good),
          status: 201, reply_type: JSON, reply: r#"{"task_id":3}"# },
    Row { method: "POST", path: "/v1/tasks", content_type: Some("application/json; charset=utf-8"), accept: None, body: Body::Submit(Frame::BadToken),
          status: 401, reply_type: JSON, reply: r#"{"error":"session error: unknown or expired session token"}"# },
    Row { method: "POST", path: "/v1/tasks", content_type: Some(JSON), accept: None, body: Body::Submit(Frame::Invalid),
          status: 422, reply_type: JSON, reply: r#"{"error":"validation failed: AmplitudeOutOfRange: pulse at t=0.000 µs peaks at Ω=1000000.000 rad/µs > channel max 125.700"}"# },
    Row { method: "POST", path: "/v1/tasks", content_type: Some(JSON), accept: None, body: Body::Raw(b"{not json"),
          status: 400, reply_type: JSON, reply: r#"{"error":"bad submit body: expected `\"` at byte 1"}"# },
    Row { method: "POST", path: "/v1/tasks", content_type: Some(JSON), accept: None, body: Body::Raw(b"\xff\xfe"),
          status: 400, reply_type: JSON, reply: r#"{"error":"body not UTF-8"}"# },
    Row { method: "POST", path: "/v1/tasks", content_type: Some(JSON), accept: None, body: Body::Submit(Frame::BadHint),
          status: 400, reply_type: JSON, reply: r#"{"error":"hint must be qc-heavy|cc-heavy|qc-balanced|none"}"# },
    // ---- POST /v1/tasks, binary ----
    Row { method: "POST", path: "/v1/tasks", content_type: Some(BIN), accept: None, body: Body::Submit(Frame::Good),
          status: 201, reply_type: BIN, reply: r#"4851010408000000030000000000000086d042f9"# },
    Row { method: "POST", path: "/v1/tasks", content_type: Some(BIN), accept: None, body: Body::Submit(Frame::BadToken),
          status: 401, reply_type: BIN, reply: r#"485101083500000091012f00000073657373696f6e206572726f723a20756e6b6e6f776e206f7220657870697265642073657373696f6e20746f6b656eb7221c60"# },
    Row { method: "POST", path: "/v1/tasks", content_type: Some(BIN), accept: None, body: Body::Submit(Frame::Invalid),
          status: 422, reply_type: BIN, reply: r#"4851010878000000a6017200000076616c69646174696f6e206661696c65643a20416d706c69747564654f75744f6652616e67653a2070756c736520617420743d302e30303020c2b573207065616b7320617420cea93d313030303030302e303030207261642fc2b573203e206368616e6e656c206d6178203132352e3730303474c1ad"# },
    Row { method: "POST", path: "/v1/tasks", content_type: Some(BIN), accept: None, body: Body::Raw(b"HQ\x01"),
          status: 400, reply_type: BIN, reply: r#"4851010827000000900121000000626164207375626d6974206672616d653a206672616d65207472756e63617465648cdf4694"# },
    Row { method: "POST", path: "/v1/tasks", content_type: Some(BIN), accept: None, body: Body::Submit(Frame::BadHint),
          status: 400, reply_type: BIN, reply: r#"485101083500000090012f00000068696e74206d7573742062652071632d68656176797c63632d68656176797c71632d62616c616e6365647c6e6f6e650f5e8ef5"# },
    // ---- POST /v1/tasks, unknown content type ----
    Row { method: "POST", path: "/v1/tasks", content_type: Some("application/x-msgpack"), accept: None, body: Body::Raw(b"\x00\x01"),
          status: 415, reply_type: JSON, reply: r#"{"error":"unsupported content type \"application/x-msgpack\""}"# },
    // ---- POST /v1/tasks:batch ----
    Row { method: "POST", path: "/v1/tasks:batch", content_type: Some(JSON), accept: None, body: Body::Batch,
          status: 200, reply_type: JSON, reply: r#"[{"task_id":3},{"status":401,"error":"session error: unknown or expired session token"},{"status":422,"error":"validation failed: AmplitudeOutOfRange: pulse at t=0.000 µs peaks at Ω=1000000.000 rad/µs > channel max 125.700"},{"status":400,"error":"hint must be qc-heavy|cc-heavy|qc-balanced|none"}]"# },
    Row { method: "POST", path: "/v1/tasks:batch", content_type: Some(JSON), accept: None, body: Body::Raw(b"[{\"token\":1}]"),
          status: 400, reply_type: JSON, reply: r#"{"error":"bad batch body: field `token`: expected string"}"# },
    Row { method: "POST", path: "/v1/tasks:batch", content_type: Some(BIN), accept: None, body: Body::Batch,
          status: 200, reply_type: BIN, reply: r#"48510105f2000000040000000003000000000000000191012f00000073657373696f6e206572726f723a20756e6b6e6f776e206f7220657870697265642073657373696f6e20746f6b656e01a6017200000076616c69646174696f6e206661696c65643a20416d706c69747564654f75744f6652616e67653a2070756c736520617420743d302e30303020c2b573207065616b7320617420cea93d313030303030302e303030207261642fc2b573203e206368616e6e656c206d6178203132352e3730300190012f00000068696e74206d7573742062652071632d68656176797c63632d68656176797c71632d62616c616e6365647c6e6f6e65586f0e6e"# },
    Row { method: "POST", path: "/v1/tasks:batch", content_type: Some(BIN), accept: None, body: Body::Raw(b"{}"),
          status: 400, reply_type: BIN, reply: r#"485101083b000000900135000000626164206261746368206672616d653a206672616d6520646f6573206e6f7420737461727420776974682027485127206d61676963ee66bc47"# },
    Row { method: "POST", path: "/v1/tasks:batch", content_type: Some("text/plain"), accept: None, body: Body::Raw(b"[]"),
          status: 415, reply_type: JSON, reply: r#"{"error":"unsupported content type \"text/plain\""}"# },
    // ---- GET /v1/tasks/{id} ----
    Row { method: "GET", path: "/v1/tasks/1", content_type: None, accept: None, body: Body::Empty,
          status: 200, reply_type: JSON, reply: r#""Completed""# },
    Row { method: "GET", path: "/v1/tasks/2", content_type: None, accept: Some("text/html"), body: Body::Empty,
          status: 200, reply_type: JSON, reply: r#"{"Queued":{"position":0}}"# },
    Row { method: "GET", path: "/v1/tasks/99", content_type: None, accept: None, body: Body::Empty,
          status: 404, reply_type: JSON, reply: r#"{"error":"unknown task 99"}"# },
    Row { method: "GET", path: "/v1/tasks/x", content_type: None, accept: None, body: Body::Empty,
          status: 400, reply_type: JSON, reply: r#"{"error":"task id must be a number"}"# },
    Row { method: "GET", path: "/v1/tasks/1", content_type: None, accept: Some(BIN), body: Body::Empty,
          status: 200, reply_type: BIN, reply: r#"48510106010000000245600c07"# },
    Row { method: "GET", path: "/v1/tasks/2", content_type: None, accept: Some("application/json, application/x-hpcqc-bin;q=0.9"), body: Body::Empty,
          status: 200, reply_type: BIN, reply: r#"4851010609000000000000000000000000ff81e5c8"# },
    Row { method: "GET", path: "/v1/tasks/99", content_type: None, accept: Some(BIN), body: Body::Empty,
          status: 404, reply_type: BIN, reply: r#"485101081500000094010f000000756e6b6e6f776e207461736b203939f857c6aa"# },
    Row { method: "GET", path: "/v1/tasks/x", content_type: None, accept: Some(BIN), body: Body::Empty,
          status: 400, reply_type: JSON, reply: r#"{"error":"task id must be a number"}"# },
    // ---- GET /v1/tasks/{id}/result ----
    Row { method: "GET", path: "/v1/tasks/1/result", content_type: None, accept: None, body: Body::Empty,
          status: 200, reply_type: JSON, reply: r#"{"n_qubits":2,"shots":20,"counts":{"1":9,"2":11},"backend":"emu-sv","truncation_error":0,"execution_secs":0}"# },
    Row { method: "GET", path: "/v1/tasks/2/result", content_type: None, accept: None, body: Body::Empty,
          status: 409, reply_type: JSON, reply: r#"{"error":"queue error: task not completed"}"# },
    Row { method: "GET", path: "/v1/tasks/99/result", content_type: None, accept: None, body: Body::Empty,
          status: 404, reply_type: JSON, reply: r#"{"error":"unknown task 99"}"# },
    Row { method: "GET", path: "/v1/tasks/x/result", content_type: None, accept: None, body: Body::Empty,
          status: 400, reply_type: JSON, reply: r#"{"error":"task id must be a number"}"# },
    Row { method: "GET", path: "/v1/tasks/1/result", content_type: None, accept: Some(BIN), body: Body::Empty,
          status: 200, reply_type: BIN, reply: r#"48510107420000000200000000000000140000000200000001000000000000000900000002000000000000000b00000006000000656d752d737600000000000000000000000000000000df98df38"# },
    Row { method: "GET", path: "/v1/tasks/2/result", content_type: None, accept: Some(BIN), body: Body::Empty,
          status: 409, reply_type: BIN, reply: r#"485101082500000099011f0000007175657565206572726f723a207461736b206e6f7420636f6d706c65746564ce99e80f"# },
    Row { method: "GET", path: "/v1/tasks/99/result", content_type: None, accept: Some(BIN), body: Body::Empty,
          status: 404, reply_type: BIN, reply: r#"485101081500000094010f000000756e6b6e6f776e207461736b203939f857c6aa"# },
    Row { method: "GET", path: "/v1/tasks/x/result", content_type: None, accept: Some(BIN), body: Body::Empty,
          status: 400, reply_type: JSON, reply: r#"{"error":"task id must be a number"}"# },
];

/// All rows are checked before failing, and the failure lists every row
/// that differs with what it got, so one run shows the whole drift.
#[test]
fn codec_aware_routes_answer_their_golden_replies() {
    let mut drift = String::new();
    for (i, row) in ROWS.iter().enumerate() {
        let got = answer(row);
        let want = (
            row.status,
            row.reply_type.to_string(),
            row.reply.to_string(),
        );
        if got != want {
            let _ = writeln!(
                drift,
                "row {i} {} {} ct={:?} accept={:?}\n  want {want:?}\n  got  {got:?}",
                row.method, row.path, row.content_type, row.accept
            );
        }
    }
    assert!(drift.is_empty(), "golden replies drifted:\n{drift}");
}
