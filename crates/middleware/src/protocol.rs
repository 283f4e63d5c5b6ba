//! The REST protocol's codec-aware messages, each spelled once per codec,
//! and the negotiation that picks the codec.
//!
//! The runtime reaches the daemon through one session protocol (paper
//! §3.3) in two encodings: JSON, the default, and the length-prefixed
//! frames of `hpcqc-wire`, negotiated with `Content-Type` (request bodies)
//! and `Accept` (replies of `GET` routes) set to
//! `application/x-hpcqc-bin`. The REST routes, the SDK client, the gateway
//! and the load generator all pick a [`Codec`] here and encode or decode
//! every message through it, so client and server cannot disagree on a
//! schema without this module's tests seeing it:
//!
//! ```text
//! message        JSON                                    binary frame
//! submit         {token, ir, hint, idempotency_key}      Submit
//! batch          [submit, ...]                           SubmitBatch
//! task id        {task_id}                               TaskId
//! batch reply    [{task_id} | {status, error}, ...]      BatchReply
//! status         DaemonTaskStatus                        Status
//! result         SampleResult                            Result
//! error          {error}                                 Error
//! ```
//!
//! Both codecs refuse a batch of more than [`wire::MAX_BATCH_FRAMES`]
//! frames with the same error.

use crate::daemon::DaemonTaskStatus;
use crate::http::Response;
use hpcqc_emulator::SampleResult;
use hpcqc_program::ProgramIr;
use hpcqc_wire::{self as wire, BatchSlot, SubmitFrame, WireError, WireStatus};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// The body of `POST /v1/sessions` (JSON only: no session call is on the
/// hot path).
#[derive(Debug, Serialize, Deserialize)]
pub struct OpenSessionReq {
    pub user: String,
    pub class: String,
}

/// A body encoding of the REST protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    Json,
    Binary,
}

/// A media type without its parameters (`; charset=...`).
fn media_type(header: &str) -> &str {
    header.split(';').next().unwrap_or("").trim()
}

impl Codec {
    /// The codec a media type names. Absent (empty) means JSON: that is
    /// what every pre-binary client sends.
    pub fn named(header: &str) -> Option<Codec> {
        match media_type(header) {
            "" | "application/json" => Some(Codec::Json),
            wire::CONTENT_TYPE_BIN => Some(Codec::Binary),
            _ => None,
        }
    }

    /// The codec of a request body, from its `Content-Type`. Any other
    /// type is answered `415`, the signal a client keys its JSON fallback
    /// on.
    pub fn of_content_type(header: Option<&str>) -> Result<Codec, Response> {
        let header = header.unwrap_or("");
        Codec::named(header).ok_or_else(|| {
            let msg = format!("unsupported content type {:?}", media_type(header));
            Codec::Json.error(415, &msg)
        })
    }

    /// The codec a reply is wanted in: binary when `Accept` lists the
    /// binary type, JSON otherwise.
    pub fn of_accept(header: Option<&str>) -> Codec {
        let listed = |h: &str| h.split(',').any(|t| Codec::named(t) == Some(Codec::Binary));
        if header.is_some_and(listed) {
            Codec::Binary
        } else {
            Codec::Json
        }
    }

    pub fn content_type(self) -> &'static str {
        match self {
            Codec::Json => "application/json",
            Codec::Binary => wire::CONTENT_TYPE_BIN,
        }
    }

    pub fn reply(self, status: u16, body: Vec<u8>) -> Response {
        Response::bytes(status, self.content_type(), body)
    }

    /// An error reply: `{"error": msg}`, or an Error frame whose status
    /// echoes the HTTP one.
    pub fn error(self, status: u16, msg: &str) -> Response {
        let body = match self {
            Codec::Json => json!({ "error": msg }).to_string().into_bytes(),
            Codec::Binary => wire::encode_error(status, msg),
        };
        self.reply(status, body)
    }

    /// The message of an error reply; a body that does not decode is
    /// reported as it came.
    pub fn error_message(self, body: &[u8]) -> String {
        match self {
            Codec::Json => serde_json::from_slice::<Value>(body)
                .ok()
                .and_then(|v| v["error"].as_str().map(String::from))
                .unwrap_or_else(|| String::from_utf8_lossy(body).into_owned()),
            Codec::Binary => wire::decode_error(body)
                .map(|e| e.message)
                .unwrap_or_else(|_| "undecodable binary error frame".into()),
        }
    }

    pub fn encode<M: Message>(self, msg: &M) -> Vec<u8> {
        match self {
            Codec::Json => msg.to_json().into_bytes(),
            Codec::Binary => msg.to_wire(),
        }
    }

    /// Decode a body; the error is the message a `400` carries.
    pub fn decode<M: Message>(self, body: &[u8]) -> Result<M, String> {
        match self {
            Codec::Json => {
                let text = std::str::from_utf8(body).map_err(|_| "body not UTF-8".to_string())?;
                M::from_json(text).map_err(|e| format!("bad {} body: {e}", M::NAME))
            }
            Codec::Binary => M::from_wire(body).map_err(|e| format!("bad {} frame: {e}", M::NAME)),
        }
    }
}

/// A codec-aware message: its JSON and its binary encoding, and the
/// decoder of each.
pub trait Message: Sized {
    /// What a decode error calls the message ("bad submit body: ...").
    const NAME: &'static str;
    fn to_json(&self) -> String;
    fn from_json(text: &str) -> Result<Self, Box<dyn std::error::Error>>;
    fn to_wire(&self) -> Vec<u8>;
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError>;
}

/// The JSON submit.
#[derive(Deserialize)]
struct SubmitReq {
    token: String,
    ir: ProgramIr,
    #[serde(default)]
    hint: Option<String>,
    /// Client-chosen dedup key: retrying a submit with the same key returns
    /// the originally assigned task id (survives daemon restarts).
    #[serde(default)]
    idempotency_key: Option<String>,
}

impl From<SubmitReq> for SubmitFrame {
    fn from(r: SubmitReq) -> Self {
        SubmitFrame {
            token: r.token,
            hint: r.hint,
            idempotency_key: r.idempotency_key,
            ir: r.ir,
        }
    }
}

/// [`SubmitReq`] as written, from borrowed fields.
fn submit_json(f: &SubmitFrame) -> Value {
    json!({
        "token": f.token,
        "ir": f.ir,
        "hint": f.hint,
        "idempotency_key": f.idempotency_key,
    })
}

impl Message for SubmitFrame {
    const NAME: &'static str = "submit";
    fn to_json(&self) -> String {
        submit_json(self).to_string()
    }
    fn from_json(text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(serde_json::from_str::<SubmitReq>(text)?.into())
    }
    fn to_wire(&self) -> Vec<u8> {
        wire::encode_submit(self)
    }
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        wire::decode_submit(bytes)
    }
}

impl Message for Vec<SubmitFrame> {
    const NAME: &'static str = "batch";
    fn to_json(&self) -> String {
        Value::Array(self.iter().map(submit_json).collect()).to_string()
    }
    fn from_json(text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let reqs: Vec<SubmitReq> = serde_json::from_str(text)?;
        if reqs.len() > wire::MAX_BATCH_FRAMES {
            // the binary decoder's own refusal, word for word
            return Err(WireError::TooManyItems {
                what: "batch frames",
                len: reqs.len(),
                cap: wire::MAX_BATCH_FRAMES,
            }
            .into());
        }
        Ok(reqs.into_iter().map(SubmitFrame::from).collect())
    }
    fn to_wire(&self) -> Vec<u8> {
        wire::encode_submit_batch(self)
    }
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        wire::decode_submit_batch(bytes)
    }
}

/// A task id, the reply to a submit.
impl Message for u64 {
    const NAME: &'static str = "task id";
    fn to_json(&self) -> String {
        json!({ "task_id": self }).to_string()
    }
    fn from_json(text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(serde_json::from_str::<Value>(text)?["task_id"]
            .as_u64()
            .ok_or("missing task_id")?)
    }
    fn to_wire(&self) -> Vec<u8> {
        wire::encode_task_id(*self)
    }
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        wire::decode_task_id(bytes)
    }
}

/// A batch reply: one slot per submitted frame, in order.
impl Message for Vec<BatchSlot> {
    const NAME: &'static str = "batch reply";
    fn to_json(&self) -> String {
        let slot = |s: &BatchSlot| match s {
            BatchSlot::Ok { task_id } => json!({ "task_id": task_id }),
            BatchSlot::Err { status, message } => json!({ "status": status, "error": message }),
        };
        Value::Array(self.iter().map(slot).collect()).to_string()
    }
    fn from_json(text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let slot = |s: &Value| match s["task_id"].as_u64() {
            Some(task_id) => BatchSlot::Ok { task_id },
            None => BatchSlot::Err {
                status: s["status"].as_u64().unwrap_or(500) as u16,
                message: s["error"].as_str().unwrap_or("unknown error").to_string(),
            },
        };
        let slots = serde_json::from_str::<Value>(text)?;
        let slots = slots.as_array().ok_or("batch reply is not an array")?;
        Ok(slots.iter().map(slot).collect())
    }
    fn to_wire(&self) -> Vec<u8> {
        wire::encode_batch_reply(self)
    }
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        wire::decode_batch_reply(bytes)
    }
}

impl Message for DaemonTaskStatus {
    const NAME: &'static str = "status";
    fn to_json(&self) -> String {
        serde_json::to_string(self).expect("status serializes")
    }
    fn from_json(text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(serde_json::from_str(text)?)
    }
    fn to_wire(&self) -> Vec<u8> {
        wire::encode_status(&match self {
            DaemonTaskStatus::Queued { position } => WireStatus::Queued {
                position: *position,
            },
            DaemonTaskStatus::Running => WireStatus::Running,
            DaemonTaskStatus::Completed => WireStatus::Completed,
            DaemonTaskStatus::Failed(m) => WireStatus::Failed(m.clone()),
            DaemonTaskStatus::Cancelled => WireStatus::Cancelled,
        })
    }
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        Ok(match wire::decode_status(bytes)? {
            WireStatus::Queued { position } => DaemonTaskStatus::Queued { position },
            WireStatus::Running => DaemonTaskStatus::Running,
            WireStatus::Completed => DaemonTaskStatus::Completed,
            WireStatus::Failed(m) => DaemonTaskStatus::Failed(m),
            WireStatus::Cancelled => DaemonTaskStatus::Cancelled,
        })
    }
}

impl Message for SampleResult {
    const NAME: &'static str = "result";
    fn to_json(&self) -> String {
        serde_json::to_string(self).expect("result serializes")
    }
    fn from_json(text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(serde_json::from_str(text)?)
    }
    fn to_wire(&self) -> Vec<u8> {
        wire::encode_result(self)
    }
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        wire::decode_result(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};
    use std::collections::BTreeMap;

    const BOTH: [Codec; 2] = [Codec::Json, Codec::Binary];

    fn frame(key: Option<&str>) -> SubmitFrame {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        SubmitFrame {
            token: "sess-1-abc".into(),
            hint: key.map(|_| "qc-heavy".into()),
            idempotency_key: key.map(String::from),
            ir: ProgramIr::new(b.build().unwrap(), 25, "protocol-test"),
        }
    }

    fn round_trip<M: Message + PartialEq + std::fmt::Debug>(msg: M) {
        for codec in BOTH {
            let back: M = codec.decode(&codec.encode(&msg)).unwrap();
            assert_eq!(back, msg, "{codec:?}");
        }
    }

    #[test]
    fn every_message_round_trips_in_both_codecs() {
        round_trip(frame(None));
        round_trip(frame(Some("k-1")));
        round_trip(vec![frame(Some("k-1")), frame(None)]);
        round_trip(7u64);
        round_trip(vec![
            BatchSlot::Ok { task_id: 3 },
            BatchSlot::Err {
                status: 422,
                message: "validation failed".into(),
            },
        ]);
        for s in [
            DaemonTaskStatus::Queued { position: 4 },
            DaemonTaskStatus::Running,
            DaemonTaskStatus::Completed,
            DaemonTaskStatus::Failed("device down".into()),
            DaemonTaskStatus::Cancelled,
        ] {
            round_trip(s);
        }
        round_trip(SampleResult {
            n_qubits: 2,
            shots: 20,
            counts: BTreeMap::from([(1, 9), (2, 11)]),
            backend: "emu-sv".into(),
            truncation_error: 0.0,
            execution_secs: 0.5,
        });
    }

    /// The JSON submit is the shape clients have always sent: absent
    /// options are `null`, and a body without them still decodes.
    #[test]
    fn json_submit_keeps_its_shape() {
        let f = frame(None);
        let ir = serde_json::to_string(&f.ir).unwrap();
        let text =
            format!(r#"{{"token":"sess-1-abc","ir":{ir},"hint":null,"idempotency_key":null}}"#);
        assert_eq!(f.to_json(), text);
        let short = format!(r#"{{"token":"sess-1-abc","ir":{ir}}}"#);
        assert_eq!(Codec::Json.decode::<SubmitFrame>(short.as_bytes()), Ok(f));
    }

    #[test]
    fn both_codecs_refuse_an_oversized_batch_alike() {
        let frames = vec![frame(None); wire::MAX_BATCH_FRAMES + 1];
        let refusals: Vec<String> = BOTH
            .iter()
            .map(|c| {
                c.decode::<Vec<SubmitFrame>>(&c.encode(&frames))
                    .unwrap_err()
            })
            .collect();
        assert_eq!(
            refusals,
            [
                "bad batch body: batch frames count 1025 exceeds cap 1024",
                "bad batch frame: batch frames count 1025 exceeds cap 1024",
            ]
        );
        let full = vec![frame(None); wire::MAX_BATCH_FRAMES];
        for c in BOTH {
            assert_eq!(
                c.decode::<Vec<SubmitFrame>>(&c.encode(&full)),
                Ok(full.clone())
            );
        }
    }

    #[test]
    fn negotiation() {
        let bin = wire::CONTENT_TYPE_BIN;
        assert_eq!(Codec::of_content_type(None), Ok(Codec::Json));
        assert_eq!(
            Codec::of_content_type(Some("application/json; charset=utf-8")),
            Ok(Codec::Json)
        );
        assert_eq!(Codec::of_content_type(Some(bin)), Ok(Codec::Binary));
        let refused = Codec::of_content_type(Some("text/plain; q=1")).unwrap_err();
        assert_eq!(refused.status, 415);
        assert_eq!(
            refused.body,
            br#"{"error":"unsupported content type \"text/plain\""}"#
        );
        assert_eq!(Codec::of_accept(None), Codec::Json);
        assert_eq!(Codec::of_accept(Some("text/html, */*")), Codec::Json);
        assert_eq!(
            Codec::of_accept(Some("application/json, application/x-hpcqc-bin;q=0.9")),
            Codec::Binary
        );
        for c in BOTH {
            assert_eq!(Codec::named(c.content_type()), Some(c));
        }
    }

    #[test]
    fn error_replies_carry_their_message_in_either_codec() {
        for c in BOTH {
            let r = c.error(404, "unknown task 9");
            assert_eq!((r.status, r.content_type), (404, c.content_type()));
            assert_eq!(c.error_message(&r.body), "unknown task 9");
        }
        assert_eq!(Codec::Json.error_message(b"plain text"), "plain text");
        assert_eq!(
            Codec::Binary.error_message(b"junk"),
            "undecodable binary error frame"
        );
    }
}
