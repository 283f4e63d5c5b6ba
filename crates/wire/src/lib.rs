//! Binary wire codec for the HPC-QC ingest path.
//!
//! The REST front end's default body encoding is JSON — self-describing,
//! debuggable, and ~4 µs of the ~20 µs per-request budget on the 1-core
//! runner (EXPERIMENTS.md RP). This crate provides the negotiated
//! alternative: a compact length-prefixed binary framing for the payloads
//! that actually ride the hot path — `ProgramIr`, task submission (single
//! and batched), status polls, and sampled results — selected per-request
//! via `Content-Type: application/x-hpcqc-bin`.
//!
//! Design rules (DESIGN.md §17 is the normative spec):
//!
//! - **Framing**: every frame is `magic "HQ" + version byte + kind byte +
//!   u32-LE payload length + payload + u32-LE FNV-1a checksum` of the
//!   payload. The length is validated against a hard cap *before* any
//!   allocation, so truncated, oversized, or hostile frames are rejected
//!   with a typed [`WireError`] — decode never panics and never
//!   over-allocates.
//! - **Bit identity**: all `f64`s travel as raw IEEE-754 bits
//!   (`to_bits`/`from_bits`, little-endian), so a round-trip reproduces the
//!   input bit-for-bit — including negative zero and NaN payloads — which
//!   JSON's decimal formatting cannot guarantee in general.
//! - **Allocation-light**: decoding walks the input slice with a cursor and
//!   allocates only the owned `String`s/`Vec`s of the target structs; there
//!   is no intermediate document tree.
//! - **Versioning**: one wire-version byte in the header; readers reject
//!   other versions. The `ProgramIr` payload additionally carries its own
//!   `ir.version` (checked against [`hpcqc_program::IR_VERSION`]) so the
//!   wire framing and the IR schema can evolve independently.

use hpcqc_emulator::SampleResult;
use hpcqc_program::register::Site;
use hpcqc_program::{ProgramIr, Pulse, Register, Sequence, TimedPulse, Waveform, IR_VERSION};
use std::collections::BTreeMap;
use std::fmt;

/// Wire protocol version this build reads and writes.
pub const WIRE_VERSION: u8 = 1;

/// Two-byte frame magic, chosen to be invalid as leading JSON.
pub const MAGIC: [u8; 2] = [b'H', b'Q'];

/// Content type negotiating the binary codec on the REST surface.
pub const CONTENT_TYPE_BIN: &str = "application/x-hpcqc-bin";

/// Frame header: magic (2) + version (1) + kind (1) + payload length (4).
pub const HEADER_LEN: usize = 8;

/// Frame trailer: FNV-1a-32 checksum of the payload bytes.
pub const TRAILER_LEN: usize = 4;

/// Default cap on a frame's payload length — matches the HTTP server's
/// 1 MiB body cap so a frame that fits the wire always fits the decoder.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 20;

/// Cap on submit frames inside one batch; a batch is one queue-lock hold
/// and one journal append, so the cap bounds both.
pub const MAX_BATCH_FRAMES: usize = 1024;

/// Cap on nested `Waveform::Composite` depth (decode is recursive).
const MAX_WAVEFORM_DEPTH: usize = 32;

/// Cap on decoded collection lengths (sites, pulses, samples, counts):
/// anything larger could not have fit in `MAX_PAYLOAD_BYTES` anyway, but
/// checking the count first keeps a hostile length from pre-allocating.
const MAX_ITEMS: usize = 1 << 20;

/// Frame kinds. The kind byte routes a frame to its payload decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A bare `ProgramIr` (used by tooling and the property suite).
    ProgramIr = 1,
    /// One task submission: token + hint + idempotency key + IR.
    Submit = 2,
    /// N submissions flowing as one unit (`POST /v1/tasks:batch`).
    SubmitBatch = 3,
    /// Response to `Submit`: the accepted task id.
    TaskId = 4,
    /// Response to `SubmitBatch`: one slot per submitted frame, in order.
    BatchReply = 5,
    /// Response to a status poll.
    Status = 6,
    /// Response to a result fetch.
    Result = 7,
    /// A typed error travelling in a binary response body.
    Error = 8,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::ProgramIr,
            2 => FrameKind::Submit,
            3 => FrameKind::SubmitBatch,
            4 => FrameKind::TaskId,
            5 => FrameKind::BatchReply,
            6 => FrameKind::Status,
            7 => FrameKind::Result,
            8 => FrameKind::Error,
            _ => return None,
        })
    }
}

/// Typed decode/encode failures. Decoding hostile bytes must land here —
/// never in a panic and never in an unbounded allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Input does not start with the frame magic.
    BadMagic,
    /// Wire version byte is not one this build reads.
    UnsupportedVersion(u8),
    /// Unknown frame-kind byte.
    UnknownKind(u8),
    /// The frame announces a different kind than the caller expected.
    WrongKind {
        expected: FrameKind,
        found: FrameKind,
    },
    /// Input ends before the announced payload + trailer.
    Truncated,
    /// Announced payload length exceeds the decoder's cap.
    Oversized { len: usize, cap: usize },
    /// Payload checksum does not match the trailer.
    ChecksumMismatch,
    /// Bytes remain after a complete frame.
    TrailingBytes(usize),
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
    /// An enum tag byte is out of range for the named type.
    BadTag(&'static str, u8),
    /// A collection announces more items than the cap allows.
    TooManyItems {
        what: &'static str,
        len: usize,
        cap: usize,
    },
    /// Composite waveforms nested beyond the recursion cap.
    DepthExceeded,
    /// Payload decoded structurally but violates a domain invariant
    /// (e.g. an empty register) or carries an unsupported IR version.
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "frame does not start with 'HQ' magic"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (supported: {WIRE_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::WrongKind { expected, found } => {
                write!(f, "expected {expected:?} frame, found {found:?}")
            }
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized { len, cap } => {
                write!(f, "frame payload {len} bytes exceeds cap {cap}")
            }
            WireError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadTag(what, b) => write!(f, "invalid tag {b} for {what}"),
            WireError::TooManyItems { what, len, cap } => {
                write!(f, "{what} count {len} exceeds cap {cap}")
            }
            WireError::DepthExceeded => {
                write!(
                    f,
                    "composite waveform nested deeper than {MAX_WAVEFORM_DEPTH}"
                )
            }
            WireError::Invalid(m) => write!(f, "invalid payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 32-bit over the payload. Cheap, endian-free, and plenty to catch
/// truncation/corruption — the transport (TCP) already guards bit rot; the
/// checksum guards framing bugs and mid-body disconnects.
pub fn checksum(payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in payload {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

// ---------------------------------------------------------------------------
// payload structs
// ---------------------------------------------------------------------------

/// One task submission as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitFrame {
    pub token: String,
    pub hint: Option<String>,
    pub idempotency_key: Option<String>,
    pub ir: ProgramIr,
}

/// One slot of a batch reply: the task id, or why this frame was refused.
/// Slot order matches submission order.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchSlot {
    Ok { task_id: u64 },
    Err { status: u16, message: String },
}

/// Task status as it crosses the wire (mirrors the daemon's status enum;
/// the middleware converts — `hpcqc-wire` stays below the daemon in the
/// dependency graph).
#[derive(Debug, Clone, PartialEq)]
pub enum WireStatus {
    Queued { position: usize },
    Running,
    Completed,
    Failed(String),
    Cancelled,
}

/// A typed error body for binary responses (status echoes the HTTP code).
#[derive(Debug, Clone, PartialEq)]
pub struct WireErrorBody {
    pub status: u16,
    pub message: String,
}

// ---------------------------------------------------------------------------
// encoder
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn with_capacity(cap: usize) -> Enc {
        Enc {
            buf: Vec::with_capacity(cap),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }

    fn waveform(&mut self, w: &Waveform) {
        match w {
            Waveform::Constant { duration, value } => {
                self.u8(0);
                self.f64(*duration);
                self.f64(*value);
            }
            Waveform::Ramp {
                duration,
                start,
                stop,
            } => {
                self.u8(1);
                self.f64(*duration);
                self.f64(*start);
                self.f64(*stop);
            }
            Waveform::Blackman { duration, area } => {
                self.u8(2);
                self.f64(*duration);
                self.f64(*area);
            }
            Waveform::Interpolated { duration, values } => {
                self.u8(3);
                self.f64(*duration);
                self.u32(values.len() as u32);
                for v in values {
                    self.f64(*v);
                }
            }
            Waveform::Composite { parts } => {
                self.u8(4);
                self.u32(parts.len() as u32);
                for p in parts {
                    self.waveform(p);
                }
            }
        }
    }

    fn pulse(&mut self, p: &Pulse) {
        self.waveform(&p.amplitude);
        self.waveform(&p.detuning);
        self.f64(p.phase);
    }

    fn program_ir(&mut self, ir: &ProgramIr) {
        self.u32(ir.version);
        let sites = ir.sequence.register.sites();
        self.u32(sites.len() as u32);
        for s in sites {
            self.str(&s.label);
            self.f64(s.x);
            self.f64(s.y);
        }
        self.u32(ir.sequence.pulses.len() as u32);
        for tp in &ir.sequence.pulses {
            self.str(&tp.channel);
            self.f64(tp.start);
            self.pulse(&tp.pulse);
        }
        self.str(&ir.sequence.measurement_basis);
        self.u32(ir.shots);
        self.str(&ir.sdk);
        self.str(&ir.sdk_version);
        match ir.validated_against_revision {
            None => self.u8(0),
            Some(rev) => {
                self.u8(1);
                self.u64(rev);
            }
        }
        match ir.classical_secs_estimate {
            None => self.u8(0),
            Some(secs) => {
                self.u8(1);
                self.f64(secs);
            }
        }
    }

    fn submit(&mut self, f: &SubmitFrame) {
        self.str(&f.token);
        self.opt_str(f.hint.as_deref());
        self.opt_str(f.idempotency_key.as_deref());
        self.program_ir(&f.ir);
    }
}

fn frame(kind: FrameKind, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let ck = checksum(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&ck.to_le_bytes());
    out
}

/// Encode a bare `ProgramIr` frame.
pub fn encode_program_ir(ir: &ProgramIr) -> Vec<u8> {
    let mut e = Enc::with_capacity(256);
    e.program_ir(ir);
    frame(FrameKind::ProgramIr, e.buf)
}

/// Encode a single-submit frame.
pub fn encode_submit(f: &SubmitFrame) -> Vec<u8> {
    let mut e = Enc::with_capacity(320);
    e.submit(f);
    frame(FrameKind::Submit, e.buf)
}

/// Encode a batch of submit frames as one body.
pub fn encode_submit_batch(frames: &[SubmitFrame]) -> Vec<u8> {
    let mut e = Enc::with_capacity(64 + 320 * frames.len());
    e.u32(frames.len() as u32);
    for f in frames {
        e.submit(f);
    }
    frame(FrameKind::SubmitBatch, e.buf)
}

/// Encode a single task-id reply.
pub fn encode_task_id(id: u64) -> Vec<u8> {
    let mut e = Enc::with_capacity(8);
    e.u64(id);
    frame(FrameKind::TaskId, e.buf)
}

/// Encode a batch reply (one slot per submitted frame, in order).
pub fn encode_batch_reply(slots: &[BatchSlot]) -> Vec<u8> {
    let mut e = Enc::with_capacity(8 + 16 * slots.len());
    e.u32(slots.len() as u32);
    for s in slots {
        match s {
            BatchSlot::Ok { task_id } => {
                e.u8(0);
                e.u64(*task_id);
            }
            BatchSlot::Err { status, message } => {
                e.u8(1);
                e.u16(*status);
                e.str(message);
            }
        }
    }
    frame(FrameKind::BatchReply, e.buf)
}

/// Encode a status reply.
pub fn encode_status(s: &WireStatus) -> Vec<u8> {
    let mut e = Enc::with_capacity(16);
    match s {
        WireStatus::Queued { position } => {
            e.u8(0);
            e.u64(*position as u64);
        }
        WireStatus::Running => e.u8(1),
        WireStatus::Completed => e.u8(2),
        WireStatus::Failed(m) => {
            e.u8(3);
            e.str(m);
        }
        WireStatus::Cancelled => e.u8(4),
    }
    frame(FrameKind::Status, e.buf)
}

/// Encode a sampled-result reply.
pub fn encode_result(r: &SampleResult) -> Vec<u8> {
    let mut e = Enc::with_capacity(64 + 12 * r.counts.len());
    e.u64(r.n_qubits as u64);
    e.u32(r.shots);
    e.u32(r.counts.len() as u32);
    for (&bits, &n) in &r.counts {
        e.u64(bits);
        e.u32(n);
    }
    e.str(&r.backend);
    e.f64(r.truncation_error);
    e.f64(r.execution_secs);
    frame(FrameKind::Result, e.buf)
}

/// Encode a typed error body.
pub fn encode_error(status: u16, message: &str) -> Vec<u8> {
    let mut e = Enc::with_capacity(8 + message.len());
    e.u16(status);
    e.str(message);
    frame(FrameKind::Error, e.buf)
}

// ---------------------------------------------------------------------------
// decoder
// ---------------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// Item count with a sanity cap: never lets a hostile length drive a
    /// pre-allocation bigger than the input could possibly describe.
    fn count(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_ITEMS {
            return Err(WireError::TooManyItems {
                what,
                len: n,
                cap: MAX_ITEMS,
            });
        }
        // each item is at least one byte; reject counts the remaining input
        // cannot hold before allocating for them
        if n > self.buf.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(WireError::Truncated);
        }
        let raw = self.take(n)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| WireError::BadUtf8)
    }

    fn opt_str(&mut self) -> Result<Option<String>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            b => Err(WireError::BadTag("option", b)),
        }
    }

    fn waveform(&mut self, depth: usize) -> Result<Waveform, WireError> {
        if depth > MAX_WAVEFORM_DEPTH {
            return Err(WireError::DepthExceeded);
        }
        match self.u8()? {
            0 => Ok(Waveform::Constant {
                duration: self.f64()?,
                value: self.f64()?,
            }),
            1 => Ok(Waveform::Ramp {
                duration: self.f64()?,
                start: self.f64()?,
                stop: self.f64()?,
            }),
            2 => Ok(Waveform::Blackman {
                duration: self.f64()?,
                area: self.f64()?,
            }),
            3 => {
                let duration = self.f64()?;
                let n = self.count("interpolation points")?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(self.f64()?);
                }
                Ok(Waveform::Interpolated { duration, values })
            }
            4 => {
                let n = self.count("composite parts")?;
                let mut parts = Vec::with_capacity(n);
                for _ in 0..n {
                    parts.push(self.waveform(depth + 1)?);
                }
                Ok(Waveform::Composite { parts })
            }
            b => Err(WireError::BadTag("waveform", b)),
        }
    }

    fn pulse(&mut self) -> Result<Pulse, WireError> {
        Ok(Pulse {
            amplitude: self.waveform(0)?,
            detuning: self.waveform(0)?,
            phase: self.f64()?,
        })
    }

    fn program_ir(&mut self) -> Result<ProgramIr, WireError> {
        let version = self.u32()?;
        if version != IR_VERSION {
            return Err(WireError::Invalid(format!(
                "unsupported IR version {version} (supported: {IR_VERSION})"
            )));
        }
        let n_sites = self.count("register sites")?;
        let mut sites = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            sites.push(Site {
                label: self.str()?,
                x: self.f64()?,
                y: self.f64()?,
            });
        }
        let register = Register::new(sites).map_err(|e| WireError::Invalid(e.to_string()))?;
        let n_pulses = self.count("pulses")?;
        let mut pulses = Vec::with_capacity(n_pulses);
        for _ in 0..n_pulses {
            pulses.push(TimedPulse {
                channel: self.str()?,
                start: self.f64()?,
                pulse: self.pulse()?,
            });
        }
        let measurement_basis = self.str()?;
        let shots = self.u32()?;
        let sdk = self.str()?;
        let sdk_version = self.str()?;
        let validated_against_revision = match self.u8()? {
            0 => None,
            1 => Some(self.u64()?),
            b => return Err(WireError::BadTag("option", b)),
        };
        let classical_secs_estimate = match self.u8()? {
            0 => None,
            1 => Some(self.f64()?),
            b => return Err(WireError::BadTag("option", b)),
        };
        Ok(ProgramIr {
            version,
            sequence: Sequence {
                register,
                pulses,
                measurement_basis,
            },
            shots,
            sdk,
            sdk_version,
            validated_against_revision,
            classical_secs_estimate,
        })
    }

    fn submit(&mut self) -> Result<SubmitFrame, WireError> {
        Ok(SubmitFrame {
            token: self.str()?,
            hint: self.opt_str()?,
            idempotency_key: self.opt_str()?,
            ir: self.program_ir()?,
        })
    }
}

/// Validate framing and return `(kind, payload)` without copying. Enforces
/// magic, version, the payload cap, exact length, and the checksum.
pub fn open_frame(input: &[u8]) -> Result<(FrameKind, &[u8]), WireError> {
    open_frame_with_cap(input, MAX_PAYLOAD_BYTES)
}

/// [`open_frame`] with an explicit payload cap (the REST layer passes its
/// own body limit so the two caps cannot drift apart).
pub fn open_frame_with_cap(input: &[u8], cap: usize) -> Result<(FrameKind, &[u8]), WireError> {
    if input.len() < HEADER_LEN {
        // an empty/short body with the right magic prefix is truncation,
        // anything else never was a frame
        return if input.starts_with(&MAGIC) || MAGIC.starts_with(input) {
            Err(WireError::Truncated)
        } else {
            Err(WireError::BadMagic)
        };
    }
    if input[..2] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if input[2] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(input[2]));
    }
    let kind = FrameKind::from_u8(input[3]).ok_or(WireError::UnknownKind(input[3]))?;
    let len = u32::from_le_bytes(input[4..8].try_into().unwrap()) as usize;
    if len > cap {
        return Err(WireError::Oversized { len, cap });
    }
    let total = HEADER_LEN + len + TRAILER_LEN;
    if input.len() < total {
        return Err(WireError::Truncated);
    }
    if input.len() > total {
        return Err(WireError::TrailingBytes(input.len() - total));
    }
    let payload = &input[HEADER_LEN..HEADER_LEN + len];
    let stored = u32::from_le_bytes(input[total - TRAILER_LEN..total].try_into().unwrap());
    if checksum(payload) != stored {
        return Err(WireError::ChecksumMismatch);
    }
    Ok((kind, payload))
}

fn expect_kind(input: &[u8], expected: FrameKind) -> Result<Dec<'_>, WireError> {
    let (kind, payload) = open_frame(input)?;
    if kind != expected {
        return Err(WireError::WrongKind {
            expected,
            found: kind,
        });
    }
    Ok(Dec {
        buf: payload,
        pos: 0,
    })
}

fn finish<T>(d: Dec<'_>, v: T) -> Result<T, WireError> {
    if d.pos != d.buf.len() {
        return Err(WireError::TrailingBytes(d.buf.len() - d.pos));
    }
    Ok(v)
}

/// Decode a bare `ProgramIr` frame.
pub fn decode_program_ir(input: &[u8]) -> Result<ProgramIr, WireError> {
    let mut d = expect_kind(input, FrameKind::ProgramIr)?;
    let ir = d.program_ir()?;
    finish(d, ir)
}

/// Decode a single-submit frame.
pub fn decode_submit(input: &[u8]) -> Result<SubmitFrame, WireError> {
    let mut d = expect_kind(input, FrameKind::Submit)?;
    let f = d.submit()?;
    finish(d, f)
}

/// Decode a batch body into its submit frames (submission order preserved).
pub fn decode_submit_batch(input: &[u8]) -> Result<Vec<SubmitFrame>, WireError> {
    let mut d = expect_kind(input, FrameKind::SubmitBatch)?;
    let n = d.count("batch frames")?;
    if n > MAX_BATCH_FRAMES {
        return Err(WireError::TooManyItems {
            what: "batch frames",
            len: n,
            cap: MAX_BATCH_FRAMES,
        });
    }
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        frames.push(d.submit()?);
    }
    finish(d, frames)
}

/// Decode a task-id reply.
pub fn decode_task_id(input: &[u8]) -> Result<u64, WireError> {
    let mut d = expect_kind(input, FrameKind::TaskId)?;
    let id = d.u64()?;
    finish(d, id)
}

/// Decode a batch reply.
pub fn decode_batch_reply(input: &[u8]) -> Result<Vec<BatchSlot>, WireError> {
    let mut d = expect_kind(input, FrameKind::BatchReply)?;
    let n = d.count("batch reply slots")?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(match d.u8()? {
            0 => BatchSlot::Ok { task_id: d.u64()? },
            1 => BatchSlot::Err {
                status: d.u16()?,
                message: d.str()?,
            },
            b => return Err(WireError::BadTag("batch slot", b)),
        });
    }
    finish(d, slots)
}

/// Decode a status reply.
pub fn decode_status(input: &[u8]) -> Result<WireStatus, WireError> {
    let mut d = expect_kind(input, FrameKind::Status)?;
    let s = match d.u8()? {
        0 => WireStatus::Queued {
            position: d.u64()? as usize,
        },
        1 => WireStatus::Running,
        2 => WireStatus::Completed,
        3 => WireStatus::Failed(d.str()?),
        4 => WireStatus::Cancelled,
        b => return Err(WireError::BadTag("status", b)),
    };
    finish(d, s)
}

/// Decode a sampled-result reply.
pub fn decode_result(input: &[u8]) -> Result<SampleResult, WireError> {
    let mut d = expect_kind(input, FrameKind::Result)?;
    let n_qubits = d.u64()? as usize;
    let shots = d.u32()?;
    let n = d.count("counts entries")?;
    let mut counts = BTreeMap::new();
    for _ in 0..n {
        let bits = d.u64()?;
        let c = d.u32()?;
        counts.insert(bits, c);
    }
    let backend = d.str()?;
    let truncation_error = d.f64()?;
    let execution_secs = d.f64()?;
    finish(
        d,
        SampleResult {
            n_qubits,
            shots,
            counts,
            backend,
            truncation_error,
            execution_secs,
        },
    )
}

/// Decode a typed error body.
pub fn decode_error(input: &[u8]) -> Result<WireErrorBody, WireError> {
    let mut d = expect_kind(input, FrameKind::Error)?;
    let body = WireErrorBody {
        status: d.u16()?,
        message: d.str()?,
    };
    finish(d, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::SequenceBuilder;

    fn ir() -> ProgramIr {
        let reg = Register::linear(3, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(1.0, 5.0, -2.0, 0.25).unwrap());
        b.add_global_pulse(
            Pulse::new(
                Waveform::blackman(0.5, std::f64::consts::PI).unwrap(),
                Waveform::ramp(0.5, -5.0, 5.0).unwrap(),
                0.0,
            )
            .unwrap(),
        );
        ProgramIr::new(b.build().unwrap(), 500, "analog-sdk").with_validation_revision(7)
    }

    #[test]
    fn program_ir_roundtrip() {
        let p = ir();
        let bytes = encode_program_ir(&p);
        let back = decode_program_ir(&bytes).unwrap();
        assert_eq!(p, back);
        // and the re-encoding is byte-identical (canonical encoder)
        assert_eq!(bytes, encode_program_ir(&back));
    }

    #[test]
    fn submit_roundtrip_preserves_idempotency_key() {
        let f = SubmitFrame {
            token: "sess-1".into(),
            hint: Some("iterative".into()),
            idempotency_key: Some("idem-42".into()),
            ir: ir(),
        };
        let bytes = encode_submit(&f);
        assert_eq!(decode_submit(&bytes).unwrap(), f);
    }

    #[test]
    fn batch_roundtrip_preserves_order() {
        let frames: Vec<SubmitFrame> = (0..5)
            .map(|i| SubmitFrame {
                token: format!("sess-{i}"),
                hint: None,
                idempotency_key: (i % 2 == 0).then(|| format!("k{i}")),
                ir: ir(),
            })
            .collect();
        let bytes = encode_submit_batch(&frames);
        assert_eq!(decode_submit_batch(&bytes).unwrap(), frames);
    }

    #[test]
    fn reply_frames_roundtrip() {
        assert_eq!(decode_task_id(&encode_task_id(99)).unwrap(), 99);
        let slots = vec![
            BatchSlot::Ok { task_id: 1 },
            BatchSlot::Err {
                status: 422,
                message: "validation failed".into(),
            },
        ];
        assert_eq!(
            decode_batch_reply(&encode_batch_reply(&slots)).unwrap(),
            slots
        );
        for s in [
            WireStatus::Queued { position: 3 },
            WireStatus::Running,
            WireStatus::Completed,
            WireStatus::Failed("boom".into()),
            WireStatus::Cancelled,
        ] {
            assert_eq!(decode_status(&encode_status(&s)).unwrap(), s);
        }
        let r = SampleResult::from_shots(2, &[0, 1, 1, 3], "sv");
        assert_eq!(decode_result(&encode_result(&r)).unwrap(), r);
        let e = decode_error(&encode_error(503, "draining")).unwrap();
        assert_eq!((e.status, e.message.as_str()), (503, "draining"));
    }

    #[test]
    fn f64_bit_identity_including_negative_zero_and_nan() {
        let mut p = ir();
        p.classical_secs_estimate = Some(-0.0);
        let back = decode_program_ir(&encode_program_ir(&p)).unwrap();
        assert_eq!(
            back.classical_secs_estimate.unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        // a NaN phase is not constructible through the validated API but the
        // codec must still not corrupt it (fields are pub)
        p.sequence.pulses[0].pulse.phase = f64::from_bits(0x7ff8_dead_beef_0001);
        let back = decode_program_ir(&encode_program_ir(&p)).unwrap();
        assert_eq!(
            back.sequence.pulses[0].pulse.phase.to_bits(),
            0x7ff8_dead_beef_0001
        );
    }

    #[test]
    fn malformed_inputs_return_typed_errors() {
        assert_eq!(decode_program_ir(b""), Err(WireError::Truncated));
        assert_eq!(decode_program_ir(b"{\"json\":1}"), Err(WireError::BadMagic));
        assert_eq!(decode_program_ir(b"HQ"), Err(WireError::Truncated));
        assert_eq!(
            decode_program_ir(b"HQ\x02\x01\x00\x00\x00\x00"),
            Err(WireError::UnsupportedVersion(2))
        );
        assert_eq!(
            decode_program_ir(b"HQ\x01\xff\x00\x00\x00\x00"),
            Err(WireError::UnknownKind(0xff))
        );
        // announced length larger than the cap
        let mut huge = Vec::from(*b"HQ\x01\x01");
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode_program_ir(&huge),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn truncation_at_every_boundary_is_typed_never_panics() {
        let bytes = encode_submit(&SubmitFrame {
            token: "t".into(),
            hint: None,
            idempotency_key: Some("k".into()),
            ir: ir(),
        });
        for cut in 0..bytes.len() {
            let err = decode_submit(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_caught_by_the_checksum() {
        let bytes = encode_task_id(7);
        for i in HEADER_LEN..bytes.len() - TRAILER_LEN {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[i] ^= 1 << bit;
                assert!(
                    decode_task_id(&b).is_err(),
                    "payload corruption at byte {i} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_task_id(7);
        bytes.push(0);
        assert_eq!(decode_task_id(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn wrong_kind_rejected() {
        let bytes = encode_task_id(7);
        assert_eq!(
            decode_status(&bytes),
            Err(WireError::WrongKind {
                expected: FrameKind::Status,
                found: FrameKind::TaskId,
            })
        );
    }

    #[test]
    fn batch_cap_enforced() {
        // a count field over the cap must be rejected before allocation
        let mut e = Enc::with_capacity(8);
        e.u32((MAX_BATCH_FRAMES + 1) as u32);
        // pad so the count passes the bytes-remaining plausibility check
        e.buf.resize(e.buf.len() + MAX_BATCH_FRAMES + 2, 0);
        let bytes = frame(FrameKind::SubmitBatch, e.buf);
        assert!(matches!(
            decode_submit_batch(&bytes),
            Err(WireError::TooManyItems {
                what: "batch frames",
                ..
            })
        ));
    }

    #[test]
    fn hostile_collection_count_rejected_before_allocation() {
        // interpolated waveform announcing 2^20+ points in a tiny payload
        let mut e = Enc::with_capacity(32);
        e.u32(IR_VERSION); // ir version
        e.u32(1); // one site
        e.str("q0");
        e.f64(0.0);
        e.f64(0.0);
        e.u32(1); // one pulse
        e.str("ch");
        e.f64(0.0);
        e.u8(3); // Interpolated
        e.f64(1.0);
        e.u32(u32::MAX); // hostile count
        let bytes = frame(FrameKind::ProgramIr, e.buf);
        assert!(matches!(
            decode_program_ir(&bytes),
            Err(WireError::TooManyItems { .. } | WireError::Truncated)
        ));
    }

    #[test]
    fn deep_composite_nesting_rejected() {
        let mut e = Enc::with_capacity(256);
        e.u32(IR_VERSION);
        e.u32(1);
        e.str("q0");
        e.f64(0.0);
        e.f64(0.0);
        e.u32(1);
        e.str("ch");
        e.f64(0.0);
        for _ in 0..(MAX_WAVEFORM_DEPTH + 2) {
            e.u8(4); // Composite
            e.u32(1); // one part
        }
        e.u8(0); // innermost Constant
        e.f64(1.0);
        e.f64(1.0);
        let bytes = frame(FrameKind::ProgramIr, e.buf);
        assert_eq!(decode_program_ir(&bytes), Err(WireError::DepthExceeded));
    }

    #[test]
    fn invalid_register_rejected_with_domain_error() {
        // structurally valid frame, empty register: Register::new refuses
        let mut e = Enc::with_capacity(32);
        e.u32(IR_VERSION);
        e.u32(0); // zero sites
        let bytes = frame(FrameKind::ProgramIr, e.buf);
        assert!(matches!(
            decode_program_ir(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn ir_version_gate_matches_json_path() {
        let mut p = ir();
        p.version = 42;
        let bytes = encode_program_ir(&p);
        assert!(matches!(
            decode_program_ir(&bytes),
            Err(WireError::Invalid(m)) if m.contains("42")
        ));
    }

    #[test]
    fn binary_body_is_smaller_than_json() {
        let p = ir();
        let json = serde_json::to_string(&p).unwrap();
        let bin = encode_program_ir(&p);
        assert!(
            bin.len() < json.len(),
            "binary {} >= json {}",
            bin.len(),
            json.len()
        );
    }
}
