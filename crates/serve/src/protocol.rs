//! The wire protocol of the network serving front-end: length-prefixed
//! binary frames, hand-rolled like every codec in this workspace (the
//! build is offline; no serde, no HTTP stack).
//!
//! # Frame layout (all integers little-endian)
//!
//! ```text
//! frame := body_len u32 | body               (body_len ≤ MAX_BODY)
//! body  := magic "EIEW" | version u8 | kind u8 | payload
//! ```
//!
//! Request payloads:
//!
//! | kind | name     | payload                                        |
//! |------|----------|------------------------------------------------|
//! | 0x01 | INFER v1 | `name_len u16 \| name utf-8 \| n u32 \| f32 × n` |
//! | 0x01 | INFER v2 | `name_len u16 \| name utf-8 \| deadline_us u64 \| attempt u8 \| n u32 \| f32 × n` |
//! | 0x02 | STATS    | empty                                          |
//! | 0x03 | SHUTDOWN | empty                                          |
//!
//! Every frame is stamped with the **lowest** version able to express
//! it: an INFER with no deadline and attempt 0 still goes out as v1, so
//! current clients interoperate with v1-only servers until they opt
//! into the new fields. Readers accept 1..=[`PROTOCOL_VERSION`].
//!
//! Response payloads:
//!
//! | kind | name       | payload                                              |
//! |------|------------|------------------------------------------------------|
//! | 0x81 | OUTPUT     | `queue_us f64 \| latency_us f64 \| coalesced u32 \| worker u32 \| n u32 \| i16 × n` (raw Q8.8) |
//! | 0x82 | STATS      | [`StatsReport`] fields in declaration order (tail is append-only: old decoders ignore fields they don't know, new decoders zero-fill fields an old server didn't send) |
//! | 0x83 | OVERLOADED | `depth u32` (the queue bound that shed the request)  |
//! | 0x84 | ERROR      | `code u8 \| msg_len u16 \| msg utf-8`                |
//! | 0x85 | OK         | empty                                                |
//!
//! Output activations travel as **raw `Q8p8` bits** (`i16`), so the
//! network boundary cannot perturb the bit-exactness invariant: the
//! client reassembles exactly the words the worker wrote.
//!
//! Decoding is strict and total: every malformed input — truncation at
//! any byte, an oversized length prefix, bad magic, an unknown kind,
//! trailing bytes, invalid UTF-8, non-finite activations — returns a
//! typed [`FrameError`]; nothing panics on untrusted bytes. The
//! protocol property test sweeps all of these.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use eie_core::compress::{ByteCursor, Truncated};

/// Magic bytes heading every frame body ("EIE Wire").
pub const FRAME_MAGIC: [u8; 4] = *b"EIEW";

/// The newest protocol version this build speaks. Version 2 added the
/// optional per-request deadline and retry-attempt fields to INFER.
pub const PROTOCOL_VERSION: u8 = 2;

/// The oldest protocol version this build still decodes.
pub const MIN_PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a frame body. Large enough for a 1M-activation INFER
/// (4 MiB of `f32`) with room to spare; small enough that a corrupt or
/// hostile length prefix cannot make the reader allocate unboundedly.
pub const MAX_BODY: usize = 16 << 20;

/// The most [`read_frame`] allocates for a body before its bytes
/// arrive: a length prefix is only a claim, so a larger body grows as
/// it is read. Every request and response the benchmark exchanges fits
/// in this first allocation.
const FIRST_BODY_ALLOC: usize = 64 << 10;

const KIND_INFER: u8 = 0x01;
const KIND_STATS_REQ: u8 = 0x02;
const KIND_SHUTDOWN: u8 = 0x03;
const KIND_OUTPUT: u8 = 0x81;
const KIND_STATS_RSP: u8 = 0x82;
const KIND_OVERLOADED: u8 = 0x83;
const KIND_ERROR: u8 = 0x84;
const KIND_OK: u8 = 0x85;

/// A request frame, client → server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one input vector through the named model.
    Infer {
        /// Registry name of the model to route to.
        model: String,
        /// Input activations (quantized to Q8.8 server-side, exactly as
        /// an in-process [`ModelServer::submit`](crate::ModelServer::submit)
        /// would).
        input: Vec<f32>,
        /// Remaining time budget in µs at send time; `0` means no
        /// deadline. The server anchors it at frame receipt and answers
        /// `DEADLINE_EXCEEDED` instead of executing once it lapses.
        deadline_us: u64,
        /// Retry attempt number (0 = first try), so the server can
        /// count upstream retries. Saturates at 255.
        attempt: u8,
    },
    /// Ask for the server's live statistics.
    Stats,
    /// Ask the server to drain and exit (answered with
    /// [`Response::Ok`] before the listener closes).
    Shutdown,
}

/// A response frame, server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed inference.
    Output(OutputReport),
    /// The model's bounded queue was full: the request was shed by
    /// admission control and never queued. The client owns the retry
    /// policy.
    Overloaded {
        /// The configured queue depth that was hit.
        depth: u32,
    },
    /// The request failed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Live server statistics.
    Stats(StatsReport),
    /// Acknowledgement with no payload (shutdown).
    Ok,
}

/// The payload of [`Response::Output`]: the served result plus the same
/// per-request timing a local [`RequestResult`](crate::RequestResult)
/// carries.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputReport {
    /// Output activations as raw Q8.8 bit patterns — bit-identical to
    /// the serving worker's writeback.
    pub outputs: Vec<i16>,
    /// Time the request spent queued server-side, µs.
    pub queue_us: f64,
    /// Submission-to-completion time server-side, µs.
    pub latency_us: f64,
    /// How many requests rode in the same micro-batch (≥ 1).
    pub coalesced: u32,
    /// Which worker executed it.
    pub worker: u32,
}

/// The payload of [`Response::Stats`]: latency percentiles, queue
/// depth and registry occupancy in one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsReport {
    /// Requests served to completion, summed over resident models.
    pub requests: u64,
    /// Micro-batches executed, summed over resident models.
    pub batches: u64,
    /// Largest micro-batch observed on any model.
    pub max_coalesced: u32,
    /// Requests queued but unclaimed right now, summed over models.
    pub queue_depth: u32,
    /// Models the registry knows about.
    pub models_registered: u32,
    /// Models currently resident (loaded, workers running).
    pub models_resident: u32,
    /// Artifact bytes of the resident models.
    pub resident_bytes: u64,
    /// The registry's residency budget (`u64::MAX` = unbounded).
    pub budget_bytes: u64,
    /// Artifact loads since startup (cold starts + reloads).
    pub loads: u64,
    /// Models evicted since startup.
    pub evictions: u64,
    /// Median end-to-end request latency, µs (from the servers'
    /// histograms: within 1/64 relative of the exact value).
    pub p50_us: f64,
    /// 95th-percentile request latency, µs.
    pub p95_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// Mean server-side queue time, µs (exact).
    pub mean_queue_us: f64,
    /// Aggregate throughput since startup, frames/s.
    pub frames_per_second: f64,
    // -- Fault-tolerance tail (appended in PR 10; older servers omit
    // -- these bytes and older clients ignore them).
    /// Requests admitted past input validation, summed over models.
    /// Invariant: `accepted = requests + shed + expired + failed`.
    pub accepted: u64,
    /// Requests shed by admission control (queue full or degraded).
    pub shed: u64,
    /// Requests whose deadline lapsed before execution.
    pub expired: u64,
    /// Requests failed typed by a worker panic.
    pub failed: u64,
    /// Requests that arrived marked as a retry (attempt > 0).
    pub retries_upstream: u64,
    /// Worker quarantine-and-respawn cycles since startup.
    pub worker_restarts: u64,
    /// Servers currently degraded to shed-load (restart budget spent).
    pub degraded: u32,
    /// Connections closed for not reading their responses in time.
    pub slow_client_evictions: u64,
}

/// Machine-readable failure class of a [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request named a model the registry does not know.
    UnknownModel,
    /// The input length does not match the model's input dimension.
    BadInput,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The model is registered but its artifact failed to load.
    LoadFailed,
    /// The connection sent bytes the server could not parse (the
    /// server answers with this, then closes the stream — framing
    /// cannot be trusted after a malformed frame).
    Malformed,
    /// The request's deadline lapsed before a worker executed it.
    DeadlineExceeded,
    /// The worker executing the request panicked; the request was not
    /// served. Inference is pure, so the request is safe to retry.
    WorkerFailed,
    /// The model's server spent its restart budget and now sheds all
    /// load until it is evicted or the process restarts.
    Degraded,
}

impl ErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrorCode::UnknownModel => 1,
            ErrorCode::BadInput => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::LoadFailed => 4,
            ErrorCode::Malformed => 5,
            ErrorCode::DeadlineExceeded => 6,
            ErrorCode::WorkerFailed => 7,
            ErrorCode::Degraded => 8,
        }
    }

    fn from_wire(code: u8) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::UnknownModel,
            2 => ErrorCode::BadInput,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::LoadFailed,
            5 => ErrorCode::Malformed,
            6 => ErrorCode::DeadlineExceeded,
            7 => ErrorCode::WorkerFailed,
            8 => ErrorCode::Degraded,
            _ => return None,
        })
    }

    /// Whether a retry of the same request can reasonably succeed.
    /// Inference is pure and idempotent, so transient execution
    /// failures qualify; typed model/request errors never do.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::WorkerFailed)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::UnknownModel => write!(f, "unknown model"),
            ErrorCode::BadInput => write!(f, "bad input"),
            ErrorCode::ShuttingDown => write!(f, "shutting down"),
            ErrorCode::LoadFailed => write!(f, "model load failed"),
            ErrorCode::Malformed => write!(f, "malformed frame"),
            ErrorCode::DeadlineExceeded => write!(f, "deadline exceeded"),
            ErrorCode::WorkerFailed => write!(f, "worker failed"),
            ErrorCode::Degraded => write!(f, "server degraded"),
        }
    }
}

/// Failure to read or decode a frame. Every malformed input maps to a
/// typed variant; decoding never panics.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The frame body does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// The frame was written by a protocol version this build does not
    /// speak.
    UnsupportedVersion {
        /// Version found in the frame.
        found: u8,
        /// Version this build speaks.
        supported: u8,
    },
    /// The frame kind is not a known request/response type.
    UnknownKind(u8),
    /// The body ended before the declared payload.
    Truncated {
        /// Byte offset (within the body) at which data ran out.
        offset: usize,
        /// Which payload section was being read.
        section: &'static str,
    },
    /// The length prefix exceeds [`MAX_BODY`].
    Oversized {
        /// The declared body length.
        len: usize,
        /// The protocol bound.
        max: usize,
    },
    /// A payload field holds an impossible value (invalid UTF-8,
    /// non-finite activation, unknown error code, trailing bytes…).
    BadPayload {
        /// Which field was invalid.
        field: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::BadMagic => write!(f, "not an EIE wire frame (bad magic)"),
            FrameError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported protocol version {found} (this build speaks {supported})"
            ),
            FrameError::UnknownKind(kind) => write!(f, "unknown frame kind {kind:#04x}"),
            FrameError::Truncated { offset, section } => {
                write!(
                    f,
                    "frame truncated at byte {offset} while reading {section}"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::BadPayload { field } => write!(f, "invalid frame field: {field}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<Truncated> for FrameError {
    fn from(Truncated { offset, section }: Truncated) -> Self {
        FrameError::Truncated { offset, section }
    }
}

/// The strict tail check: a valid frame's payload is consumed exactly.
fn finish(r: &ByteCursor<'_>) -> Result<(), FrameError> {
    if r.remaining() != 0 {
        return Err(FrameError::BadPayload {
            field: "trailing bytes",
        });
    }
    Ok(())
}

/// Reads one field of the append-only stats tail: a frame from an older
/// writer simply ends sooner, decoding as zero. A *partial* field is
/// still truncation — appended fields are all-or-nothing.
fn tail<'a, T: Default>(
    r: &mut ByteCursor<'a>,
    read: impl FnOnce(&mut ByteCursor<'a>) -> Result<T, Truncated>,
) -> Result<T, Truncated> {
    if r.remaining() == 0 {
        return Ok(T::default());
    }
    read(r)
}

/// Header at the base version: every frame whose shape is unchanged
/// since v1 keeps the v1 stamp so older peers still decode it.
fn body_header(kind: u8) -> Vec<u8> {
    body_header_v(MIN_PROTOCOL_VERSION, kind)
}

/// Frames are stamped with the lowest version able to express them, so
/// most writers pass an explicit version here.
fn body_header_v(version: u8, kind: u8) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(&FRAME_MAGIC);
    body.push(version);
    body.push(kind);
    body
}

/// Wraps a finished body in its length prefix: the bytes that go on the
/// wire.
fn frame(body: Vec<u8>) -> Vec<u8> {
    debug_assert!(body.len() <= MAX_BODY, "frame body exceeds MAX_BODY");
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Validates magic + version, returning the version, kind and payload
/// reader.
fn open_body(body: &[u8]) -> Result<(u8, u8, ByteCursor<'_>), FrameError> {
    let mut r = ByteCursor::new(body, "magic");
    if r.take(4)? != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    r.enter("header");
    let version = r.u8()?;
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        return Err(FrameError::UnsupportedVersion {
            found: version,
            supported: PROTOCOL_VERSION,
        });
    }
    let kind = r.u8()?;
    Ok((version, kind, r))
}

impl Request {
    /// An INFER request with no deadline on its first attempt — the
    /// common case, encoded as a v1 frame.
    pub fn infer(model: impl Into<String>, input: Vec<f32>) -> Request {
        Request::Infer {
            model: model.into(),
            input,
            deadline_us: 0,
            attempt: 0,
        }
    }

    /// Serializes the request into a complete wire frame (length prefix
    /// included).
    pub fn to_frame(&self) -> Vec<u8> {
        match self {
            Request::Infer {
                model,
                input,
                deadline_us,
                attempt,
            } => {
                // Lowest version that can express the request: the new
                // fields only force v2 when actually set.
                let v2 = *deadline_us != 0 || *attempt != 0;
                let mut body = body_header_v(if v2 { 2 } else { 1 }, KIND_INFER);
                assert!(
                    model.len() <= u16::MAX as usize,
                    "model name exceeds the u16 length field"
                );
                body.extend_from_slice(&(model.len() as u16).to_le_bytes());
                body.extend_from_slice(model.as_bytes());
                if v2 {
                    body.extend_from_slice(&deadline_us.to_le_bytes());
                    body.push(*attempt);
                }
                body.extend_from_slice(&(input.len() as u32).to_le_bytes());
                for &v in input {
                    body.extend_from_slice(&v.to_le_bytes());
                }
                frame(body)
            }
            Request::Stats => frame(body_header(KIND_STATS_REQ)),
            Request::Shutdown => frame(body_header(KIND_SHUTDOWN)),
        }
    }

    /// Decodes a frame body (the bytes after the length prefix).
    ///
    /// # Errors
    ///
    /// Returns a typed [`FrameError`] on any malformed input; never
    /// panics.
    pub fn from_body(body: &[u8]) -> Result<Request, FrameError> {
        let (version, kind, mut r) = open_body(body)?;
        let request = match kind {
            KIND_INFER => {
                r.enter("model name");
                let name_len = r.u16()? as usize;
                let model = std::str::from_utf8(r.take(name_len)?)
                    .map_err(|_| FrameError::BadPayload {
                        field: "model name",
                    })?
                    .to_owned();
                let (deadline_us, attempt) = if version >= 2 {
                    r.enter("deadline");
                    (r.u64()?, r.u8()?)
                } else {
                    (0, 0)
                };
                r.enter("input");
                let n = r.u32()? as usize;
                let input: Vec<f32> = r
                    .records(n)?
                    .iter()
                    .map(|&b| f32::from_le_bytes(b))
                    .collect();
                if !input.iter().all(|v| v.is_finite()) {
                    return Err(FrameError::BadPayload {
                        field: "input activation",
                    });
                }
                Request::Infer {
                    model,
                    input,
                    deadline_us,
                    attempt,
                }
            }
            KIND_STATS_REQ => Request::Stats,
            KIND_SHUTDOWN => Request::Shutdown,
            other => return Err(FrameError::UnknownKind(other)),
        };
        finish(&r)?;
        Ok(request)
    }
}

impl Response {
    /// Serializes the response into a complete wire frame (length
    /// prefix included).
    pub fn to_frame(&self) -> Vec<u8> {
        match self {
            Response::Output(o) => {
                let mut body = body_header(KIND_OUTPUT);
                body.extend_from_slice(&o.queue_us.to_le_bytes());
                body.extend_from_slice(&o.latency_us.to_le_bytes());
                body.extend_from_slice(&o.coalesced.to_le_bytes());
                body.extend_from_slice(&o.worker.to_le_bytes());
                body.extend_from_slice(&(o.outputs.len() as u32).to_le_bytes());
                for &v in &o.outputs {
                    body.extend_from_slice(&v.to_le_bytes());
                }
                frame(body)
            }
            Response::Overloaded { depth } => {
                let mut body = body_header(KIND_OVERLOADED);
                body.extend_from_slice(&depth.to_le_bytes());
                frame(body)
            }
            Response::Error { code, message } => {
                let mut body = body_header(KIND_ERROR);
                body.push(code.to_wire());
                assert!(
                    message.len() <= u16::MAX as usize,
                    "error message exceeds the u16 length field"
                );
                body.extend_from_slice(&(message.len() as u16).to_le_bytes());
                body.extend_from_slice(message.as_bytes());
                frame(body)
            }
            Response::Stats(s) => {
                let mut body = body_header(KIND_STATS_RSP);
                body.extend_from_slice(&s.requests.to_le_bytes());
                body.extend_from_slice(&s.batches.to_le_bytes());
                body.extend_from_slice(&s.max_coalesced.to_le_bytes());
                body.extend_from_slice(&s.queue_depth.to_le_bytes());
                body.extend_from_slice(&s.models_registered.to_le_bytes());
                body.extend_from_slice(&s.models_resident.to_le_bytes());
                body.extend_from_slice(&s.resident_bytes.to_le_bytes());
                body.extend_from_slice(&s.budget_bytes.to_le_bytes());
                body.extend_from_slice(&s.loads.to_le_bytes());
                body.extend_from_slice(&s.evictions.to_le_bytes());
                body.extend_from_slice(&s.p50_us.to_le_bytes());
                body.extend_from_slice(&s.p95_us.to_le_bytes());
                body.extend_from_slice(&s.p99_us.to_le_bytes());
                body.extend_from_slice(&s.mean_queue_us.to_le_bytes());
                body.extend_from_slice(&s.frames_per_second.to_le_bytes());
                body.extend_from_slice(&s.accepted.to_le_bytes());
                body.extend_from_slice(&s.shed.to_le_bytes());
                body.extend_from_slice(&s.expired.to_le_bytes());
                body.extend_from_slice(&s.failed.to_le_bytes());
                body.extend_from_slice(&s.retries_upstream.to_le_bytes());
                body.extend_from_slice(&s.worker_restarts.to_le_bytes());
                body.extend_from_slice(&s.degraded.to_le_bytes());
                body.extend_from_slice(&s.slow_client_evictions.to_le_bytes());
                frame(body)
            }
            Response::Ok => frame(body_header(KIND_OK)),
        }
    }

    /// Decodes a frame body (the bytes after the length prefix).
    ///
    /// # Errors
    ///
    /// Returns a typed [`FrameError`] on any malformed input; never
    /// panics.
    pub fn from_body(body: &[u8]) -> Result<Response, FrameError> {
        let (_version, kind, mut r) = open_body(body)?;
        let response = match kind {
            KIND_OUTPUT => {
                r.enter("output header");
                let queue_us = r.f64()?;
                let latency_us = r.f64()?;
                let coalesced = r.u32()?;
                let worker = r.u32()?;
                r.enter("outputs");
                let n = r.u32()? as usize;
                let outputs = r
                    .records(n)?
                    .iter()
                    .map(|&b| i16::from_le_bytes(b))
                    .collect();
                Response::Output(OutputReport {
                    outputs,
                    queue_us,
                    latency_us,
                    coalesced,
                    worker,
                })
            }
            KIND_OVERLOADED => {
                r.enter("overloaded");
                Response::Overloaded { depth: r.u32()? }
            }
            KIND_ERROR => {
                r.enter("error");
                let code = ErrorCode::from_wire(r.u8()?).ok_or(FrameError::BadPayload {
                    field: "error code",
                })?;
                let msg_len = r.u16()? as usize;
                let message = std::str::from_utf8(r.take(msg_len)?)
                    .map_err(|_| FrameError::BadPayload {
                        field: "error message",
                    })?
                    .to_owned();
                Response::Error { code, message }
            }
            KIND_STATS_RSP => {
                r.enter("stats");
                let report = StatsReport {
                    requests: r.u64()?,
                    batches: r.u64()?,
                    max_coalesced: r.u32()?,
                    queue_depth: r.u32()?,
                    models_registered: r.u32()?,
                    models_resident: r.u32()?,
                    resident_bytes: r.u64()?,
                    budget_bytes: r.u64()?,
                    loads: r.u64()?,
                    evictions: r.u64()?,
                    p50_us: r.f64()?,
                    p95_us: r.f64()?,
                    p99_us: r.f64()?,
                    mean_queue_us: r.f64()?,
                    frames_per_second: r.f64()?,
                    // The append-only tail: zero when an older server
                    // stops short, extra fields from a newer server are
                    // skipped below.
                    accepted: tail(&mut r, ByteCursor::u64)?,
                    shed: tail(&mut r, ByteCursor::u64)?,
                    expired: tail(&mut r, ByteCursor::u64)?,
                    failed: tail(&mut r, ByteCursor::u64)?,
                    retries_upstream: tail(&mut r, ByteCursor::u64)?,
                    worker_restarts: tail(&mut r, ByteCursor::u64)?,
                    degraded: tail(&mut r, ByteCursor::u32)?,
                    slow_client_evictions: tail(&mut r, ByteCursor::u64)?,
                };
                // Discard what a newer writer appended past the fields
                // this build knows (the forward-compatibility half).
                r.take(r.remaining())?;
                Response::Stats(report)
            }
            KIND_OK => Response::Ok,
            other => return Err(FrameError::UnknownKind(other)),
        };
        finish(&r)?;
        Ok(response)
    }
}

/// Reads one frame body from a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames). A stream that ends *inside* a frame — mid-prefix or
/// mid-body — is a [`FrameError::Truncated`]; a length prefix above
/// [`MAX_BODY`] is rejected before any allocation, and a body allocates
/// at most 64 KiB before its bytes arrive.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure, or the typed framing errors
/// above.
pub fn read_frame(stream: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut prefix[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(FrameError::Truncated {
                    offset: got,
                    section: "length prefix",
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_BODY {
        return Err(FrameError::Oversized { len, max: MAX_BODY });
    }
    let mut body = Vec::with_capacity(len.min(FIRST_BODY_ALLOC));
    stream.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(FrameError::Truncated {
            offset: 4,
            section: "frame body",
        });
    }
    Ok(Some(body))
}

/// Writes one already-encoded frame (from [`Request::to_frame`] /
/// [`Response::to_frame`]) to a stream.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure.
pub fn write_frame(stream: &mut impl Write, frame: &[u8]) -> Result<(), FrameError> {
    stream.write_all(frame)?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_prefix(frame: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4, "length prefix disagrees with body");
        &frame[4..]
    }

    #[test]
    fn request_roundtrips() {
        for request in [
            Request::infer("alex7", vec![0.5, -1.25, 0.0]),
            Request::infer("", vec![]),
            Request::Infer {
                model: "alex7".into(),
                input: vec![0.5],
                deadline_us: 2_000_000,
                attempt: 3,
            },
            Request::Infer {
                model: "alex7".into(),
                input: vec![0.5],
                deadline_us: 0,
                attempt: 1,
            },
            Request::Stats,
            Request::Shutdown,
        ] {
            let wire = request.to_frame();
            assert_eq!(Request::from_body(strip_prefix(&wire)).unwrap(), request);
        }
    }

    #[test]
    fn plain_infer_still_encodes_as_version_1() {
        // A no-deadline first-attempt INFER must stay decodable by a
        // v1-only peer: the frame is stamped v1 and carries the exact
        // v1 payload shape.
        let wire = Request::infer("fc6", vec![1.0, 2.0]).to_frame();
        let body = strip_prefix(&wire);
        assert_eq!(body[4], 1, "version byte");
        // Hand-decode as a v1 reader would.
        let name_len = u16::from_le_bytes([body[6], body[7]]) as usize;
        assert_eq!(&body[8..8 + name_len], b"fc6");
        let n = u32::from_le_bytes(body[11..15].try_into().unwrap());
        assert_eq!(n, 2);

        // And a deadline forces the v2 stamp.
        let wire = Request::Infer {
            model: "fc6".into(),
            input: vec![1.0],
            deadline_us: 500,
            attempt: 0,
        }
        .to_frame();
        assert_eq!(strip_prefix(&wire)[4], 2, "version byte");
    }

    #[test]
    fn stats_tail_is_append_only_both_directions() {
        let full = Response::Stats(StatsReport {
            requests: 7,
            accepted: 9,
            shed: 1,
            expired: 1,
            worker_restarts: 2,
            degraded: 1,
            slow_client_evictions: 3,
            ..Default::default()
        });
        let wire = full.to_frame();
        let body = strip_prefix(&wire);

        // Older server: stops after the 15 mandatory fields (104
        // payload bytes + 6 header bytes). New fields decode as zero.
        let old = Response::from_body(&body[..6 + 104]).unwrap();
        let Response::Stats(s) = old else {
            panic!("expected stats")
        };
        assert_eq!(s.requests, 7);
        assert_eq!((s.accepted, s.worker_restarts, s.degraded), (0, 0, 0));

        // Newer server: appends fields this build doesn't know — they
        // are ignored, the known tail still decodes.
        let mut extended = body.to_vec();
        extended.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        let new = Response::from_body(&extended).unwrap();
        let Response::Stats(s) = new else {
            panic!("expected stats")
        };
        assert_eq!((s.accepted, s.shed, s.slow_client_evictions), (9, 1, 3));
        // A cut *inside* a known appended field is a typed truncation,
        // not a silent zero (fields are all-or-nothing).
        assert!(matches!(
            Response::from_body(&body[..6 + 104 + 43]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn response_roundtrips() {
        for response in [
            Response::Output(OutputReport {
                outputs: vec![1, -2, i16::MAX, i16::MIN],
                queue_us: 12.5,
                latency_us: 99.0,
                coalesced: 3,
                worker: 1,
            }),
            Response::Overloaded { depth: 64 },
            Response::Error {
                code: ErrorCode::UnknownModel,
                message: "no model \"x\"".into(),
            },
            Response::Stats(StatsReport {
                requests: 10,
                batches: 4,
                p99_us: 123.0,
                budget_bytes: u64::MAX,
                ..Default::default()
            }),
            Response::Ok,
        ] {
            let wire = response.to_frame();
            assert_eq!(Response::from_body(strip_prefix(&wire)).unwrap(), response);
        }
    }

    #[test]
    fn read_frame_handles_clean_eof_and_oversized_prefix() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(None)));

        let mut oversized: &[u8] = &(MAX_BODY as u32 + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut oversized),
            Err(FrameError::Oversized { .. })
        ));

        let wire = Request::Stats.to_frame();
        let mut cut: &[u8] = &wire[..wire.len() - 1];
        assert!(matches!(
            read_frame(&mut cut),
            Err(FrameError::Truncated {
                section: "frame body",
                ..
            })
        ));
        let mut mid_prefix: &[u8] = &wire[..2];
        assert!(matches!(
            read_frame(&mut mid_prefix),
            Err(FrameError::Truncated {
                section: "length prefix",
                ..
            })
        ));
    }

    #[test]
    fn a_length_prefix_alone_allocates_no_more_than_64_kib() {
        /// A stream that records the largest buffer it is asked to fill.
        struct Recording<'a> {
            bytes: &'a [u8],
            largest: usize,
        }
        impl Read for Recording<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.bytes.read(buf)
            }
        }
        // A 16 MiB prefix (the largest accepted), 100 bytes, then EOF.
        let mut wire = (MAX_BODY as u32).to_le_bytes().to_vec();
        wire.extend([7u8; 100]);
        let mut stream = Recording {
            bytes: &wire,
            largest: 0,
        };
        assert!(matches!(
            read_frame(&mut stream),
            Err(FrameError::Truncated {
                offset: 4,
                section: "frame body",
            })
        ));
        assert!(stream.largest <= 64 << 10, "{} B", stream.largest);
    }

    #[test]
    fn stream_roundtrip_reassembles_multiple_frames() {
        let a = Request::infer("fc6", vec![1.0; 7]);
        let b = Request::Stats;
        let mut wire = Vec::new();
        write_frame(&mut wire, &a.to_frame()).unwrap();
        write_frame(&mut wire, &b.to_frame()).unwrap();
        let mut stream: &[u8] = &wire;
        let first = read_frame(&mut stream).unwrap().unwrap();
        let second = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(Request::from_body(&first).unwrap(), a);
        assert_eq!(Request::from_body(&second).unwrap(), b);
        assert!(matches!(read_frame(&mut stream), Ok(None)));
    }

    #[test]
    fn error_display_names_the_problem() {
        assert!(FrameError::BadMagic.to_string().contains("magic"));
        assert!(FrameError::UnknownKind(0x7F).to_string().contains("0x7f"));
        assert!(FrameError::Oversized {
            len: MAX_BODY + 1,
            max: MAX_BODY
        }
        .to_string()
        .contains("exceeds"));
        let e = FrameError::Truncated {
            offset: 6,
            section: "input",
        };
        assert!(e.to_string().contains("input"));
    }
}
