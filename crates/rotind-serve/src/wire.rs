//! The binary wire format: length-prefixed frames, fixed-layout
//! little-endian payloads.
//!
//! Every message on a connection is one *frame*: a `u32` little-endian
//! payload length (capped at [`MAX_FRAME_LEN`]) followed by that many
//! payload bytes. Inside a frame the layout is positional — no field
//! names, no varints — so encode/decode are allocation-light and easy
//! to audit. All multi-byte integers and floats are little-endian.
//!
//! Request payload (first byte is the opcode):
//!
//! | opcode | meaning | rest of payload |
//! |--------|---------|-----------------|
//! | `1`    | query   | fixed header (kind, k, radius, invariance, max_shift, measure, band, epsilon, delta, max_steps, deadline_micros) then `n: u32` + `n` × `f64` samples |
//! | `2`    | metrics | empty |
//! | `3`    | ping    | empty |
//!
//! Response payload (first byte is the status):
//!
//! | status | meaning | rest of payload |
//! |--------|---------|-----------------|
//! | `0`    | complete | `steps: u64`, `count: u32`, hits |
//! | `1`    | exhausted (steps) | same as complete — `hits` is the partial answer |
//! | `2`    | exhausted (deadline) | same as complete |
//! | `3`    | error | `code: u16` (see below), `len: u32` + UTF-8 message |
//! | `4`    | overloaded | empty — the admission queue was full |
//! | `5`    | pong | empty |
//! | `6`    | metrics | `len: u32` + UTF-8 Prometheus text |
//!
//! Error codes ([`error_code`]):
//!
//! | code | name | meaning |
//! |------|------|---------|
//! | `1`  | `MALFORMED` | the frame payload failed to decode |
//! | `2`  | `BAD_QUERY` | the query series was rejected (wrong length, non-finite, …) |
//! | `3`  | `BAD_PARAM` | a query parameter was rejected (`k = 0`, a negative or NaN radius, …) |
//! | `4`  | `SHUTDOWN` | the server is shutting down; the query was dropped unrun |
//! | `5`  | `INTERNAL` | the query's execution panicked; the worker keeps serving |
//!
//! Each hit is `index: u64`, `distance: f64`, `shift: u32`,
//! `mirrored: u8`. Exhausted responses carry the *partial* answer (the
//! best over the scanned prefix), mirroring
//! [`BudgetOutcome`](rotind_obs::BudgetOutcome) — a tripped budget is a
//! first-class reply, not a dropped request.
//!
//! Budget fields use `0` as "unset": `max_steps = 0` means no step cap
//! and `deadline_micros = 0` means no deadline (a genuine zero-step or
//! zero-time budget would never admit an answer, so nothing is lost).

use rotind_distance::measure::Measure;
use rotind_distance::{DtwParams, LcssParams};
use rotind_index::engine::{Invariance, Neighbor};
use rotind_index::snapshot::{QueryKind, QuerySpec};
use rotind_ts::rotate::Rotation;
use std::io::{Read, Write};
use std::time::Duration;

/// Largest accepted frame payload (4 MiB — a 512k-sample query).
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// A malformed frame payload.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The declared frame length exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        len: usize,
    },
    /// The payload ended before the named field.
    Truncated {
        /// Which field was being read.
        field: &'static str,
    },
    /// A tag byte holds no defined value.
    BadTag {
        /// Which field held the tag.
        field: &'static str,
        /// The undefined value.
        value: u64,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The payload continues past the end of the message.
    TrailingBytes {
        /// Number of unread bytes.
        len: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            WireError::Truncated { field } => write!(f, "payload truncated at field `{field}`"),
            WireError::BadTag { field, value } => {
                write!(f, "undefined tag {value} for field `{field}`")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes { len } => {
                write!(f, "{len} unread bytes after the end of the message")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a query (the payload embeds its budget).
    Query(QueryRequest),
    /// Fetch the Prometheus metrics text over the binary protocol.
    Metrics,
    /// Liveness check, answered inline by the connection thread.
    Ping,
}

/// A query plus its per-request budget.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// What to search for.
    pub spec: QuerySpec,
    /// Step cap, when any.
    pub max_steps: Option<u64>,
    /// Deadline measured from *admission* (enqueue time) — queue wait
    /// counts against it.
    pub deadline: Option<Duration>,
}

/// How a query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Exact answer; bit-identical to the un-budgeted library search.
    Complete,
    /// The step cap tripped; the hits are the partial answer.
    ExhaustedSteps,
    /// The deadline passed; the hits are the partial answer.
    ExhaustedDeadline,
}

/// One matched database item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Database index of the item.
    pub index: u64,
    /// Rotation-invariant distance to the query.
    pub distance: f64,
    /// The query rotation realising that distance.
    pub shift: u32,
    /// Whether the rotation is taken from the mirrored query.
    pub mirrored: bool,
}

impl From<&Neighbor> for Hit {
    fn from(n: &Neighbor) -> Self {
        Hit {
            index: n.index as u64,
            distance: n.distance,
            shift: u32::try_from(n.rotation.shift).unwrap_or(u32::MAX),
            mirrored: n.rotation.mirrored,
        }
    }
}

impl Hit {
    /// The library-side [`Neighbor`] this hit encodes.
    pub fn to_neighbor(&self) -> Neighbor {
        Neighbor {
            index: self.index as usize,
            distance: self.distance,
            rotation: Rotation {
                shift: self.shift as usize,
                mirrored: self.mirrored,
            },
        }
    }
}

/// A finished query: how it ended, what it cost, what it found.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Complete, or which budget limit tripped.
    pub status: QueryStatus,
    /// Steps the search charged (the paper's machine-independent cost).
    pub steps: u64,
    /// The answer — exact when complete, the scanned-prefix partial
    /// when exhausted.
    pub hits: Vec<Hit>,
}

/// One server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query ran (possibly to an exhausted partial).
    Query(QueryResponse),
    /// The request was malformed or the query was rejected.
    Error {
        /// Stable numeric code (see [`error_code`]).
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// The admission queue was full; retry later.
    Overloaded,
    /// Reply to [`Request::Ping`].
    Pong,
    /// Prometheus exposition text.
    Metrics(String),
}

/// Error codes carried by [`Response::Error`].
pub mod error_code {
    /// The frame payload failed to decode.
    pub const MALFORMED: u16 = 1;
    /// The query series was rejected (wrong length, non-finite, …).
    pub const BAD_QUERY: u16 = 2;
    /// A query parameter was rejected (`k = 0`, bad cache, …).
    pub const BAD_PARAM: u16 = 3;
    /// The server is shutting down; the query was dropped unrun.
    pub const SHUTDOWN: u16 = 4;
    /// The query's execution panicked; the worker survived and keeps
    /// serving (counted as `rotind_serve_panics_total`).
    pub const INTERNAL: u16 = 5;
}

// --- opcodes and tags -------------------------------------------------

const OP_QUERY: u8 = 1;
const OP_METRICS: u8 = 2;
const OP_PING: u8 = 3;

const ST_COMPLETE: u8 = 0;
const ST_EXHAUSTED_STEPS: u8 = 1;
const ST_EXHAUSTED_DEADLINE: u8 = 2;
const ST_ERROR: u8 = 3;
const ST_OVERLOADED: u8 = 4;
const ST_PONG: u8 = 5;
const ST_METRICS: u8 = 6;

const KIND_NEAREST: u8 = 0;
const KIND_K_NEAREST: u8 = 1;
const KIND_RANGE: u8 = 2;

const INV_ROTATION: u8 = 0;
const INV_ROTATION_MIRROR: u8 = 1;
const INV_LIMITED: u8 = 2;
const INV_LIMITED_MIRROR: u8 = 3;

const MEASURE_EUCLIDEAN: u8 = 0;
const MEASURE_DTW: u8 = 1;
const MEASURE_LCSS: u8 = 2;

// --- framing ----------------------------------------------------------

/// Write one length-prefixed frame.
///
/// The prefix and payload go out in a **single** `write_all`: split
/// writes put the payload behind Nagle's algorithm waiting on the
/// peer's delayed ACK of the 4-byte prefix — a silent ~20 ms floor per
/// message on a loopback request/response stream (`TCP_NODELAY` is
/// also set on both ends, but one syscall per frame is cheaper
/// regardless).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: payload.len() }.into());
    }
    let len = payload.len() as u32;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Bytes a frame read reserves before its payload arrives. A payload
/// longer than this grows its buffer with the bytes received, so a
/// length prefix alone never sizes an allocation.
const READ_RESERVE: usize = 64 << 10;

/// Read one length-prefixed frame. An EOF *before the first length
/// byte* surfaces as `ErrorKind::UnexpectedEof` — callers treat that as
/// a clean connection close.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    read_frame_payload(len_bytes, r)
}

/// Read the payload of a frame whose length prefix `len_bytes` has
/// already been read. A prefix above [`MAX_FRAME_LEN`] is
/// `InvalidData`, and fewer payload bytes than it claims before EOF is
/// `UnexpectedEof`. The buffer reserves at most 64 KiB up front and
/// grows only with the bytes that arrive: a peer that claims 4 MiB and
/// sends ten bytes costs ten bytes, not 4 MiB.
pub(crate) fn read_frame_payload(
    len_bytes: [u8; 4],
    r: &mut impl Read,
) -> std::io::Result<Vec<u8>> {
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len }.into());
    }
    let mut payload = Vec::with_capacity(len.min(READ_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(payload)
}

// --- payload reader ---------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], WireError> {
        let end = self
            .pos
            .checked_add(N)
            .ok_or(WireError::Truncated { field })?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::Truncated { field })?;
        let bytes = <[u8; N]>::try_from(slice).map_err(|_| WireError::Truncated { field })?;
        self.pos = end;
        Ok(bytes)
    }

    fn bytes(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::Truncated { field })?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::Truncated { field })?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.take::<1>(field)?))
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take::<2>(field)?))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take::<4>(field)?))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take::<8>(field)?))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take::<8>(field)?))
    }

    /// Capacity to reserve for `claimed` elements of `size` bytes each:
    /// the claim, capped by the elements the unread bytes can hold, so a
    /// count the payload does not back reserves no more than it received.
    fn capacity_for(&self, claimed: usize, size: usize) -> usize {
        claimed.min(self.remaining() / size)
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.remaining();
        if left > 0 {
            return Err(WireError::TrailingBytes { len: left });
        }
        Ok(())
    }
}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// --- requests ---------------------------------------------------------

/// Encode a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Metrics => put_u8(&mut out, OP_METRICS),
        Request::Ping => put_u8(&mut out, OP_PING),
        Request::Query(q) => {
            put_u8(&mut out, OP_QUERY);
            let (kind, k, radius) = match q.spec.kind {
                QueryKind::Nearest => (KIND_NEAREST, 0u32, 0.0),
                QueryKind::KNearest(k) => {
                    (KIND_K_NEAREST, u32::try_from(k).unwrap_or(u32::MAX), 0.0)
                }
                QueryKind::Range(r) => (KIND_RANGE, 0u32, r),
            };
            put_u8(&mut out, kind);
            put_u32(&mut out, k);
            put_f64(&mut out, radius);
            let (inv, max_shift) = match q.spec.invariance {
                Invariance::Rotation => (INV_ROTATION, 0usize),
                Invariance::RotationMirror => (INV_ROTATION_MIRROR, 0),
                Invariance::RotationLimited { max_shift } => (INV_LIMITED, max_shift),
                Invariance::RotationLimitedMirror { max_shift } => (INV_LIMITED_MIRROR, max_shift),
            };
            put_u8(&mut out, inv);
            put_u32(&mut out, u32::try_from(max_shift).unwrap_or(u32::MAX));
            let (measure, band, epsilon, delta) = match q.spec.measure {
                Measure::Euclidean => (MEASURE_EUCLIDEAN, 0usize, 0.0, 0usize),
                Measure::Dtw(p) => (MEASURE_DTW, p.band, 0.0, 0),
                Measure::Lcss(p) => (MEASURE_LCSS, 0, p.epsilon, p.delta),
            };
            put_u8(&mut out, measure);
            put_u32(&mut out, u32::try_from(band).unwrap_or(u32::MAX));
            put_f64(&mut out, epsilon);
            put_u32(&mut out, u32::try_from(delta).unwrap_or(u32::MAX));
            put_u64(&mut out, q.max_steps.unwrap_or(0));
            let micros = q
                .deadline
                .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            put_u64(&mut out, micros);
            put_u32(
                &mut out,
                u32::try_from(q.spec.series.len()).unwrap_or(u32::MAX),
            );
            for &v in &q.spec.series {
                put_f64(&mut out, v);
            }
        }
    }
    out
}

/// Decode a request payload.
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(buf);
    let op = r.u8("opcode")?;
    let req = match op {
        OP_METRICS => Request::Metrics,
        OP_PING => Request::Ping,
        OP_QUERY => {
            let kind_tag = r.u8("kind")?;
            let k = r.u32("k")? as usize;
            let radius = r.f64("radius")?;
            let kind = match kind_tag {
                KIND_NEAREST => QueryKind::Nearest,
                KIND_K_NEAREST => QueryKind::KNearest(k),
                KIND_RANGE => QueryKind::Range(radius),
                v => {
                    return Err(WireError::BadTag {
                        field: "kind",
                        value: v as u64,
                    })
                }
            };
            let inv_tag = r.u8("invariance")?;
            let max_shift = r.u32("max_shift")? as usize;
            let invariance = match inv_tag {
                INV_ROTATION => Invariance::Rotation,
                INV_ROTATION_MIRROR => Invariance::RotationMirror,
                INV_LIMITED => Invariance::RotationLimited { max_shift },
                INV_LIMITED_MIRROR => Invariance::RotationLimitedMirror { max_shift },
                v => {
                    return Err(WireError::BadTag {
                        field: "invariance",
                        value: v as u64,
                    })
                }
            };
            let measure_tag = r.u8("measure")?;
            let band = r.u32("band")? as usize;
            let epsilon = r.f64("epsilon")?;
            let delta = r.u32("delta")? as usize;
            let measure = match measure_tag {
                MEASURE_EUCLIDEAN => Measure::Euclidean,
                MEASURE_DTW => Measure::Dtw(DtwParams { band }),
                MEASURE_LCSS => Measure::Lcss(LcssParams { epsilon, delta }),
                v => {
                    return Err(WireError::BadTag {
                        field: "measure",
                        value: v as u64,
                    })
                }
            };
            let max_steps = match r.u64("max_steps")? {
                0 => None,
                n => Some(n),
            };
            let deadline = match r.u64("deadline_micros")? {
                0 => None,
                us => Some(Duration::from_micros(us)),
            };
            let n = r.u32("series_len")? as usize;
            let mut series = Vec::with_capacity(r.capacity_for(n, 8));
            for _ in 0..n {
                series.push(r.f64("series")?);
            }
            Request::Query(QueryRequest {
                spec: QuerySpec {
                    series,
                    invariance,
                    measure,
                    kind,
                },
                max_steps,
                deadline,
            })
        }
        v => {
            return Err(WireError::BadTag {
                field: "opcode",
                value: v as u64,
            })
        }
    };
    r.finish()?;
    Ok(req)
}

// --- responses --------------------------------------------------------

/// Encode a response payload (frame it with [`write_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Overloaded => put_u8(&mut out, ST_OVERLOADED),
        Response::Pong => put_u8(&mut out, ST_PONG),
        Response::Metrics(text) => {
            put_u8(&mut out, ST_METRICS);
            put_u32(&mut out, u32::try_from(text.len()).unwrap_or(u32::MAX));
            out.extend_from_slice(text.as_bytes());
        }
        Response::Error { code, message } => {
            put_u8(&mut out, ST_ERROR);
            put_u16(&mut out, *code);
            put_u32(&mut out, u32::try_from(message.len()).unwrap_or(u32::MAX));
            out.extend_from_slice(message.as_bytes());
        }
        Response::Query(q) => {
            let status = match q.status {
                QueryStatus::Complete => ST_COMPLETE,
                QueryStatus::ExhaustedSteps => ST_EXHAUSTED_STEPS,
                QueryStatus::ExhaustedDeadline => ST_EXHAUSTED_DEADLINE,
            };
            put_u8(&mut out, status);
            put_u64(&mut out, q.steps);
            put_u32(&mut out, u32::try_from(q.hits.len()).unwrap_or(u32::MAX));
            for hit in &q.hits {
                put_u64(&mut out, hit.index);
                put_f64(&mut out, hit.distance);
                put_u32(&mut out, hit.shift);
                put_u8(&mut out, u8::from(hit.mirrored));
            }
        }
    }
    out
}

/// Decode a response payload.
pub fn decode_response(buf: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(buf);
    let status = r.u8("status")?;
    let resp = match status {
        ST_OVERLOADED => Response::Overloaded,
        ST_PONG => Response::Pong,
        ST_METRICS => {
            let len = r.u32("metrics_len")? as usize;
            let bytes = r.bytes(len, "metrics_text")?;
            let text = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
            Response::Metrics(text.to_string())
        }
        ST_ERROR => {
            let code = r.u16("error_code")?;
            let len = r.u32("error_len")? as usize;
            let bytes = r.bytes(len, "error_message")?;
            let message = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
            Response::Error {
                code,
                message: message.to_string(),
            }
        }
        ST_COMPLETE | ST_EXHAUSTED_STEPS | ST_EXHAUSTED_DEADLINE => {
            let steps = r.u64("steps")?;
            let count = r.u32("hit_count")? as usize;
            // A hit is 21 bytes: index, distance, shift and mirrored.
            let mut hits = Vec::with_capacity(r.capacity_for(count, 21));
            for _ in 0..count {
                let index = r.u64("hit_index")?;
                let distance = r.f64("hit_distance")?;
                let shift = r.u32("hit_shift")?;
                let mirrored = r.u8("hit_mirrored")? != 0;
                hits.push(Hit {
                    index,
                    distance,
                    shift,
                    mirrored,
                });
            }
            Response::Query(QueryResponse {
                status: match status {
                    ST_EXHAUSTED_STEPS => QueryStatus::ExhaustedSteps,
                    ST_EXHAUSTED_DEADLINE => QueryStatus::ExhaustedDeadline,
                    _ => QueryStatus::Complete,
                },
                steps,
                hits,
            })
        }
        v => {
            return Err(WireError::BadTag {
                field: "status",
                value: v as u64,
            })
        }
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let buf = encode_request(&req);
        assert_eq!(decode_request(&buf).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let buf = encode_response(&resp);
        assert_eq!(decode_response(&buf).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips_every_shape() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Metrics);
        for (kind, invariance, measure) in [
            (QueryKind::Nearest, Invariance::Rotation, Measure::Euclidean),
            (
                QueryKind::KNearest(7),
                Invariance::RotationMirror,
                Measure::Dtw(DtwParams { band: 3 }),
            ),
            (
                QueryKind::Range(2.5),
                Invariance::RotationLimited { max_shift: 4 },
                Measure::Lcss(LcssParams {
                    epsilon: 0.25,
                    delta: 2,
                }),
            ),
            (
                QueryKind::Nearest,
                Invariance::RotationLimitedMirror { max_shift: 9 },
                Measure::Euclidean,
            ),
        ] {
            roundtrip_request(Request::Query(QueryRequest {
                spec: QuerySpec {
                    series: vec![0.5, -1.25, 3.75],
                    invariance,
                    measure,
                    kind,
                },
                max_steps: Some(1000),
                deadline: Some(Duration::from_micros(2500)),
            }));
        }
        roundtrip_request(Request::Query(QueryRequest {
            spec: QuerySpec {
                series: vec![1.0],
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind: QueryKind::Nearest,
            },
            max_steps: None,
            deadline: None,
        }));
    }

    #[test]
    fn response_roundtrips_every_shape() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Overloaded);
        roundtrip_response(Response::Metrics("# TYPE x counter\nx 1\n".into()));
        roundtrip_response(Response::Error {
            code: error_code::BAD_QUERY,
            message: "length mismatch".into(),
        });
        for status in [
            QueryStatus::Complete,
            QueryStatus::ExhaustedSteps,
            QueryStatus::ExhaustedDeadline,
        ] {
            roundtrip_response(Response::Query(QueryResponse {
                status,
                steps: 12345,
                hits: vec![
                    Hit {
                        index: 7,
                        distance: 1.5,
                        shift: 3,
                        mirrored: true,
                    },
                    Hit {
                        index: 0,
                        distance: 0.0,
                        shift: 0,
                        mirrored: false,
                    },
                ],
            }));
        }
    }

    #[test]
    fn hit_neighbor_roundtrip() {
        let n = Neighbor {
            index: 42,
            distance: 3.25,
            rotation: Rotation {
                shift: 11,
                mirrored: true,
            },
        };
        assert_eq!(Hit::from(&n).to_neighbor(), n);
    }

    #[test]
    fn framing_roundtrip_and_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");

        // A declared length past the cap is rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(huge)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Serves `data`, then EOF, and records the largest buffer any read
    /// is handed.
    struct RecordingReader<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for RecordingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.data.len());
            let (head, rest) = self.data.split_at(n);
            buf[..n].copy_from_slice(head);
            self.data = rest;
            Ok(n)
        }
    }

    #[test]
    fn a_length_claim_does_not_size_the_read_buffer() {
        // The largest length the cap admits, then ten bytes and EOF.
        let mut frame = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&[7; 10]);
        let mut reader = RecordingReader {
            data: &frame,
            largest: 0,
        };
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(
            reader.largest <= READ_RESERVE,
            "a read was handed {} bytes for a 10-byte payload",
            reader.largest
        );
        // A frame that does arrive in full reads back whole, past the
        // reserve too.
        let payload: Vec<u8> = (0..3 * READ_RESERVE + 5).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(&mut std::io::Cursor::new(buf)).unwrap(), payload);
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed_errors() {
        let req = Request::Query(QueryRequest {
            spec: QuerySpec {
                series: vec![1.0, 2.0],
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind: QueryKind::Nearest,
            },
            max_steps: None,
            deadline: None,
        });
        let buf = encode_request(&req);
        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(
            decode_request(truncated),
            Err(WireError::Truncated { .. })
        ));
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(matches!(
            decode_request(&trailing),
            Err(WireError::TrailingBytes { len: 1 })
        ));
    }

    #[test]
    fn a_claimed_count_reserves_no_more_than_the_payload_holds() {
        let r = Reader::new(&[0u8; 40]);
        assert_eq!(r.capacity_for(u32::MAX as usize, 8), 5, "samples");
        assert_eq!(r.capacity_for(u32::MAX as usize, 21), 1, "hits");
        assert_eq!(r.capacity_for(3, 8), 3, "a backed claim is reserved whole");

        // The same 40-byte remainder behind a `u32::MAX` count still
        // decodes to `Truncated` in both directions.
        let req = Request::Query(QueryRequest {
            spec: QuerySpec {
                series: Vec::new(),
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind: QueryKind::Nearest,
            },
            max_steps: None,
            deadline: None,
        });
        let mut buf = encode_request(&req);
        let len_at = buf.len() - 4;
        buf[len_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 40]);
        assert!(matches!(
            decode_request(&buf),
            Err(WireError::Truncated { field: "series" })
        ));

        let mut buf = vec![ST_COMPLETE];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 40]);
        assert!(matches!(
            decode_response(&buf),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn undefined_tags_are_rejected() {
        assert!(matches!(
            decode_request(&[9]),
            Err(WireError::BadTag {
                field: "opcode",
                value: 9
            })
        ));
        assert!(matches!(
            decode_response(&[9]),
            Err(WireError::BadTag {
                field: "status",
                value: 9
            })
        ));
    }

    #[test]
    fn zero_budget_fields_mean_unset() {
        let req = Request::Query(QueryRequest {
            spec: QuerySpec {
                series: vec![1.0],
                invariance: Invariance::Rotation,
                measure: Measure::Euclidean,
                kind: QueryKind::Nearest,
            },
            max_steps: None,
            deadline: None,
        });
        let decoded = decode_request(&encode_request(&req)).unwrap();
        let Request::Query(q) = decoded else {
            panic!("expected query");
        };
        assert_eq!(q.max_steps, None);
        assert_eq!(q.deadline, None);
    }
}
