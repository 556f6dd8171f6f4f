//! The `romp-serve` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! +----------------+---------------------------+
//! | u32 BE length  |  body (length bytes)      |
//! +----------------+---------------------------+
//!                    body[0] = opcode, rest = payload
//! ```
//!
//! The length counts the body only, must be at least 1 (the opcode) and
//! at most [`MAX_FRAME`]; anything else is a protocol error, reported as
//! a typed [`ProtoError`] — decoding never panics, whatever the bytes.
//! The prefix itself is written and checked by the workspace's one frame
//! module, [`mca_sync::frame`], under [`ServeFraming`]'s bounds.
//! Integers are big-endian; strings are UTF-8 and occupy the rest of the
//! body (every message has at most one string, always last).
//!
//! The protocol is deliberately tiny — five request kinds drive the whole
//! service — and hand-rolled over `std` only, like every other byte
//! format in this workspace (no serde in the hermetic build).

use std::io::{self, Read, Write};

use mca_sync::frame::{self, Framing};
use romp_epcc::Construct;
use romp_npb::{Class, NpbKernel};

use crate::job::{DiagSpec, JobSpec, JobState};

/// Upper bound on a frame body, protecting the peer from hostile or
/// corrupt length prefixes.
pub const MAX_FRAME: usize = 64 * 1024;

/// The serving protocol's framing: bodies of 1 (the opcode) to
/// [`MAX_FRAME`] bytes; any other prefix is [`ProtoError::EmptyFrame`]
/// or [`ProtoError::Oversized`].
#[derive(Debug, Default)]
pub struct ServeFraming;

impl Framing for ServeFraming {
    const MIN: usize = 1;
    const MAX: usize = MAX_FRAME;
    type Error = ProtoError;
    fn reject(len: usize) -> ProtoError {
        if len == 0 {
            ProtoError::EmptyFrame
        } else {
            ProtoError::Oversized(len)
        }
    }
}

/// A malformed frame or payload (the decoding side's typed rejection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame body was empty (no opcode byte).
    EmptyFrame,
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized(usize),
    /// The body ended before the payload a message of this opcode needs.
    Truncated {
        /// Opcode whose payload was cut short.
        opcode: u8,
    },
    /// An opcode neither side defines.
    UnknownOpcode(u8),
    /// Structurally sound frame with an out-of-range field.
    BadPayload(&'static str),
    /// Bytes left over after a fixed-size payload was fully read.
    TrailingBytes(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::EmptyFrame => write!(f, "empty frame (no opcode)"),
            ProtoError::Oversized(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            ProtoError::Truncated { opcode } => {
                write!(f, "truncated payload for opcode {opcode:#04x}")
            }
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadPayload(m) => write!(f, "bad payload: {m}"),
            ProtoError::TrailingBytes(op) => {
                write!(f, "trailing bytes after payload of opcode {op:#04x}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job for execution; answered by `Accepted`, `Rejected`
    /// (queue full — retry later) or `Error(Draining)`.
    Submit {
        /// What to run.
        spec: JobSpec,
        /// Per-job deadline in milliseconds from admission; `0` means
        /// "use the server default" (which may itself be none).
        deadline_ms: u32,
        /// Idempotency key: a non-zero key makes resubmission safe — a
        /// second `Submit` carrying the same key returns the original
        /// job id instead of enqueueing a duplicate.  `0` disables it.
        idem_key: u64,
        /// Affinity key: a non-zero key pins the job's tasks to one
        /// runtime shard (the key hashes to a home shard; see
        /// `ShardLayout::shard_for_key`), so related jobs share caches.
        /// `0` means "no preference" and leaves placement to the
        /// spawning worker.
        affinity: u64,
        /// Dispatch priority lane: `0` = Normal (the default — clients
        /// that never set it keep their old service), `1` = Hi
        /// (latency-sensitive; overtakes queued Normal/Batch work under
        /// the weighted pick), `2` and above = Batch (background; never
        /// starved, weights guarantee a share of dispatches).
        priority: u8,
    },
    /// Ask for a job's current [`JobState`].
    Poll {
        /// Job id from `Accepted`.
        job: u64,
    },
    /// Fetch (and consume) a finished job's result.
    Fetch {
        /// Job id from `Accepted`.
        job: u64,
    },
    /// Wait for a job to finish, then fetch (and consume) its result —
    /// the pipelining primitive.  Unlike `Fetch`, a job that has not
    /// finished does **not** answer `NotReady`: the server parks the
    /// request and writes the `JobResult` when the job reaches a terminal
    /// state.  A connection may have any number of parked `Await`s; their
    /// responses arrive in *completion* order, interleaved between the
    /// (request-ordered) responses to other requests, so a pipelining
    /// client correlates them by job id.
    Await {
        /// Job id from `Accepted`.
        job: u64,
    },
    /// Request cancellation of a job.  Queued jobs become `Cancelled`
    /// immediately; running jobs move to `Cancelling` and unwind at the
    /// next cooperative checkpoint.  Answered by `Status` with the state
    /// after the request took effect (terminal jobs report their state
    /// unchanged — cancel is idempotent and never un-finishes a job).
    Cancel {
        /// Job id from `Accepted`.
        job: u64,
    },
    /// Request the server's stats snapshot (JSON).
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain: no new submissions; every accepted job still
    /// runs to completion before the server exits.
    Shutdown,
    /// Operator-triggered rolling restart of the worker pool (cluster
    /// mode only).  Workers are cycled one at a time — each is drained of
    /// its in-flight jobs, exited, and respawned before the next — so no
    /// job is lost and capacity never drops by more than one worker.
    /// Answered by [`Response::Restarting`], or `Error(BadPayload)` on a
    /// single-process server (no pool to cycle).
    Restart,
}

/// Error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was malformed.
    BadFrame,
    /// The payload failed validation (limits, unknown enum value).
    BadPayload,
    /// No job with the given id (never accepted, or already fetched).
    UnknownJob,
    /// The server is draining and takes no new submissions.
    Draining,
    /// The job exists but has not finished; poll again.
    NotReady,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::BadPayload => 2,
            ErrorCode::UnknownJob => 3,
            ErrorCode::Draining => 4,
            ErrorCode::NotReady => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadPayload,
            3 => ErrorCode::UnknownJob,
            4 => ErrorCode::Draining,
            5 => ErrorCode::NotReady,
            _ => return Err(ProtoError::BadPayload("unknown error code")),
        })
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Job admitted; use the id with `Poll`/`Fetch`.
    Accepted {
        /// Server-assigned job id.
        job: u64,
    },
    /// Queue full: backpressure.  Retry after the given delay.
    Rejected {
        /// Suggested client backoff before resubmitting, milliseconds.
        retry_after_ms: u32,
    },
    /// Admission-time shed: the predicted queue wait already exceeds the
    /// job's deadline slack, so accepting it would only burn a worker on
    /// a guaranteed deadline kill.  Unlike `Rejected` this is *not* a
    /// retry hint — the job as submitted structurally cannot meet its
    /// deadline under current load; resubmit with a looser deadline, a
    /// higher priority lane, or not at all.
    ShedDeadline {
        /// The server's wait estimate that exceeded the slack, ms.
        predicted_wait_ms: u32,
    },
    /// Answer to `Poll`.
    Status {
        /// The polled job.
        job: u64,
        /// Its current state.
        state: JobState,
    },
    /// Answer to `Fetch`: the job's outcome (the entry is consumed).
    JobResult {
        /// The fetched job.
        job: u64,
        /// Whether the job's own verification passed.
        ok: bool,
        /// Execution wall time, microseconds (queue wait excluded).
        wall_us: u64,
        /// Kernel-specific detail (verification summary).
        detail: String,
    },
    /// Answer to `Stats`: the JSON snapshot.
    Stats {
        /// Stats document (see `Server` docs for the schema).
        json: String,
    },
    /// Answer to `Ping`.
    Pong,
    /// Answer to `Shutdown`: drain has begun.
    Draining {
        /// Jobs accepted but not yet finished; all will complete.
        outstanding: u64,
    },
    /// Answer to `Restart`: the rolling restart has been scheduled.
    Restarting {
        /// Number of workers that will be cycled.
        workers: u64,
    },
    /// A typed refusal.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        msg: String,
    },
}

// ---- opcodes ----

const OP_SUBMIT: u8 = 0x01;
const OP_POLL: u8 = 0x02;
const OP_FETCH: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_PING: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_CANCEL: u8 = 0x07;
const OP_AWAIT: u8 = 0x08;
const OP_RESTART: u8 = 0x09;

const OP_ACCEPTED: u8 = 0x81;
const OP_REJECTED: u8 = 0x82;
const OP_STATUS: u8 = 0x83;
const OP_JOB_RESULT: u8 = 0x84;
const OP_STATS_BODY: u8 = 0x85;
const OP_PONG: u8 = 0x86;
const OP_DRAINING: u8 = 0x87;
const OP_RESTARTING: u8 = 0x88;
const OP_SHED: u8 = 0x89;
const OP_ERROR: u8 = 0x8F;

// ---- byte cursor (decode side) ----

/// A big-endian reader over one message body: the decoder of this
/// protocol and of `romp-cluster`'s router↔worker messages.  A read past
/// the end is [`ProtoError::Truncated`] and bytes left over at
/// [`Cur::finish`] are [`ProtoError::TrailingBytes`], both naming the
/// message's opcode.
pub struct Cur<'a> {
    body: &'a [u8],
    off: usize,
    opcode: u8,
}

impl<'a> Cur<'a> {
    /// Start reading a message: its opcode (the first byte; an empty
    /// body is [`ProtoError::EmptyFrame`]) and a cursor just past it.
    pub fn open(body: &'a [u8]) -> Result<(u8, Cur<'a>), ProtoError> {
        let &opcode = body.first().ok_or(ProtoError::EmptyFrame)?;
        Ok((
            opcode,
            Cur {
                body,
                off: 1,
                opcode,
            },
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.off + n > self.body.len() {
            return Err(ProtoError::Truncated {
                opcode: self.opcode,
            });
        }
        let s = &self.body[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The rest of the body (a trailing variable-length field).
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.body[self.off..];
        self.off = self.body.len();
        rest
    }

    /// The rest of the body as UTF-8 (the one string field, always last).
    fn rest_str(&mut self) -> Result<String, ProtoError> {
        String::from_utf8(self.rest().to_vec()).map_err(|_| ProtoError::BadPayload("invalid utf-8"))
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), ProtoError> {
        if self.off == self.body.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.opcode))
        }
    }
}

// ---- enum <-> u8 tables ----

fn construct_to_u8(c: Construct) -> u8 {
    match c {
        Construct::Parallel => 0,
        Construct::For => 1,
        Construct::ParallelFor => 2,
        Construct::Barrier => 3,
        Construct::Single => 4,
        Construct::Critical => 5,
        Construct::Reduction => 6,
        Construct::Lock => 7,
    }
}

fn construct_from_u8(v: u8) -> Result<Construct, ProtoError> {
    Ok(match v {
        0 => Construct::Parallel,
        1 => Construct::For,
        2 => Construct::ParallelFor,
        3 => Construct::Barrier,
        4 => Construct::Single,
        5 => Construct::Critical,
        6 => Construct::Reduction,
        7 => Construct::Lock,
        _ => return Err(ProtoError::BadPayload("unknown EPCC construct")),
    })
}

fn kernel_to_u8(k: NpbKernel) -> u8 {
    match k {
        NpbKernel::Ep => 0,
        NpbKernel::Cg => 1,
        NpbKernel::Is => 2,
        NpbKernel::Mg => 3,
        NpbKernel::Ft => 4,
    }
}

fn kernel_from_u8(v: u8) -> Result<NpbKernel, ProtoError> {
    Ok(match v {
        0 => NpbKernel::Ep,
        1 => NpbKernel::Cg,
        2 => NpbKernel::Is,
        3 => NpbKernel::Mg,
        4 => NpbKernel::Ft,
        _ => return Err(ProtoError::BadPayload("unknown NPB kernel")),
    })
}

fn class_to_u8(c: Class) -> u8 {
    match c {
        Class::S => 0,
        Class::W => 1,
        Class::A => 2,
    }
}

fn class_from_u8(v: u8) -> Result<Class, ProtoError> {
    Ok(match v {
        0 => Class::S,
        1 => Class::W,
        2 => Class::A,
        _ => return Err(ProtoError::BadPayload("unknown NPB class")),
    })
}

const SPEC_EPCC: u8 = 0;
const SPEC_NPB: u8 = 1;
const SPEC_DIAG: u8 = 2;

const DIAG_PANIC: u8 = 0;
const DIAG_SPIN: u8 = 1;
const DIAG_CRITICAL_LOOP: u8 = 2;

fn encode_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    match spec {
        JobSpec::Epcc {
            construct,
            threads,
            inner_reps,
        } => {
            out.push(SPEC_EPCC);
            out.push(construct_to_u8(*construct));
            out.push(*threads);
            out.extend_from_slice(&inner_reps.to_be_bytes());
        }
        JobSpec::Npb {
            kernel,
            class,
            threads,
        } => {
            out.push(SPEC_NPB);
            out.push(kernel_to_u8(*kernel));
            out.push(class_to_u8(*class));
            out.push(*threads);
        }
        JobSpec::Diag { diag, threads } => {
            out.push(SPEC_DIAG);
            let (tag, ms) = match diag {
                DiagSpec::Panic => (DIAG_PANIC, 0u32),
                DiagSpec::Spin { ms } => (DIAG_SPIN, *ms),
                DiagSpec::CriticalLoop { ms } => (DIAG_CRITICAL_LOOP, *ms),
            };
            out.push(tag);
            out.extend_from_slice(&ms.to_be_bytes());
            out.push(*threads);
        }
    }
}

fn decode_spec(cur: &mut Cur<'_>) -> Result<JobSpec, ProtoError> {
    match cur.u8()? {
        SPEC_EPCC => Ok(JobSpec::Epcc {
            construct: construct_from_u8(cur.u8()?)?,
            threads: cur.u8()?,
            inner_reps: cur.u16()?,
        }),
        SPEC_NPB => Ok(JobSpec::Npb {
            kernel: kernel_from_u8(cur.u8()?)?,
            class: class_from_u8(cur.u8()?)?,
            threads: cur.u8()?,
        }),
        SPEC_DIAG => {
            let tag = cur.u8()?;
            let ms = cur.u32()?;
            let threads = cur.u8()?;
            let diag = match tag {
                DIAG_PANIC => DiagSpec::Panic,
                DIAG_SPIN => DiagSpec::Spin { ms },
                DIAG_CRITICAL_LOOP => DiagSpec::CriticalLoop { ms },
                _ => return Err(ProtoError::BadPayload("unknown diag tag")),
            };
            Ok(JobSpec::Diag { diag, threads })
        }
        _ => Err(ProtoError::BadPayload("unknown job-spec tag")),
    }
}

/// Encode a job spec standalone — the payload romp-cluster carries in a
/// `Dispatch` control message to a worker process.  Same byte layout as
/// the spec portion of a `Submit` frame.
pub fn spec_to_bytes(spec: &JobSpec) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    encode_spec(&mut out, spec);
    out
}

/// Decode a standalone job spec produced by [`spec_to_bytes`].
pub fn spec_from_bytes(bytes: &[u8]) -> Result<JobSpec, ProtoError> {
    let mut cur = Cur {
        body: bytes,
        off: 0,
        opcode: 0,
    };
    let spec = decode_spec(&mut cur)?;
    cur.finish()?;
    Ok(spec)
}

impl Request {
    /// Encode as a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(16);
        match self {
            Request::Submit {
                spec,
                deadline_ms,
                idem_key,
                affinity,
                priority,
            } => {
                body.push(OP_SUBMIT);
                body.extend_from_slice(&deadline_ms.to_be_bytes());
                body.extend_from_slice(&idem_key.to_be_bytes());
                body.extend_from_slice(&affinity.to_be_bytes());
                body.push(*priority);
                encode_spec(&mut body, spec);
            }
            Request::Poll { job } => {
                body.push(OP_POLL);
                body.extend_from_slice(&job.to_be_bytes());
            }
            Request::Fetch { job } => {
                body.push(OP_FETCH);
                body.extend_from_slice(&job.to_be_bytes());
            }
            Request::Await { job } => {
                body.push(OP_AWAIT);
                body.extend_from_slice(&job.to_be_bytes());
            }
            Request::Cancel { job } => {
                body.push(OP_CANCEL);
                body.extend_from_slice(&job.to_be_bytes());
            }
            Request::Stats => body.push(OP_STATS),
            Request::Ping => body.push(OP_PING),
            Request::Shutdown => body.push(OP_SHUTDOWN),
            Request::Restart => body.push(OP_RESTART),
        }
        finish_frame(body)
    }

    /// Decode a frame body (without the length prefix).
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let (opcode, mut cur) = Cur::open(body)?;
        let req = match opcode {
            OP_SUBMIT => {
                let deadline_ms = cur.u32()?;
                let idem_key = cur.u64()?;
                let affinity = cur.u64()?;
                let priority = cur.u8()?;
                Request::Submit {
                    spec: decode_spec(&mut cur)?,
                    deadline_ms,
                    idem_key,
                    affinity,
                    priority,
                }
            }
            OP_POLL => Request::Poll { job: cur.u64()? },
            OP_FETCH => Request::Fetch { job: cur.u64()? },
            OP_AWAIT => Request::Await { job: cur.u64()? },
            OP_CANCEL => Request::Cancel { job: cur.u64()? },
            OP_STATS => Request::Stats,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            OP_RESTART => Request::Restart,
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        cur.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode as a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(32);
        match self {
            Response::Accepted { job } => {
                body.push(OP_ACCEPTED);
                body.extend_from_slice(&job.to_be_bytes());
            }
            Response::Rejected { retry_after_ms } => {
                body.push(OP_REJECTED);
                body.extend_from_slice(&retry_after_ms.to_be_bytes());
            }
            Response::ShedDeadline { predicted_wait_ms } => {
                body.push(OP_SHED);
                body.extend_from_slice(&predicted_wait_ms.to_be_bytes());
            }
            Response::Status { job, state } => {
                body.push(OP_STATUS);
                body.extend_from_slice(&job.to_be_bytes());
                body.push(state.to_u8());
            }
            Response::JobResult {
                job,
                ok,
                wall_us,
                detail,
            } => {
                body.push(OP_JOB_RESULT);
                body.extend_from_slice(&job.to_be_bytes());
                body.push(u8::from(*ok));
                body.extend_from_slice(&wall_us.to_be_bytes());
                body.extend_from_slice(truncate_str(detail).as_bytes());
            }
            Response::Stats { json } => {
                body.push(OP_STATS_BODY);
                body.extend_from_slice(truncate_str(json).as_bytes());
            }
            Response::Pong => body.push(OP_PONG),
            Response::Draining { outstanding } => {
                body.push(OP_DRAINING);
                body.extend_from_slice(&outstanding.to_be_bytes());
            }
            Response::Restarting { workers } => {
                body.push(OP_RESTARTING);
                body.extend_from_slice(&workers.to_be_bytes());
            }
            Response::Error { code, msg } => {
                body.push(OP_ERROR);
                body.push(code.to_u8());
                body.extend_from_slice(truncate_str(msg).as_bytes());
            }
        }
        finish_frame(body)
    }

    /// Decode a frame body (without the length prefix).
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let (opcode, mut cur) = Cur::open(body)?;
        let resp = match opcode {
            OP_ACCEPTED => Response::Accepted { job: cur.u64()? },
            OP_REJECTED => Response::Rejected {
                retry_after_ms: cur.u32()?,
            },
            OP_SHED => Response::ShedDeadline {
                predicted_wait_ms: cur.u32()?,
            },
            OP_STATUS => Response::Status {
                job: cur.u64()?,
                state: JobState::from_u8(cur.u8()?)
                    .ok_or(ProtoError::BadPayload("unknown job state"))?,
            },
            OP_JOB_RESULT => Response::JobResult {
                job: cur.u64()?,
                ok: cur.u8()? != 0,
                wall_us: cur.u64()?,
                detail: cur.rest_str()?,
            },
            OP_STATS_BODY => Response::Stats {
                json: cur.rest_str()?,
            },
            OP_PONG => Response::Pong,
            OP_DRAINING => Response::Draining {
                outstanding: cur.u64()?,
            },
            OP_RESTARTING => Response::Restarting {
                workers: cur.u64()?,
            },
            OP_ERROR => Response::Error {
                code: ErrorCode::from_u8(cur.u8()?)?,
                msg: cur.rest_str()?,
            },
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        cur.finish()?;
        Ok(resp)
    }
}

/// Cap a string field so the frame stays under [`MAX_FRAME`] (fields
/// before the string never exceed 32 bytes).
fn truncate_str(s: &str) -> &str {
    let limit = MAX_FRAME - 64;
    if s.len() <= limit {
        return s;
    }
    // Back off to a char boundary.
    let mut end = limit;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn finish_frame(body: Vec<u8>) -> Vec<u8> {
    debug_assert!(frame::fits::<ServeFraming>(body.len()));
    frame::encode(&body)
}

/// Read one frame body from `r` (see [`frame::read_frame`]): `Ok(None)`
/// at a clean EOF between frames; a forbidden prefix is
/// `FrameError::Proto` and the stream is out of sync; a transport error,
/// including EOF mid-frame (`UnexpectedEof`), is `FrameError::Io`.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    frame::read_frame::<ServeFraming>(r)
}

/// Write one already-encoded frame.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// What [`read_frame`] can fail with: `Io` (transport failure, including
/// truncation mid-frame) or `Proto` (a length prefix the protocol forbids).
pub type FrameError = frame::ReadError<ProtoError>;

#[cfg(test)]
mod tests {
    use super::*;
    use mca_sync::SmallRng;

    fn arb_spec(rng: &mut SmallRng) -> JobSpec {
        match rng.next_u64() % 3 {
            0 => JobSpec::Epcc {
                construct: construct_from_u8((rng.next_u64() % 8) as u8).unwrap(),
                threads: (rng.gen_range(1, 33)) as u8,
                inner_reps: rng.gen_range(1, 4097) as u16,
            },
            1 => JobSpec::Npb {
                kernel: kernel_from_u8((rng.next_u64() % 5) as u8).unwrap(),
                class: class_from_u8((rng.next_u64() % 3) as u8).unwrap(),
                threads: (rng.gen_range(1, 33)) as u8,
            },
            _ => JobSpec::Diag {
                diag: match rng.next_u64() % 3 {
                    0 => DiagSpec::Panic,
                    1 => DiagSpec::Spin {
                        ms: rng.next_u64() as u32,
                    },
                    _ => DiagSpec::CriticalLoop {
                        ms: rng.next_u64() as u32,
                    },
                },
                threads: (rng.gen_range(1, 33)) as u8,
            },
        }
    }

    fn arb_string(rng: &mut SmallRng) -> String {
        let len = rng.gen_index(0, 64);
        (0..len)
            .map(|_| char::from_u32(rng.gen_range(0x20, 0x7F) as u32).unwrap())
            .collect()
    }

    fn arb_request(rng: &mut SmallRng) -> Request {
        match rng.next_u64() % 9 {
            0 => Request::Submit {
                spec: arb_spec(rng),
                deadline_ms: rng.next_u64() as u32,
                idem_key: rng.next_u64(),
                affinity: rng.next_u64(),
                priority: rng.next_u64() as u8,
            },
            1 => Request::Poll {
                job: rng.next_u64(),
            },
            2 => Request::Fetch {
                job: rng.next_u64(),
            },
            3 => Request::Cancel {
                job: rng.next_u64(),
            },
            4 => Request::Await {
                job: rng.next_u64(),
            },
            5 => Request::Stats,
            6 => Request::Ping,
            7 => Request::Shutdown,
            _ => Request::Restart,
        }
    }

    fn arb_response(rng: &mut SmallRng) -> Response {
        match rng.next_u64() % 10 {
            0 => Response::Accepted {
                job: rng.next_u64(),
            },
            1 => Response::Rejected {
                retry_after_ms: rng.next_u64() as u32,
            },
            2 => Response::Status {
                job: rng.next_u64(),
                state: JobState::from_u8((rng.next_u64() % 7) as u8).unwrap(),
            },
            3 => Response::JobResult {
                job: rng.next_u64(),
                ok: rng.next_u64().is_multiple_of(2),
                wall_us: rng.next_u64(),
                detail: arb_string(rng),
            },
            4 => Response::Stats {
                json: arb_string(rng),
            },
            5 => Response::Pong,
            6 => Response::Draining {
                outstanding: rng.next_u64(),
            },
            7 => Response::Error {
                code: ErrorCode::from_u8(1 + (rng.next_u64() % 5) as u8).unwrap(),
                msg: arb_string(rng),
            },
            8 => Response::ShedDeadline {
                predicted_wait_ms: rng.next_u64() as u32,
            },
            _ => Response::Restarting {
                workers: rng.next_u64(),
            },
        }
    }

    /// Strip the length prefix of an encoded frame.
    fn body(frame: &[u8]) -> &[u8] {
        &frame[4..]
    }

    #[test]
    fn request_roundtrip_property() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0001);
        for _ in 0..2_000 {
            let req = arb_request(&mut rng);
            let frame = req.encode();
            let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len, frame.len() - 4);
            assert_eq!(Request::decode(body(&frame)), Ok(req.clone()), "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip_property() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0002);
        for _ in 0..2_000 {
            let resp = arb_response(&mut rng);
            let frame = resp.encode();
            assert_eq!(Response::decode(body(&frame)), Ok(resp.clone()), "{resp:?}");
        }
    }

    /// Random byte soup must produce typed errors, never a panic.
    #[test]
    fn random_bytes_never_panic_decoders() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0003);
        for _ in 0..10_000 {
            let len = rng.gen_index(0, 40);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }
    }

    /// Truncating any valid frame at every split point must produce a
    /// typed error (or, for a shorter valid prefix, never a panic).
    #[test]
    fn truncated_frames_yield_typed_errors() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0004);
        for _ in 0..200 {
            let req = arb_request(&mut rng);
            let frame = req.encode();
            let b = body(&frame);
            for cut in 0..b.len() {
                let _ = Request::decode(&b[..cut]);
            }
            // And through the framed reader: a cut byte stream is an
            // UnexpectedEof, not a panic or a bogus frame.
            for cut in 0..frame.len() {
                let mut r = io::Cursor::new(&frame[..cut]);
                match read_frame(&mut r) {
                    Ok(None) => assert_eq!(cut, 0, "only an empty stream is clean EOF"),
                    Ok(Some(_)) => panic!("cut {cut} of {} parsed", frame.len()),
                    Err(FrameError::Io(e)) => {
                        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof)
                    }
                    Err(FrameError::Proto(_)) => {}
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        assert_eq!(
            Request::decode(&[OP_PING, 0xAA]),
            Err(ProtoError::TrailingBytes(OP_PING))
        );
    }

    #[test]
    fn oversized_and_empty_prefixes_rejected() {
        let mut r = io::Cursor::new(((MAX_FRAME + 1) as u32).to_be_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Proto(ProtoError::Oversized(_)))
        ));
        let mut r = io::Cursor::new(0u32.to_be_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Proto(ProtoError::EmptyFrame))
        ));
        // The reactor's buffer maps the same prefixes the same way.
        let mut rb = crate::reactor::RecvBuf::new();
        rb.extend(&0u32.to_be_bytes());
        assert_eq!(rb.next_frame(), Err(ProtoError::EmptyFrame));
        let mut rb = crate::reactor::RecvBuf::new();
        rb.extend(&((MAX_FRAME as u32) + 1).to_be_bytes());
        assert_eq!(rb.next_frame(), Err(ProtoError::Oversized(MAX_FRAME + 1)));
    }

    #[test]
    fn frame_reader_roundtrips_a_pipelined_stream() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0005);
        let reqs: Vec<Request> = (0..50).map(|_| arb_request(&mut rng)).collect();
        let mut stream = Vec::new();
        for r in &reqs {
            stream.extend_from_slice(&r.encode());
        }
        let mut cur = io::Cursor::new(stream);
        let mut seen = Vec::new();
        while let Some(b) = read_frame(&mut cur).unwrap() {
            seen.push(Request::decode(&b).unwrap());
        }
        assert_eq!(seen, reqs);
    }

    #[test]
    fn long_strings_are_truncated_to_fit() {
        let resp = Response::Stats {
            json: "x".repeat(MAX_FRAME * 2),
        };
        let frame = resp.encode();
        assert!(frame.len() <= MAX_FRAME + 4);
        let decoded = Response::decode(body(&frame)).unwrap();
        match decoded {
            Response::Stats { json } => assert_eq!(json.len(), MAX_FRAME - 64),
            other => panic!("unexpected {other:?}"),
        }
    }
}
