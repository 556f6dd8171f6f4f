//! The router↔worker control protocol.
//!
//! One message per MCAPI wire packet (the [`mca_mcapi::WireChan`]
//! preserves packet boundaries, so there is no length prefix here);
//! `body[0]` is the opcode, integers are big-endian — the same framing
//! discipline as the client protocol in [`romp_serve::protocol`], whose
//! byte reader [`Cur`] and typed [`ProtoError`] this module reuses.
//!
//! Job payloads ride as [`romp_serve::protocol::spec_to_bytes`] specs;
//! result details ride either inline (small / rmem exhausted) or as a
//! `(slot, len)` reference into the worker's file-backed rmem segment
//! (the zero-copy path).

use romp_serve::protocol::{spec_from_bytes, spec_to_bytes, Cur, ProtoError};
use romp_serve::{JobSpec, JobState};

/// `Done.slot` value meaning "the detail is inline in this message, not
/// in an rmem slot".
pub const SLOT_INLINE: u32 = u32::MAX;

/// Result slots in each worker's rmem segment (the worker creates the
/// segment with this many slots; the router reads slot `i` at
/// `i * SLOT_BYTES`).
pub const SLOTS: u32 = 32;

/// Bytes per rmem result slot; a longer detail rides inline.
pub const SLOT_BYTES: u32 = 8192;

const OP_DISPATCH: u8 = 0x01;
const OP_CANCEL: u8 = 0x02;
const OP_RELEASE: u8 = 0x03;
const OP_EXIT: u8 = 0x04;

const OP_HELLO: u8 = 0x81;
const OP_HEARTBEAT: u8 = 0x82;
const OP_DONE: u8 = 0x83;

/// Router → worker messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToWorker {
    /// Run this job (the MTAPI task start on the worker side).
    Dispatch {
        /// Server-assigned job id (the router's job-table id).
        job: u64,
        /// What to run.
        spec: JobSpec,
    },
    /// Cancel a dispatched job (fire its token on the worker).
    Cancel {
        /// The job to cancel.
        job: u64,
        /// True when the cancel is a fired deadline (`TimedOut`
        /// terminal), false for an explicit request (`Cancelled`).
        deadline: bool,
    },
    /// The router fetched the result out of rmem; the worker may reuse
    /// the slot.
    Release {
        /// Slot index being returned to the worker's free list.
        slot: u32,
    },
    /// Graceful exit: finish in-flight jobs, delete the rmem segment,
    /// terminate cleanly (rolling restarts and the final drain).
    Exit,
}

/// Worker → router messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToRouter {
    /// First message after connect: the worker is up.
    Hello {
        /// Worker index (echoed from the command line).
        worker: u32,
        /// The worker's OS pid (the chaos test's SIGKILL target).
        pid: u32,
        /// Id of the file-backed rmem segment the worker created.
        rmem_id: u32,
    },
    /// Periodic liveness beacon.
    Heartbeat {
        /// Monotonic per-worker sequence number.
        seq: u64,
        /// MTAPI tasks executed since start.
        executed: u64,
        /// The worker runtime's activity counter: the watchdog's
        /// progress signal for the jobs running on this worker.
        activity: u64,
    },
    /// A dispatched job reached a terminal state on the worker.
    Done {
        /// The job.
        job: u64,
        /// Terminal [`JobState`] the worker observed (the router
        /// reconciles against its own token before recording).
        state: JobState,
        /// Whether the job's verification passed.
        ok: bool,
        /// Execution wall time on the worker, microseconds.
        wall_us: u64,
        /// Result-detail location: an rmem slot index, or
        /// [`SLOT_INLINE`].
        slot: u32,
        /// Detail length in bytes: at most [`SLOT_BYTES`] in a slot,
        /// `inline.len()` inline (checked at decode).
        len: u32,
        /// The detail itself when `slot == SLOT_INLINE`, else empty.
        inline: Vec<u8>,
    },
}

impl ToWorker {
    /// Encode as one wire packet.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            ToWorker::Dispatch { job, spec } => {
                out.push(OP_DISPATCH);
                out.extend_from_slice(&job.to_be_bytes());
                out.extend_from_slice(&spec_to_bytes(spec));
            }
            ToWorker::Cancel { job, deadline } => {
                out.push(OP_CANCEL);
                out.extend_from_slice(&job.to_be_bytes());
                out.push(u8::from(*deadline));
            }
            ToWorker::Release { slot } => {
                out.push(OP_RELEASE);
                out.extend_from_slice(&slot.to_be_bytes());
            }
            ToWorker::Exit => out.push(OP_EXIT),
        }
        out
    }

    /// Decode one wire packet; never panics on hostile bytes.
    pub fn decode(body: &[u8]) -> Result<ToWorker, ProtoError> {
        let (op, mut cur) = Cur::open(body)?;
        let msg = match op {
            // The spec is decoded standalone, exactly as it was encoded.
            OP_DISPATCH => {
                return Ok(ToWorker::Dispatch {
                    job: cur.u64()?,
                    spec: spec_from_bytes(cur.rest())?,
                })
            }
            OP_CANCEL => ToWorker::Cancel {
                job: cur.u64()?,
                deadline: cur.u8()? != 0,
            },
            OP_RELEASE => ToWorker::Release { slot: cur.u32()? },
            OP_EXIT => ToWorker::Exit,
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        cur.finish()?;
        Ok(msg)
    }
}

impl ToRouter {
    /// Encode as one wire packet.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            ToRouter::Hello {
                worker,
                pid,
                rmem_id,
            } => {
                out.push(OP_HELLO);
                out.extend_from_slice(&worker.to_be_bytes());
                out.extend_from_slice(&pid.to_be_bytes());
                out.extend_from_slice(&rmem_id.to_be_bytes());
            }
            ToRouter::Heartbeat {
                seq,
                executed,
                activity,
            } => {
                out.push(OP_HEARTBEAT);
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&executed.to_be_bytes());
                out.extend_from_slice(&activity.to_be_bytes());
            }
            ToRouter::Done {
                job,
                state,
                ok,
                wall_us,
                slot,
                len,
                inline,
            } => {
                out.push(OP_DONE);
                out.extend_from_slice(&job.to_be_bytes());
                out.push(state.to_u8());
                out.push(u8::from(*ok));
                out.extend_from_slice(&wall_us.to_be_bytes());
                out.extend_from_slice(&slot.to_be_bytes());
                out.extend_from_slice(&len.to_be_bytes());
                out.extend_from_slice(inline);
            }
        }
        out
    }

    /// Decode one wire packet; never panics on hostile bytes.
    pub fn decode(body: &[u8]) -> Result<ToRouter, ProtoError> {
        let (op, mut cur) = Cur::open(body)?;
        let msg = match op {
            OP_HELLO => ToRouter::Hello {
                worker: cur.u32()?,
                pid: cur.u32()?,
                rmem_id: cur.u32()?,
            },
            OP_HEARTBEAT => ToRouter::Heartbeat {
                seq: cur.u64()?,
                executed: cur.u64()?,
                activity: cur.u64()?,
            },
            OP_DONE => {
                // Read the whole fixed part before judging the state
                // byte: a short message is `Truncated`, not `BadPayload`.
                let (job, state) = (cur.u64()?, cur.u8()?);
                let (ok, wall_us, slot, len) = (cur.u8()? != 0, cur.u64()?, cur.u32()?, cur.u32()?);
                let state =
                    JobState::from_u8(state).ok_or(ProtoError::BadPayload("unknown job state"))?;
                let inline = cur.rest();
                // The router reads `len` bytes at slot `slot` of the
                // worker's segment: both must stay inside one slot.
                if slot == SLOT_INLINE && len as usize != inline.len() {
                    return Err(ProtoError::BadPayload("inline detail length mismatch"));
                }
                if slot != SLOT_INLINE && (slot >= SLOTS || len > SLOT_BYTES || !inline.is_empty())
                {
                    return Err(ProtoError::BadPayload("rmem slot reference out of range"));
                }
                return Ok(ToRouter::Done {
                    job,
                    state,
                    ok,
                    wall_us,
                    slot,
                    len,
                    inline: inline.to_vec(),
                });
            }
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        cur.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_sync::SmallRng;
    use romp_serve::DiagSpec;

    fn arb_spec(rng: &mut SmallRng) -> JobSpec {
        match rng.next_u64() % 2 {
            0 => JobSpec::Epcc {
                construct: romp_epcc::Construct::Barrier,
                threads: rng.gen_range(1, 9) as u8,
                inner_reps: rng.gen_range(1, 100) as u16,
            },
            _ => JobSpec::Diag {
                diag: DiagSpec::Spin {
                    ms: rng.next_u64() as u32,
                },
                threads: rng.gen_range(1, 9) as u8,
            },
        }
    }

    #[test]
    fn to_worker_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0xC1);
        for _ in 0..500 {
            let msg = match rng.next_u64() % 4 {
                0 => ToWorker::Dispatch {
                    job: rng.next_u64(),
                    spec: arb_spec(&mut rng),
                },
                1 => ToWorker::Cancel {
                    job: rng.next_u64(),
                    deadline: rng.next_u64().is_multiple_of(2),
                },
                2 => ToWorker::Release {
                    slot: rng.next_u64() as u32,
                },
                _ => ToWorker::Exit,
            };
            assert_eq!(ToWorker::decode(&msg.encode()), Ok(msg.clone()), "{msg:?}");
        }
    }

    #[test]
    fn to_router_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0xC2);
        for _ in 0..500 {
            let msg = match rng.next_u64() % 3 {
                0 => ToRouter::Hello {
                    worker: rng.next_u64() as u32,
                    pid: rng.next_u64() as u32,
                    rmem_id: rng.next_u64() as u32,
                },
                1 => ToRouter::Heartbeat {
                    seq: rng.next_u64(),
                    executed: rng.next_u64(),
                    activity: rng.next_u64(),
                },
                _ => {
                    let inline: Vec<u8> = (0..rng.gen_index(0, 40))
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                    let (slot, len, inline) = if rng.next_u64().is_multiple_of(2) {
                        (SLOT_INLINE, inline.len() as u32, inline)
                    } else {
                        let len = rng.gen_range(0, u64::from(SLOT_BYTES) + 1) as u32;
                        (rng.next_u64() as u32 % SLOTS, len, Vec::new())
                    };
                    ToRouter::Done {
                        job: rng.next_u64(),
                        state: JobState::from_u8(2 + (rng.next_u64() % 2) as u8).unwrap(),
                        ok: rng.next_u64().is_multiple_of(2),
                        wall_us: rng.next_u64(),
                        slot,
                        len,
                        inline,
                    }
                }
            };
            assert_eq!(ToRouter::decode(&msg.encode()), Ok(msg.clone()), "{msg:?}");
        }
    }

    #[test]
    fn hostile_bytes_yield_typed_errors() {
        let mut rng = SmallRng::seed_from_u64(0xC3);
        for _ in 0..5_000 {
            let len = rng.gen_index(0, 40);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = ToWorker::decode(&bytes);
            let _ = ToRouter::decode(&bytes);
        }
        // A `Done` whose (slot, len) would read outside one rmem slot, or
        // whose inline detail disagrees with its length, is refused.
        let done = |slot, len, inline: &[u8]| ToRouter::Done {
            job: 7,
            state: JobState::Done,
            ok: true,
            wall_us: 1,
            slot,
            len,
            inline: inline.to_vec(),
        };
        let refused = |msg: ToRouter| {
            assert!(
                matches!(
                    ToRouter::decode(&msg.encode()),
                    Err(ProtoError::BadPayload(_))
                ),
                "{msg:?}"
            );
        };
        refused(done(SLOTS, 1, b""));
        refused(done(0, SLOT_BYTES + 1, b""));
        refused(done(0, u32::MAX, b""));
        refused(done(3, 2, b"xy"));
        refused(done(SLOT_INLINE, 3, b"xy"));
        refused(done(SLOT_INLINE, u32::MAX, b""));
        for ok in [
            done(SLOTS - 1, SLOT_BYTES, b""),
            done(SLOT_INLINE, 2, b"xy"),
        ] {
            assert_eq!(ToRouter::decode(&ok.encode()), Ok(ok.clone()));
        }
    }

    #[test]
    fn trailing_bytes_rejected_on_fixed_messages() {
        let mut enc = ToWorker::Exit.encode();
        enc.push(0xAA);
        assert!(matches!(
            ToWorker::decode(&enc),
            Err(ProtoError::TrailingBytes(_))
        ));
    }
}
