//! A mutation fuzzer for every decoder that reads bytes from another
//! process: the client protocol's `Request` and `Response`, the cluster
//! control messages `ToWorker` and `ToRouter`, and the shared frame
//! buffer under both protocols' bounds.
//!
//! Each target starts from a corpus of valid encodings and, for a fixed
//! number of iterations, decodes a mutant: bytes flipped or overwritten,
//! a cut, a splice with another corpus entry, inserted bytes, or a
//! length-like field rewritten to a boundary value.  A decoder may
//! refuse a mutant but must never panic, and whatever it accepts must
//! survive re-encoding unchanged.  The frame target cuts a mutated
//! stream of frames at random points and checks the incremental buffer
//! yields exactly what the one-shot blocking reader does.  A failure
//! names its target, seed and iteration, which replay it exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mca_mcapi::wire::WireFraming;
use mca_sync::frame::{self, FrameBuf, Framing, ReadError};
use mca_sync::SmallRng;
use romp_cluster::proto::{ToRouter, ToWorker, SLOTS, SLOT_BYTES, SLOT_INLINE};
use romp_epcc::Construct;
use romp_npb::{Class, NpbKernel};
use romp_serve::protocol::ServeFraming;
use romp_serve::{DiagSpec, ErrorCode, JobSpec, JobState, Request, Response, MAX_FRAME};

/// Mutants decoded per target.
const ITERATIONS: u32 = 20_000;

/// Base seed; target `k` runs on `SEED + k`.
const SEED: u64 = 0xF0CC_0DEC;

fn specs() -> Vec<JobSpec> {
    vec![
        JobSpec::Epcc {
            construct: Construct::Reduction,
            threads: 4,
            inner_reps: 300,
        },
        JobSpec::Npb {
            kernel: NpbKernel::Cg,
            class: Class::W,
            threads: 2,
        },
        JobSpec::Diag {
            diag: DiagSpec::Spin { ms: 70_000 },
            threads: 1,
        },
        JobSpec::Diag {
            diag: DiagSpec::Panic,
            threads: 8,
        },
    ]
}

fn requests() -> Vec<Request> {
    let mut out: Vec<Request> = specs()
        .into_iter()
        .map(|spec| Request::Submit {
            spec,
            deadline_ms: 250,
            idem_key: 0xDEAD_BEEF,
            affinity: 3,
            priority: 2,
        })
        .collect();
    out.extend([
        Request::Poll { job: 1 },
        Request::Fetch { job: u64::MAX },
        Request::Await { job: 7 },
        Request::Cancel { job: 1 << 40 },
        Request::Stats,
        Request::Ping,
        Request::Shutdown,
        Request::Restart,
    ]);
    out
}

fn responses() -> Vec<Response> {
    vec![
        Response::Accepted { job: 9 },
        Response::Rejected { retry_after_ms: 5 },
        Response::ShedDeadline {
            predicted_wait_ms: 1200,
        },
        Response::Status {
            job: 2,
            state: JobState::Running,
        },
        Response::JobResult {
            job: 3,
            ok: true,
            wall_us: 4242,
            detail: "verified: zeta 8.5971775078648".into(),
        },
        Response::Stats {
            json: "{\"jobs\":{\"done\":3}}".into(),
        },
        Response::Pong,
        Response::Draining { outstanding: 4 },
        Response::Restarting { workers: 2 },
        Response::Error {
            code: ErrorCode::BadFrame,
            msg: "frame length 70000 exceeds 65536".into(),
        },
    ]
}

fn to_workers() -> Vec<ToWorker> {
    let mut out: Vec<ToWorker> = specs()
        .into_iter()
        .map(|spec| ToWorker::Dispatch { job: 11, spec })
        .collect();
    out.extend([
        ToWorker::Cancel {
            job: 12,
            deadline: true,
        },
        ToWorker::Release { slot: 31 },
        ToWorker::Exit,
    ]);
    out
}

fn to_routers() -> Vec<ToRouter> {
    let done = |slot, detail: &[u8]| ToRouter::Done {
        job: 13,
        state: JobState::Done,
        ok: true,
        wall_us: 99,
        slot,
        len: detail.len() as u32,
        inline: if slot == SLOT_INLINE {
            detail.to_vec()
        } else {
            Vec::new()
        },
    };
    vec![
        ToRouter::Hello {
            worker: 1,
            pid: 4321,
            rmem_id: 77,
        },
        ToRouter::Heartbeat {
            seq: 5,
            executed: 6,
            activity: 7,
        },
        done(SLOT_INLINE, b"inline detail"),
        done(4, &[0u8; 300]),
        done(SLOTS - 1, &[]),
    ]
}

/// Values a rewritten length-like field takes: the edges of both
/// protocols' bounds and of the slot table, and the input's own length.
fn length_values(len: usize) -> [u32; 10] {
    [
        0,
        1,
        len as u32,
        len as u32 + 1,
        MAX_FRAME as u32,
        MAX_FRAME as u32 + 1,
        SLOTS,
        SLOT_BYTES + 1,
        SLOT_INLINE - 1,
        u32::MAX,
    ]
}

/// One to three random edits of `input`; splices draw from `corpus`.
fn mutate(rng: &mut SmallRng, input: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.gen_range(1, 4) {
        let at = rng.gen_index(0, out.len() + 1);
        match rng.gen_index(0, 6) {
            0 if at < out.len() => out[at] ^= 1 << rng.gen_index(0, 8),
            1 if at < out.len() => out[at] = [0, 1, 0x7F, 0x80, 0xFF][rng.gen_index(0, 5)],
            2 => out.truncate(at),
            3 => {
                let other = &corpus[rng.gen_index(0, corpus.len())];
                out.truncate(at);
                out.extend_from_slice(&other[rng.gen_index(0, other.len() + 1)..]);
            }
            4 => {
                let n = rng.gen_index(1, 9);
                let junk: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                out.splice(at..at, junk);
            }
            _ => {
                let values = length_values(out.len());
                let v = values[rng.gen_index(0, values.len())].to_be_bytes();
                let at = at.min(out.len().saturating_sub(4));
                let end = (at + 4).min(out.len());
                out.splice(at..end, v);
            }
        }
    }
    out
}

/// Decode `ITERATIONS` mutants of `corpus` through `check`, reporting
/// the first panic with its seed and iteration.
fn fuzz(target: u64, name: &str, corpus: &[Vec<u8>], check: impl Fn(&mut SmallRng, &[u8])) {
    let seed = SEED + target;
    let mut rng = SmallRng::seed_from_u64(seed);
    let run = |rng: &mut SmallRng, at: String, input: &[u8]| {
        if catch_unwind(AssertUnwindSafe(|| check(rng, input))).is_err() {
            panic!("fuzz {name}: seed {seed:#x} {at}: input {input:02x?}");
        }
    };
    for (k, entry) in corpus.iter().enumerate() {
        run(&mut rng, format!("corpus entry {k}"), entry);
    }
    for i in 0..ITERATIONS {
        let base = &corpus[rng.gen_index(0, corpus.len())];
        let input = mutate(&mut rng, base, corpus);
        run(&mut rng, format!("iteration {i}"), &input);
    }
}

/// `ITERATIONS` is large enough that a planted out-of-bounds slice in a
/// decoder shows up; each target also replays its corpus unmutated.
#[test]
fn request_decoder_survives_mutants() {
    let corpus: Vec<Vec<u8>> = requests()
        .iter()
        .map(|r| r.encode()[4..].to_vec())
        .collect();
    fuzz(0, "Request", &corpus, |_, body| {
        if let Ok(req) = Request::decode(body) {
            assert_eq!(Request::decode(&req.encode()[4..]), Ok(req));
        }
    });
}

#[test]
fn response_decoder_survives_mutants() {
    let corpus: Vec<Vec<u8>> = responses()
        .iter()
        .map(|r| r.encode()[4..].to_vec())
        .collect();
    fuzz(1, "Response", &corpus, |_, body| {
        if let Ok(resp) = Response::decode(body) {
            assert_eq!(Response::decode(&resp.encode()[4..]), Ok(resp));
        }
    });
}

#[test]
fn to_worker_decoder_survives_mutants() {
    let corpus: Vec<Vec<u8>> = to_workers().iter().map(ToWorker::encode).collect();
    fuzz(2, "ToWorker", &corpus, |_, body| {
        if let Ok(msg) = ToWorker::decode(body) {
            assert_eq!(ToWorker::decode(&msg.encode()), Ok(msg));
        }
    });
}

#[test]
fn to_router_decoder_survives_mutants() {
    let corpus: Vec<Vec<u8>> = to_routers().iter().map(ToRouter::encode).collect();
    fuzz(3, "ToRouter", &corpus, |_, body| {
        let Ok(msg) = ToRouter::decode(body) else {
            return;
        };
        // Whatever is accepted reads inside one rmem slot, or inline.
        if let ToRouter::Done {
            slot, len, inline, ..
        } = &msg
        {
            let inline_ok = *slot == SLOT_INLINE && *len as usize == inline.len();
            let slot_ok = *slot < SLOTS && *len <= SLOT_BYTES && inline.is_empty();
            assert!(inline_ok || slot_ok, "{msg:?}");
        }
        assert_eq!(ToRouter::decode(&msg.encode()), Ok(msg));
    });
}

/// How a byte stream ends for a frame reader.
#[derive(Debug, PartialEq)]
enum End<E> {
    /// At a frame boundary.
    Clean,
    /// Inside a frame.
    Partial,
    /// At a prefix the protocol forbids.
    Refused(E),
}

/// The one-shot blocking reader's view of `stream`.
fn read_all<F: Framing>(stream: &[u8]) -> (Vec<Vec<u8>>, End<F::Error>) {
    let mut r = stream;
    let mut frames = Vec::new();
    loop {
        match frame::read_frame::<F>(&mut r) {
            Ok(Some(body)) => frames.push(body),
            Ok(None) => return (frames, End::Clean),
            Err(ReadError::Proto(e)) => return (frames, End::Refused(e)),
            Err(ReadError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                return (frames, End::Partial);
            }
        }
    }
}

/// The incremental buffer's view of `stream`, fed in random pieces.
fn feed_split<F: Framing>(rng: &mut SmallRng, stream: &[u8]) -> (Vec<Vec<u8>>, End<F::Error>) {
    let mut fb = FrameBuf::<F>::new();
    let mut frames = Vec::new();
    let mut at = 0;
    while at < stream.len() {
        let n = rng.gen_index(1, 24).min(stream.len() - at);
        fb.extend(&stream[at..at + n]);
        at += n;
        loop {
            match fb.next_frame() {
                Ok(Some(body)) => frames.push(body),
                Ok(None) => break,
                Err(e) => return (frames, End::Refused(e)),
            }
        }
    }
    let end = if fb.pending() == 0 {
        End::Clean
    } else {
        End::Partial
    };
    (frames, end)
}

/// A stream of two to five corpus frames.
fn frame_streams(corpus: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    (0..16)
        .map(|_| {
            (0..rng.gen_index(2, 6))
                .flat_map(|_| frame::encode(&corpus[rng.gen_index(0, corpus.len())]))
                .collect()
        })
        .collect()
}

#[test]
fn frame_buffer_matches_the_blocking_reader_at_any_split() {
    let serve: Vec<Vec<u8>> = requests()
        .iter()
        .map(|r| r.encode()[4..].to_vec())
        .chain(responses().iter().map(|r| r.encode()[4..].to_vec()))
        .collect();
    fuzz(4, "serve frames", &frame_streams(&serve), |rng, stream| {
        let (frames, end) = feed_split::<ServeFraming>(rng, stream);
        assert_eq!((frames.clone(), end), read_all::<ServeFraming>(stream));
        for body in frames {
            let _ = Request::decode(&body);
            let _ = Response::decode(&body);
        }
    });
    let wire: Vec<Vec<u8>> = to_workers()
        .iter()
        .map(ToWorker::encode)
        .chain(to_routers().iter().map(ToRouter::encode))
        .chain([Vec::new()])
        .collect();
    fuzz(5, "wire frames", &frame_streams(&wire), |rng, stream| {
        let (frames, end) = feed_split::<WireFraming>(rng, stream);
        assert_eq!((frames.clone(), end), read_all::<WireFraming>(stream));
        for body in frames {
            let _ = ToWorker::decode(&body);
            let _ = ToRouter::decode(&body);
        }
    });
}
