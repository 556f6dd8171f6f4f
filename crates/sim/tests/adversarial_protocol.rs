//! Protocol robustness properties: the frame decoder and request router
//! must survive *arbitrary* byte streams — split at any boundary,
//! truncated, corrupted, or mangled by the adversarial link mode — with
//! typed errors, never a panic, and reassembly must be
//! split-invariant.

use mca_platform::VirtualClock;
use mca_sync::SmallRng;
use romp_epcc::Construct;
use romp_serve::reactor::RecvBuf;
use romp_serve::session::{route_frames, PendingResp, ServeCore, Session};
use romp_serve::{DedupConfig, JobSpec, Request};
use romp_sim::net::{LinkDir, Payload};
use romp_sim::{SimCore, SimCoreConfig};

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Submit {
            spec: JobSpec::Epcc {
                construct: Construct::Barrier,
                threads: 2,
                inner_reps: 8,
            },
            deadline_ms: 250,
            idem_key: 0xDEAD_BEEF,
            affinity: 0x5EED,
            priority: 1,
        },
        Request::Ping,
        Request::Poll { job: 1 },
        Request::Stats,
        Request::Fetch { job: 99 },
        Request::Cancel { job: 1 },
    ]
}

/// The reference stream: several valid frames back to back.
fn sample_stream() -> Vec<u8> {
    let mut bytes = Vec::new();
    for req in sample_requests() {
        bytes.extend_from_slice(&req.encode());
    }
    bytes
}

/// Decode everything currently buffered, panicking only on a decoder
/// panic (errors are collected, not fatal).
fn drain(rbuf: &mut RecvBuf) -> (Vec<Vec<u8>>, usize) {
    let mut bodies = Vec::new();
    let mut errors = 0;
    loop {
        match rbuf.next_frame() {
            Ok(Some(body)) => bodies.push(body),
            Ok(None) => break,
            Err(_) => {
                // Typed ProtoError: the stream is untrusted from here.
                errors += 1;
                break;
            }
        }
    }
    (bodies, errors)
}

#[test]
fn reassembly_is_split_invariant_at_every_byte_boundary() {
    let stream = sample_stream();
    let mut reference = RecvBuf::new();
    reference.extend(&stream);
    let (want, errs) = drain(&mut reference);
    assert_eq!(errs, 0);
    assert_eq!(want.len(), sample_requests().len());

    for split in 1..stream.len() {
        let mut rbuf = RecvBuf::new();
        rbuf.extend(&stream[..split]);
        let (mut got, e1) = drain(&mut rbuf);
        rbuf.extend(&stream[split..]);
        let (rest, e2) = drain(&mut rbuf);
        got.extend(rest);
        assert_eq!(e1 + e2, 0, "split at {split} produced a frame error");
        assert_eq!(got, want, "split at {split} changed the decoded frames");
    }
}

#[test]
fn truncation_at_every_byte_boundary_stays_typed() {
    let stream = sample_stream();
    for cut in 0..stream.len() {
        let mut rbuf = RecvBuf::new();
        rbuf.extend(&stream[..cut]);
        let (bodies, _errors) = drain(&mut rbuf);
        // Complete frames in the prefix must still decode as requests;
        // the dangling tail is simply incomplete — never a panic.
        for body in &bodies {
            Request::decode(body).expect("intact prefix frame decodes");
        }
        assert!(bodies.len() <= sample_requests().len());
    }
}

#[test]
fn single_byte_corruption_yields_ok_or_typed_error_never_panic() {
    let stream = sample_stream();
    for pos in 0..stream.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut bad = stream.clone();
            bad[pos] ^= flip;
            let mut rbuf = RecvBuf::new();
            rbuf.extend(&bad);
            // Corrupting a length prefix may desync everything after it;
            // corrupting a body must surface as a typed decode error (or
            // a different-but-valid request).  Either way: no panic.
            let (bodies, _errors) = drain(&mut rbuf);
            for body in &bodies {
                let _ = Request::decode(body);
            }
        }
    }
}

#[test]
fn adversarial_link_into_real_session_stays_typed() {
    let mut total_responses = 0u64;
    let mut total_proto_errors = 0u64;
    for seed in 1..=100u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vclock = VirtualClock::new(0);
        let core = SimCore::new(
            vclock.clock(),
            SimCoreConfig {
                queue_cap: 8,
                default_deadline_ms: 0,
                shed: false,
                dedup: DedupConfig {
                    cap: 64,
                    ttl_ns: 1_000_000_000,
                },
            },
        );
        let mut sess = Session::new();
        let mut link = LinkDir::new(1_000, 50_000);

        // A mix of valid frames and hostile garbage, all mangled by the
        // adversarial link (chunked, dropped, duplicated, reordered).
        let mut wire = Vec::new();
        for req in sample_requests() {
            wire.extend_from_slice(&req.encode());
        }
        let garbage_len = rng.gen_index(1, 48);
        for _ in 0..garbage_len {
            wire.push(rng.gen_range(0, 256) as u8);
        }
        let mut deliveries = link.send_adversarial(0, &mut rng, &wire);
        deliveries.sort_by_key(|(at, _)| *at);

        for (_at, payload) in deliveries {
            let Payload::Bytes(bytes) = payload else {
                continue;
            };
            sess.rbuf.extend(&bytes);
            if sess.closed || sess.close_after_flush {
                // Hostile prefix already condemned the stream; the
                // transport would stop reading.
                continue;
            }
            let mut batch = Vec::new();
            let mut parked = Vec::new();
            let slots = route_frames(&core, &mut sess, &mut batch, &mut parked);
            let admitted = core.admit_batch(batch);
            for slot in slots {
                total_responses += 1;
                match slot {
                    PendingResp::Ready(resp) => {
                        let _ = resp.encode();
                    }
                    PendingResp::Submit(i) => {
                        let _ = admitted[i].encode();
                    }
                }
            }
            // No Await requests in the sample set: nothing may park.
            assert!(parked.is_empty());
        }
        sess.eof = true;
        sess.arm_close_if_quiescent();
        total_proto_errors += core.state().metrics().proto_errors.get();
    }
    // The sweep must both answer real requests and detect garbage.
    assert!(total_responses > 0, "no request ever got a response");
    assert!(
        total_proto_errors > 0,
        "garbage never tripped a typed error"
    );
}
