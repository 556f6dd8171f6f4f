//! End-to-end server tests over real TCP: admission control and
//! backpressure, graceful drain, malformed-frame handling, and response
//! routing under concurrent clients.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mca_sync::SmallRng;
use romp::{BackendKind, Runtime};
use romp_epcc::Construct;
use romp_npb::{Class, NpbKernel};
use romp_serve::{
    Client, ClientError, ErrorCode, JobLimits, JobSpec, Response, ServeConfig, Server,
    ServerHandle, SubmitOptions, SubmitOutcome,
};

fn start_native(cfg: ServeConfig) -> ServerHandle {
    let rt = Runtime::with_backend(BackendKind::Native).unwrap();
    Server::start("127.0.0.1:0", cfg, rt).unwrap()
}

fn tiny_job() -> JobSpec {
    JobSpec::Epcc {
        construct: Construct::Barrier,
        threads: 2,
        inner_reps: 2,
    }
}

/// A slower job, used to hold the dispatcher busy while the queue fills.
fn chunky_job() -> JobSpec {
    JobSpec::Npb {
        kernel: NpbKernel::Ep,
        class: Class::S,
        threads: 2,
    }
}

#[test]
fn submit_poll_fetch_roundtrip() {
    let handle = start_native(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    let (job, rejections) = c
        .submit_with_retry(&tiny_job(), Duration::from_secs(10))
        .unwrap()
        .expect("server not draining");
    assert_eq!(rejections, 0, "empty queue admits immediately");
    let out = c.wait_result(job, Duration::from_secs(30)).unwrap();
    assert!(out.ok, "{}", out.detail);
    // Fetch consumed the entry.
    match c.poll(job) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownJob,
            ..
        }) => {}
        other => panic!("fetched job still visible: {other:?}"),
    }
    c.shutdown().unwrap();
    let report = handle.join();
    assert_eq!(report.accepted, 1);
    assert_eq!(report.completed, 1);
    assert_eq!(report.dropped, 0);
}

/// A full queue must answer a well-formed `Rejected { retry_after_ms }`
/// immediately — not hang, not grow, not drop the connection — and later
/// submissions must succeed once the queue drains.
#[test]
fn full_queue_rejects_with_retry_after() {
    let handle = start_native(ServeConfig {
        queue_cap: 2,
        limits: JobLimits::default(),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    // Flood with slow jobs until a rejection arrives; the dispatcher can
    // pop at most one job at a time, so cap+2 submissions must overflow.
    let mut accepted = Vec::new();
    let mut saw_rejection = false;
    for _ in 0..64 {
        match c.submit(&chunky_job()).unwrap() {
            SubmitOutcome::Accepted(id) => accepted.push(id),
            SubmitOutcome::Rejected { retry_after_ms } => {
                assert!(retry_after_ms >= 1, "retry-after is a usable hint");
                assert!(retry_after_ms <= 10_000, "retry-after is bounded");
                saw_rejection = true;
                break;
            }
            SubmitOutcome::Draining => panic!("not draining"),
            SubmitOutcome::ShedDeadline { .. } => panic!("shedding is off by default"),
        }
    }
    assert!(saw_rejection, "a 2-slot queue must overflow under flood");
    // Every accepted job still completes and is fetchable.
    for id in &accepted {
        let out = c.wait_result(*id, Duration::from_secs(60)).unwrap();
        assert!(out.ok, "{}", out.detail);
    }
    // With the queue drained, admission works again.
    let again = c
        .submit_with_retry(&tiny_job(), Duration::from_secs(10))
        .unwrap();
    assert!(again.is_some());
    c.shutdown().unwrap();
    let report = handle.join();
    assert!(report.rejected >= 1);
    assert_eq!(report.dropped, 0);
}

/// Shutdown mid-stream: jobs accepted before the drain all complete; new
/// submissions are refused with the `Draining` error code.
#[test]
fn drain_completes_accepted_jobs_and_refuses_new_ones() {
    let handle = start_native(ServeConfig {
        queue_cap: 32,
        limits: JobLimits::default(),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut ids = Vec::new();
    for _ in 0..8 {
        if let SubmitOutcome::Accepted(id) = c.submit(&tiny_job()).unwrap() {
            ids.push(id);
        }
    }
    assert!(!ids.is_empty());
    let _outstanding = c.shutdown().unwrap();
    // Draining: no new work.
    match c.submit(&tiny_job()).unwrap() {
        SubmitOutcome::Draining => {}
        other => panic!("drain must refuse submissions, got {other:?}"),
    }
    // But every accepted job still completes and is fetchable.
    for id in ids {
        let out = c.wait_result(id, Duration::from_secs(60)).unwrap();
        assert!(out.ok, "{}", out.detail);
    }
    let report = handle.join();
    assert_eq!(report.dropped, 0, "graceful drain drops nothing");
    assert_eq!(report.completed, report.accepted);
}

/// Garbage bytes must get a typed error response (or a clean close),
/// never a panic, and must not damage service for well-formed clients.
#[test]
fn malformed_frames_are_rejected_without_harm() {
    let handle = start_native(ServeConfig::default());

    // 1. A hostile length prefix (larger than MAX_FRAME).
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(&(u32::MAX).to_be_bytes()).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).ok(); // server answers once, then closes
    drop(s);

    // 2. A well-framed body with an unknown opcode.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(&1u32.to_be_bytes()).unwrap();
    s.write_all(&[0x7E]).unwrap();
    match client_from(s) {
        Ok(Response::Error { code, .. }) => {
            assert!(matches!(code, ErrorCode::BadFrame | ErrorCode::BadPayload))
        }
        Ok(other) => panic!("expected error response, got {other:?}"),
        Err(e) => panic!("server must answer a framed unknown opcode: {e}"),
    }

    // 3. A truncated frame (length says 16, body delivers 3, then EOF).
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(&16u32.to_be_bytes()).unwrap();
    s.write_all(&[1, 2, 3]).unwrap();
    drop(s); // server sees UnexpectedEof and just closes

    // The server is still healthy for a real client.
    let mut c = Client::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    let (job, _) = c
        .submit_with_retry(&tiny_job(), Duration::from_secs(10))
        .unwrap()
        .unwrap();
    assert!(c.wait_result(job, Duration::from_secs(30)).unwrap().ok);
    c.shutdown().unwrap();
    let report = handle.join();
    assert!(report.proto_errors >= 2, "bad frames were counted");
    assert_eq!(report.dropped, 0);
}

/// Property: `Cancel` raced against every point in a job's lifecycle —
/// still queued behind a backed-up dispatcher, mid-dispatch, running,
/// already complete, already fetched — always leaves the job with
/// exactly one terminal outcome and perfect drain accounting.  Seeded,
/// so a failure reproduces.
#[test]
fn cancel_raced_against_every_job_state_settles_exactly_once() {
    let handle = start_native(ServeConfig {
        // A 4-slot queue plus slow-ish jobs keeps a healthy population of
        // *queued* jobs for cancels to race.
        queue_cap: 4,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x5EED_CA9C);
    let specs = [tiny_job(), chunky_job()];

    let mut accepted: Vec<u64> = Vec::new();
    let mut cancels = 0u64;
    for r in 0..48u64 {
        let spec = specs[rng.gen_index(0, specs.len())];
        let opts = SubmitOptions {
            deadline_ms: if rng.gen_index(0, 4) == 0 { 5_000 } else { 0 },
            idem_key: r + 1,
            affinity: r % 3,
            priority: (r % 3) as u8,
        };
        match c.submit_opts(&spec, opts).unwrap() {
            SubmitOutcome::Accepted(id) => accepted.push(id),
            SubmitOutcome::Rejected { .. } => {
                std::thread::sleep(Duration::from_millis(2));
            }
            SubmitOutcome::Draining => panic!("not draining"),
            SubmitOutcome::ShedDeadline { .. } => panic!("shedding is off by default"),
        }
        // Cancel a random earlier-or-current job at a random moment:
        // depending on the draw this races admission, dispatch,
        // execution, or completion.  Every draw is made whatever the
        // submit outcome, so the seed alone fixes the draw sequence (and
        // the first submit to the empty queue is always accepted).
        if rng.gen_index(0, 3) == 0 {
            let pick = rng.gen_index(0, accepted.len().max(1));
            let pause = Duration::from_micros(rng.gen_range(0, 500));
            // Sometimes cancel the same victim again: must stay
            // acknowledged, never flip a terminal state.
            let twice = rng.gen_index(0, 4) == 0;
            if let Some(&victim) = accepted.get(pick) {
                std::thread::sleep(pause);
                c.cancel(victim).unwrap();
                cancels += 1;
                if twice {
                    c.cancel(victim).unwrap();
                }
            }
        }
    }
    assert!(cancels > 0, "the seed must actually exercise cancellation");

    // Every accepted job reaches exactly one terminal outcome, and a
    // fetched job is gone (cancel afterwards is UnknownJob).
    for id in &accepted {
        let out = c.wait_result(*id, Duration::from_secs(60)).unwrap();
        if !out.ok {
            assert!(
                out.detail.contains("cancel")
                    || out.detail.contains("deadline")
                    || !out.detail.is_empty(),
                "losing outcome carries a reason: {out:?}"
            );
        }
        match c.cancel(*id) {
            Err(ClientError::Server {
                code: ErrorCode::UnknownJob,
                ..
            }) => {}
            other => panic!("cancel after fetch must be UnknownJob, got {other:?}"),
        }
    }

    c.shutdown().unwrap();
    let report = handle.join();
    assert_eq!(report.accepted, accepted.len() as u64, "{report:?}");
    assert_eq!(
        report.completed + report.failed + report.cancelled + report.timed_out,
        report.accepted,
        "every job settles exactly once: {report:?}"
    );
    assert_eq!(report.dropped, 0, "{report:?}");
}

/// Read one response frame off a raw stream.
fn client_from(stream: TcpStream) -> Result<Response, String> {
    let mut r = std::io::BufReader::new(stream);
    match romp_serve::protocol::read_frame(&mut r) {
        Ok(Some(body)) => Response::decode(&body).map_err(|e| e.to_string()),
        Ok(None) => Err("closed without answering".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Sixteen concurrent clients, each tagging its jobs with a distinct
/// thread count pattern: every response must route back to the client
/// that asked (no crosstalk between connections).
#[test]
fn concurrent_clients_never_see_misrouted_responses() {
    let handle = start_native(ServeConfig {
        queue_cap: 256,
        limits: JobLimits::default(),
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let clients: Vec<_> = (0..16)
        .map(|k| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                // Distinct inner_reps per client tags the job family.
                let spec = JobSpec::Epcc {
                    construct: Construct::Barrier,
                    threads: 2,
                    inner_reps: (k + 1) as u16,
                };
                for _ in 0..6 {
                    let Some((id, _)) =
                        c.submit_with_retry(&spec, Duration::from_secs(30)).unwrap()
                    else {
                        panic!("not draining");
                    };
                    let out = c.wait_result(id, Duration::from_secs(60)).unwrap();
                    assert!(out.ok);
                    // The detail embeds the inner_reps this client asked
                    // for; a misrouted response would carry another tag.
                    assert!(
                        out.detail.contains(&format!("x{}", k + 1)),
                        "client {k} got foreign result: {}",
                        out.detail
                    );
                }
            })
        })
        .collect();
    for h in clients {
        h.join().unwrap();
    }
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.contains("\"serve.latency.total_ns\""));
    c.shutdown().unwrap();
    let report = handle.join();
    assert_eq!(report.accepted, 96);
    assert_eq!(report.completed, 96);
    assert_eq!(report.dropped, 0);
}
