//! Reactor-focused tests: frame reassembly at arbitrary split points,
//! short-write preservation, garbage resilience, protocol pipelining with
//! server-push `await` results, and the multi-reactor configuration.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mca_sync::SmallRng;
use romp::{BackendKind, Runtime};
use romp_epcc::Construct;
use romp_serve::reactor::{Fill, Flush, RecvBuf, SendBuf};
use romp_serve::{
    Client, ClientError, ErrorCode, JobSpec, Request, Response, ServeConfig, Server, ServerHandle,
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

/// A representative request of each shape, for stream-building.
fn sample_request(rng: &mut SmallRng) -> Request {
    match rng.gen_index(0, 6) {
        0 => Request::Submit {
            spec: tiny_job(),
            deadline_ms: rng.next_u64() as u32 % 1000,
            idem_key: rng.next_u64(),
            affinity: rng.next_u64(),
            priority: (rng.next_u64() % 3) as u8,
        },
        1 => Request::Poll {
            job: rng.next_u64() % 100,
        },
        2 => Request::Fetch {
            job: rng.next_u64() % 100,
        },
        3 => Request::Await {
            job: rng.next_u64() % 100,
        },
        4 => Request::Ping,
        _ => Request::Stats,
    }
}

/// Property: for any chunking of the byte stream — including one byte at
/// a time — the reassembled frame sequence is exactly the sent sequence.
#[test]
fn recv_buf_reassembles_across_arbitrary_split_points() {
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0000 + seed);
        let requests: Vec<Request> = (0..64).map(|_| sample_request(&mut rng)).collect();
        let mut wire = Vec::new();
        for r in &requests {
            wire.extend_from_slice(&r.encode());
        }
        // Seed 0 degenerates to strict byte-at-a-time; the rest use
        // random chunk sizes from 1 to 16 bytes.
        let mut rb = RecvBuf::new();
        let mut decoded = Vec::new();
        let mut at = 0usize;
        while at < wire.len() {
            let step = if seed == 0 {
                1
            } else {
                rng.gen_index(1, 17).min(wire.len() - at)
            };
            rb.extend(&wire[at..at + step]);
            at += step;
            while let Some(body) = rb.next_frame().expect("well-formed stream") {
                decoded.push(Request::decode(&body).expect("round trip"));
            }
        }
        assert_eq!(rb.pending(), 0, "no residue after a whole stream");
        assert_eq!(decoded, requests, "seed {seed}");
    }
}

/// A writer that accepts only a few bytes per call and interleaves
/// `WouldBlock`, i.e. the worst legal behaviour of a non-blocking socket.
struct TrickleSink {
    rng: SmallRng,
    got: Vec<u8>,
}

impl Write for TrickleSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.rng.gen_index(0, 4) == 0 {
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        }
        let n = self.rng.gen_index(1, 8).min(buf.len());
        self.got.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Property: short writes and spurious `WouldBlock` never lose, reorder,
/// or duplicate bytes in the send buffer.
#[test]
fn send_buf_survives_short_writes() {
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(0xbeef ^ seed);
        let mut expected = Vec::new();
        let mut sb = SendBuf::new();
        let mut sink = TrickleSink {
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(2654435761)),
            got: Vec::new(),
        };
        for _ in 0..40 {
            let frame = sample_request(&mut rng).encode();
            expected.extend_from_slice(&frame);
            sb.queue(&frame);
            // Interleave partial flushes with queueing.
            if rng.gen_index(0, 2) == 0 {
                let _ = sb.flush_to(&mut sink).unwrap();
            }
        }
        loop {
            match sb.flush_to(&mut sink).unwrap() {
                Flush::Drained => break,
                Flush::Blocked => continue,
            }
        }
        assert!(sb.is_empty());
        assert_eq!(sink.got, expected, "seed {seed}");
    }
}

/// Garbage bytes must never panic the decoders: every outcome is either
/// a decoded (possibly meaningless) frame or a typed protocol error.
/// Each seed feeds two streams: uniform random bytes (which exercise the
/// length-prefix guard, since a random prefix almost never fits under
/// the cap) and in-range prefixes of 1..=64 over random bodies, which
/// reach `Request::decode` and `Response::decode` — the latter is what
/// the client core parses.
#[test]
fn garbage_input_never_panics_decoder() {
    for seed in 0..50u64 {
        let mut rng = SmallRng::seed_from_u64(0xda7a ^ seed);
        let mut decoded = 0u32;
        let mut rb = RecvBuf::new();
        'stream: for _ in 0..200 {
            let n = rng.gen_index(1, 64);
            let chunk: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            rb.extend(&chunk);
            loop {
                match rb.next_frame() {
                    Ok(Some(body)) => {
                        // A frame that happened to parse; decoding may
                        // fail but must not panic.
                        let _ = Request::decode(&body);
                        let _ = Response::decode(&body);
                        decoded += 1;
                    }
                    Ok(None) => break,
                    Err(_) => break 'stream, // stream out of sync: drop conn
                }
            }
        }
        let mut rb = RecvBuf::new();
        for _ in 0..200 {
            let len = rng.gen_index(1, 65);
            rb.extend(&(len as u32).to_be_bytes());
            let body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            rb.extend(&body);
            let frame = rb.next_frame().expect("in-range prefix");
            let frame = frame.expect("whole frame buffered");
            assert_eq!(frame, body, "seed {seed}");
            let _ = Request::decode(&frame);
            let _ = Response::decode(&frame);
            decoded += 1;
        }
        assert!(decoded > 0, "seed {seed} never reached the decoders");
    }
}

/// A live server fed raw garbage answers with a typed error (or closes)
/// and never panics; a fresh client still gets service afterwards.
#[test]
fn garbage_over_tcp_is_survivable() {
    let handle = start_native(ServeConfig::default());
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0x6a5b ^ seed);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let n = rng.gen_index(5, 300);
        let junk: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = s.write_all(&junk);
        let _ = s.flush();
        // Server either answers BadFrame then closes, or just closes;
        // read to EOF without asserting which.
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
    }
    // Sanity: service is still healthy.
    let mut c = Client::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    let job = match c.submit(&tiny_job()).unwrap() {
        romp_serve::SubmitOutcome::Accepted(job) => job,
        other => panic!("unexpected: {other:?}"),
    };
    let out = c.wait_result(job, Duration::from_secs(30)).unwrap();
    assert!(out.ok, "{}", out.detail);
    c.shutdown().unwrap();
    assert_eq!(handle.join().dropped, 0);
}

/// The tentpole behaviour: many in-flight submit+await pairs on a single
/// connection, results pushed by the server as jobs finish.
#[test]
fn pipelined_awaits_on_one_connection() {
    let handle = start_native(ServeConfig {
        queue_cap: 64,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    const N: usize = 16;
    let mut pending: Vec<u64> = Vec::new();
    let mut results = 0usize;
    for _ in 0..N {
        c.send(&Request::Submit {
            spec: tiny_job(),
            deadline_ms: 0,
            idem_key: 0,
            affinity: 0,
            priority: 0,
        })
        .unwrap();
        // Submission answers are request-ordered; results interleave.
        let job = loop {
            match c.recv().unwrap() {
                Response::JobResult {
                    job, ok, detail, ..
                } => {
                    assert!(pending.contains(&job), "unsolicited result {job}");
                    assert!(ok, "{detail}");
                    results += 1;
                }
                Response::Accepted { job } => break job,
                other => panic!("unexpected submit answer: {other:?}"),
            }
        };
        pending.push(job);
        c.send(&Request::Await { job }).unwrap();
    }
    while results < N {
        match c.recv().unwrap() {
            Response::JobResult {
                job, ok, detail, ..
            } => {
                assert!(pending.contains(&job), "unsolicited result {job}");
                assert!(ok, "{detail}");
                results += 1;
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    c.shutdown().unwrap();
    assert_eq!(handle.join().dropped, 0, "drain loses nothing");
}

/// EOF with more frames buffered than one decode pass handles (the
/// 4096-frame fairness cap) must still answer every request before
/// closing: the close contract is "buffered frames are handled", not
/// "whatever the first pass got to".
#[test]
fn eof_after_deep_pipeline_answers_every_buffered_frame() {
    let handle = start_native(ServeConfig::default());
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    const N: usize = 4200; // > the per-pass fairness bound of 4096
    let ping = Request::Ping.encode();
    let mut wire = Vec::with_capacity(ping.len() * N);
    for _ in 0..N {
        wire.extend_from_slice(&ping);
    }
    s.write_all(&wire).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rb = RecvBuf::new();
    let mut got = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        while let Some(body) = rb.next_frame().unwrap() {
            match Response::decode(&body).unwrap() {
                Response::Pong => got += 1,
                other => panic!("unexpected answer to ping: {other:?}"),
            }
        }
        let n = s.read(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        rb.extend(&buf[..n]);
    }
    assert_eq!(got, N, "every pipelined frame answered before the close");
    let mut c = Client::connect(handle.addr()).unwrap();
    c.shutdown().unwrap();
    assert_eq!(handle.join().dropped, 0);
}

/// A write-backpressured connection whose peer then only *reads* must
/// still get every buffered request decoded: once flushing drains the
/// write buffer below the cap, the reactor re-passes on its own — under
/// edge triggering no further epoll event will announce the bytes
/// already sitting in rbuf.
#[test]
fn backpressure_deferral_resumes_without_new_input() {
    let handle = start_native(ServeConfig::default());
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Burst enough requests that the staged responses overrun the
    // 256 KiB write cap while later frames are still undecoded, then
    // send nothing further and just read.
    const N: usize = 6000;
    let stats = Request::Stats.encode();
    let mut wire = Vec::with_capacity(stats.len() * N);
    for _ in 0..N {
        wire.extend_from_slice(&stats);
    }
    s.write_all(&wire).unwrap();
    // Let the server quiesce in the deferred state (write buffer capped,
    // undecoded frames buffered, no events pending) before draining, so
    // resumption can only come from the reactor's own re-pass.
    std::thread::sleep(Duration::from_millis(300));
    let mut rb = RecvBuf::new();
    let mut got = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    while got < N {
        while let Some(body) = rb.next_frame().unwrap() {
            match Response::decode(&body).unwrap() {
                Response::Stats { .. } => got += 1,
                other => panic!("unexpected answer to stats: {other:?}"),
            }
        }
        if got >= N {
            break;
        }
        let n = s.read(&mut buf).unwrap();
        assert_ne!(n, 0, "server closed early after {got}/{N} responses");
        rb.extend(&buf[..n]);
    }
    drop(s);
    let mut c = Client::connect(handle.addr()).unwrap();
    c.shutdown().unwrap();
    assert_eq!(handle.join().dropped, 0);
}

/// `await` on a job the server never issued answers `UnknownJob`, and a
/// second `await` of a consumed result does too (the entry is gone).
#[test]
fn await_unknown_and_consumed_jobs() {
    let handle = start_native(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    match c.await_result(0xdead_beef) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownJob,
            ..
        }) => {}
        other => panic!("await of unknown job: {other:?}"),
    }
    let job = match c.submit(&tiny_job()).unwrap() {
        romp_serve::SubmitOutcome::Accepted(job) => job,
        other => panic!("unexpected: {other:?}"),
    };
    let out = c.await_result(job).unwrap();
    assert!(out.ok, "{}", out.detail);
    match c.await_result(job) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownJob,
            ..
        }) => {}
        other => panic!("await after consumption: {other:?}"),
    }
    c.shutdown().unwrap();
    assert_eq!(handle.join().dropped, 0);
}

/// One reactor serves several concurrent connections that submit and
/// await, and drains cleanly.
#[test]
fn multi_reactor_smoke() {
    let handle = start_native(ServeConfig {
        queue_cap: 32,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr.as_str()).unwrap();
                for _ in 0..3 {
                    let (job, _) = c
                        .submit_with_retry(&tiny_job(), Duration::from_secs(30))
                        .unwrap()
                        .expect("not draining");
                    let out = c.await_result(job).unwrap();
                    assert!(out.ok, "{}", out.detail);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let mut c = Client::connect(handle.addr()).unwrap();
    c.shutdown().unwrap();
    assert_eq!(
        handle.join().dropped,
        0,
        "multi-reactor drain loses nothing"
    );
}

/// The reactor metrics show up in the stats JSON.
#[test]
fn reactor_metrics_in_stats() {
    let handle = start_native(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let job = match c.submit(&tiny_job()).unwrap() {
        romp_serve::SubmitOutcome::Accepted(job) => job,
        other => panic!("unexpected: {other:?}"),
    };
    let out = c.await_result(job).unwrap();
    assert!(out.ok);
    let stats = c.stats().unwrap();
    for key in [
        "serve.reactor.wakeups",
        "serve.reactor.events_per_wakeup",
        "serve.reactor.batch_size",
        "serve.reactor.connections",
        "serve.req.await",
    ] {
        assert!(stats.contains(key), "stats missing {key}: {stats}");
    }
    c.shutdown().unwrap();
    assert_eq!(handle.join().dropped, 0);
}

/// `Fill` is exercised against a reader that returns partial chunks.
struct TrickleSource {
    data: Vec<u8>,
    at: usize,
    rng: SmallRng,
}

impl Read for TrickleSource {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.at >= self.data.len() {
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        }
        let n = self
            .rng
            .gen_index(1, 5)
            .min(buf.len())
            .min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// `fill_from` keeps reading until `WouldBlock` and decodes everything
/// that arrived, regardless of how the transport fragments it.
#[test]
fn fill_from_reads_until_wouldblock() {
    let mut rng = SmallRng::seed_from_u64(77);
    let requests: Vec<Request> = (0..32).map(|_| sample_request(&mut rng)).collect();
    let mut wire = Vec::new();
    for r in &requests {
        wire.extend_from_slice(&r.encode());
    }
    let mut src = TrickleSource {
        data: wire,
        at: 0,
        rng: SmallRng::seed_from_u64(78),
    };
    let mut rb = RecvBuf::new();
    assert!(matches!(rb.fill_from(&mut src).unwrap(), Fill::WouldBlock));
    let mut decoded = Vec::new();
    while let Some(body) = rb.next_frame().unwrap() {
        decoded.push(Request::decode(&body).unwrap());
    }
    assert_eq!(decoded, requests);
}
