//! The clients.
//!
//! * [`Client`] — the blocking client: one TCP connection,
//!   request/response framing, and the submit-retry-poll-fetch
//!   convenience calls the tests and operator tools use;
//! * [`ClientCore`] — the one load-driving client: a sans-IO state
//!   machine that checks every response, with the job stream, pipeline
//!   window, arrival schedule and cancel policy as [`ClientProfile`]
//!   fields and its counts in a [`Tally`];
//! * [`drive`] — runs [`ClientCore`]s over blocking sockets, one thread
//!   per client (`loadgen`, the chaos-test load drivers); `romp-sim`
//!   drives the same core on virtual time.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use mca_sync::SmallRng;

use crate::job::{JobOutcome, JobSpec, JobState};
use crate::protocol::{read_frame, write_frame, ErrorCode, FrameError, Request, Response};

mod drive;
mod machine;

pub use drive::drive;
pub use machine::{ClientCmd, ClientCore, ClientProfile, Hammer, JobStream, LaneTally, Tally};

/// A jitter source seeded from wall-clock entropy and `salt`, so many
/// clients backing off from the same event do not re-collide in lockstep.
fn jitter_rng(salt: u64) -> SmallRng {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    SmallRng::seed_from_u64(
        salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ nanos ^ u64::from(std::process::id()),
    )
}

/// `base/2 + uniform(0, base)` — ±50% jitter around `base`.
fn jittered(rng: &mut SmallRng, base: u64) -> u64 {
    base / 2 + rng.gen_range(0, base.max(1))
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, truncated frame).
    Io(std::io::Error),
    /// The server answered with bytes the protocol cannot decode.
    Proto(String),
    /// The server closed the connection mid-conversation.
    Closed,
    /// A structurally valid response that makes no sense for the request
    /// (e.g. `Pong` to `Submit`).
    Unexpected(Response),
    /// The server refused with a typed error.
    Server {
        /// The refusal code.
        code: ErrorCode,
        /// Server-provided detail.
        msg: String,
    },
    /// Admission control predicted the job would miss its deadline and
    /// shed it.  Distinct from `Rejected` backpressure: retrying the same
    /// deadline into the same backlog cannot help, so the retry loop
    /// surfaces this immediately instead of burning its budget.
    Shed {
        /// The wait the server predicted, milliseconds.
        predicted_wait_ms: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(m) => write!(f, "protocol: {m}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Unexpected(r) => write!(f, "unexpected response: {r:?}"),
            ClientError::Server { code, msg } => write!(f, "server error {code:?}: {msg}"),
            ClientError::Shed { predicted_wait_ms } => write!(
                f,
                "shed at admission: predicted wait {predicted_wait_ms}ms exceeds deadline slack"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// What `submit` can come back with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted under this id.
    Accepted(u64),
    /// Backpressured; retry after the given delay.
    Rejected {
        /// Server's backoff hint, milliseconds.
        retry_after_ms: u32,
    },
    /// The server is draining and takes no new work.
    Draining,
    /// Shed at admission: the predicted queue wait exceeds the job's
    /// deadline slack.  Unlike `Rejected` there is no point retrying
    /// with the same deadline — lower the load or loosen the deadline.
    ShedDeadline {
        /// The wait the server predicted, milliseconds.
        predicted_wait_ms: u32,
    },
}

/// Per-submission options (see [`crate::Request::Submit`] for the wire
/// semantics of each field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Deadline in milliseconds from admission; `0` = server default.
    pub deadline_ms: u32,
    /// Idempotency key; non-zero makes the submission safely retryable
    /// (a duplicate returns the original job id).  `0` disables it.
    pub idem_key: u64,
    /// Affinity key; non-zero pins the job's tasks to one runtime shard
    /// so related jobs share caches.  `0` = no preference.
    pub affinity: u64,
    /// Scheduling lane: `0` = Normal (default), `1` = Hi, `2`+ = Batch.
    pub priority: u8,
}

/// A connected client (one TCP stream, used serially).
pub struct Client {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let addr = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Client {
            addr,
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Replace a broken stream with a fresh connection to the same server.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    /// Send a request without waiting for its response — the pipelining
    /// half-step.  Pair with [`Client::recv`]; responses to sync requests
    /// arrive in request order, `Await` responses in completion order
    /// (correlate by job id — see [`crate::Request::Await`]).
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &req.encode())?;
        Ok(())
    }

    /// Receive the next response frame (blocking).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let body = match read_frame(&mut self.reader) {
            Ok(Some(b)) => b,
            Ok(None) => return Err(ClientError::Closed),
            Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            Err(FrameError::Proto(e)) => return Err(ClientError::Proto(e.to_string())),
        };
        Response::decode(&body).map_err(|e| ClientError::Proto(e.to_string()))
    }

    /// One request/response round trip.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }

    /// `call` for requests that are safe to repeat (polls, cancels,
    /// keyed submits): a transient transport failure reconnects with
    /// jittered exponential backoff and resends, a few times, before
    /// giving up.  Server-level errors are returned immediately.
    fn call_retrying(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut rng = jitter_rng(0xC0FF_EE00);
        let mut backoff_ms = 1u64;
        let mut last = ClientError::Closed;
        for _ in 0..4 {
            match self.call(req) {
                Ok(resp) => return Ok(resp),
                Err(e @ (ClientError::Io(_) | ClientError::Closed)) => {
                    last = e;
                    std::thread::sleep(Duration::from_millis(jittered(&mut rng, backoff_ms)));
                    backoff_ms = (backoff_ms * 2).min(100);
                    // A failed reconnect leaves the old (broken) stream in
                    // place; the next attempt's `call` fails fast and we
                    // back off again.
                    let _ = self.reconnect();
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Submit a job with default options (no deadline override, no
    /// idempotency key; does not retry — see [`Client::submit_with_retry`]).
    pub fn submit(&mut self, spec: &JobSpec) -> Result<SubmitOutcome, ClientError> {
        self.submit_opts(spec, SubmitOptions::default())
    }

    /// Submit a job with explicit options.  With a non-zero
    /// `opts.idem_key` the request is resent across transient transport
    /// failures — the key guarantees at-most-once admission server-side.
    pub fn submit_opts(
        &mut self,
        spec: &JobSpec,
        opts: SubmitOptions,
    ) -> Result<SubmitOutcome, ClientError> {
        let req = Request::Submit {
            spec: *spec,
            deadline_ms: opts.deadline_ms,
            idem_key: opts.idem_key,
            affinity: opts.affinity,
            priority: opts.priority,
        };
        let resp = if opts.idem_key != 0 {
            self.call_retrying(&req)?
        } else {
            self.call(&req)?
        };
        match resp {
            Response::Accepted { job } => Ok(SubmitOutcome::Accepted(job)),
            Response::Rejected { retry_after_ms } => Ok(SubmitOutcome::Rejected { retry_after_ms }),
            Response::ShedDeadline { predicted_wait_ms } => {
                Ok(SubmitOutcome::ShedDeadline { predicted_wait_ms })
            }
            Response::Error {
                code: ErrorCode::Draining,
                ..
            } => Ok(SubmitOutcome::Draining),
            Response::Error { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Request cancellation; returns the job's state after the request
    /// took effect (`Cancelled`, `Cancelling`, or an unchanged terminal
    /// state — cancel is idempotent).
    pub fn cancel(&mut self, job: u64) -> Result<JobState, ClientError> {
        match self.call_retrying(&Request::Cancel { job })? {
            Response::Status { state, .. } => Ok(state),
            Response::Error { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Submit with bounded backoff on `Rejected`.  Returns the job id and
    /// how many rejections were absorbed, or `None` for a draining server.
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        max_wait: Duration,
    ) -> Result<Option<(u64, u32)>, ClientError> {
        self.submit_with_retry_opts(spec, SubmitOptions::default(), max_wait)
    }

    /// [`Client::submit_with_retry`] with explicit [`SubmitOptions`].
    pub fn submit_with_retry_opts(
        &mut self,
        spec: &JobSpec,
        opts: SubmitOptions,
        max_wait: Duration,
    ) -> Result<Option<(u64, u32)>, ClientError> {
        let deadline = Instant::now() + max_wait;
        let mut rng = jitter_rng(opts.idem_key ^ 0x5AB5_E77E);
        let mut rejections = 0u32;
        loop {
            match self.submit_opts(spec, opts)? {
                SubmitOutcome::Accepted(id) => return Ok(Some((id, rejections))),
                SubmitOutcome::Draining => return Ok(None),
                // A shed is a verdict, not backpressure: the same deadline
                // against the same backlog sheds again, so retrying here
                // would burn the whole budget learning nothing.
                SubmitOutcome::ShedDeadline { predicted_wait_ms } => {
                    return Err(ClientError::Shed { predicted_wait_ms });
                }
                SubmitOutcome::Rejected { retry_after_ms } => {
                    rejections += 1;
                    if Instant::now() >= deadline {
                        return Err(ClientError::Server {
                            code: ErrorCode::Draining,
                            msg: format!(
                                "admission retry budget exhausted after {rejections} rejections"
                            ),
                        });
                    }
                    // Honour the hint, capped so tests stay fast — and
                    // jittered: a rejection wave hands the same hint to
                    // every refused client, and without jitter they all
                    // come back in lockstep and collide again.
                    let base = u64::from(retry_after_ms.clamp(1, 250));
                    std::thread::sleep(Duration::from_millis(jittered(&mut rng, base)));
                }
            }
        }
    }

    /// Poll a job's state.
    pub fn poll(&mut self, job: u64) -> Result<JobState, ClientError> {
        match self.call_retrying(&Request::Poll { job })? {
            Response::Status { state, .. } => Ok(state),
            Response::Error { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Fetch (and consume) a finished job's result.
    pub fn fetch(&mut self, job: u64) -> Result<JobOutcome, ClientError> {
        match self.call(&Request::Fetch { job })? {
            Response::JobResult {
                ok,
                wall_us,
                detail,
                ..
            } => Ok(JobOutcome {
                ok,
                wall_us,
                detail,
            }),
            Response::Error { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Block server-side until the job finishes, then receive its result
    /// — one `Await` round trip, no polling.  The connection must have no
    /// other request in flight (use [`Client::send`]/[`Client::recv`]
    /// directly to pipeline awaits).
    pub fn await_result(&mut self, job: u64) -> Result<JobOutcome, ClientError> {
        match self.call(&Request::Await { job })? {
            Response::JobResult {
                ok,
                wall_us,
                detail,
                ..
            } => Ok(JobOutcome {
                ok,
                wall_us,
                detail,
            }),
            Response::Error { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Block until the job reaches a terminal state, then fetch its
    /// result.  Polls with jittered exponential backoff (100µs doubling
    /// to a 50ms cap) rather than a fixed-rate busy-poll, so a fleet of
    /// waiting clients does not hammer the server in lockstep; `timeout`
    /// bounds the total wait.
    pub fn wait_result(&mut self, job: u64, timeout: Duration) -> Result<JobOutcome, ClientError> {
        let deadline = Instant::now() + timeout;
        let mut rng = jitter_rng(job);
        let mut backoff_us = 100u64;
        loop {
            let state = self.poll(job)?;
            if state.terminal() {
                return self.fetch(job);
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Server {
                    code: ErrorCode::NotReady,
                    msg: format!("job {job} still {state:?} after {timeout:?}"),
                });
            }
            std::thread::sleep(Duration::from_micros(jittered(&mut rng, backoff_us)));
            backoff_us = (backoff_us * 2).min(50_000);
        }
    }

    /// The server's stats JSON.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            Response::Error { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Request a rolling restart of the worker pool (cluster mode);
    /// returns the number of workers being cycled.  A single-process
    /// server refuses with `BadPayload`.
    pub fn restart(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Restart)? {
            Response::Restarting { workers } => Ok(workers),
            Response::Error { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Request the graceful drain; returns the jobs still outstanding.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Draining { outstanding } => Ok(outstanding),
            Response::Error { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
