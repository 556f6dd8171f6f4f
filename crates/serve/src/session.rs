//! The serving engine between connection byte streams and the serving
//! core: one sans-IO state machine that the epoll reactor and the
//! deterministic simulator (`romp-sim`) both drive.
//!
//! The two drivers differ only in where events come from (socket
//! readiness vs. virtual-time deliveries) and what a transport is (a
//! `TcpStream` vs. a simulated link); everything a connection *does*
//! lives here, once:
//!
//! * [`ServeCore`] — what a connection needs from the serving stack.
//!   The production server and the simulator's core both hold one
//!   [`ServeState`] and implement only the hooks that differ; the
//!   request-routing *policy* (admission, idempotency, fetch/await
//!   consumption, cancel, drain) and the job-completion and watchdog
//!   bookkeeping live in this trait's provided methods.
//! * [`Session`] — one connection's transport-independent state: the
//!   [`RecvBuf`]/[`SendBuf`] pair plus the close/EOF/deferral flags.
//! * [`route_frames`] — decode-and-route every buffered frame on a
//!   session.
//! * [`Engine`] — the connection table and the parked `Await`s, and the
//!   lifecycle over them: the service pass (read, route, park, arm the
//!   EOF close, admit the pass's submits as one batch, stage responses
//!   in request order), completion delivery, flush with close-after-flush,
//!   the backpressure re-pass test and the shutdown answer.  It holds
//!   plain maps — no threads, locks or sockets — and is generic over the
//!   transport it reads and writes.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::ops::Bound;

use crate::job::{JobOutcome, JobState};
use crate::lifecycle::{CancelOutcome, Consumed, StageRefusal, SweepReport};
use crate::protocol::{ErrorCode, ProtoError, Request, Response};
use crate::queue::{lane_of, QueuedJob};
use crate::reactor::{Fill, Flush, RecvBuf, SendBuf};
use crate::state::ServeState;
use crate::JobSpec;

/// Per-connection write-buffer bound: past this, the connection is not
/// read or decoded until the peer drains responses (backpressure).
pub const WBUF_LIMIT: usize = 256 * 1024;

/// Bound on frames decoded from one connection in one service pass, so a
/// single flood cannot starve its neighbours within a wakeup.
pub const FRAMES_PER_PASS: usize = 4096;

/// How an `Await` request resolves right now.
pub enum AwaitDisposition {
    /// Answer immediately (terminal result consumed, or `UnknownJob`).
    Ready(Response),
    /// The job is live but not terminal: park the connection; the
    /// completion bus will answer it.
    Pending,
}

/// What one connection needs from the serving stack, implemented by the
/// production server's shared state and by the simulator's core.
///
/// The state and its bookkeeping live once, in [`ServeState`]; the
/// required methods are only the hooks that really differ between
/// implementors.  The provided methods are the serving *policy* — admission
/// with idempotency, batch admission bookkeeping, fetch/await
/// consumption, cancel semantics, drain, job completion and the
/// watchdog sweep — expressed once over the state and the hooks.
pub trait ServeCore {
    /// The shared serving state.
    fn state(&self) -> &ServeState;
    /// The serving runtime's activity counter (watchdog progress
    /// detection for the jobs it runs).
    fn activity(&self) -> u64;
    /// A job reached a terminal state: notify whoever parks `Await`s.
    fn on_complete(&self, job: u64);
    /// The live stats JSON document ([`ServeState::stats_json`] with
    /// this implementor's backend label, degraded flag and registry).
    fn stats_json(&self) -> String;

    /// Operator-triggered rolling restart of the worker pool.  Returns
    /// the number of workers being cycled, or `None` when there is no
    /// pool behind this core (the single-process server and the
    /// simulator), which answers the client with a typed refusal.
    fn rolling_restart(&self) -> Option<u64> {
        None
    }

    /// Record a dispatched job's terminal state ([`ServeState::finish`])
    /// and answer the `Await`s parked on it.  Call exactly once per job
    /// the dispatcher began to run.
    fn finish_job(&self, id: u64, label: &str, state: JobState, outcome: JobOutcome, exec_ns: u64) {
        self.state().finish(id, label, state, outcome, exec_ns);
        self.on_complete(id);
    }

    /// One watchdog pass ([`ServeState::sweep`]) that also answers the
    /// `Await`s parked on queued jobs it deadline-killed.  A job's
    /// progress is its executor's counter from `remote`
    /// ([`Dispatcher::job_activity`](crate::dispatcher::Dispatcher::job_activity),
    /// read before the sweep takes the jobs lock), else
    /// [`ServeCore::activity`].  Escalating the report's stalled job is
    /// the dispatcher's ([`Dispatcher::tick`](crate::dispatcher::Dispatcher::tick)).
    fn watchdog_sweep(&self, remote: &[(u64, u64)], grace_ns: u64) -> SweepReport {
        let local = self.activity();
        let activity = |job| remote.iter().find(|r| r.0 == job).map_or(local, |r| r.1);
        let report = self.state().sweep(activity, grace_ns);
        for &id in &report.deadline_killed {
            self.on_complete(id);
        }
        report
    }

    /// Stage a submission: validate, mint the id, insert the table
    /// entry, claim the idempotency key.  `Ok` hands back the
    /// queue-ready job for this wakeup's [`ServeCore::admit_batch`];
    /// `Err` is the immediate response and nothing joins the batch.
    ///
    /// A duplicate of a *staged but unadmitted* submission is answered
    /// `Rejected { retry_after_ms }`, never `Accepted`: handing out the
    /// original's id before admission confirms could leave the
    /// duplicate holding a dangling id if admission then fails (the
    /// lost-job race `romp-sim` reproduces; see [`crate::lifecycle`]).
    ///
    /// With shedding enabled, a deadline-carrying job whose predicted
    /// completion (lane-aware queue wait + its class's service-time
    /// EWMA) already exceeds its deadline slack is refused with
    /// [`Response::ShedDeadline`] *after* staging: the idempotency
    /// check must run first (a duplicate of an admitted job answers
    /// `Accepted`, never a shed), so a shed unwinds the staging via
    /// [`JobTable::retract`](crate::JobTable::retract) like a failed admission does.
    fn prepare_submit(
        &self,
        spec: JobSpec,
        deadline_ms: u32,
        idem_key: u64,
        affinity: u64,
        priority: u8,
    ) -> Result<QueuedJob, Response> {
        let st = self.state();
        if st.draining() {
            return Err(Response::Error {
                code: ErrorCode::Draining,
                msg: "server is draining".into(),
            });
        }
        match st.table().stage(
            spec,
            deadline_ms,
            st.default_deadline_ms(),
            st.limits(),
            idem_key,
            affinity,
            priority,
        ) {
            Ok(qjob) => {
                if st.shed_enabled() {
                    if let Some(deadline_ns) = qjob.deadline_ns {
                        let slack_ns = deadline_ns.saturating_sub(st.clock().now_ns());
                        let wait_jobs = st.queue().predicted_wait_jobs(priority);
                        let global_ns = st.ewma_ns();
                        let self_ns = st.class_ewma_ns(&qjob.spec.label()).unwrap_or(global_ns);
                        let predicted_ns =
                            wait_jobs.saturating_mul(global_ns).saturating_add(self_ns);
                        if predicted_ns > slack_ns {
                            st.table().retract(qjob.id);
                            st.metrics().sched_sheds[lane_of(priority)].incr();
                            return Err(Response::ShedDeadline {
                                predicted_wait_ms: (predicted_ns / 1_000_000)
                                    .clamp(1, u64::from(u32::MAX))
                                    as u32,
                            });
                        }
                    }
                }
                Ok(qjob)
            }
            Err(StageRefusal::Invalid(why)) => {
                st.metrics().invalid.incr();
                Err(Response::Error {
                    code: ErrorCode::BadPayload,
                    msg: why.into(),
                })
            }
            Err(StageRefusal::IdemAdmitted(job)) => {
                st.metrics().idem_hits.incr();
                Err(Response::Accepted { job })
            }
            Err(StageRefusal::IdemPending) => {
                st.metrics().idem_hits.incr();
                st.metrics().rejected.incr();
                Err(Response::Rejected {
                    retry_after_ms: st.retry_after_ms(),
                })
            }
        }
    }

    /// Admit one wakeup's worth of prepared submissions as a single
    /// batch — one queue lock, one dispatcher wakeup.  Returns one
    /// response per input job, in order: `Accepted` for the admitted
    /// prefix (whose idempotency entries flip to *admitted*),
    /// `Rejected`/`Draining` (with staging retracted) for the rest.
    fn admit_batch(&self, jobs: Vec<QueuedJob>) -> Vec<Response> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let st = self.state();
        let m = st.metrics();
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        let lanes: Vec<usize> = jobs.iter().map(|j| lane_of(j.priority)).collect();
        let res = st.queue().try_push_batch(jobs);
        if res.admitted > 0 {
            m.accepted.add(res.admitted as u64);
            m.queue_depth.set(res.depth as u64);
            m.queue_peak.record_max(res.depth as u64);
            for &lane in &lanes[..res.admitted] {
                m.sched_admits[lane].incr();
            }
            st.set_lane_depths();
            st.table().confirm_admitted(&ids[..res.admitted]);
        }
        ids.iter()
            .enumerate()
            .map(|(i, &id)| {
                if i < res.admitted {
                    Response::Accepted { job: id }
                } else {
                    st.table().retract(id);
                    if res.closed {
                        Response::Error {
                            code: ErrorCode::Draining,
                            msg: "server is draining".into(),
                        }
                    } else {
                        m.rejected.incr();
                        Response::Rejected {
                            retry_after_ms: st.retry_after_ms(),
                        }
                    }
                }
            })
            .collect()
    }

    /// Resolve an `Await`: consume like a `Fetch` if the job is
    /// terminal, park otherwise.  Called both at request time and again
    /// when the completion bus reports the job finished — the first
    /// parked waiter to get here consumes the outcome, later ones
    /// observe `UnknownJob`.
    fn try_complete_await(&self, job: u64) -> AwaitDisposition {
        match self.state().table().consume(job) {
            Consumed::Result(_, out) => AwaitDisposition::Ready(Response::JobResult {
                job,
                ok: out.ok,
                wall_us: out.wall_us,
                detail: out.detail,
            }),
            Consumed::NotReady(_) => AwaitDisposition::Pending,
            Consumed::Unknown => AwaitDisposition::Ready(Response::Error {
                code: ErrorCode::UnknownJob,
                msg: format!("job {job}"),
            }),
        }
    }

    /// Handle every request kind that answers immediately and in
    /// request order.  `Submit` and `Await` are routed by
    /// [`route_frames`] before this point (they batch and park
    /// respectively); their arms here are defensive only.
    fn sync_request(&self, req: Request) -> Response {
        let st = self.state();
        let m = st.metrics();
        match req {
            Request::Cancel { job } => {
                m.req_cancel.incr();
                match st.table().cancel(job) {
                    CancelOutcome::Unknown => Response::Error {
                        code: ErrorCode::UnknownJob,
                        msg: format!("job {job}"),
                    },
                    CancelOutcome::KilledQueued => {
                        m.cancelled.incr();
                        // Outside the jobs lock: a parked Await on this
                        // job answers now.
                        self.on_complete(job);
                        Response::Status {
                            job,
                            state: JobState::Cancelled,
                        }
                    }
                    CancelOutcome::Cancelling => Response::Status {
                        job,
                        state: JobState::Cancelling,
                    },
                    CancelOutcome::Unchanged(state) => Response::Status { job, state },
                }
            }
            Request::Poll { job } => {
                m.req_poll.incr();
                match st.table().poll(job) {
                    Some(state) => Response::Status { job, state },
                    None => Response::Error {
                        code: ErrorCode::UnknownJob,
                        msg: format!("job {job}"),
                    },
                }
            }
            Request::Fetch { job } => {
                m.req_fetch.incr();
                match st.table().consume(job) {
                    Consumed::Result(_, out) => Response::JobResult {
                        job,
                        ok: out.ok,
                        wall_us: out.wall_us,
                        detail: out.detail,
                    },
                    Consumed::NotReady(_) => Response::Error {
                        code: ErrorCode::NotReady,
                        msg: format!("job {job} still pending"),
                    },
                    Consumed::Unknown => Response::Error {
                        code: ErrorCode::UnknownJob,
                        msg: format!("job {job}"),
                    },
                }
            }
            Request::Stats => {
                m.req_stats.incr();
                Response::Stats {
                    json: self.stats_json(),
                }
            }
            Request::Ping => {
                m.req_ping.incr();
                Response::Pong
            }
            Request::Shutdown => {
                st.begin_drain();
                Response::Draining {
                    outstanding: st.outstanding(),
                }
            }
            Request::Restart => match self.rolling_restart() {
                Some(workers) => Response::Restarting { workers },
                None => Response::Error {
                    code: ErrorCode::BadPayload,
                    msg: "rolling restart requires a worker pool (--workers)".into(),
                },
            },
            Request::Submit { .. } | Request::Await { .. } => Response::Error {
                code: ErrorCode::BadPayload,
                msg: "internal: submit/await bypassed the reactor".into(),
            },
        }
    }
}

/// One connection's transport-independent state: frame reassembly, the
/// response buffer, and the close/EOF/deferral flags.  The production
/// reactor pairs it with a `TcpStream`; the simulator with a virtual
/// link.
pub struct Session {
    /// Incremental frame reassembly for the inbound byte stream.
    pub rbuf: RecvBuf,
    /// Buffered responses awaiting a writable transport.
    pub wbuf: SendBuf,
    /// Peer closed its write side; close once buffered frames are
    /// handled.
    pub eof: bool,
    /// Finish flushing `wbuf`, then close (hostile-frame or EOF path).
    pub close_after_flush: bool,
    /// Marked dead; the transport sweeps it.
    pub closed: bool,
    /// Decoding was deferred (write backpressure or the per-pass frame
    /// cap); revisit without waiting for a new transport event.
    pub decode_deferred: bool,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A fresh session with empty buffers.
    pub fn new() -> Session {
        Session {
            rbuf: RecvBuf::new(),
            wbuf: SendBuf::new(),
            eof: false,
            close_after_flush: false,
            closed: false,
            decode_deferred: false,
        }
    }

    /// After a decode pass: if the peer sent EOF and decoding is
    /// quiescent (no deferred frames), arm the flush-then-close path.
    /// A deferred pass (frame cap or write backpressure) still has
    /// complete frames buffered, and the close contract answers those
    /// first.
    pub fn arm_close_if_quiescent(&mut self) {
        if self.eof && !self.close_after_flush && !self.decode_deferred {
            self.close_after_flush = true;
        }
    }

    /// Whether the write buffer is past the backpressure cap.
    pub fn backpressured(&self) -> bool {
        self.wbuf.pending() >= WBUF_LIMIT
    }
}

/// A response slot staged during decoding: either already known, or the
/// n-th member of this wakeup's submit batch (filled after admission).
pub enum PendingResp {
    /// Response known at decode time (sync requests, refusals).
    Ready(Response),
    /// The n-th member of the wakeup's submit batch; the response is
    /// the n-th element of [`ServeCore::admit_batch`]'s return.
    Submit(usize),
}

/// Decode every complete frame buffered on `sess`, staging one response
/// slot per request.  `Submit`s join `batch` (admitted later, as one
/// batch for the whole wakeup); `Await`s that cannot answer yet push
/// their job id onto `parked` and stage nothing.
pub fn route_frames<C: ServeCore + ?Sized>(
    core: &C,
    sess: &mut Session,
    batch: &mut Vec<QueuedJob>,
    parked: &mut Vec<u64>,
) -> Vec<PendingResp> {
    let metrics = core.state().metrics();
    let mut out = Vec::new();
    // The fairness bound counts every decoded frame, not just staged
    // responses — parked `Await`s stage nothing, and a flood of them
    // must not decode unboundedly within one pass.
    let mut decoded = 0usize;
    while decoded < FRAMES_PER_PASS {
        match sess.rbuf.next_frame() {
            Ok(Some(body)) => {
                decoded += 1;
                let t0 = core.state().clock().now_ns();
                let staged = match Request::decode(&body) {
                    Ok(Request::Submit {
                        spec,
                        deadline_ms,
                        idem_key,
                        affinity,
                        priority,
                    }) => {
                        metrics.req_submit.incr();
                        match core.prepare_submit(spec, deadline_ms, idem_key, affinity, priority) {
                            Ok(qjob) => {
                                batch.push(qjob);
                                Some(PendingResp::Submit(batch.len() - 1))
                            }
                            Err(resp) => Some(PendingResp::Ready(resp)),
                        }
                    }
                    Ok(Request::Await { job }) => {
                        metrics.req_await.incr();
                        match core.try_complete_await(job) {
                            AwaitDisposition::Ready(resp) => Some(PendingResp::Ready(resp)),
                            AwaitDisposition::Pending => {
                                parked.push(job);
                                None
                            }
                        }
                    }
                    Ok(req) => Some(PendingResp::Ready(core.sync_request(req))),
                    Err(e) => {
                        // Frame boundaries are intact; the payload is bad.
                        // Answer and keep the connection.
                        metrics.proto_errors.incr();
                        Some(PendingResp::Ready(Response::Error {
                            code: match e {
                                ProtoError::BadPayload(_) => ErrorCode::BadPayload,
                                _ => ErrorCode::BadFrame,
                            },
                            msg: e.to_string(),
                        }))
                    }
                };
                metrics
                    .lat_handle
                    .record(core.state().clock().now_ns().saturating_sub(t0));
                if let Some(s) = staged {
                    out.push(s);
                }
            }
            Ok(None) => break,
            Err(e) => {
                // Hostile length prefix: the byte stream cannot be
                // trusted again — answer once, then close.
                metrics.proto_errors.incr();
                out.push(PendingResp::Ready(Response::Error {
                    code: ErrorCode::BadFrame,
                    msg: e.to_string(),
                }));
                sess.close_after_flush = true;
                break;
            }
        }
    }
    if decoded >= FRAMES_PER_PASS {
        sess.decode_deferred = true;
    }
    out
}

/// One connection in an [`Engine`]: its transport, the readiness the
/// driver last saw on it, and its [`Session`].
pub struct Conn<T> {
    /// The byte transport: a non-blocking socket, or a simulated link.
    pub io: T,
    /// Frame reassembly, response buffer and lifecycle flags.
    pub sess: Session,
    /// Inbound bytes or EOF may be waiting.  The driver sets it (an
    /// epoll edge, a delivery); the service pass clears it once the
    /// transport reports `WouldBlock` or EOF.
    pub readable: bool,
    /// The transport may accept writes.  The driver sets it; a flush
    /// clears it when the transport reports `WouldBlock`.
    pub writable: bool,
}

/// The connection table and the `Await`s parked on it (see the module
/// docs).  Tokens are the driver's connection ids; every walk over the
/// table goes in token order, so a driver that feeds the same events
/// gets the same responses in the same order.
///
/// Passing `only: Some(token)` restricts a pass to one connection (the
/// simulator services the connection an event arrived on); `None` walks
/// them all (the reactor, once per wakeup).
pub struct Engine<T> {
    conns: BTreeMap<u64, Conn<T>>,
    /// job id → tokens of connections with a parked `Await` on it.
    parked: BTreeMap<u64, Vec<u64>>,
}

impl<T> Default for Engine<T> {
    fn default() -> Self {
        Engine {
            conns: BTreeMap::new(),
            parked: BTreeMap::new(),
        }
    }
}

/// The token range a pass covers.
fn select(only: Option<u64>) -> (Bound<u64>, Bound<u64>) {
    match only {
        Some(t) => (Bound::Included(t), Bound::Included(t)),
        None => (Bound::Unbounded, Bound::Unbounded),
    }
}

impl<T: Read + Write> Engine<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a connection under `token`, optimistically readable and
    /// writable: bytes may predate registration, and the first pass finds
    /// out.
    pub fn insert(&mut self, token: u64, io: T) {
        self.conns.insert(
            token,
            Conn {
                io,
                sess: Session::new(),
                readable: true,
                writable: true,
            },
        );
    }

    /// The connection under `token`, if it is still in the table.
    pub fn conn_mut(&mut self, token: u64) -> Option<&mut Conn<T>> {
        self.conns.get_mut(&token)
    }

    /// Every connection, in token order.
    pub fn conns_mut(&mut self) -> impl Iterator<Item = &mut Conn<T>> {
        self.conns.values_mut()
    }

    /// Connections in the table (closed ones until they are swept).
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether the table holds no connection.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// `Await`s parked and not yet answered.
    pub fn parked_awaits(&self) -> usize {
        self.parked.values().map(Vec::len).sum()
    }

    /// One service pass: for every selected connection that is open, not
    /// backpressured and readable (or deferred), read the transport dry,
    /// route every buffered frame, park the `Await`s that cannot answer
    /// yet and arm the close on EOF; then admit the pass's `Submit`s as
    /// **one** batch and stage each connection's responses in request
    /// order.  Returns whether any connection was serviced.
    pub fn service<C: ServeCore + ?Sized>(&mut self, core: &C, only: Option<u64>) -> bool {
        let mut batch: Vec<QueuedJob> = Vec::new();
        let mut staged: Vec<(u64, Vec<PendingResp>)> = Vec::new();
        let mut parked_jobs = Vec::new();
        let mut worked = false;
        for (&token, c) in self.conns.range_mut(select(only)) {
            if c.sess.closed || c.sess.close_after_flush {
                continue;
            }
            if c.sess.backpressured() {
                // Leave the transport unread; revisit when the peer
                // drains responses.
                if c.readable || c.sess.rbuf.pending() > 0 {
                    c.sess.decode_deferred = true;
                }
                continue;
            }
            if !c.readable && !c.sess.decode_deferred {
                continue;
            }
            worked = true;
            c.sess.decode_deferred = false;
            if c.readable {
                match c.sess.rbuf.fill_from(&mut c.io) {
                    Ok(Fill::WouldBlock) => c.readable = false,
                    Ok(Fill::Eof) => {
                        c.readable = false;
                        c.sess.eof = true;
                    }
                    Err(_) => {
                        c.sess.closed = true;
                        continue;
                    }
                }
            }
            let out = route_frames(core, &mut c.sess, &mut batch, &mut parked_jobs);
            for job in parked_jobs.drain(..) {
                self.parked.entry(job).or_default().push(token);
            }
            // Clean close on EOF (a truncated tail is dropped silently),
            // only once decoding is quiescent; see `Session`.
            c.sess.arm_close_if_quiescent();
            if !out.is_empty() {
                staged.push((token, out));
            }
        }
        if !batch.is_empty() {
            core.state()
                .metrics()
                .reactor_batch
                .record(batch.len() as u64);
        }
        // Batch members were pushed in the same connection and request
        // order as `staged`, so the admission answers come out in order.
        let mut admitted = core.admit_batch(batch).into_iter();
        for (token, pending) in staged {
            let Some(c) = self.conns.get_mut(&token) else {
                continue;
            };
            for p in pending {
                let resp = match p {
                    PendingResp::Ready(r) => r,
                    PendingResp::Submit(_) => admitted.next().expect("one answer per submit"),
                };
                c.sess.wbuf.queue(&resp.encode());
            }
        }
        worked
    }

    /// `job` reached a terminal state: answer the `Await`s parked on it.
    /// The first live waiter consumes the outcome exactly like a `Fetch`,
    /// later waiters get `UnknownJob`, and closed connections are skipped
    /// without consuming anything.  Returns the tokens answered, in
    /// parking order.
    pub fn deliver<C: ServeCore + ?Sized>(&mut self, core: &C, job: u64) -> Vec<u64> {
        self.answer(core, job, false)
    }

    /// Shutdown: every job is terminal and every completion has been
    /// delivered, so a still-parked `Await` lost a race to a `Fetch` on
    /// another connection — answer it rather than leave the client
    /// hanging.
    pub fn answer_parked<C: ServeCore + ?Sized>(&mut self, core: &C) {
        while let Some(&job) = self.parked.keys().next() {
            self.answer(core, job, true);
        }
    }

    fn answer<C: ServeCore + ?Sized>(&mut self, core: &C, job: u64, stopped: bool) -> Vec<u64> {
        let Some(mut waiters) = self.parked.remove(&job) else {
            return Vec::new();
        };
        let conns = &mut self.conns;
        let mut still_parked = Vec::new();
        waiters.retain(|&token| {
            let Some(c) = conns.get_mut(&token).filter(|c| !c.sess.closed) else {
                return false;
            };
            let resp = match core.try_complete_await(job) {
                AwaitDisposition::Ready(resp) => resp,
                AwaitDisposition::Pending if stopped => Response::Error {
                    code: ErrorCode::UnknownJob,
                    msg: format!("job {job}: server stopped"),
                },
                // A notification for a job that is not terminal yet
                // re-parks safely.
                AwaitDisposition::Pending => {
                    still_parked.push(token);
                    return false;
                }
            };
            c.sess.wbuf.queue(&resp.encode());
            c.sess.arm_close_if_quiescent();
            true
        });
        if !still_parked.is_empty() {
            self.parked.insert(job, still_parked);
        }
        waiters
    }

    /// Write the selected connections' buffered responses to their
    /// transports, and close each one whose close-after-flush has
    /// drained.  Returns whether such a close happened in this call.
    pub fn flush(&mut self, only: Option<u64>) -> bool {
        let mut closed_now = false;
        for (_, c) in self.conns.range_mut(select(only)) {
            if c.sess.closed {
                continue;
            }
            if c.writable && !c.sess.wbuf.is_empty() {
                match c.sess.wbuf.flush_to(&mut c.io) {
                    Ok(Flush::Drained) => {}
                    Ok(Flush::Blocked) => c.writable = false,
                    Err(_) => c.sess.closed = true,
                }
            }
            if c.sess.close_after_flush && c.sess.wbuf.is_empty() && !c.sess.closed {
                c.sess.closed = true;
                closed_now = true;
            }
        }
        closed_now
    }

    /// Whether a selected connection deferred decoding and has since
    /// drained below [`WBUF_LIMIT`]: its buffered frames can be decoded
    /// without any new transport event, so the driver must pass again
    /// rather than wait for one.
    pub fn repass_ready(&self, only: Option<u64>) -> bool {
        self.conns.range(select(only)).any(|(_, c)| {
            c.sess.decode_deferred
                && !c.sess.closed
                && !c.sess.close_after_flush
                && !c.sess.backpressured()
        })
    }

    /// Whether every open connection's responses are fully written.
    pub fn flushed(&self) -> bool {
        self.conns
            .values()
            .all(|c| c.sess.closed || c.sess.wbuf.is_empty())
    }

    /// Drop every closed connection, handing each transport to
    /// `on_close` first.  Returns whether any was dropped.
    pub fn sweep_closed(&mut self, mut on_close: impl FnMut(&T)) -> bool {
        let before = self.conns.len();
        self.conns.retain(|_, c| {
            if c.sess.closed {
                on_close(&c.io);
            }
            !c.sess.closed
        });
        self.conns.len() != before
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::io;

    use mca_platform::VirtualClock;
    use romp_epcc::Construct;
    use romp_trace::MetricsRegistry;

    use super::*;
    use crate::lifecycle::DedupConfig;
    use crate::metrics::Metrics;
    use crate::server::ServeConfig;

    /// A serving core with no executor: the test pops and finishes jobs.
    struct TestCore {
        state: ServeState,
        completions: RefCell<Vec<u64>>,
    }

    impl TestCore {
        fn new() -> TestCore {
            TestCore {
                state: ServeState::new(
                    VirtualClock::new(0).clock(),
                    DedupConfig::default(),
                    Metrics::new(&MetricsRegistry::new()),
                    &ServeConfig::default(),
                ),
                completions: RefCell::new(Vec::new()),
            }
        }
    }

    impl ServeCore for TestCore {
        fn state(&self) -> &ServeState {
            &self.state
        }
        fn activity(&self) -> u64 {
            0
        }
        fn on_complete(&self, job: u64) {
            self.completions.borrow_mut().push(job);
        }
        fn stats_json(&self) -> String {
            String::new()
        }
    }

    /// An in-memory transport: reads drain `inbox`, writes always fit.
    #[derive(Default)]
    struct Pipe {
        inbox: Vec<u8>,
        out: Vec<u8>,
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.inbox.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.inbox.len());
            buf[..n].copy_from_slice(&self.inbox[..n]);
            self.inbox.drain(..n);
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn send(engine: &mut Engine<Pipe>, token: u64, req: Request) {
        let c = engine.conn_mut(token).expect("connection in the table");
        c.io.inbox.extend_from_slice(&req.encode());
        c.readable = true;
    }

    /// Everything the engine wrote to `token` since the last call.
    fn answers(engine: &mut Engine<Pipe>, token: u64) -> Vec<Response> {
        let c = engine.conn_mut(token).expect("connection in the table");
        let mut rbuf = RecvBuf::new();
        rbuf.extend(&std::mem::take(&mut c.io.out));
        std::iter::from_fn(|| rbuf.next_frame().expect("well-formed frames"))
            .map(|body| Response::decode(&body).expect("decodable response"))
            .collect()
    }

    /// Two connections, each with an `Await` parked on one running job.
    fn two_waiters() -> (TestCore, Engine<Pipe>, u64) {
        let core = TestCore::new();
        let mut engine = Engine::new();
        engine.insert(1, Pipe::default());
        engine.insert(2, Pipe::default());
        let spec = JobSpec::Epcc {
            construct: Construct::Barrier,
            threads: 1,
            inner_reps: 1,
        };
        send(
            &mut engine,
            1,
            Request::Submit {
                spec,
                deadline_ms: 0,
                idem_key: 0,
                affinity: 0,
                priority: 0,
            },
        );
        assert!(engine.service(&core, None));
        engine.flush(None);
        let job = match answers(&mut engine, 1).as_slice() {
            [Response::Accepted { job }] => *job,
            other => panic!("submit answered {other:?}"),
        };
        assert_eq!(core.state.try_pop().map(|j| j.id), Some(job));
        send(&mut engine, 1, Request::Await { job });
        send(&mut engine, 2, Request::Await { job });
        assert!(engine.service(&core, None));
        engine.flush(None);
        assert_eq!(engine.parked_awaits(), 2);
        assert!(answers(&mut engine, 1).is_empty() && answers(&mut engine, 2).is_empty());
        let outcome = JobOutcome {
            ok: true,
            wall_us: 7,
            detail: "ok".into(),
        };
        core.finish_job(job, "k", JobState::Done, outcome, 7_000);
        assert_eq!(*core.completions.borrow(), [job]);
        (core, engine, job)
    }

    #[test]
    fn one_completion_answers_the_first_waiter_and_refuses_the_second() {
        let (core, mut engine, job) = two_waiters();
        assert_eq!(engine.deliver(&core, job), [1, 2]);
        engine.flush(None);
        assert_eq!(
            answers(&mut engine, 1),
            [Response::JobResult {
                job,
                ok: true,
                wall_us: 7,
                detail: "ok".into(),
            }]
        );
        match answers(&mut engine, 2).as_slice() {
            [Response::Error {
                code: ErrorCode::UnknownJob,
                ..
            }] => {}
            other => panic!("second waiter answered {other:?}"),
        }
        assert_eq!(engine.parked_awaits(), 0);
    }

    #[test]
    fn a_closed_waiter_is_skipped_without_consuming_the_result() {
        let (core, mut engine, job) = two_waiters();
        engine.conn_mut(1).unwrap().sess.closed = true;
        assert_eq!(engine.deliver(&core, job), [2]);
        engine.flush(None);
        assert!(answers(&mut engine, 1).is_empty());
        assert!(matches!(
            answers(&mut engine, 2).as_slice(),
            [Response::JobResult { ok: true, .. }]
        ));
    }
}
