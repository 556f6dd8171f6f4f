//! The transport seam between connection byte streams and the serving
//! core (PR 7).
//!
//! The epoll reactor and the deterministic simulator (`romp-sim`) both
//! need the *same* per-connection logic — incremental frame decode,
//! request routing, submit batching, await parking, write backpressure,
//! EOF arming — but drive it from different event sources (socket
//! readiness vs. virtual-time events).  This module holds that shared
//! logic:
//!
//! * [`ServeCore`] — what a connection needs from the serving stack.
//!   The production server and the simulator's core both hold one
//!   [`ServeState`] and implement only the hooks that differ; the
//!   request-routing *policy* (admission, idempotency, fetch/await
//!   consumption, cancel, drain) and the job-completion and watchdog
//!   bookkeeping live in this trait's provided methods, so they
//!   literally cannot diverge between production and simulation.
//! * [`Session`] — one connection's transport-independent state: the
//!   [`RecvBuf`]/[`SendBuf`] pair plus the close/EOF/deferral flags.
//! * [`route_frames`] — decode-and-route every buffered frame on a
//!   session (the reactor's old `decode_conn`, verbatim policy).

use crate::job::{JobOutcome, JobState};
use crate::lifecycle::{CancelOutcome, Consumed, StageRefusal, SweepReport};
use crate::protocol::{ErrorCode, ProtoError, Request, Response};
use crate::queue::{lane_of, QueuedJob};
use crate::reactor::{RecvBuf, SendBuf};
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
    /// The runtime's activity counter (watchdog progress detection).
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
    /// `Await`s parked on queued jobs it deadline-killed.  Escalating
    /// the report's stalled job is the caller's.
    fn watchdog_sweep(&self, grace_ns: u64) -> SweepReport {
        let report = self.state().sweep(self.activity(), grace_ns);
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
                match st.table().cancel(job, self.activity()) {
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
