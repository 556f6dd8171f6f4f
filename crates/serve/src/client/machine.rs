//! The one client core: a seeded, sans-IO state machine speaking the
//! wire protocol.
//!
//! Its inputs are bytes received ([`ClientCore::on_bytes`]), the
//! server's EOF ([`ClientCore::on_server_eof`]) and a wake at `now_ns`
//! ([`ClientCore::on_wake`]); its outputs are [`ClientCmd`]s: bytes to
//! send, EOF, and a wake-at time.  `romp-sim` drives it on virtual time
//! and [`super::drive`] over blocking sockets, so the load generator,
//! the chaos-test drivers and the simulator run the same client.
//!
//! A client owns one connection and drives a job loop — submit
//! (sometimes as a duplicate burst, exercising the idempotency map),
//! maybe cancel, await the result, think, repeat — keeping up to
//! [`ClientProfile::pipeline`] jobs in flight, optionally on an
//! open-loop arrival schedule.  Two specialists ride along for the
//! simulator: a *stats hammer* that pipelines bursts of `Stats` requests
//! to exercise write backpressure, and the *controller*, which sends
//! `Shutdown` once every client is done (or early) so each run ends with
//! a graceful drain.
//!
//! Every response is checked against an expectation queue; anything
//! unexplainable — a lost accepted job, a duplicate burst answered with
//! two distinct ids, a malformed or unsolicited server frame — is
//! recorded as a violation in the client's [`Tally`].

use std::collections::VecDeque;
use std::sync::Arc;

use mca_sync::SmallRng;

use super::SubmitOptions;
use crate::job::JobSpec;
use crate::protocol::{ErrorCode, Request, Response};
use crate::queue::{lane_of, LANES};
use crate::reactor::RecvBuf;

/// An action the driver applies on the client's behalf.
#[derive(Debug)]
pub enum ClientCmd {
    /// Send bytes on the client→server direction.
    Send(Vec<u8>),
    /// Close the client's write side.
    SendEof,
    /// Call [`ClientCore::on_wake`] at this absolute time, ns.
    WakeAt(u64),
}

/// The stats-hammer specialisation (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Hammer {
    /// Bursts to send before finishing.
    pub bursts: u32,
    /// Pipelined `Stats` requests per burst.
    pub pipeline: u32,
}

/// A client's job stream: job `j`'s spec and submit options.  The
/// options' deadline is the job's own unless the profile draws an
/// explicit one; its idempotency key is dropped when the profile draws
/// a keyless submit.
pub type JobStream = Arc<dyn Fn(u64) -> (JobSpec, SubmitOptions) + Send + Sync>;

/// Per-client behaviour knobs (probabilities are per-mille).
#[derive(Clone)]
pub struct ClientProfile {
    /// Jobs to run to completion (ignored by hammers).
    pub jobs: u32,
    /// Where each job's spec, lane, deadline, affinity and key come from.
    pub job: JobStream,
    /// Jobs kept in flight at once (1 = stop-and-wait).
    pub pipeline: u32,
    /// Open-loop arrival interval, ns: job `j` is due `j·interval` after
    /// the first wake and its latency counts from the due time.  `0` is
    /// closed loop, latency from the first submit.
    pub interval_ns: u64,
    /// P(cancel the job after acceptance).
    pub cancel_pm: u64,
    /// Delay range before a drawn cancel (and the await behind it) is
    /// sent, ns; `(0, 0)` sends them with the acceptance.
    pub cancel_delay_ns: (u64, u64),
    /// P(send the submit twice back-to-back in one payload).
    pub dup_pm: u64,
    /// P(re-send the submit *after* acceptance, alongside the await).
    pub late_dup_pm: u64,
    /// P(submit without an idempotency key).
    pub nokey_pm: u64,
    /// P(request an explicit deadline instead of the stream's).
    pub explicit_deadline_pm: u64,
    /// Explicit deadline range, ms.
    pub deadline_ms: (u32, u32),
    /// Think time between jobs, ns.
    pub think_ns: (u64, u64),
    /// Rejected-submit retries before giving the job up.
    pub max_retries: u32,
    /// Time since a job's first submit after which a rejection gives it
    /// up, ns; `0` = no time bound.
    pub retry_for_ns: u64,
    /// How long an await may stay unanswered before its job counts as
    /// lost, ns; `0` = forever.
    pub await_for_ns: u64,
    /// Whether this client is the shutdown controller.
    pub controller: bool,
    /// Controller only: P(send `Shutdown` right after its own jobs,
    /// while other clients are still mid-flight).
    pub shutdown_early_pm: u64,
    /// Stats-hammer mode.
    pub hammer: Option<Hammer>,
}

impl ClientProfile {
    /// A load driver's client: `jobs` jobs from `job`, stop-and-wait,
    /// no think time, no cancels or duplicates; a rejected job is
    /// retried (jittered) for up to 60 s, and an await unanswered after
    /// 120 s is a lost job.
    pub fn driven(jobs: u32, job: JobStream) -> Self {
        ClientProfile {
            jobs,
            job,
            pipeline: 1,
            interval_ns: 0,
            cancel_pm: 0,
            cancel_delay_ns: (0, 0),
            dup_pm: 0,
            late_dup_pm: 0,
            nokey_pm: 0,
            explicit_deadline_pm: 0,
            deadline_ms: (0, 0),
            think_ns: (0, 0),
            max_retries: u32::MAX,
            retry_for_ns: 60_000_000_000,
            await_for_ns: 120_000_000_000,
            controller: false,
            shutdown_early_pm: 0,
            hammer: None,
        }
    }
}

/// One lane's share of a [`Tally`].
#[derive(Debug, Default, Clone)]
pub struct LaneTally {
    /// Latency of every resolved job, ns (see
    /// [`ClientProfile::interval_ns`] for where it starts).
    pub latency_ns: Vec<u64>,
    /// Resolved jobs whose result was not `ok`.
    pub failed: u64,
    /// `ShedDeadline` refusals (the job is abandoned, never retried — a
    /// shed is a verdict, not backpressure).
    pub sheds: u64,
}

/// What a client saw: every report is read from here.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Distinct jobs the server accepted.
    pub accepted: u64,
    /// Failed results naming a cancel or a deadline.
    pub killed: u64,
    /// `Rejected` answers (each one retried after a jittered backoff).
    pub rejections: u64,
    /// Jobs given up after the retry budget.
    pub gave_up: u64,
    /// Jobs never submitted because the server began draining.
    pub abandoned: u64,
    /// `Cancel` requests sent.
    pub cancels_sent: u64,
    /// `Stats` responses received.
    pub stats_seen: u64,
    /// Per lane (see [`crate::lane_of`]).
    pub lanes: [LaneTally; LANES],
    /// Invariant breaches, one line each.
    pub violations: Vec<String>,
}

impl Tally {
    /// Jobs resolved with a `JobResult`.
    pub fn resolved(&self) -> u64 {
        self.lanes.iter().map(|l| l.latency_ns.len() as u64).sum()
    }

    /// Resolved jobs whose result was not `ok`.
    pub fn failed(&self) -> u64 {
        self.lanes.iter().map(|l| l.failed).sum()
    }

    /// `ShedDeadline` refusals.
    pub fn sheds(&self) -> u64 {
        self.lanes.iter().map(|l| l.sheds).sum()
    }

    /// Fold another client's tally into this one.
    pub fn absorb(&mut self, o: Tally) {
        self.accepted += o.accepted;
        self.killed += o.killed;
        self.rejections += o.rejections;
        self.gave_up += o.gave_up;
        self.abandoned += o.abandoned;
        self.cancels_sent += o.cancels_sent;
        self.stats_seen += o.stats_seen;
        for (l, o) in self.lanes.iter_mut().zip(o.lanes) {
            l.latency_ns.extend(o.latency_ns);
            l.failed += o.failed;
            l.sheds += o.sheds;
        }
        self.violations.extend(o.violations);
    }
}

/// What a pending request slot is waiting for.  `slot` is the index of
/// the logical job a resolution belongs to.
#[derive(Debug)]
enum Expect {
    Submit,
    LateDup {
        orig: u64,
        slot: u32,
    },
    Cancel(u64),
    Await {
        job: u64,
        slot: u32,
        lane: usize,
        t0: u64,
        expires: u64,
    },
    Stats,
    Shutdown,
}

/// The answers to the submit burst in flight.
#[derive(Debug, Default)]
struct Burst {
    left: u32,
    ids: Vec<u64>,
    retry_ms: Option<u32>,
    drained: bool,
    shed: bool,
}

/// One client (see module docs).
pub struct ClientCore {
    /// The client's name in violation lines.
    pub id: u64,
    /// Behaviour knobs.
    pub profile: ClientProfile,
    /// Inbound frame reassembly (the server's own decoder).
    rbuf: RecvBuf,
    expects: VecDeque<Expect>,
    burst: Burst,
    retries: u32,
    /// Job `next`'s latency origin: its due time or its first submit.
    first_try: Option<u64>,
    /// No submit before this time (a `Rejected` backoff).
    backoff_until: u64,
    /// The first wake: the open-loop schedule's origin.
    start: Option<u64>,
    /// The job being (or next to be) submitted.
    next: u32,
    jobs_done: u32,
    hammer_done: u32,
    /// Bytes held back until their time (delayed cancels).
    held: Vec<(u64, Vec<u8>)>,
    /// All work finished (controller may still owe the shutdown).
    pub done: bool,
    /// This client has sent `Shutdown` (controller paths).
    pub sent_shutdown: bool,
    /// Awaiting the `Draining` answer to our `Shutdown`.
    pub shutdown_pending: bool,
    /// Write side closed.
    eof_sent: bool,
    /// Everything this client saw.
    pub tally: Tally,
}

impl ClientCore {
    /// A fresh client named `id`.
    pub fn new(id: u64, profile: ClientProfile) -> Self {
        ClientCore {
            id,
            profile,
            rbuf: RecvBuf::new(),
            expects: VecDeque::new(),
            burst: Burst::default(),
            retries: 0,
            first_try: None,
            backoff_until: 0,
            start: None,
            next: 0,
            jobs_done: 0,
            hammer_done: 0,
            held: Vec::new(),
            done: false,
            sent_shutdown: false,
            shutdown_pending: false,
            eof_sent: false,
            tally: Tally::default(),
        }
    }

    fn roll(&self, rng: &mut SmallRng, pm: u64) -> bool {
        rng.gen_range(0, 1000) < pm
    }

    fn violation(&mut self, msg: String) {
        self.tally
            .violations
            .push(format!("client {}: {msg}", self.id));
    }

    /// Job `j`'s spec and options from the stream.
    fn job(&self, j: u32) -> (JobSpec, SubmitOptions) {
        (self.profile.job)(u64::from(j))
    }

    /// Wake: release held bytes, expire overdue awaits, and start the
    /// next burst / job if the window allows.
    pub fn on_wake(&mut self, now: u64, rng: &mut SmallRng) -> Vec<ClientCmd> {
        let mut cmds = Vec::new();
        let due = self.held.extract_if(.., |(at, _)| *at <= now);
        cmds.extend(due.map(|(_, bytes)| ClientCmd::Send(bytes)));
        self.expire_awaits(now, rng, &mut cmds);
        if self.done || self.eof_sent {
            return cmds;
        }
        self.start.get_or_insert(now);
        if self.profile.hammer.is_some() {
            if self.expects.is_empty() {
                self.hammer_burst(&mut cmds);
            }
        } else {
            self.try_submit(now, rng, &mut cmds);
        }
        cmds
    }

    fn hammer_burst(&mut self, cmds: &mut Vec<ClientCmd>) {
        let h = self.profile.hammer.expect("hammer profile");
        let mut bytes = Vec::new();
        for _ in 0..h.pipeline {
            bytes.extend_from_slice(&Request::Stats.encode());
            self.expects.push_back(Expect::Stats);
        }
        cmds.push(ClientCmd::Send(bytes));
    }

    /// Submit job `next` if no synchronous answer is pending, the window
    /// has room, the backoff has passed and the job is due.
    fn try_submit(&mut self, now: u64, rng: &mut SmallRng, cmds: &mut Vec<ClientCmd>) {
        let sync = self
            .expects
            .iter()
            .any(|e| !matches!(e, Expect::Await { .. }));
        let window = self.expects.len() >= self.profile.pipeline as usize;
        if sync || window || now < self.backoff_until {
            return;
        }
        if self.next >= self.profile.jobs {
            if self.jobs_done >= self.profile.jobs {
                self.complete_work(rng, cmds);
            }
            return;
        }
        let due = match self.profile.interval_ns {
            0 => now,
            iv => self.start.unwrap_or(now) + u64::from(self.next) * iv,
        };
        if due > now {
            cmds.push(ClientCmd::WakeAt(due));
            return;
        }
        self.first_try.get_or_insert(due);
        let (spec, opts) = self.job(self.next);
        let idem_key = if self.roll(rng, self.profile.nokey_pm) {
            0
        } else {
            opts.idem_key
        };
        let deadline_ms = if self.roll(rng, self.profile.explicit_deadline_pm) {
            let (lo, hi) = self.profile.deadline_ms;
            rng.gen_range(u64::from(lo), u64::from(hi) + 1) as u32
        } else {
            opts.deadline_ms
        };
        let req = Request::Submit {
            spec,
            deadline_ms,
            idem_key,
            affinity: opts.affinity,
            priority: opts.priority,
        };
        let mut bytes = req.encode();
        self.expects.push_back(Expect::Submit);
        self.burst = Burst {
            left: 1,
            ..Burst::default()
        };
        if idem_key != 0 && self.roll(rng, self.profile.dup_pm) {
            // The duplicate-burst probe: both copies land in one service
            // pass, the second must answer Rejected (pending) or the
            // same id (admitted) — never a second job.
            bytes.extend_from_slice(&req.encode());
            self.expects.push_back(Expect::Submit);
            self.burst.left = 2;
        }
        cmds.push(ClientCmd::Send(bytes));
    }

    /// Bytes delivered from the server.
    pub fn on_bytes(&mut self, now: u64, rng: &mut SmallRng, bytes: &[u8]) -> Vec<ClientCmd> {
        let mut cmds = Vec::new();
        self.rbuf.extend(bytes);
        loop {
            match self.rbuf.next_frame() {
                Ok(Some(body)) => match Response::decode(&body) {
                    Ok(resp) => self.handle_response(now, rng, resp, &mut cmds),
                    Err(e) => {
                        self.violation(format!("server sent undecodable response: {e}"));
                        break;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    self.violation(format!("server sent hostile frame: {e}"));
                    break;
                }
            }
        }
        cmds
    }

    /// The server closed the connection.
    pub fn on_server_eof(&mut self) {
        if !self.done || self.shutdown_pending {
            self.violation("server closed the connection mid-conversation".into());
        }
    }

    /// Whether `resp` can answer `exp`.
    fn compatible(exp: &Expect, resp: &Response) -> bool {
        match exp {
            Expect::Submit | Expect::LateDup { .. } => matches!(
                resp,
                Response::Accepted { .. }
                    | Response::Rejected { .. }
                    | Response::ShedDeadline { .. }
                    | Response::Error { .. }
            ),
            Expect::Cancel(j) => match resp {
                Response::Status { job, .. } => job == j,
                Response::Error { .. } => true,
                _ => false,
            },
            Expect::Await { job: j, .. } => match resp {
                Response::JobResult { job, .. } => job == j,
                Response::Error { .. } => true,
                _ => false,
            },
            Expect::Stats => matches!(resp, Response::Stats { .. } | Response::Error { .. }),
            Expect::Shutdown => matches!(resp, Response::Draining { .. }),
        }
    }

    /// Parked awaits answer in completion order, not request order, so
    /// match the response against the first *compatible* expectation.
    fn take_expect(&mut self, resp: &Response) -> Option<Expect> {
        let pos = self
            .expects
            .iter()
            .position(|e| Self::compatible(e, resp))?;
        self.expects.remove(pos)
    }

    fn handle_response(
        &mut self,
        now: u64,
        rng: &mut SmallRng,
        resp: Response,
        cmds: &mut Vec<ClientCmd>,
    ) {
        let Some(exp) = self.take_expect(&resp) else {
            self.violation(format!("unsolicited response {resp:?}"));
            return;
        };
        match exp {
            Expect::Submit => {
                self.burst.left = self.burst.left.saturating_sub(1);
                match resp {
                    Response::Accepted { job } => self.burst.ids.push(job),
                    Response::Rejected { retry_after_ms } => {
                        self.tally.rejections += 1;
                        let prev = self.burst.retry_ms.unwrap_or(0);
                        self.burst.retry_ms = Some(prev.max(retry_after_ms));
                    }
                    Response::ShedDeadline { .. } => {
                        let lane = lane_of(self.job(self.next).1.priority);
                        self.tally.lanes[lane].sheds += 1;
                        self.burst.shed = true;
                    }
                    Response::Error {
                        code: ErrorCode::Draining,
                        ..
                    } => self.burst.drained = true,
                    other => self.violation(format!("submit answered {other:?}")),
                }
                if self.burst.left == 0 {
                    self.finish_burst(now, rng, cmds);
                }
            }
            Expect::LateDup { orig, slot } => {
                match resp {
                    Response::Accepted { job } if job == orig => {}
                    Response::Accepted { job } => {
                        // The original was already consumed: the late dup
                        // became a real job; it must be resolved too.
                        self.tally.accepted += 1;
                        let lane = lane_of(self.job(slot).1.priority);
                        self.expect_await(job, slot, lane, now, now, cmds);
                        cmds.push(ClientCmd::Send(Request::Await { job }.encode()));
                    }
                    Response::Rejected { .. }
                    | Response::ShedDeadline { .. }
                    | Response::Error {
                        code: ErrorCode::Draining,
                        ..
                    } => {}
                    other => self.violation(format!("late dup answered {other:?}")),
                }
                // If this was the job's last resolution-bearing
                // expectation, the logical job is finished.
                if !self.resolving(slot) {
                    self.finish_job(now, rng, cmds);
                }
            }
            Expect::Cancel(job) => match resp {
                Response::Status { .. } => {}
                other => self.violation(format!("cancel of job {job} answered {other:?}")),
            },
            Expect::Await {
                job,
                slot,
                lane,
                t0,
                ..
            } => {
                match resp {
                    Response::JobResult { ok, detail, .. } => {
                        let l = &mut self.tally.lanes[lane];
                        l.latency_ns.push(now.saturating_sub(t0));
                        if !ok {
                            l.failed += 1;
                            if detail.contains("cancel") || detail.contains("deadline") {
                                self.tally.killed += 1;
                            }
                        }
                    }
                    other => {
                        self.violation(format!("accepted job {job} lost: await answered {other:?}"))
                    }
                }
                if !self.resolving(slot) {
                    self.finish_job(now, rng, cmds);
                }
            }
            Expect::Stats => match resp {
                Response::Stats { json } => {
                    if !json.starts_with('{') {
                        self.violation("stats response is not a JSON object".into());
                    }
                    self.tally.stats_seen += 1;
                    if self.expects.is_empty() {
                        self.hammer_done += 1;
                        let h = self.profile.hammer.expect("hammer profile");
                        if self.hammer_done >= h.bursts {
                            self.complete_work(rng, cmds);
                        } else {
                            let (lo, hi) = self.profile.think_ns;
                            cmds.push(ClientCmd::WakeAt(now + rng.gen_range(lo, hi + 1)));
                        }
                    }
                }
                other => self.violation(format!("stats answered {other:?}")),
            },
            Expect::Shutdown => {
                self.shutdown_pending = false;
                if !self.eof_sent {
                    self.eof_sent = true;
                    cmds.push(ClientCmd::SendEof);
                }
            }
        }
    }

    /// Whether logical job `slot` still has a resolution-bearing
    /// expectation: a pending `Await`, or a late duplicate whose answer
    /// may spawn one.
    fn resolving(&self, slot: u32) -> bool {
        self.expects.iter().any(|e| match e {
            Expect::Await { slot: s, .. } | Expect::LateDup { slot: s, .. } => *s == slot,
            _ => false,
        })
    }

    fn expect_await(
        &mut self,
        job: u64,
        slot: u32,
        lane: usize,
        t0: u64,
        sent: u64,
        cmds: &mut Vec<ClientCmd>,
    ) {
        let expires = match self.profile.await_for_ns {
            0 => u64::MAX,
            bound => {
                cmds.push(ClientCmd::WakeAt(sent + bound));
                sent + bound
            }
        };
        self.expects.push_back(Expect::Await {
            job,
            slot,
            lane,
            t0,
            expires,
        });
    }

    /// An await unanswered past its bound is a lost job.
    fn expire_awaits(&mut self, now: u64, rng: &mut SmallRng, cmds: &mut Vec<ClientCmd>) {
        while let Some(pos) = self
            .expects
            .iter()
            .position(|e| matches!(e, Expect::Await { expires, .. } if *expires <= now))
        {
            let Some(Expect::Await { job, slot, .. }) = self.expects.remove(pos) else {
                unreachable!("position matched an await");
            };
            let secs = self.profile.await_for_ns / 1_000_000_000;
            self.violation(format!(
                "accepted job {job} lost: no result within {secs} s"
            ));
            if !self.resolving(slot) {
                self.finish_job(now, rng, cmds);
            }
        }
    }

    fn finish_burst(&mut self, now: u64, rng: &mut SmallRng, cmds: &mut Vec<ClientCmd>) {
        let ids = std::mem::take(&mut self.burst.ids);
        if let Some(&job) = ids.first() {
            if ids.iter().any(|&id| id != job) {
                self.violation(format!(
                    "duplicate submit burst yielded distinct ids {:?} — one logical job ran twice",
                    ids
                ));
            }
            self.tally.accepted += 1;
            let slot = self.next;
            let (spec, opts) = self.job(slot);
            let t0 = self.first_try.take().unwrap_or(now);
            self.next += 1;
            self.retries = 0;
            let mut bytes = Vec::new();
            let mut at = now;
            if self.roll(rng, self.profile.cancel_pm) {
                let (lo, hi) = self.profile.cancel_delay_ns;
                if hi > 0 {
                    // Let the job advance a random distance before the
                    // cancel lands.
                    at += rng.gen_range(lo, hi + 1);
                }
                bytes.extend_from_slice(&Request::Cancel { job }.encode());
                self.expects.push_back(Expect::Cancel(job));
                self.tally.cancels_sent += 1;
            }
            bytes.extend_from_slice(&Request::Await { job }.encode());
            self.expect_await(job, slot, lane_of(opts.priority), t0, at, cmds);
            if self.roll(rng, self.profile.late_dup_pm) {
                let req = Request::Submit {
                    spec,
                    deadline_ms: 0,
                    idem_key: opts.idem_key,
                    affinity: 0,
                    priority: opts.priority,
                };
                bytes.extend_from_slice(&req.encode());
                self.expects.push_back(Expect::LateDup { orig: job, slot });
            }
            if at > now {
                self.held.push((at, bytes));
                cmds.push(ClientCmd::WakeAt(at));
            } else {
                cmds.push(ClientCmd::Send(bytes));
            }
            self.try_submit(now, rng, cmds);
        } else if self.burst.drained {
            let left = self.profile.jobs - self.next;
            self.tally.abandoned += u64::from(left);
            self.jobs_done += left;
            self.next = self.profile.jobs;
            if self.jobs_done >= self.profile.jobs {
                self.complete_work(rng, cmds);
            }
        } else if self.burst.shed {
            // Shed at admission: the job is abandoned, not retried —
            // resubmitting the same deadline into the same backlog is
            // exactly what the gate just refused.
            self.drop_job(now, rng, cmds);
        } else if let Some(ms) = self.burst.retry_ms.take() {
            self.retries += 1;
            let spent = self.profile.retry_for_ns > 0
                && now.saturating_sub(self.first_try.unwrap_or(now)) >= self.profile.retry_for_ns;
            if self.retries > self.profile.max_retries || spent {
                self.tally.gave_up += 1;
                self.drop_job(now, rng, cmds);
            } else {
                // Honour the hint, capped and jittered ±50%: a rejection
                // wave hands the same hint to every refused client, and
                // without jitter they all come back in lockstep.
                let base = u64::from(ms.clamp(1, 250)) * 1_000_000;
                let wake = now + rng.gen_range(base / 2, base + base / 2 + 1);
                self.backoff_until = wake;
                cmds.push(ClientCmd::WakeAt(wake));
            }
        } else {
            self.violation("submit burst resolved with no outcome".into());
            self.drop_job(now, rng, cmds);
        }
    }

    /// Job `next` ends without being accepted.
    fn drop_job(&mut self, now: u64, rng: &mut SmallRng, cmds: &mut Vec<ClientCmd>) {
        self.next += 1;
        self.retries = 0;
        self.first_try = None;
        self.finish_job(now, rng, cmds);
    }

    fn finish_job(&mut self, now: u64, rng: &mut SmallRng, cmds: &mut Vec<ClientCmd>) {
        self.jobs_done += 1;
        if self.jobs_done >= self.profile.jobs {
            self.complete_work(rng, cmds);
        } else {
            let (lo, hi) = self.profile.think_ns;
            cmds.push(ClientCmd::WakeAt(now + rng.gen_range(lo, hi + 1)));
        }
    }

    fn complete_work(&mut self, rng: &mut SmallRng, cmds: &mut Vec<ClientCmd>) {
        self.done = true;
        if self.profile.controller {
            if self.roll(rng, self.profile.shutdown_early_pm) {
                self.send_shutdown(cmds);
            }
            // Otherwise the driver triggers the shutdown once every
            // client is done.
        } else if !self.eof_sent {
            self.eof_sent = true;
            cmds.push(ClientCmd::SendEof);
        }
    }

    /// Send `Shutdown` (controller; idempotent).
    pub fn send_shutdown(&mut self, cmds: &mut Vec<ClientCmd>) {
        if self.sent_shutdown || self.eof_sent {
            return;
        }
        self.sent_shutdown = true;
        self.shutdown_pending = true;
        self.expects.push_back(Expect::Shutdown);
        cmds.push(ClientCmd::Send(Request::Shutdown.encode()));
    }

    /// Whether some request is still waiting for its answer.
    pub(crate) fn awaiting_reply(&self) -> bool {
        !self.expects.is_empty()
    }

    /// Whether this client still owes or expects traffic.
    pub fn quiescent(&self) -> bool {
        self.done && !self.shutdown_pending && self.expects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use romp_epcc::Construct;

    fn stream() -> JobStream {
        Arc::new(|j| {
            let spec = JobSpec::Epcc {
                construct: Construct::Barrier,
                threads: 2,
                inner_reps: 8,
            };
            let opts = SubmitOptions {
                idem_key: j + 1,
                ..SubmitOptions::default()
            };
            (spec, opts)
        })
    }

    /// The requests a batch of commands sends, in order.
    fn sent(cmds: &[ClientCmd]) -> Vec<Request> {
        let mut rb = RecvBuf::new();
        for c in cmds {
            if let ClientCmd::Send(b) = c {
                rb.extend(b);
            }
        }
        std::iter::from_fn(|| rb.next_frame().unwrap())
            .map(|body| Request::decode(&body).unwrap())
            .collect()
    }

    /// Deliver `resps` to `c` at `now`, one payload.
    fn answer(
        c: &mut ClientCore,
        rng: &mut SmallRng,
        now: u64,
        resps: &[Response],
    ) -> Vec<ClientCmd> {
        let bytes: Vec<u8> = resps.iter().flat_map(|r| r.encode()).collect();
        c.on_bytes(now, rng, &bytes)
    }

    fn only_violation(c: &ClientCore, needle: &str) {
        let v = &c.tally.violations;
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains(needle), "{v:?}");
    }

    #[test]
    fn duplicate_burst_answered_with_two_ids_is_a_violation() {
        let mut rng = SmallRng::seed_from_u64(1);
        let profile = ClientProfile {
            dup_pm: 1000,
            ..ClientProfile::driven(1, stream())
        };
        let mut c = ClientCore::new(0, profile);
        let reqs = sent(&c.on_wake(0, &mut rng));
        assert_eq!(reqs.len(), 2, "one payload carries both copies");
        assert_eq!(reqs[0], reqs[1]);
        let accepted = [Response::Accepted { job: 1 }, Response::Accepted { job: 2 }];
        answer(&mut c, &mut rng, 10, &accepted);
        only_violation(&c, "distinct ids [1, 2]");
    }

    #[test]
    fn await_answered_by_error_is_a_lost_job() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut c = ClientCore::new(0, ClientProfile::driven(1, stream()));
        c.on_wake(0, &mut rng);
        let reqs = sent(&answer(
            &mut c,
            &mut rng,
            10,
            &[Response::Accepted { job: 7 }],
        ));
        assert_eq!(reqs, vec![Request::Await { job: 7 }]);
        let err = Response::Error {
            code: ErrorCode::UnknownJob,
            msg: "gone".into(),
        };
        answer(&mut c, &mut rng, 20, &[err]);
        only_violation(&c, "accepted job 7 lost");
        assert_eq!((c.tally.accepted, c.tally.resolved()), (1, 0));
    }

    #[test]
    fn unsolicited_response_is_a_violation() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut c = ClientCore::new(0, ClientProfile::driven(1, stream()));
        c.on_wake(0, &mut rng);
        answer(&mut c, &mut rng, 10, &[Response::Pong]);
        only_violation(&c, "unsolicited response Pong");
        answer(
            &mut c,
            &mut rng,
            20,
            &[Response::JobResult {
                job: 99,
                ok: true,
                wall_us: 1,
                detail: String::new(),
            }],
        );
        assert_eq!(c.tally.violations.len(), 2, "{:?}", c.tally.violations);
    }

    #[test]
    fn hostile_length_prefix_is_a_violation() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut c = ClientCore::new(0, ClientProfile::driven(1, stream()));
        c.on_wake(0, &mut rng);
        c.on_bytes(10, &mut rng, &[0xFF, 0xFF, 0xFF, 0xFF, 0]);
        only_violation(&c, "hostile frame");
    }

    #[test]
    fn pipelined_window_resolves_out_of_order_results() {
        let mut rng = SmallRng::seed_from_u64(5);
        let profile = ClientProfile {
            pipeline: 4,
            ..ClientProfile::driven(4, stream())
        };
        let mut c = ClientCore::new(0, profile);
        let mut reqs = sent(&c.on_wake(0, &mut rng));
        // Each acceptance sends its await and, while the window has
        // room, the next submission in the same pass.
        for job in 10..14u64 {
            assert!(matches!(reqs[..], [Request::Submit { idem_key, .. }] if idem_key == job - 9));
            reqs = sent(&answer(
                &mut c,
                &mut rng,
                job,
                &[Response::Accepted { job }],
            ));
            assert_eq!(reqs[0], Request::Await { job });
            reqs.remove(0);
        }
        assert!(reqs.is_empty(), "a full window submits nothing more");
        for (t, job) in [13u64, 11, 10, 12].into_iter().enumerate() {
            let result = Response::JobResult {
                job,
                ok: true,
                wall_us: 1,
                detail: String::new(),
            };
            answer(&mut c, &mut rng, 100 + t as u64, &[result]);
        }
        assert!(c.tally.violations.is_empty(), "{:?}", c.tally.violations);
        assert_eq!((c.tally.accepted, c.tally.resolved()), (4, 4));
        assert!(c.quiescent());
    }

    #[test]
    fn await_unanswered_past_its_bound_is_a_lost_job() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut c = ClientCore::new(0, ClientProfile::driven(1, stream()));
        c.on_wake(0, &mut rng);
        let cmds = answer(&mut c, &mut rng, 10, &[Response::Accepted { job: 3 }]);
        let bound = c.profile.await_for_ns;
        assert!(cmds
            .iter()
            .any(|cmd| matches!(cmd, ClientCmd::WakeAt(t) if *t == 10 + bound)));
        c.on_wake(10 + bound - 1, &mut rng);
        assert!(c.tally.violations.is_empty());
        c.on_wake(10 + bound, &mut rng);
        only_violation(&c, "accepted job 3 lost: no result within 120 s");
        assert!(c.done, "the lost job ends the client's work");
    }
}
