//! The TCP front-end and its dispatcher.
//!
//! Architecture (DESIGN.md §5.9): connections live on one event-driven
//! **reactor** thread — non-blocking sockets multiplexed by `epoll`
//! ([`crate::reactor`]) — while all **compute** funnels through
//! one bounded queue into a single dispatcher thread that runs each job
//! on the one persistent [`Runtime`].  Intra-job parallelism comes from
//! the runtime's work-stealing pool; the server never spins up a team —
//! or a thread — per request, so sixty-four concurrent clients contend on
//! an admission decision, not on sixty-four rival connection threads
//! thrashing the compute pool.
//!
//! The protocol-to-job-table *policy* lives in [`crate::session`] (the
//! [`ServeCore`] provided methods), the serving state and its
//! bookkeeping in [`crate::state`], and the job lifecycle state machine
//! in [`crate::lifecycle`] — all shared with the deterministic simulator
//! `romp-sim`, which drives them on a virtual clock, and with the
//! `romp-cluster` router.  This module keeps what is irreducibly
//! production: the TCP listener, the real threads (reactor, dispatcher,
//! watchdog), and the [`Runtime`] binding.  Job completions flow back to
//! the reactor over its mailbox ([`ServeCore::on_complete`]) so parked
//! `Await`s answer the moment a job turns terminal.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mca_platform::Clock;
use romp::Runtime;

use crate::job::{run_guarded, JobLimits, JobOutcome, JobState};
use crate::lifecycle::DedupConfig;
use crate::metrics::Metrics;
use crate::queue::QueuedJob;
use crate::reactor::{Mailbox, Reactor};
use crate::session::ServeCore;
use crate::state::ServeState;

/// Where the dispatcher sends admitted jobs: the in-process executor
/// ([`Server::start`]) runs them on the server's runtime, `romp-cluster`
/// routes them to a pool of worker processes; admission, the job table,
/// the watchdog and the reactor are the same for both.
///
/// The implementation's [`run`](Dispatch::run) pops jobs through the
/// [`DispatchCtx`] until the queue closes and every accepted job has been
/// completed via [`DispatchCtx::complete`] — the zero-dropped-jobs drain
/// contract is the implementor's to keep.
pub trait Dispatch: Send + Sync + 'static {
    /// The dispatcher body; called once on the `serve-dispatch` thread.
    /// Must not return until the queue is closed **and** every popped
    /// job has been completed.
    fn run(&self, ctx: DispatchCtx);

    /// The watchdog found `job` unresponsive to cancellation past the
    /// escalation grace.  Return `true` if the dispatcher took an
    /// escalating action (poisoned the backend, killed the worker
    /// process running it).
    fn escalate(&self, job: u64) -> bool;

    /// `(job, counter)` for each job in flight on a runtime other than
    /// the server's (a worker process), with that runtime's activity
    /// counter: the watchdog judges those jobs' progress by it.  Must not
    /// call back into the serving state.  Empty (the default) when every
    /// job runs on the server's runtime.
    fn job_activity(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// Operator-triggered rolling restart; `Some(n)` = scheduled across
    /// `n` workers.  `None` = unsupported.
    fn rolling_restart(&self) -> Option<u64> {
        None
    }

    /// Extra stats spliced into the `Stats` JSON under `"cluster"`.
    fn stats_json(&self) -> Option<String> {
        None
    }

    /// Shared-memory result slots still held after the drain (leak
    /// detector; reported in the [`DrainReport`]).
    fn rmem_leaked(&self) -> u64 {
        0
    }
}

/// The dispatcher's window into the serving stack, handed to
/// [`Dispatch::run`]: every dispatcher pops and completes through the
/// server's one [`ServeState`], so all of them keep the same books.
#[derive(Clone)]
pub struct DispatchCtx {
    shared: Arc<Shared>,
}

impl DispatchCtx {
    /// Claim the next job to run (blocking; see [`ServeState::pop`]).
    /// `None` means the queue is closed and empty — the drain signal;
    /// finish outstanding work and return from `run`.
    pub fn pop(&self) -> Option<QueuedJob> {
        self.shared.state.pop()
    }

    /// Record a popped job's terminal state: metrics, the service-time
    /// estimators feeding admission backpressure and the shed gate
    /// (`label` is the job's [`crate::JobSpec::label`]; a zero `exec_ns`
    /// — a job that never ran — leaves them untouched), the table entry,
    /// and the completion broadcast that answers parked `Await`s.  Call
    /// exactly once per job [`pop`](DispatchCtx::pop) returned.
    pub fn complete(
        &self,
        job: u64,
        label: &str,
        state: JobState,
        outcome: JobOutcome,
        exec_ns: u64,
    ) {
        self.shared.finish_job(job, label, state, outcome, exec_ns);
    }

    /// The server's shared runtime handle (cheap clone) — the metrics
    /// registry lives on its tracer.
    pub fn runtime(&self) -> Runtime {
        self.shared.rt.clone()
    }

    /// Current clock nanoseconds (the table's clock).
    pub fn now_ns(&self) -> u64 {
        self.shared.state.clock().now_ns()
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bound on jobs queued awaiting dispatch (admission control).
    pub queue_cap: usize,
    /// Per-job limits enforced at submission.
    pub limits: JobLimits,
    /// Deadline applied to jobs that do not request one, milliseconds
    /// from admission; `0` means unbounded (the default — supervision is
    /// strictly opt-in, so an unconfigured server behaves as before).
    pub default_deadline_ms: u32,
    /// How often the watchdog samples job wall-time and worker progress.
    pub watchdog_interval_ms: u64,
    /// How long a cancelled job may show *no* worker progress before the
    /// watchdog escalates to poisoning the backend (forcing wedged MRAPI
    /// waits onto the native fallback).
    pub escalation_grace_ms: u64,
    /// Bound on *terminal* entries retained in the idempotency/dedup
    /// map; past it the watchdog evicts oldest-terminal-first.  Live
    /// jobs' keys are never evicted (PR 7).
    pub dedup_cap: usize,
    /// How long a terminal, unfetched job (and its idempotency key) is
    /// retained before the watchdog reclaims it, milliseconds.
    pub result_ttl_ms: u64,
    /// Admission-time deadline shedding: when enabled, a deadline job
    /// whose predicted completion (lane-aware queue wait + class EWMA)
    /// exceeds its slack is answered `ShedDeadline` instead of being
    /// accepted and later deadline-killed.  Off by default.
    pub shed: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 64,
            limits: JobLimits::default(),
            default_deadline_ms: 0,
            watchdog_interval_ms: 5,
            escalation_grace_ms: 250,
            dedup_cap: 4096,
            result_ttl_ms: 60_000,
            shed: false,
        }
    }
}

impl ServeConfig {
    /// The dedup bounds in [`crate::JobTable`] terms.
    pub(crate) fn dedup(&self) -> DedupConfig {
        DedupConfig {
            cap: self.dedup_cap,
            ttl_ns: self.result_ttl_ms.max(1).saturating_mul(1_000_000),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) rt: Runtime,
    pub(crate) cfg: ServeConfig,
    /// Table, queue, metrics and estimators — shared logic with
    /// `romp-sim` and the cluster router, see [`crate::state`].
    pub(crate) state: ServeState,
    pub(crate) stopped: AtomicBool,
    /// Tells the watchdog thread to exit (set during [`ServerHandle::join`]).
    pub(crate) wd_stop: AtomicBool,
    /// The reactor's completion mailbox.
    pub(crate) mailbox: Mailbox,
    /// Where admitted jobs run.
    pub(crate) dispatch: Arc<dyn Dispatch>,
}

impl ServeCore for Shared {
    fn state(&self) -> &ServeState {
        &self.state
    }

    fn activity(&self) -> u64 {
        self.rt.activity()
    }

    /// Tell the reactor "job `id` is terminal (with its outcome
    /// recorded)".  Called *after* the jobs-table entry holds the outcome,
    /// so the woken reactor always finds it consumable.
    fn on_complete(&self, job: u64) {
        self.mailbox.notify_completion(job);
    }

    fn stats_json(&self) -> String {
        self.state.stats_json(
            self.rt.backend_kind().label(),
            self.rt.degraded(),
            self.dispatch.stats_json(),
            self.rt.tracer().metrics(),
        )
    }

    fn rolling_restart(&self) -> Option<u64> {
        self.dispatch.rolling_restart()
    }

    fn job_activity(&self) -> Vec<(u64, u64)> {
        self.dispatch.job_activity()
    }
}

/// What the drained server reports when it exits (the CI smoke asserts
/// `dropped == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs admitted over the server's lifetime.
    pub accepted: u64,
    /// Jobs finished with passing verification.
    pub completed: u64,
    /// Jobs finished with failing verification (panics included).
    pub failed: u64,
    /// Jobs that reached the `Cancelled` terminal state.
    pub cancelled: u64,
    /// Jobs that reached the `TimedOut` terminal state.
    pub timed_out: u64,
    /// Submissions refused by admission control (backpressure worked).
    pub rejected: u64,
    /// Malformed frames/payloads refused.
    pub proto_errors: u64,
    /// Accepted jobs that never reached a terminal state.  **Always zero
    /// on a graceful drain** — every accepted job ends as exactly one of
    /// completed / failed / cancelled / timed-out.
    pub dropped: u64,
    /// Shared-memory result slots still held at drain (cluster mode; the
    /// rmem leak detector).  **Always zero on a graceful drain** — every
    /// slot a worker fills is released when its result is fetched.
    pub rmem_leaked: u64,
}

impl DrainReport {
    /// Render as a one-object JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"accepted\":{},\"completed\":{},\"failed\":{},\"cancelled\":{},\
             \"timed_out\":{},\"rejected\":{},\"proto_errors\":{},\"dropped\":{},\
             \"rmem_leaked\":{}}}",
            self.accepted,
            self.completed,
            self.failed,
            self.cancelled,
            self.timed_out,
            self.rejected,
            self.proto_errors,
            self.dropped,
            self.rmem_leaked
        )
    }
}

/// A running server.  Obtain with [`Server::start`]; drive with a
/// [`crate::Client`]; finish with [`ServerHandle::join`].
pub struct Server;

/// Handle to a started server: its bound address and the join path.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: JoinHandle<()>,
    dispatcher: JoinHandle<()>,
    watchdog: JoinHandle<()>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the reactor, dispatcher and watchdog threads over the given
    /// runtime.
    ///
    /// The runtime is *shared*: the caller may keep a clone (it is a
    /// cheap handle) to inspect degradation or drain traces while the
    /// server runs; all jobs execute on its one persistent pool.
    pub fn start(addr: &str, cfg: ServeConfig, rt: Runtime) -> std::io::Result<ServerHandle> {
        let dispatch = Arc::new(InProcess { rt: rt.clone() });
        Self::start_with_dispatch(addr, cfg, rt, dispatch)
    }

    /// [`Server::start`], but jobs route to `dispatch` instead of the
    /// in-process execution loop — the cluster mode.  The runtime is
    /// still required: its tracer hosts the metrics registry and the
    /// reactor's admission policy reads its activity counter; it just
    /// never runs job kernels.
    pub fn start_with_dispatch(
        addr: &str,
        cfg: ServeConfig,
        rt: Runtime,
        dispatch: Arc<dyn Dispatch>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics = Metrics::new(rt.tracer().metrics());
        let shared = Arc::new(Shared {
            state: ServeState::new(Clock::real(), cfg.dedup(), metrics, &cfg),
            stopped: AtomicBool::new(false),
            wd_stop: AtomicBool::new(false),
            mailbox: Mailbox::new()?,
            dispatch,
            cfg,
            rt,
        });

        let ctx = DispatchCtx {
            shared: Arc::clone(&shared),
        };
        let dispatcher = std::thread::Builder::new()
            .name("serve-dispatch".into())
            .spawn(move || Arc::clone(&ctx.shared.dispatch).run(ctx))?;

        let wd_shared = Arc::clone(&shared);
        let watchdog = std::thread::Builder::new()
            .name("serve-watchdog".into())
            .spawn(move || watchdog_loop(&wd_shared))?;

        // The epoll set is built here so setup failures surface to the
        // caller, not inside a dead thread.
        let r = Reactor::new(Arc::clone(&shared), listener)?;
        let reactor = std::thread::Builder::new()
            .name("serve-reactor".into())
            .spawn(move || r.run())?;

        Ok(ServerHandle {
            addr: local,
            shared,
            reactor,
            dispatcher,
            watchdog,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared runtime (cheap clone of the handle).
    pub fn runtime(&self) -> Runtime {
        self.shared.rt.clone()
    }

    /// The live stats document (same JSON a `Stats` request returns).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Begin the drain without a wire request (equivalent to a client
    /// sending `Shutdown`).
    pub fn request_drain(&self) {
        self.shared.state.begin_drain();
    }

    /// Wait for the graceful drain to finish and tear the server down.
    ///
    /// Blocks until a `Shutdown` request (or [`ServerHandle::request_drain`])
    /// has closed the queue **and** the dispatcher has finished every
    /// accepted job; then quiesces the runtime pool, stops the watchdog,
    /// and wakes the reactor to flush and exit.  The reactor keeps
    /// serving polls, fetches and awaits for the whole drain — clients
    /// collect every accepted job's result before the teardown.
    pub fn join(self) -> DrainReport {
        let _ = self.dispatcher.join();
        // Every accepted job has run; let trailing region epilogues finish
        // before reporting (the PR 3 pool-quiescence hook).
        self.shared.rt.quiesce();
        self.shared.wd_stop.store(true, Ordering::Release);
        let _ = self.watchdog.join();
        self.shared.stopped.store(true, Ordering::Release);
        self.shared.mailbox.wake();
        let _ = self.reactor.join();
        let state = &self.shared.state;
        let m = state.metrics();
        DrainReport {
            accepted: m.accepted.get(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            cancelled: m.cancelled.get(),
            timed_out: m.timed_out.get(),
            rejected: m.rejected.get(),
            proto_errors: m.proto_errors.get(),
            dropped: state.outstanding(),
            rmem_leaked: self.shared.dispatch.rmem_leaked(),
        }
    }
}

/// The in-process dispatcher: the queue's single consumer, running every
/// job on the shared runtime's persistent pool.  Exits only when the
/// queue is closed *and* empty — i.e. after the graceful drain has
/// finished every accepted job (to completion or to a supervised kill).
///
/// Every job runs through [`run_guarded`]: a panicking kernel becomes a
/// `Failed` job carrying the panic message, never a dead dispatcher.
struct InProcess {
    rt: Runtime,
}

impl Dispatch for InProcess {
    fn run(&self, ctx: DispatchCtx) {
        while let Some(qjob) = ctx.pop() {
            let started = ctx.now_ns();
            let (state, outcome) = run_guarded(&self.rt, &qjob.spec, &qjob.cancel, qjob.affinity);
            let exec_ns = ctx.now_ns().saturating_sub(started);
            ctx.complete(qjob.id, &qjob.spec.label(), state, outcome, exec_ns);
        }
    }

    /// Poison the backend so a wedged MRAPI wait flips to the native
    /// fallback at its next timeout lap, after which the job unwinds
    /// normally; then swap the fallback in now rather than at the next
    /// region boundary, so later jobs never touch the poisoned backend.
    fn escalate(&self, job: u64) -> bool {
        let poisoned = self
            .rt
            .poison_backend(&format!("watchdog: job {job} unresponsive to cancellation"));
        if poisoned {
            self.rt.heal_backend_now();
        }
        poisoned
    }
}

/// The watchdog: every tick it fires deadlines, watches cancelled jobs
/// unwind, escalates the ones that don't, and bounds the dedup map.
///
/// The decisions live in [`crate::lifecycle::JobTable::sweep`] and the
/// bookkeeping in [`ServeState::sweep`] (both shared with `romp-sim`);
/// escalating a job whose workers are flat past the grace is the
/// dispatcher's ([`Dispatch::escalate`]).  Runs outside the jobs lock:
/// escalation takes backend-internal locks.
fn watchdog_loop(shared: &Shared) {
    let tick = Duration::from_millis(shared.cfg.watchdog_interval_ms.max(1));
    let grace_ns = shared
        .cfg
        .escalation_grace_ms
        .max(1)
        .saturating_mul(1_000_000);
    while !shared.wd_stop.load(Ordering::Acquire) {
        let report = shared.watchdog_sweep(grace_ns);
        if let Some(id) = report.escalate {
            if shared.dispatch.escalate(id) {
                shared.state.metrics().wd_escalations.incr();
            }
        }
        std::thread::sleep(tick);
    }
}
