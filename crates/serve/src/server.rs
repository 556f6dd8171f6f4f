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
//! bookkeeping in [`crate::state`], the job lifecycle state machine in
//! [`crate::lifecycle`], and the dispatch policy in
//! [`crate::dispatcher`] — all shared with the deterministic simulator
//! `romp-sim`, which drives them on a virtual clock, and with the
//! `romp-cluster` router.  This module keeps what is irreducibly
//! production: the TCP listener, the real threads (reactor, dispatcher,
//! watchdog), the lock around the [`Dispatcher`] with the [`Dispatch`]
//! executor seam it drives, and the in-process executor on the
//! [`Runtime`].  Job completions flow back to
//! the reactor over its mailbox ([`ServeCore::on_complete`]) so parked
//! `Await`s answer the moment a job turns terminal.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mca_platform::Clock;
use mca_sync::park::{EventCount, SpinBudget};
use mca_sync::Mutex;
use romp::Runtime;

use crate::dispatcher::{Cmd, Dispatcher};
use crate::job::{run_guarded, JobLimits};
use crate::lifecycle::DedupConfig;
use crate::metrics::Metrics;
use crate::queue::QueuedJob;
use crate::reactor::{Mailbox, Reactor};
use crate::session::ServeCore;
use crate::state::ServeState;

/// The executors behind the [`Dispatcher`]: what starts, cancels and
/// escalates jobs.  The in-process executor ([`Server::start`]) runs
/// them on the server's runtime, `romp-cluster` on a pool of worker
/// processes; admission, the job table, the dispatch policy, the
/// watchdog and the reactor are the same for both.
///
/// Executors report back through [`DispatchCtx::drive`]: each one up or
/// down, each started job's end, and (optionally) activity.
pub trait Dispatch: Send + Sync + 'static {
    /// `(executors, window)`: how many executors there are and how many
    /// jobs each may hold at once.
    fn shape(&self) -> (usize, u32) {
        (1, 1)
    }

    /// Bring the executors up, reporting each with [`Dispatcher::up`];
    /// called once on the `serve-dispatch` thread before the first pop.
    /// The default reports every executor up as incarnation 1.
    fn open(&self, ctx: &DispatchCtx) {
        for exec in 0..self.shape().0 {
            ctx.drive(|d, core| d.up(core, exec, 1));
        }
    }

    /// Start `job` on executor `exec`, incarnation `gen`, and report its
    /// end with [`Dispatcher::finished`] — possibly before returning:
    /// the in-process executor runs the job inline.
    fn start(&self, ctx: &DispatchCtx, exec: usize, gen: u64, job: &QueuedJob);

    /// `job`'s token fired: pass it on to its executor.  The default does
    /// nothing (an executor that shares the token sees it itself).
    fn cancel(&self, _exec: usize, _gen: u64, _job: u64, _deadline: bool) {}

    /// The watchdog found `job` unresponsive to cancellation past the
    /// escalation grace.  Return `true` if an escalating action was taken
    /// against its executor (the backend poisoned, the worker process
    /// killed).
    fn escalate(&self, exec: usize, gen: u64, job: u64) -> bool;

    /// Every accepted job has finished: tear the executors down.
    fn close(&self) {}

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

/// The executors' handle on the server's one [`Dispatcher`].
#[derive(Clone)]
pub struct DispatchCtx {
    shared: Arc<Shared>,
}

impl DispatchCtx {
    /// Apply one dispatcher input: take the dispatcher's lock, run
    /// `input` (which records terminal states through the serving core),
    /// let go, carry out the commands it issued on the [`Dispatch`]
    /// executors, and wake whoever [`wait`](DispatchCtx::wait)s.
    pub fn drive<R>(&self, input: impl FnOnce(&mut Dispatcher, &dyn ServeCore) -> R) -> R {
        let (r, cmds) = {
            let mut d = self.shared.dispatcher.lock();
            let r = input(&mut d, &*self.shared);
            (r, d.take_cmds())
        };
        self.apply(cmds);
        r
    }

    /// Carry out `cmds` on the executors, hand the buffer back, and wake
    /// the waiters.
    fn apply(&self, mut cmds: Vec<Cmd>) {
        let shared = &*self.shared;
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Start(exec, gen, job) => shared.dispatch.start(self, exec, gen, &job),
                Cmd::Cancel(exec, gen, job, dl) => shared.dispatch.cancel(exec, gen, job, dl),
                Cmd::Escalate(exec, gen, job) => {
                    if shared.dispatch.escalate(exec, gen, job) {
                        shared.state.metrics().wd_escalations.incr();
                    }
                }
            }
        }
        shared.dispatcher.lock().recycle(cmds);
        shared.moved.notify_all();
    }

    /// Block until `ready` holds of the dispatcher; every
    /// [`drive`](DispatchCtx::drive) re-checks it.
    pub fn wait(&self, ready: impl Fn(&Dispatcher) -> bool) {
        let shared = &*self.shared;
        let ready = || ready(&shared.dispatcher.lock());
        shared.moved.wait_until(SpinBudget::NONE, None, ready);
    }

    /// The server's shared runtime handle (cheap clone) — the metrics
    /// registry lives on its tracer.
    pub fn runtime(&self) -> Runtime {
        self.shared.rt.clone()
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
    /// The dispatch policy's state.
    pub(crate) dispatcher: Mutex<Dispatcher>,
    /// Rung after every dispatcher transition ([`DispatchCtx::wait`]).
    pub(crate) moved: EventCount,
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

    /// [`Server::start`], but jobs run on `dispatch`'s executors instead
    /// of the server's runtime — the cluster mode.  The runtime is
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
        let (executors, window) = dispatch.shape();
        let shared = Arc::new(Shared {
            state: ServeState::new(Clock::real(), cfg.dedup(), metrics, &cfg),
            stopped: AtomicBool::new(false),
            wd_stop: AtomicBool::new(false),
            mailbox: Mailbox::new()?,
            dispatch,
            dispatcher: Mutex::new(Dispatcher::new(executors, window)),
            moved: EventCount::new(),
            cfg,
            rt,
        });

        let ctx = DispatchCtx {
            shared: Arc::clone(&shared),
        };
        let wd_ctx = ctx.clone();
        let dispatcher = std::thread::Builder::new()
            .name("serve-dispatch".into())
            .spawn(move || dispatch_loop(&ctx))?;

        let watchdog = std::thread::Builder::new()
            .name("serve-watchdog".into())
            .spawn(move || watchdog_loop(&wd_ctx))?;

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

/// The dispatcher thread: wait for a free window slot, pop, hand the
/// job to the [`Dispatcher`]; once the queue is closed and empty, wait
/// for the dispatcher to go idle — every accepted job finished — before
/// the executors close.  (With no executor up at all, a closed queue is
/// noticed at the watchdog's next tick.)
fn dispatch_loop(ctx: &DispatchCtx) {
    let shared = &*ctx.shared;
    shared.dispatch.open(ctx);
    loop {
        ctx.wait(|d| d.can_pop() || shared.state.queue().is_closed());
        let Some(job) = shared.state.pop() else { break };
        ctx.drive(|d, core| d.popped(core, job));
    }
    ctx.wait(Dispatcher::idle);
    shared.dispatch.close();
}

/// The in-process executor: one executor, one job at a time, run inline
/// on the `serve-dispatch` thread on the shared runtime's persistent
/// pool.  Every job runs through [`run_guarded`]: a panicking kernel
/// becomes a `Failed` job carrying the panic message, never a dead
/// dispatcher.  The runtime shares each job's token, so cancels need no
/// forwarding.
struct InProcess {
    rt: Runtime,
}

impl Dispatch for InProcess {
    fn start(&self, ctx: &DispatchCtx, exec: usize, gen: u64, job: &QueuedJob) {
        let (state, outcome) = run_guarded(&self.rt, &job.spec, &job.cancel, job.affinity);
        let exec_ns = outcome.wall_us * 1000;
        ctx.drive(|d, core| d.finished(core, exec, gen, job.id, state, outcome, exec_ns));
    }

    /// Poison the backend so a wedged MRAPI wait flips to the native
    /// fallback at its next timeout lap, after which the job unwinds
    /// normally; then swap the fallback in now rather than at the next
    /// region boundary, so later jobs never touch the poisoned backend.
    fn escalate(&self, _exec: usize, _gen: u64, job: u64) -> bool {
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
/// unwind, and bounds the dedup map ([`ServeCore::watchdog_sweep`]),
/// then hands the tick to the dispatcher, which forwards fired tokens
/// and escalates the sweep's stalled job ([`Dispatcher::tick`]).  Each
/// job's progress is its executor's reported activity, read before the
/// sweep takes the jobs lock.
fn watchdog_loop(ctx: &DispatchCtx) {
    let shared = &*ctx.shared;
    let tick = Duration::from_millis(shared.cfg.watchdog_interval_ms.max(1));
    let grace_ns = shared
        .cfg
        .escalation_grace_ms
        .max(1)
        .saturating_mul(1_000_000);
    while !shared.wd_stop.load(Ordering::Acquire) {
        let remote = ctx.drive(|d, _| d.job_activity());
        let report = shared.watchdog_sweep(&remote, grace_ns);
        ctx.drive(|d, core| d.tick(core, report.escalate));
        std::thread::sleep(tick);
    }
}
