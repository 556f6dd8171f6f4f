//! The deterministic world: one seeded event loop driving the whole
//! serve stack on a virtual clock.
//!
//! Everything that is a thread in production is an event source here:
//!
//! * the **reactor** becomes per-connection `NetToServer` deliveries and
//!   `Ack`s driving the production connection [`Engine`] — its service
//!   pass, parked `Await`s, completion delivery and flush/close
//!   lifecycle are the reactor's own code.  Each connection's transport
//!   is a `SimPipe`: delivered bytes wait in an inbox the engine reads
//!   to `WouldBlock`, and a write window stands in for the socket send
//!   buffer (returning `WouldBlock` exactly like a full socket, so
//!   backpressure and decode deferral run their production paths);
//! * the **dispatcher** becomes `DispatcherPop`/`JobDone` events calling
//!   the production [`ServeState::try_pop`](romp_serve::ServeState::try_pop)
//!   and [`ServeCore::finish_job`] — queue-wait, lane gauges, latency,
//!   estimators, counters and the table transition are production's
//!   bookkeeping; only execution is modelled (a seeded duration and
//!   outcome, with `mca-mrapi` [`FaultPlan`] probes deciding failures),
//!   since the simulation tests the *serving* machinery, not the kernels;
//! * the **watchdog** becomes a `WatchdogTick` event running the
//!   production [`ServeCore::watchdog_sweep`] — deadline kills, sweep
//!   metrics, dedup bounds; escalation is modelled as backend poisoning;
//! * each **client** is a seeded state machine from [`crate::client`].
//!
//! Same seed ⇒ same event sequence ⇒ byte-identical trace: all state is
//! in `BTreeMap`s/`Vec`s, ties break on insertion order, and the single
//! [`SmallRng`] is consumed in event order.

use std::io::{self, Read, Write};

use mca_mrapi::{FaultPlan, FaultProbe, FaultSite};
use mca_platform::{Clock, VirtualClock};
use mca_sync::SmallRng;
use romp::CancelToken;
use romp_serve::job::ClassLabel;
use romp_serve::lifecycle::terminal_for;
use romp_serve::session::{Engine, ServeCore};
use romp_serve::{lane_name, JobOutcome, JobState};

use crate::client::{ClientCmd, SimClient};
use crate::core::SimCore;
use crate::net::{Payload, SimNet};
use crate::scenario::Scenario;
use crate::sched::EventQueue;

/// Cooperative-cancel unwind latency: virtual ns from a cancelled
/// running job noticing the token to reaching its terminal state.
const UNWIND_NS: u64 = 200_000;

/// Global event-count backstop (a livelocked schedule must terminate
/// with a violation, not hang the sweep).
const MAX_EVENTS: u64 = 3_000_000;

/// Everything that can happen in the simulated world.
#[derive(Debug)]
enum Event {
    /// A client wakes (start, think-time expiry, or retry backoff).
    ClientWake(usize),
    /// Delivery on a connection's client→server direction.
    NetToServer(u64, Payload),
    /// Delivery on a connection's server→client direction.
    NetToClient(usize, Payload),
    /// The client read `n` delivered bytes: the server's write window
    /// for the connection regains that budget.
    Ack(u64, usize),
    /// The dispatcher looks for the next queued job.
    DispatcherPop,
    /// The running execution identified by `(exec, gen)` finishes.
    JobDone { exec: u64, gen: u64 },
    /// One watchdog sweep.
    WatchdogTick,
    /// Cut the configured connections (both directions).
    PartitionStart,
    /// Heal them, releasing held traffic in order.
    PartitionHeal,
}

/// The modelled execution of one dispatched job.
struct Running {
    job: u64,
    exec: u64,
    gen: u64,
    cancel: CancelToken,
    /// Job-class label (feeds the per-class service-time EWMA).
    label: ClassLabel,
    /// Absolute deadline, if the job carries one (the overload
    /// scenario's miss-bound check).
    deadline_ns: Option<u64>,
    /// Outcome if it runs to completion untouched.
    ok: bool,
    panics: bool,
    /// Stuck in an abandoned-lock wait: never finishes on its own, only
    /// deadline → escalation ends it.
    wedged: bool,
    unwinding: bool,
    started_ns: u64,
}

/// One server-side connection's transport: the simulated socket.
/// Reads drain what the link delivered (`WouldBlock` when dry, EOF once
/// the peer's EOF arrived); writes go into `out` up to the remaining
/// send window, then `WouldBlock` — a kernel socket buffer in one
/// struct.
struct SimPipe {
    inbox: Vec<u8>,
    eof: bool,
    window: usize,
    /// Bytes written since the world last shipped them down the link.
    out: Vec<u8>,
}

impl Read for SimPipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.inbox.is_empty() {
            return if self.eof {
                Ok(0)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "inbox dry"))
            };
        }
        let n = buf.len().min(self.inbox.len());
        buf[..n].copy_from_slice(&self.inbox[..n]);
        self.inbox.drain(..n);
        Ok(n)
    }
}

impl Write for SimPipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.window == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "window full"));
        }
        let n = buf.len().min(self.window);
        self.out.extend_from_slice(&buf[..n]);
        self.window -= n;
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The assembled world (see module docs).  Drive with [`World::run`].
pub struct World {
    vclock: VirtualClock,
    clock: Clock,
    rng: SmallRng,
    evq: EventQueue<Event>,
    net: SimNet,
    core: SimCore,
    engine: Engine<SimPipe>,
    clients: Vec<SimClient>,
    running: Option<Running>,
    exec_seq: u64,
    dispatcher_done: bool,
    backend_poisoned: bool,
    fault: Option<FaultPlan>,
    sc: Scenario,
    events: u64,
    trace: Option<String>,
    violations: Vec<String>,
}

impl World {
    /// Build a world for `scenario` from `seed`.
    pub fn new(sc: Scenario, seed: u64, capture_trace: bool) -> Self {
        let vclock = VirtualClock::new(0);
        let clock = vclock.clock();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x005E_ED51_0000 ^ sc.salt());
        let core = SimCore::new(clock.clone(), sc.core_config());

        let mut evq = EventQueue::new();
        let mut net = SimNet::new();
        let mut clients = Vec::new();
        let mut engine = Engine::new();
        for i in 0..sc.clients {
            let conn = (i as u64) + 1;
            net.add_link(conn, sc.link(&mut rng));
            engine.insert(
                conn,
                SimPipe {
                    inbox: Vec::new(),
                    eof: false,
                    window: sc.window,
                    out: Vec::new(),
                },
            );
            clients.push(SimClient::new(conn, sc.profile(i, &mut rng)));
            // Staggered starts.
            evq.push(rng.gen_range(0, 200_000), Event::ClientWake(i));
        }
        evq.push(sc.watchdog_tick_ms * 1_000_000, Event::WatchdogTick);
        if let Some((start_ms, heal_ms)) = sc.partition_ms {
            evq.push(start_ms * 1_000_000, Event::PartitionStart);
            evq.push(heal_ms * 1_000_000, Event::PartitionHeal);
        }
        let fault = sc.fault_at_ms.map(|at_ms| {
            FaultPlan::new(seed).with_persistent_at(
                FaultSite::MutexLock,
                FaultSite::MutexLock.legal_statuses()[0],
                at_ms * 1_000_000,
                clock.clone(),
            )
        });

        World {
            vclock,
            clock,
            rng,
            evq,
            net,
            core,
            engine,
            clients,
            running: None,
            exec_seq: 0,
            dispatcher_done: false,
            backend_poisoned: false,
            fault,
            sc,
            events: 0,
            trace: capture_trace.then(String::new),
            violations: Vec::new(),
        }
    }

    fn trace_line(&mut self, line: &str) {
        if let Some(t) = self.trace.as_mut() {
            t.push_str(line);
            t.push('\n');
        }
    }

    fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Run to quiescence; returns `(violations, trace)` raw material for
    /// the scenario report.
    pub fn run(&mut self) -> (Vec<String>, Option<String>) {
        let horizon_ns = self.sc.horizon_ms * 1_000_000;
        while let Some((t, seq, ev)) = self.evq.pop() {
            if t > horizon_ns {
                self.violations.push(format!(
                    "virtual horizon exceeded at t={t}ns ({} events): {ev:?} still pending",
                    self.events
                ));
                break;
            }
            self.events += 1;
            if self.events > MAX_EVENTS {
                self.violations.push(format!(
                    "event backstop hit at t={t}ns: schedule never quiesced"
                ));
                break;
            }
            self.vclock.advance_to(t);
            if self.trace.is_some() {
                let line = format!(
                    "t={t} seq={seq} ev={ev:?} q={} live={} running={:?}",
                    self.core.state().queue().len(),
                    self.core.state().table().live_jobs(),
                    self.running.as_ref().map(|r| r.job),
                );
                self.trace_line(&line);
            }
            self.dispatch_event(ev);
        }
        self.finish_checks();
        (std::mem::take(&mut self.violations), self.trace.take())
    }

    fn dispatch_event(&mut self, ev: Event) {
        match ev {
            Event::ClientWake(i) => {
                let now = self.now();
                let cmds = self.clients[i].on_wake(now, &mut self.rng);
                self.apply_cmds(i, cmds);
                self.after_core_interaction();
            }
            Event::NetToServer(conn, payload) => {
                if let Some(c) = self.engine.conn_mut(conn) {
                    match payload {
                        Payload::Bytes(b) => c.io.inbox.extend_from_slice(&b),
                        Payload::Eof => c.io.eof = true,
                    }
                    c.readable = true;
                }
                self.service_conn(conn);
            }
            Event::NetToClient(i, payload) => {
                let now = self.now();
                let conn = self.clients[i].conn;
                match payload {
                    Payload::Bytes(b) => {
                        let n = b.len();
                        let cmds = self.clients[i].on_bytes(now, &mut self.rng, &b);
                        self.apply_cmds(i, cmds);
                        let ack_at = now + self.clients[i].profile.ack_delay_ns;
                        self.evq.push(ack_at, Event::Ack(conn, n));
                    }
                    Payload::Eof => self.clients[i].on_server_eof(),
                }
                self.after_core_interaction();
                self.check_all_done();
            }
            Event::Ack(conn, n) => {
                if let Some(c) = self.engine.conn_mut(conn) {
                    c.io.window += n;
                    c.writable = true;
                }
                self.flush_conn(conn);
                // The production deferral path: window freed, revisit
                // buffered frames without a new read event.
                if self.engine.repass_ready(Some(conn)) {
                    self.service_conn(conn);
                }
            }
            Event::DispatcherPop => self.dispatcher_pop(),
            Event::JobDone { exec, gen } => self.job_done(exec, gen),
            Event::WatchdogTick => self.watchdog_tick(),
            Event::PartitionStart => {
                let now = self.now();
                for conn in self.sc.partition_set() {
                    let link = self.net.link(conn);
                    link.up.partition();
                    link.down.partition();
                }
                self.trace_line(&format!("t={now} partition start"));
            }
            Event::PartitionHeal => {
                let now = self.now();
                for conn in self.sc.partition_set() {
                    let (ups, downs) = {
                        let link = self.net.link(conn);
                        let ups = link.up.heal(now, &mut self.rng);
                        let downs = link.down.heal(now, &mut self.rng);
                        (ups, downs)
                    };
                    let client = (conn - 1) as usize;
                    for (at, p) in ups {
                        self.evq.push(at, Event::NetToServer(conn, p));
                    }
                    for (at, p) in downs {
                        self.evq.push(at, Event::NetToClient(client, p));
                    }
                }
                self.trace_line(&format!("t={now} partition heal"));
            }
        }
    }

    fn apply_cmds(&mut self, client_idx: usize, cmds: Vec<ClientCmd>) {
        let conn = self.clients[client_idx].conn;
        for cmd in cmds {
            let now = self.now();
            match cmd {
                ClientCmd::Send(bytes) => {
                    if let Some((at, p)) =
                        self.net
                            .link(conn)
                            .up
                            .send(now, &mut self.rng, Payload::Bytes(bytes))
                    {
                        self.evq.push(at, Event::NetToServer(conn, p));
                    }
                }
                ClientCmd::SendEof => {
                    if let Some((at, p)) =
                        self.net
                            .link(conn)
                            .up
                            .send(now, &mut self.rng, Payload::Eof)
                    {
                        self.evq.push(at, Event::NetToServer(conn, p));
                    }
                }
                ClientCmd::WakeAt(at) => self.evq.push(at, Event::ClientWake(client_idx)),
            }
        }
    }

    /// Once every client has finished its work, the controller sends
    /// `Shutdown` so the run always exercises the graceful drain.
    fn check_all_done(&mut self) {
        if self.clients.iter().any(|c| c.sent_shutdown) {
            return;
        }
        if !self.clients.iter().all(|c| c.done) {
            return;
        }
        let idx = self
            .clients
            .iter()
            .position(|c| c.profile.controller)
            .expect("a controller exists");
        let mut cmds = Vec::new();
        self.clients[idx].send_shutdown(&mut cmds);
        self.apply_cmds(idx, cmds);
    }

    /// Service one connection through the engine — passing again while a
    /// frame-cap deferral can still make progress — then flush it.
    fn service_conn(&mut self, conn_id: u64) {
        while self.engine.service(&self.core, Some(conn_id))
            && self.engine.repass_ready(Some(conn_id))
        {}
        self.after_core_interaction();
        self.flush_conn(conn_id);
    }

    /// Flush a connection through the engine and ship what its window
    /// took down the link, followed by EOF if the flush closed it.
    fn flush_conn(&mut self, conn_id: u64) {
        let closed_now = self.engine.flush(Some(conn_id));
        let Some(c) = self.engine.conn_mut(conn_id) else {
            return;
        };
        let out = std::mem::take(&mut c.io.out);
        let now = self.now();
        let client = (conn_id - 1) as usize;
        let down = &mut self.net.link(conn_id).down;
        let bytes = (!out.is_empty()).then_some(Payload::Bytes(out));
        for p in [bytes, closed_now.then_some(Payload::Eof)]
            .into_iter()
            .flatten()
        {
            if let Some((at, p)) = down.send(now, &mut self.rng, p) {
                self.evq.push(at, Event::NetToClient(client, p));
            }
        }
    }

    /// After any pass through the core: deliver cancel-completions,
    /// notice a cancelled running job, and kick the dispatcher if work
    /// is waiting.
    fn after_core_interaction(&mut self) {
        for job in self.core.take_completions() {
            self.deliver_completion(job);
        }
        self.maybe_unwind_running();
        if self.running.is_none() && !self.dispatcher_done && !self.core.state().queue().is_empty()
        {
            let now = self.now();
            self.evq.push(now, Event::DispatcherPop);
        }
    }

    /// Answer every parked `Await` on a now-terminal job (the mailbox
    /// broadcast, in event form) and flush each answered connection.
    fn deliver_completion(&mut self, job: u64) {
        for conn_id in self.engine.deliver(&self.core, job) {
            self.flush_conn(conn_id);
        }
    }

    /// The dispatcher: the production pop, then the seeded execution
    /// plan and its scheduled completion.
    fn dispatcher_pop(&mut self) {
        if self.running.is_some() || self.dispatcher_done {
            return;
        }
        let st = self.core.state();
        let Some(qjob) = st.try_pop() else {
            if st.queue().is_closed() {
                self.dispatcher_done = true;
            }
            return;
        };
        let now = self.now();
        self.core.bump_activity();
        let (dur_ns, ok, panics, wedged) = self.plan_exec(qjob.deadline_ns.is_some());
        self.exec_seq += 1;
        let exec = self.exec_seq;
        self.trace_line(&format!(
            "t={now} dispatch job={} dur={dur_ns} ok={ok} panic={panics} wedge={wedged}",
            qjob.id
        ));
        if !wedged {
            self.evq.push(now + dur_ns, Event::JobDone { exec, gen: 0 });
        }
        self.running = Some(Running {
            job: qjob.id,
            exec,
            gen: 0,
            label: qjob.spec.label(),
            deadline_ns: qjob.deadline_ns,
            cancel: qjob.cancel,
            ok,
            panics,
            wedged,
            unwinding: false,
            started_ns: now,
        });
    }

    /// Seeded execution plan: duration plus one of ok / verification
    /// failure / panic / wedge.  An `mca-mrapi` fault probe (the timed
    /// persistent fault scenarios arm) turns lock acquisitions into
    /// failures once the virtual clock passes the arm time.
    fn plan_exec(&mut self, has_deadline: bool) -> (u64, bool, bool, bool) {
        let dur = self.rng.gen_range(self.sc.exec_ns.0, self.sc.exec_ns.1 + 1);
        let mrapi_fault = self
            .fault
            .as_ref()
            .map(|p| p.decide(FaultSite::MutexLock).fail.is_some())
            .unwrap_or(false);
        let roll = self.rng.gen_range(0, 1000);
        // Wedges model a worker stuck on an abandoned MCA lock: only a
        // deadline (→ escalation) can end one, and a poisoned backend
        // has already fallen back to native sync, which cannot wedge.
        if has_deadline && !self.backend_poisoned && roll < self.sc.wedge_pm {
            return (dur, false, false, true);
        }
        if mrapi_fault || roll < self.sc.wedge_pm + self.sc.fail_pm {
            let panics = self.rng.gen_range(0, 1000) < 300;
            return (dur, false, panics, false);
        }
        (dur, true, false, false)
    }

    /// A modelled execution reached its end (or finished unwinding).
    fn job_done(&mut self, exec: u64, gen: u64) {
        let stale = self
            .running
            .as_ref()
            .map(|r| r.exec != exec || r.gen != gen)
            .unwrap_or(true);
        if stale {
            return;
        }
        let r = self.running.take().expect("checked above");
        let now = self.now();
        let exec_ns = now.saturating_sub(r.started_ns);
        let wall_us = exec_ns / 1_000;
        let (state, outcome) = if r.panics && r.cancel.reason().is_none() {
            (
                JobState::Failed,
                JobOutcome {
                    ok: false,
                    wall_us,
                    detail: "panicked: simulated kernel fault".into(),
                },
            )
        } else {
            terminal_for(
                r.cancel.reason(),
                JobOutcome {
                    ok: r.ok,
                    wall_us,
                    detail: if r.ok {
                        "ok".into()
                    } else {
                        "verification failed".into()
                    },
                },
            )
        };
        self.core
            .finish_job(r.job, &r.label, state, outcome, exec_ns);
        self.core.bump_activity();
        // Overload invariant: an accepted job reaches its terminal state
        // within the deadline-enforcement granularity — a watchdog tick
        // to notice the deadline, one maximal execution that started
        // just before the kill, and the cooperative unwind.
        if self.sc.shed {
            if let Some(dl) = r.deadline_ns {
                let grace = self.sc.watchdog_tick_ms * 1_000_000
                    + self.sc.exec_ns.1
                    + UNWIND_NS
                    + 1_000_000;
                if now > dl.saturating_add(grace) {
                    self.violations.push(format!(
                        "job {} finished {}ns past its deadline (grace {grace}ns)",
                        r.job,
                        now - dl
                    ));
                }
            }
        }
        self.trace_line(&format!("t={now} done job={} state={state:?}", r.job));
        for job in self.core.take_completions() {
            self.deliver_completion(job);
        }
        if !self.dispatcher_done {
            self.evq.push(now, Event::DispatcherPop);
        }
    }

    /// A cancelled, non-wedged running job unwinds at its next
    /// cooperative checkpoint — shortly, in virtual time.
    fn maybe_unwind_running(&mut self) {
        let now = self.now();
        if let Some(r) = self.running.as_mut() {
            if !r.unwinding && !r.wedged && r.cancel.is_cancelled() {
                r.unwinding = true;
                r.gen += 1;
                let (exec, gen) = (r.exec, r.gen);
                self.evq.push(now + UNWIND_NS, Event::JobDone { exec, gen });
            }
        }
    }

    /// The watchdog: the production sweep, then escalation of a stalled
    /// cancel (modelled as backend poisoning).
    fn watchdog_tick(&mut self) {
        let now = self.now();
        let report = self
            .core
            .watchdog_sweep(self.sc.escalation_grace_ms * 1_000_000);
        for job in &report.deadline_killed {
            self.trace_line(&format!("t={now} wd kill queued job={job}"));
        }
        for job in self.core.take_completions() {
            self.deliver_completion(job);
        }
        if let Some(stalled) = report.escalate {
            if !self.backend_poisoned {
                self.backend_poisoned = true;
                self.core.state().metrics().wd_escalations.incr();
            }
            self.trace_line(&format!("t={now} wd escalate job={stalled}"));
            // Poisoning abandons the MCA wait: the wedged job's unwind
            // finally runs.
            if let Some(r) = self.running.as_mut() {
                if r.job == stalled && !r.unwinding {
                    r.unwinding = true;
                    r.wedged = false;
                    r.gen += 1;
                    let (exec, gen) = (r.exec, r.gen);
                    self.evq.push(now + UNWIND_NS, Event::JobDone { exec, gen });
                }
            }
        }
        // A running job whose deadline just fired unwinds cooperatively.
        self.maybe_unwind_running();
        if !self.quiescent() {
            self.evq.push(
                now + self.sc.watchdog_tick_ms * 1_000_000,
                Event::WatchdogTick,
            );
        }
    }

    /// Whether nothing will ever happen again (the watchdog may stop).
    fn quiescent(&self) -> bool {
        // The dispatcher is done once the queue is closed and dry — it
        // may never see another `DispatcherPop` to notice it itself.
        let queue = self.core.state().queue();
        (self.dispatcher_done || (queue.is_closed() && queue.is_empty()))
            && self.running.is_none()
            && queue.is_empty()
            && self.engine.parked_awaits() == 0
            && self.clients.iter().all(|c| c.quiescent())
    }

    /// End-of-run invariants: the properties every seed must satisfy.
    fn finish_checks(&mut self) {
        for (i, c) in self.clients.iter_mut().enumerate() {
            self.violations.append(&mut c.violations);
            if !c.done {
                self.violations
                    .push(format!("client {i} never finished (stalled schedule)"));
            }
            if c.shutdown_pending {
                self.violations
                    .push(format!("client {i}'s shutdown was never answered"));
            }
        }
        let st = self.core.state();
        let m = st.metrics();
        let accepted = m.accepted.get();
        let resolved = m.completed.get() + m.failed.get() + m.cancelled.get() + m.timed_out.get();
        if accepted != resolved {
            self.violations.push(format!(
                "dropped jobs: accepted={accepted} but only {resolved} reached a terminal state"
            ));
        }
        let dt = st.table().double_terminal();
        if dt != 0 {
            self.violations
                .push(format!("{dt} job(s) reached two terminal states"));
        }
        if st.table().live_jobs() != 0 {
            self.violations.push(format!(
                "{} job(s) still live after quiescence",
                st.table().live_jobs()
            ));
        }
        // Every fired deadline is a miss, and the lane gauges track the
        // queue: both hold only if the sweep and the pop ran production's
        // bookkeeping.
        let (missed, fired) = (m.sched_deadline_miss.get(), m.wd_deadline_fired.get());
        if missed != fired {
            self.violations.push(format!(
                "serve.sched.deadline_miss={missed} but watchdog.deadline_fired={fired}"
            ));
        }
        for (lane, gauge) in m.sched_depth.iter().enumerate() {
            if gauge.get() != 0 {
                self.violations.push(format!(
                    "serve.sched.depth.{} reads {} after quiescence",
                    lane_name(lane),
                    gauge.get()
                ));
            }
        }
        let parked = self.engine.parked_awaits();
        if parked != 0 {
            self.violations
                .push(format!("{parked} parked await(s) never answered"));
        }
        let dedup = st.table().dedup_size();
        if dedup > self.sc.dedup_cap {
            self.violations.push(format!(
                "dedup map over cap after quiescence: {dedup} > {}",
                self.sc.dedup_cap
            ));
        }
        if !self.clients.iter().any(|c| c.sent_shutdown) {
            self.violations
                .push("no shutdown was ever sent (drain untested)".into());
        }
        if self.sc.shed {
            // The Hi lane's weighted overtake must keep its predicted
            // waits under the (deliberately loose) Hi deadlines: a Hi
            // shed means the admission model lost the lane awareness.
            let hi_sheds = m.sched_sheds[0].get();
            if hi_sheds != 0 {
                self.violations
                    .push(format!("{hi_sheds} Hi-priority job(s) shed at admission"));
            }
            let hi_client_sheds: u64 = self
                .clients
                .iter()
                .filter(|c| c.profile.priority == 1)
                .map(|c| c.shed)
                .sum();
            if hi_client_sheds != 0 {
                self.violations.push(format!(
                    "{hi_client_sheds} ShedDeadline response(s) reached Hi clients"
                ));
            }
        }
    }

    /// The core, for post-run report extraction.
    pub fn core(&self) -> &SimCore {
        &self.core
    }

    /// The clients, for post-run report extraction.
    pub fn clients(&self) -> &[SimClient] {
        &self.clients
    }

    /// Events processed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Final virtual time, ns.
    pub fn virtual_ns(&self) -> u64 {
        self.clock.now_ns()
    }
}
