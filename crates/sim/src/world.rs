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
//! * the **dispatcher** is the production [`Dispatcher`]: a
//!   `DispatcherPop` event runs its non-blocking pop loop, and its
//!   start / cancel / escalate commands go to the seeded virtual
//!   executors of `world::executor` — the only modelled part — whose
//!   `Done` and `Death` events report back to it.  Placement, retries,
//!   cancel forwarding, escalation targets and the drain condition are
//!   production's, as are the pop / finish bookkeeping underneath;
//! * the **watchdog** becomes a `WatchdogTick` event: the executors'
//!   heartbeats, the production [`ServeCore::watchdog_sweep`] (deadline
//!   kills, sweep metrics, dedup bounds) and the dispatcher's tick;
//! * each **client** is the production client core
//!   ([`romp_serve::client::ClientCore`]), the one `loadgen` and the
//!   chaos-test load drivers run over real sockets.
//!
//! Same seed ⇒ same event sequence ⇒ byte-identical trace: all state is
//! in `BTreeMap`s/`Vec`s, ties break on insertion order, and the single
//! [`SmallRng`] is consumed in event order.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

use mca_mrapi::{FaultPlan, FaultSite};
use mca_platform::{Clock, VirtualClock};
use mca_sync::SmallRng;
use romp_serve::client::{ClientCmd, ClientCore};
use romp_serve::dispatcher::Dispatcher;
use romp_serve::session::{Engine, ServeCore};
use romp_serve::{lane_name, lane_of};

use crate::core::SimCore;
use crate::net::{Payload, SimNet};
use crate::scenario::Scenario;
use crate::sched::EventQueue;

mod executor;
use executor::Exec;

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
    /// The dispatcher pops what its free window slots allow.
    DispatcherPop,
    /// Run `run` of executor `exec`, incarnation `gen`, ends.
    Done { exec: usize, gen: u64, run: u64 },
    /// Executor `exec`, incarnation `gen`, dies.
    Death { exec: usize, gen: u64 },
    /// One watchdog sweep.
    WatchdogTick,
    /// Cut the configured connections (both directions).
    PartitionStart,
    /// Heal them, releasing held traffic in order.
    PartitionHeal,
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
    clients: Vec<ClientCore>,
    /// Per client: how long it takes to read a delivery, virtual ns.
    ack_delay_ns: Vec<u64>,
    dispatcher: Dispatcher,
    execs: Vec<Exec>,
    fault: Option<FaultPlan>,
    /// Starts per job id.
    starts: BTreeMap<u64, u32>,
    /// Orphaned jobs the dispatcher requeued.
    retries: u64,
    /// Jobs whose token fired before their turn on an executor came.
    unrun: u64,
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
        let mut dispatcher = Dispatcher::new(sc.executors, sc.exec_window);
        for exec in 0..sc.executors {
            dispatcher.up(&core, exec, 1);
        }
        let fault = sc.fault_at_ms.map(|at_ms| {
            let site = FaultSite::MutexLock;
            let status = site.legal_statuses()[0];
            FaultPlan::new(seed).with_persistent_at(site, status, at_ms * 1_000_000, clock.clone())
        });

        let mut evq = EventQueue::new();
        let mut net = SimNet::new();
        let mut clients = Vec::new();
        let mut ack_delay_ns = Vec::new();
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
            let (profile, ack_delay) = sc.profile(i, &mut rng);
            clients.push(ClientCore::new(conn, profile));
            ack_delay_ns.push(ack_delay);
            // Staggered starts.
            evq.push(rng.gen_range(0, 200_000), Event::ClientWake(i));
        }
        evq.push(sc.watchdog_tick_ms * 1_000_000, Event::WatchdogTick);
        if let Some((start_ms, heal_ms)) = sc.partition_ms {
            evq.push(start_ms * 1_000_000, Event::PartitionStart);
            evq.push(heal_ms * 1_000_000, Event::PartitionHeal);
        }
        World {
            vclock,
            clock,
            rng,
            evq,
            net,
            core,
            engine,
            clients,
            ack_delay_ns,
            dispatcher,
            execs: (0..sc.executors).map(|_| Exec::new(1)).collect(),
            fault,
            starts: BTreeMap::new(),
            retries: 0,
            unrun: 0,
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
                    "t={t} seq={seq} ev={ev:?} q={} live={} inflight={}",
                    self.core.state().queue().len(),
                    self.core.state().table().live_jobs(),
                    self.dispatcher.inflight(),
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
                let conn = self.clients[i].id;
                match payload {
                    Payload::Bytes(b) => {
                        let n = b.len();
                        let cmds = self.clients[i].on_bytes(now, &mut self.rng, &b);
                        self.apply_cmds(i, cmds);
                        let ack_at = now + self.ack_delay_ns[i];
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
            Event::DispatcherPop => {
                self.dispatcher.pump(&self.core);
                self.after_dispatch();
            }
            Event::Done { exec, gen, run } => self.exec_done(exec, gen, run),
            Event::Death { exec, gen } => self.exec_death(exec, gen),
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
        let conn = self.clients[client_idx].id;
        for cmd in cmds {
            let payload = match cmd {
                ClientCmd::Send(bytes) => Payload::Bytes(bytes),
                ClientCmd::SendEof => Payload::Eof,
                ClientCmd::WakeAt(at) => {
                    self.evq.push(at, Event::ClientWake(client_idx));
                    continue;
                }
            };
            let now = self.now();
            if let Some((at, p)) = self.net.link(conn).up.send(now, &mut self.rng, payload) {
                self.evq.push(at, Event::NetToServer(conn, p));
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

    /// After any pass through the core: deliver completions, let the
    /// executors notice fired tokens, and kick the dispatcher if it has
    /// room and work is waiting.
    fn after_core_interaction(&mut self) {
        for job in self.core.take_completions() {
            self.deliver_completion(job);
        }
        self.poll_tokens();
        if self.dispatcher.can_pop() && !self.core.state().queue().is_empty() {
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

    /// The watchdog: executor heartbeats, the production sweep, then the
    /// dispatcher's tick (cancel forwarding, escalation).
    fn watchdog_tick(&mut self) {
        let now = self.now();
        self.heartbeat();
        let (remote, grace_ms) = (self.dispatcher.job_activity(), self.sc.escalation_grace_ms);
        let report = self.core.watchdog_sweep(&remote, grace_ms * 1_000_000);
        for job in &report.deadline_killed {
            self.trace_line(&format!("t={now} wd kill queued job={job}"));
        }
        self.dispatcher.tick(&self.core, report.escalate);
        self.after_dispatch();
        if !self.quiescent() {
            self.evq.push(
                now + self.sc.watchdog_tick_ms * 1_000_000,
                Event::WatchdogTick,
            );
        }
    }

    /// Whether nothing will ever happen again (the watchdog may stop).
    fn quiescent(&self) -> bool {
        self.dispatcher.drained(&self.core)
            && self.engine.parked_awaits() == 0
            && self.clients.iter().all(|c| c.quiescent())
    }

    /// End-of-run invariants: the properties every seed must satisfy.
    fn finish_checks(&mut self) {
        for (i, c) in self.clients.iter_mut().enumerate() {
            self.violations.append(&mut c.tally.violations);
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
                .map(|c| c.tally.lanes[lane_of(1)].sheds)
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
    pub fn clients(&self) -> &[ClientCore] {
        &self.clients
    }

    /// `(retries, unrun)`: orphaned jobs requeued, and jobs whose token
    /// fired before their turn on an executor came.
    pub fn dispatch_stats(&self) -> (u64, u64) {
        (self.retries, self.unrun)
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
