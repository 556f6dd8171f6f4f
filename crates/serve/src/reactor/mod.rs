//! The event-driven connection front-end (DESIGN.md §5.9).
//!
//! One reactor thread owns every socket: a single `epoll` instance
//! watches the listener, an eventfd wakeup, and all connections in
//! edge-triggered mode.  Per connection, a [`RecvBuf`]/[`SendBuf`] pair
//! turns the byte stream back into frames and absorbs short writes, so
//! one thread multiplexes 64+ pipelined clients without a single
//! blocking call — connection threads no longer exist to thrash the
//! compute pool.
//!
//! The per-connection decode/route/backpressure *logic* lives in
//! [`crate::session`] (shared with the `romp-sim` deterministic
//! simulator, which drives the same [`Session`] state machine from
//! virtual-time events); this module owns what is socket-specific:
//! epoll registration, readiness edges, accepts, the completion mailbox,
//! and the flush/close lifecycle.
//!
//! Three flows meet here:
//!
//! * **Requests** — readable sockets are drained to `WouldBlock`, every
//!   complete frame is decoded, and all `Submit`s seen in one wakeup are
//!   admitted as **one batch** (one queue lock, one dispatcher wakeup).
//!   Sync requests (`Poll`, `Fetch`, `Stats`, …) answer in request order;
//!   `Await` parks until its job finishes.
//! * **Completions** — the dispatcher/watchdog push finished job ids into
//!   the reactor's mailbox and raise its eventfd; the reactor answers the
//!   parked `Await`s in completion order.
//! * **Backpressure** — a connection whose write buffer exceeds the
//!   write-buffer cap (256 KiB) is not read or decoded until it drains,
//!   so a slow reader stalls itself, not the server.

mod conn;
mod sys;

pub use conn::{Fill, Flush, RecvBuf, SendBuf};

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mca_sync::Mutex;

use crate::protocol::{ErrorCode, Response};
use crate::queue::QueuedJob;
use crate::server::Shared;
use crate::session::{route_frames, AwaitDisposition, PendingResp, ServeCore, Session, WBUF_LIMIT};
use sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// The reactor's cross-thread inbox: finished job ids (from the
/// dispatcher and watchdog), each delivery paired with an eventfd raise so
/// the reactor, if parked in `epoll_wait`, notices immediately.
pub(crate) struct Mailbox {
    completions: Mutex<Vec<u64>>,
    wake: EventFd,
}

impl Mailbox {
    pub(crate) fn new() -> io::Result<Mailbox> {
        Ok(Mailbox {
            completions: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
        })
    }

    /// Tell this reactor that `job` reached a terminal state.
    pub(crate) fn notify_completion(&self, job: u64) {
        self.completions.lock().push(job);
        self.wake.raise();
    }

    /// Wake the reactor with nothing attached (shutdown nudge).
    pub(crate) fn wake(&self) {
        self.wake.raise();
    }
}

/// One connection's reactor-side state: the socket, its epoll readiness
/// edges, and the transport-independent [`Session`].
struct Conn {
    stream: TcpStream,
    sess: Session,
    /// Readiness flags: set by epoll edges, cleared on `WouldBlock`.
    readable: bool,
    writable: bool,
}

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    ep: Epoll,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    /// job id → tokens of connections with a parked `Await` on it.
    parked: HashMap<u64, Vec<u64>>,
    next_token: u64,
}

impl Reactor {
    /// Build a reactor's epoll set up-front so `Server::start` can fail
    /// loudly instead of a thread dying silently.
    pub(crate) fn new(shared: Arc<Shared>, listener: TcpListener) -> io::Result<Reactor> {
        use std::os::fd::AsRawFd;
        let ep = Epoll::new()?;
        ep.add(shared.mailbox.wake.raw(), TOKEN_WAKE, EPOLLIN | EPOLLET)?;
        listener.set_nonblocking(true)?;
        ep.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN | EPOLLET)?;
        Ok(Reactor {
            shared,
            ep,
            listener,
            conns: HashMap::new(),
            parked: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 256];
        let mut wait_failures = 0u32;
        loop {
            let n = match self.ep.wait(&mut events, -1) {
                Ok(n) => {
                    wait_failures = 0;
                    n
                }
                Err(e) => {
                    // Unexpected (`wait` already absorbs EINTR): back off
                    // so a persistent error (EBADF, …) cannot hot-spin
                    // the thread, and give up on the reactor if it never
                    // clears — a dead poll loop is better than a pegged
                    // core that serves nothing either way.
                    wait_failures += 1;
                    if wait_failures == 1 {
                        eprintln!("romp-serve: reactor: epoll_wait: {e}");
                    }
                    if wait_failures >= 100 {
                        eprintln!(
                            "romp-serve: reactor: epoll_wait keeps failing; abandoning poll loop"
                        );
                        self.wind_down();
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    0
                }
            };
            let m = &self.shared.state.metrics();
            m.reactor_wakeups.incr();
            m.reactor_events.record(n as u64);
            let mut accept_ready = false;
            for ev in events.iter().take(n) {
                let (token, bits) = (ev.data, ev.events);
                match token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKE => self.shared.mailbox.wake.drain(),
                    t => {
                        if let Some(c) = self.conns.get_mut(&t) {
                            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                                c.readable = true;
                            }
                            if bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 {
                                c.writable = true;
                            }
                        }
                    }
                }
            }
            // Read the stop flag *before* draining completions: every
            // completion is notified before `join` sets the flag, so a
            // stopping iteration is guaranteed to see the full set.
            let stopping = self.shared.stopped.load(Ordering::Acquire);
            self.drain_completions();
            if accept_ready {
                self.accept_all();
            }
            loop {
                let worked = self.service_pass();
                self.flush_conns();
                // Flushing can lift a backpressure deferral, and under
                // edge triggering no event will ever re-announce the
                // bytes already sitting in that connection's rbuf — so
                // keep passing while any deferred connection can now
                // make progress, not merely while the last pass worked.
                if !worked && !self.deferral_serviceable() {
                    break;
                }
            }
            self.sweep_closed();
            if stopping {
                self.wind_down();
                return;
            }
        }
    }

    /// A deferred connection whose write buffer has drained below the
    /// cap can decode buffered frames without any further epoll event;
    /// `run` must re-pass for it rather than park in `epoll_wait`.
    fn deferral_serviceable(&self) -> bool {
        self.conns.values().any(|c| {
            c.sess.decode_deferred
                && !c.sess.closed
                && !c.sess.close_after_flush
                && c.sess.wbuf.pending() < WBUF_LIMIT
        })
    }

    /// Answer parked `Await`s for jobs the dispatcher reported finished.
    /// The first live waiter consumes the outcome exactly like a `Fetch`;
    /// later waiters observe `UnknownJob`; dead connections are skipped
    /// without consuming anything.
    fn drain_completions(&mut self) {
        let done = std::mem::take(&mut *self.shared.mailbox.completions.lock());
        for job in done {
            let Some(waiters) = self.parked.remove(&job) else {
                continue;
            };
            let mut still_parked = Vec::new();
            for token in waiters {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                if conn.sess.closed {
                    continue;
                }
                match self.shared.try_complete_await(job) {
                    AwaitDisposition::Ready(resp) => conn.sess.wbuf.queue(&resp.encode()),
                    // Raced a re-submit of the same id? Impossible (ids are
                    // unique), but a spurious notification re-parks safely.
                    AwaitDisposition::Pending => still_parked.push(token),
                }
            }
            if !still_parked.is_empty() {
                self.parked.insert(job, still_parked);
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        use std::os::fd::AsRawFd;
        // Nagle off: a response frame must leave now, not after a
        // delayed-ACK round trip (the 1-client p99 cliff).
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .ep
            .add(
                stream.as_raw_fd(),
                token,
                EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP,
            )
            .is_err()
        {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                sess: Session::new(),
                // Optimistic: data may predate registration; the first
                // service pass finds out via WouldBlock.
                readable: true,
                writable: true,
            },
        );
        self.shared
            .state
            .metrics()
            .reactor_conns
            .set(self.conns.len() as u64);
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.register(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// One pass over every serviceable connection: read to `WouldBlock`,
    /// decode every complete frame, stage responses, admit all `Submit`s
    /// as one batch.  Returns whether any connection was serviced (the
    /// caller re-passes until quiescent, since flushing can lift the
    /// backpressure deferral).
    fn service_pass(&mut self) -> bool {
        let shared = &self.shared;
        let conns = &mut self.conns;
        let parked = &mut self.parked;
        let mut batch: Vec<QueuedJob> = Vec::new();
        let mut staged: Vec<(u64, Vec<PendingResp>)> = Vec::new();
        let mut worked = false;
        for (&token, conn) in conns.iter_mut() {
            if conn.sess.closed || conn.sess.close_after_flush {
                continue;
            }
            if conn.sess.backpressured() {
                // Backpressure: leave the socket unread; revisit when the
                // peer drains responses.
                if conn.readable || conn.sess.rbuf.pending() > 0 {
                    conn.sess.decode_deferred = true;
                }
                continue;
            }
            if !conn.readable && !conn.sess.decode_deferred {
                continue;
            }
            worked = true;
            conn.sess.decode_deferred = false;
            if conn.readable {
                match conn.sess.rbuf.fill_from(&mut conn.stream) {
                    Ok(Fill::WouldBlock) => conn.readable = false,
                    Ok(Fill::Eof) => {
                        conn.readable = false;
                        conn.sess.eof = true;
                    }
                    Err(_) => {
                        conn.sess.closed = true;
                        continue;
                    }
                }
            }
            let mut parked_jobs = Vec::new();
            let out = route_frames(&**shared, &mut conn.sess, &mut batch, &mut parked_jobs);
            for job in parked_jobs {
                parked.entry(job).or_default().push(token);
            }
            // Clean close on EOF (or truncated tail, dropped silently,
            // same as the blocking reader's mid-frame-EOF contract) —
            // only once decoding is quiescent; see `Session`.
            conn.sess.arm_close_if_quiescent();
            if !out.is_empty() {
                staged.push((token, out));
            }
        }
        if !batch.is_empty() {
            shared
                .state
                .metrics()
                .reactor_batch
                .record(batch.len() as u64);
        }
        let mut slots: Vec<Option<Response>> =
            shared.admit_batch(batch).into_iter().map(Some).collect();
        for (token, pending) in staged {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            for p in pending {
                let resp = match p {
                    PendingResp::Ready(r) => r,
                    PendingResp::Submit(i) => slots[i].take().expect("submit slot filled once"),
                };
                conn.sess.wbuf.queue(&resp.encode());
            }
        }
        worked
    }

    fn flush_conns(&mut self) {
        for conn in self.conns.values_mut() {
            if conn.sess.closed {
                continue;
            }
            if conn.writable && !conn.sess.wbuf.is_empty() {
                match conn.sess.wbuf.flush_to(&mut conn.stream) {
                    Ok(Flush::Drained) => {}
                    Ok(Flush::Blocked) => conn.writable = false,
                    Err(_) => conn.sess.closed = true,
                }
            }
            if conn.sess.close_after_flush && conn.sess.wbuf.is_empty() {
                conn.sess.closed = true;
            }
        }
    }

    fn sweep_closed(&mut self) {
        use std::os::fd::AsRawFd;
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.sess.closed)
            .map(|(&t, _)| t)
            .collect();
        if dead.is_empty() {
            return;
        }
        for token in dead {
            if let Some(conn) = self.conns.remove(&token) {
                self.ep.del(conn.stream.as_raw_fd());
            }
        }
        self.shared
            .state
            .metrics()
            .reactor_conns
            .set(self.conns.len() as u64);
    }

    /// Shutdown: every job is terminal and every completion has been
    /// drained (see the flag-read ordering in `run`), so any still-parked
    /// `Await` lost a race to a `Fetch` on another connection — answer it
    /// rather than leave the client hanging, then flush what we can
    /// (bounded: sockets are non-blocking and peers may be gone).
    fn wind_down(&mut self) {
        let parked = std::mem::take(&mut self.parked);
        for (job, waiters) in parked {
            for token in waiters {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                if conn.sess.closed {
                    continue;
                }
                let resp = match self.shared.try_complete_await(job) {
                    AwaitDisposition::Ready(r) => r,
                    AwaitDisposition::Pending => Response::Error {
                        code: ErrorCode::UnknownJob,
                        msg: format!("job {job}: server stopped"),
                    },
                };
                conn.sess.wbuf.queue(&resp.encode());
            }
        }
        for _ in 0..100 {
            self.flush_conns();
            if self
                .conns
                .values()
                .all(|c| c.sess.closed || c.sess.wbuf.is_empty())
            {
                break;
            }
            // Writability may need a moment; we are off the epoll loop.
            for c in self.conns.values_mut() {
                c.writable = true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.state.metrics().reactor_conns.set(0);
    }
}
