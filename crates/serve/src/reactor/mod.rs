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
//! Everything a connection *does* — read, route, park, batch-admit,
//! answer completions, flush, close — is the sans-IO
//! [`Engine`] in [`crate::session`], which the
//! `romp-sim` deterministic simulator drives too; this module owns what
//! is socket-specific: epoll registration, readiness edges, accepts,
//! the completion mailbox and its eventfd, sweeping closed sockets out
//! of the epoll set, and the bounded flush retries at shutdown.
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
pub(crate) mod sys;

pub use conn::{Fill, Flush, RecvBuf, SendBuf};

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mca_sync::Mutex;

use crate::server::Shared;
use crate::session::Engine;
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

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    ep: Epoll,
    listener: TcpListener,
    /// Every connection's serving state; see [`Engine`].
    engine: Engine<TcpStream>,
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
            engine: Engine::new(),
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
                        if let Some(c) = self.engine.conn_mut(t) {
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
            let done = std::mem::take(&mut *self.shared.mailbox.completions.lock());
            for job in done {
                self.engine.deliver(&*self.shared, job);
            }
            if accept_ready {
                self.accept_all();
            }
            loop {
                let worked = self.engine.service(&*self.shared, None);
                self.engine.flush(None);
                // Flushing can lift a backpressure deferral, and under
                // edge triggering no event will ever re-announce the
                // bytes already sitting in that connection's rbuf — so
                // keep passing while any deferred connection can now
                // make progress, not merely while the last pass worked.
                if !worked && !self.engine.repass_ready(None) {
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
        self.engine.insert(token, stream);
        self.shared
            .state
            .metrics()
            .reactor_conns
            .set(self.engine.len() as u64);
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

    fn sweep_closed(&mut self) {
        use std::os::fd::AsRawFd;
        let ep = &self.ep;
        if self
            .engine
            .sweep_closed(|stream| ep.del(stream.as_raw_fd()))
        {
            self.shared
                .state
                .metrics()
                .reactor_conns
                .set(self.engine.len() as u64);
        }
    }

    /// Shutdown: answer the `Await`s still parked (see
    /// [`Engine::answer_parked`]), then flush what we can — bounded:
    /// sockets are non-blocking and peers may be gone.
    fn wind_down(&mut self) {
        self.engine.answer_parked(&*self.shared);
        for _ in 0..100 {
            self.engine.flush(None);
            if self.engine.flushed() {
                break;
            }
            // Writability may need a moment; we are off the epoll loop.
            for c in self.engine.conns_mut() {
                c.writable = true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.state.metrics().reactor_conns.set(0);
    }
}
