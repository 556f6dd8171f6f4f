//! Hermetic epoll/eventfd/ppoll bindings.
//!
//! The workspace invariant is `std`-only (`--offline`, no registry
//! crates), so the readiness syscalls the reactor needs are declared
//! directly as `extern "C"` against the platform libc — the same pattern
//! `mca-platform::vtime` uses for `clock_gettime`.  Ownership and
//! closing ride on `std::os::fd::OwnedFd`, so no `close(2)` declaration
//! is needed, and the eventfd is read/written through `std::fs::File`
//! (`&File` implements `Read`/`Write`, which is what lets the dispatcher
//! and watchdog raise the wakeup from their own threads).

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable readiness (`EPOLLIN`).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never subscribed.
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`); always reported, never subscribed.
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write side (`EPOLLRDHUP`).
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery (`EPOLLET`).
pub(crate) const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;

/// `O_CLOEXEC` / `EPOLL_CLOEXEC` / `EFD_CLOEXEC` share one value.
const CLOEXEC: i32 = 0o2000000;
/// `O_NONBLOCK` / `EFD_NONBLOCK`.
const NONBLOCK: i32 = 0o4000;

/// `struct epoll_event` as the kernel ABI defines it.  On x86-64 glibc
/// declares it packed (`__EPOLL_PACKED`), giving the 12-byte layout the
/// kernel expects; other 64-bit targets use the natural 16-byte layout.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-owned token (the reactor stores connection tokens here).
    pub data: u64,
}

impl EpollEvent {
    pub(crate) fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Block until `fd` is readable (data, EOF or error) or `timeout`
/// passes; `None` waits indefinitely.  Returns whether it is readable;
/// a signal interruption reports `false`.  Unlike a socket read timeout,
/// which the kernel rounds to scheduler ticks (milliseconds), `ppoll`
/// sleeps on a high-resolution timer, so a client's timers fire on time.
pub(crate) fn wait_readable(fd: RawFd, timeout: Option<std::time::Duration>) -> io::Result<bool> {
    const POLLIN: i16 = 0x001;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = timeout.map(|d| Timespec {
        tv_sec: d.as_secs() as i64,
        tv_nsec: i64::from(d.subsec_nanos()),
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: pfd and ts outlive the call; a null timeout and a null
    // signal mask are both valid arguments.
    match cvt(unsafe { ppoll(&mut pfd, 1, ts_ptr, std::ptr::null()) }) {
        Ok(n) => Ok(n > 0),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
        Err(e) => Err(e),
    }
}

fn cvt(rc: i32) -> io::Result<i32> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// An owned epoll instance.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub(crate) fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(CLOEXEC) })?;
        // SAFETY: epoll_create1 returned a fresh fd we now own.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// Register `fd` for `events`, tagging its readiness with `token`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: ev is a valid epoll_event for the duration of the call.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    /// Deregister `fd` (best-effort: closing the fd also removes it).
    pub(crate) fn del(&self, fd: RawFd) {
        let mut ev = EpollEvent::zeroed();
        // SAFETY: a zeroed event is valid (ignored by EPOLL_CTL_DEL).
        let _ = unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Block for readiness; fills `events` and returns how many fired.
    /// A signal interruption reports zero events rather than an error.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the events pointer/len describe a live, writable slice.
        let rc = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        match cvt(rc) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// An owned eventfd: the cross-thread wakeup the dispatcher, watchdog and
/// drain path use to reach a reactor parked in `epoll_wait`.
pub(crate) struct EventFd {
    file: File,
}

impl EventFd {
    /// `eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub(crate) fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, CLOEXEC | NONBLOCK) })?;
        // SAFETY: eventfd returned a fresh fd we now own.
        Ok(EventFd {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    pub(crate) fn raw(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Wake the owner.  Safe from any thread; a saturated counter
    /// (`WouldBlock`) still leaves the fd readable, which is all we need.
    pub(crate) fn raise(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Consume pending wakeups so the next `raise` re-arms the edge.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        while matches!((&self.file).read(&mut buf), Ok(8)) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_raise_wakes_epoll_and_drain_rearms() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), 7, EPOLLIN | EPOLLET).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing raised: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ev.raise();
        ev.raise();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (token, bits) = (events[0].data, events[0].events);
        assert_eq!(token, 7);
        assert_ne!(bits & EPOLLIN, 0);
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
        // The edge re-arms after a drain.
        ev.raise();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
    }
}
