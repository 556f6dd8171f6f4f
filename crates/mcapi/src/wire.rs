//! Cross-process packet-channel transport ("the wire").
//!
//! MCAPI is specified for *closely distributed* systems — cores and OS
//! processes that do not share one address space.  The in-process
//! registry (`crate::registry`) models one interconnect inside a
//! single process; this module carries packet-channel semantics across a
//! real process boundary over a Unix-domain socket, the way a production
//! MCAPI implementation frames packets onto a mailbox or RapidIO driver.
//!
//! A [`WireChan`] is one *duplex* link.  Packets are framed straight
//! onto the socket — a `u32` big-endian length prefix (bounded by
//! [`MAX_WIRE_PKT`]) followed by the body — with no relay thread or
//! intermediate queue on either side.  The prefix is written and read by
//! the workspace's one frame module, [`mca_sync::frame`] (the same
//! reader the `romp-serve` reactor uses), under [`WireFraming`]'s bounds:
//!
//! ```text
//!   app ──send──▶ socket ──▶ peer recv ──▶ peer app
//! ```
//!
//! The socket supplies what a packet channel promises: packets arrive
//! whole and in FIFO order, a sender blocks while the peer's receive
//! buffer is full (backpressure), and when the process on the other side
//! dies — or closes — the receiver drains what was delivered and then
//! observes `MCAPI_ERR_CHAN_CLOSED`, exactly the failure a
//! [`crate::pktchan::PktRx`] reports for an in-process close.  That typed
//! close is what a supervisor keys its failure detection on.

use std::io::{IoSlice, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::{Duration, Instant};

use mca_sync::frame::{self, FrameBuf, Framing};
use mca_sync::Mutex;

use crate::status::{McapiResult, McapiStatus};
use crate::McapiError;

/// Upper bound on one wire packet's payload, protecting either side from
/// hostile or corrupt length prefixes.
pub const MAX_WIRE_PKT: usize = 1 << 20;

/// The wire's framing: packets of 0..=[`MAX_WIRE_PKT`] bytes; a longer
/// prefix means the peer is broken, reported as the channel's close.
#[derive(Debug, Default)]
pub struct WireFraming;

impl Framing for WireFraming {
    const MIN: usize = 0;
    const MAX: usize = MAX_WIRE_PKT;
    type Error = McapiError;
    fn reject(_len: usize) -> McapiError {
        McapiError(McapiStatus::ErrChanClosed)
    }
}

/// Listening side of a wire: accepts peer processes connecting to a
/// Unix-socket path and hands each back as a [`WireChan`].
pub struct WireListener {
    listener: UnixListener,
}

impl WireListener {
    /// Bind `path` (an existing stale socket file is replaced).
    pub fn bind(path: &Path) -> std::io::Result<WireListener> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(WireListener { listener })
    }

    /// Accept one peer, waiting up to `timeout` (`MCAPI_TIMEOUT` if no
    /// peer connects in time).
    pub fn accept(&self, timeout: Duration) -> McapiResult<WireChan> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    return WireChan::from_stream(stream)
                        .map_err(|_| McapiError(McapiStatus::ErrTransmission));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(McapiError(McapiStatus::Timeout));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return Err(McapiError(McapiStatus::ErrTransmission)),
            }
        }
    }
}

/// One duplex cross-process packet link (see module docs).
///
/// `send` and `recv*` may be called from different threads concurrently;
/// sharing one `WireChan` behind an `Arc` between a dispatcher and a
/// supervisor is the intended shape.  Sends are serialized by a lock, so
/// frames from concurrent senders never interleave; receives are
/// serialized too (one frame per call).
pub struct WireChan {
    stream: UnixStream,
    send_lock: Mutex<()>,
    inbox: Mutex<Inbox>,
}

/// Receive-side state: bytes read off the socket but not yet returned
/// (a frame cut short by a timeout stays buffered for the next call),
/// and the read timeout currently set on the socket (set only on change).
struct Inbox {
    frames: FrameBuf<WireFraming>,
    timeout: Option<Duration>,
}

impl WireChan {
    /// Connect to a [`WireListener`] at `path`, retrying until `timeout`
    /// (the listener may not have bound yet — e.g. a worker racing its
    /// router).
    pub fn connect(path: &Path, timeout: Duration) -> McapiResult<WireChan> {
        let deadline = Instant::now() + timeout;
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    return WireChan::from_stream(stream)
                        .map_err(|_| McapiError(McapiStatus::ErrTransmission));
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => return Err(McapiError(McapiStatus::Timeout)),
            }
        }
    }

    /// Build a wire link over an already-connected stream (one side of
    /// `UnixStream::pair()` works too — useful in tests).
    pub fn from_stream(stream: UnixStream) -> std::io::Result<WireChan> {
        stream.set_nonblocking(false)?;
        Ok(WireChan {
            stream,
            send_lock: Mutex::new(()),
            inbox: Mutex::new(Inbox {
                frames: FrameBuf::new(),
                timeout: None,
            }),
        })
    }

    /// Send one packet, blocking while the peer's socket buffer is full.
    /// `MCAPI_ERR_CHAN_CLOSED` means the peer — or the socket under it —
    /// is gone.
    pub fn send(&self, pkt: &[u8]) -> McapiResult<()> {
        if !frame::fits::<WireFraming>(pkt.len()) {
            return Err(McapiError(McapiStatus::ErrPktLimit));
        }
        let prefix = frame::prefix(pkt.len());
        let mut frame = [IoSlice::new(&prefix), IoSlice::new(pkt)];
        let mut rest = &mut frame[..];
        let _g = self.send_lock.lock();
        while !rest.is_empty() {
            match (&self.stream).write_vectored(rest) {
                Ok(0) => return Err(McapiError(McapiStatus::ErrChanClosed)),
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(McapiError(McapiStatus::ErrChanClosed)),
            }
        }
        Ok(())
    }

    /// Receive the next packet, blocking.
    pub fn recv(&self) -> McapiResult<Vec<u8>> {
        self.recv_within(None)
    }

    /// Receive with a bound; `MCAPI_TIMEOUT` if no whole packet arrives
    /// in time (a partly received one is kept for the next call),
    /// `MCAPI_ERR_CHAN_CLOSED` once the peer is gone and every delivered
    /// packet has been received.
    pub fn recv_timeout(&self, timeout: Duration) -> McapiResult<Vec<u8>> {
        self.recv_within(Some(timeout))
    }

    fn recv_within(&self, timeout: Option<Duration>) -> McapiResult<Vec<u8>> {
        let closed = McapiError(McapiStatus::ErrChanClosed);
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut wait = timeout;
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(pkt) = inbox.frames.next_frame()? {
                return Ok(pkt);
            }
            if wait.is_some_and(|w| w.is_zero()) {
                return Err(McapiError(McapiStatus::Timeout));
            }
            if inbox.timeout != wait {
                self.stream.set_read_timeout(wait).map_err(|_| closed)?;
                inbox.timeout = wait;
            }
            match inbox.frames.read_from(&mut &self.stream) {
                Ok(0) => return Err(closed),
                Ok(_) => {}
                Err(e) => match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        return Err(McapiError(McapiStatus::Timeout))
                    }
                    _ => return Err(closed),
                },
            }
            wait = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        }
    }

    /// Tear the link down: everything already sent is delivered, then
    /// the peer drains and observes `MCAPI_ERR_CHAN_CLOSED`.
    pub fn close(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

impl Drop for WireChan {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (WireChan, WireChan) {
        let (a, b) = UnixStream::pair().unwrap();
        (
            WireChan::from_stream(a).unwrap(),
            WireChan::from_stream(b).unwrap(),
        )
    }

    #[test]
    fn roundtrip_fifo_both_directions() {
        let (a, b) = pair();
        for i in 0..100u32 {
            a.send(&i.to_be_bytes()).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(
                b.recv_timeout(Duration::from_secs(5)).unwrap(),
                i.to_be_bytes()
            );
        }
        b.send(b"pong").unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap(), b"pong");
    }

    #[test]
    fn close_drains_then_reports_chan_closed() {
        let (a, b) = pair();
        a.send(b"last words").unwrap();
        a.close();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap(),
            b"last words"
        );
        let err = b.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.0, McapiStatus::ErrChanClosed);
    }

    #[test]
    fn dropped_peer_reports_chan_closed() {
        let (a, b) = pair();
        drop(a);
        let err = b.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.0, McapiStatus::ErrChanClosed);
    }

    #[test]
    fn large_packets_survive() {
        let (a, b) = pair();
        let big: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        a.send(&big).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap(), big);
        assert_eq!(
            a.send(&vec![0u8; MAX_WIRE_PKT + 1]).unwrap_err().0,
            McapiStatus::ErrPktLimit
        );
    }

    #[test]
    fn timeout_mid_frame_keeps_the_partial_bytes() {
        let (mut raw, b) = UnixStream::pair().unwrap();
        let b = WireChan::from_stream(b).unwrap();
        let body: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        raw.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
        raw.write_all(&body[..300]).unwrap();
        let err = b.recv_timeout(Duration::from_millis(50)).unwrap_err();
        assert_eq!(err.0, McapiStatus::Timeout);
        raw.write_all(&body[300..]).unwrap();
        assert_eq!(b.recv().unwrap(), body);
    }

    #[test]
    fn oversized_prefix_reports_chan_closed() {
        let (mut raw, b) = UnixStream::pair().unwrap();
        let b = WireChan::from_stream(b).unwrap();
        raw.write_all(&((MAX_WIRE_PKT + 1) as u32).to_be_bytes())
            .unwrap();
        let err = b.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.0, McapiStatus::ErrChanClosed);
    }

    #[test]
    fn concurrent_senders_never_interleave_frames() {
        const SENDERS: u32 = 4;
        const PER_SENDER: u32 = 1000;
        let (a, b) = pair();
        let a = std::sync::Arc::new(a);
        let senders: Vec<_> = (0..SENDERS)
            .map(|t| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    for seq in 0..PER_SENDER {
                        // Varying lengths so a torn frame cannot line up.
                        let mut pkt = vec![t as u8; 8 + (seq as usize * 7) % 300];
                        pkt[..4].copy_from_slice(&seq.to_be_bytes());
                        a.send(&pkt).unwrap();
                    }
                })
            })
            .collect();
        let mut next = [0u32; SENDERS as usize];
        for _ in 0..SENDERS * PER_SENDER {
            let pkt = b.recv_timeout(Duration::from_secs(10)).unwrap();
            let t = pkt[4];
            let seq = u32::from_be_bytes(pkt[..4].try_into().unwrap());
            assert_eq!(pkt.len(), 8 + (seq as usize * 7) % 300);
            assert!(pkt[4..].iter().all(|&x| x == t), "torn frame");
            assert_eq!(seq, next[t as usize], "per-sender FIFO");
            next[t as usize] += 1;
        }
        for s in senders {
            s.join().unwrap();
        }
        assert_eq!(next, [PER_SENDER; SENDERS as usize]);
    }

    #[test]
    fn listener_accept_and_connect() {
        let path =
            std::env::temp_dir().join(format!("mcapi-wire-test-{}.sock", std::process::id()));
        let listener = WireListener::bind(&path).unwrap();
        let p2 = path.clone();
        let peer = std::thread::spawn(move || {
            let c = WireChan::connect(&p2, Duration::from_secs(5)).unwrap();
            c.send(b"hello").unwrap();
            c.recv_timeout(Duration::from_secs(5)).unwrap()
        });
        let server_side = listener.accept(Duration::from_secs(5)).unwrap();
        assert_eq!(
            server_side.recv_timeout(Duration::from_secs(5)).unwrap(),
            b"hello"
        );
        server_side.send(b"welcome").unwrap();
        assert_eq!(peer.join().unwrap(), b"welcome");
        let _ = std::fs::remove_file(&path);
    }
}
