//! Per-connection buffers: incremental frame decode and short-write
//! handling.
//!
//! Under edge-triggered readiness the reactor sees *bytes*, not frames:
//! a read may deliver half a length prefix, three frames and a tail, or
//! one byte.  [`RecvBuf`] is the workspace's one frame reader,
//! [`mca_sync::frame::FrameBuf`], under the serving protocol's bounds
//! ([`ServeFraming`]: 1..=[`crate::protocol::MAX_FRAME`] bytes): it accumulates whatever
//! arrives and yields complete frame bodies as they materialize, and a
//! hostile prefix is a typed [`crate::protocol::ProtoError`], never a
//! panic or an unbounded allocation — the same check the blocking
//! [`crate::protocol::read_frame`] makes.  [`SendBuf`] is the mirror
//! image for writes: responses are queued as encoded frames and flushed
//! as far as the socket allows; a short write leaves the tail buffered
//! for the next `EPOLLOUT` edge.
//!
//! Both types are deliberately transport-agnostic (`impl Read` /
//! `impl Write`), which is what lets the property tests drive them one
//! byte at a time and through deliberately short-writing sinks.

use std::io::{self, Write};

pub use mca_sync::frame::Fill;
use mca_sync::frame::FrameBuf;

use crate::protocol::ServeFraming;

/// Compact the send buffer once this many written bytes accumulate at
/// the front (amortized: memmove cost is paid once per ~64KiB written).
const COMPACT_AT: usize = 64 * 1024;

/// Growable receive buffer with incremental length-prefixed frame decode
/// (`new`/`extend`/`fill_from`/`next_frame`/`pending`).
pub type RecvBuf = FrameBuf<ServeFraming>;

/// What a [`SendBuf::flush_to`] pass achieved at the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// Everything queued has been written.
    Drained,
    /// The transport refused more bytes (`WouldBlock`); the rest stays
    /// buffered for the next writability edge.
    Blocked,
}

/// Growable send buffer that survives short writes.
#[derive(Debug, Default)]
pub struct SendBuf {
    buf: Vec<u8>,
    start: usize,
}

impl SendBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        SendBuf::default()
    }

    /// Bytes queued but not yet written.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Queue an encoded frame behind whatever is already pending.
    pub fn queue(&mut self, frame: &[u8]) {
        self.buf.extend_from_slice(frame);
    }

    /// Write as much as `w` will take.  Short writes advance the cursor
    /// and keep going; `WouldBlock` stops the pass with the tail intact;
    /// `Interrupted` is retried; a zero-length write is reported as
    /// `WriteZero` (the peer is gone); other errors propagate.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<Flush> {
        while self.start < self.buf.len() {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write returned 0")),
                Ok(n) => self.start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.compact();
                    return Ok(Flush::Blocked);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.start = 0;
        Ok(Flush::Drained)
    }

    fn compact(&mut self) {
        if self.start >= COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use mca_sync::frame::encode as frame;

    /// A sink that accepts at most one byte per write, then blocks every
    /// other call — the worst-case short-write transport.
    struct TrickleSink {
        out: Vec<u8>,
        parity: bool,
    }

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.parity = !self.parity;
            if self.parity {
                self.out.push(buf[0]);
                Ok(1)
            } else {
                Err(io::Error::from(io::ErrorKind::WouldBlock))
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_preserve_the_byte_stream() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let mut sb = SendBuf::new();
        sb.queue(&frame(&payload));
        let mut sink = TrickleSink {
            out: Vec::new(),
            parity: false,
        };
        let mut blocked = 0;
        loop {
            match sb.flush_to(&mut sink).unwrap() {
                Flush::Drained => break,
                Flush::Blocked => blocked += 1,
            }
        }
        assert!(blocked > 0, "the trickle sink must have blocked");
        assert_eq!(sink.out, frame(&payload));
        assert!(sb.is_empty());
    }
}
