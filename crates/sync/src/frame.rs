//! The workspace's one length-prefixed frame format.
//!
//! Every byte stream that crosses a socket in this workspace — the
//! `romp-serve` client protocol and the MCAPI wire between the router
//! and its worker processes — carries the same frame:
//!
//! ```text
//! +----------------+---------------------------+
//! | u32 BE length  |  body (length bytes)      |
//! +----------------+---------------------------+
//! ```
//!
//! This module is the only code that encodes ([`prefix`], [`encode`]),
//! decodes and bounds-checks that prefix.  Each protocol
//! names its own bounds and its own error for a forbidden prefix by
//! implementing [`Framing`]; the readers are generic over it:
//!
//! * [`FrameBuf`] — the incremental receive buffer: bytes go in as they
//!   arrive (a half prefix, three frames and a tail, one byte) and whole
//!   frame bodies come out.  Consumed bytes are reclaimed lazily, when
//!   the buffer would otherwise grow, so a stream of small frames costs
//!   no memmove per frame.  A frame cut short by a read timeout simply
//!   stays buffered for the next call.
//! * [`read_frame`] — one blocking frame off a reader, reading nothing
//!   past it: a clean EOF at a frame boundary is `Ok(None)`, an EOF
//!   inside a frame is `UnexpectedEof`.
//!
//! It stands in for the length-delimited codec of `tokio-util` in this
//! hermetic build.

use std::io::{self, Read};
use std::marker::PhantomData;

/// Bytes of the length prefix in front of every frame body.
pub const PREFIX: usize = 4;

/// Least a buffered read asks the transport for, so frames sent back to
/// back arrive in one read.
const READ_CHUNK: usize = 16 * 1024;

/// One protocol's framing rules: the body lengths its prefix may
/// announce, and the error a forbidden prefix becomes.
pub trait Framing {
    /// Shortest body a prefix may announce.
    const MIN: usize;
    /// Longest body a prefix may announce.
    const MAX: usize;
    /// The protocol's typed rejection of a prefix.
    type Error;
    /// The error for a prefix announcing `len`, outside `MIN..=MAX`.
    fn reject(len: usize) -> Self::Error;
}

/// The prefix announcing a `len`-byte body.
pub fn prefix(len: usize) -> [u8; PREFIX] {
    debug_assert!(len <= u32::MAX as usize);
    (len as u32).to_be_bytes()
}

/// `body` as a complete frame (prefix included).
pub fn encode(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PREFIX + body.len());
    out.extend_from_slice(&prefix(body.len()));
    out.extend_from_slice(body);
    out
}

/// Whether `F` allows a `len`-byte body.
pub fn fits<F: Framing>(len: usize) -> bool {
    (F::MIN..=F::MAX).contains(&len)
}

/// The body length `prefix` announces, if `F` allows it: the one prefix
/// check behind both readers.
fn check<F: Framing>(prefix: [u8; PREFIX]) -> Result<usize, F::Error> {
    let len = u32::from_be_bytes(prefix) as usize;
    if fits::<F>(len) {
        Ok(len)
    } else {
        Err(F::reject(len))
    }
}

/// What [`read_frame`] can fail with.
#[derive(Debug)]
pub enum ReadError<E> {
    /// Transport failure, including EOF inside a frame (`UnexpectedEof`).
    Io(io::Error),
    /// A length prefix the protocol forbids; the stream is out of sync.
    Proto(E),
}

impl<E: std::fmt::Display> std::fmt::Display for ReadError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "transport: {e}"),
            ReadError::Proto(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for ReadError<E> {}

/// Read one frame body from `r`, reading nothing past it.
///
/// * `Ok(Some(body))` — a complete frame;
/// * `Ok(None)` — clean EOF at a frame boundary (the peer closed);
/// * `Err(ReadError::Proto)` — a prefix `F` forbids;
/// * `Err(ReadError::Io)` — a transport error, including EOF mid-frame.
pub fn read_frame<F: Framing>(r: &mut impl Read) -> Result<Option<Vec<u8>>, ReadError<F::Error>> {
    let mut head = [0u8; PREFIX];
    // A lone first-byte read, so EOF *between* frames is clean.
    loop {
        match r.read(&mut head[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    r.read_exact(&mut head[1..]).map_err(ReadError::Io)?;
    let len = check::<F>(head).map_err(ReadError::Proto)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(ReadError::Io)?;
    Ok(Some(body))
}

/// What a [`FrameBuf::fill_from`] pass observed at the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// The transport ran dry (`WouldBlock`): all currently available
    /// bytes are buffered; wait for the next readiness edge.
    WouldBlock,
    /// The peer closed its write side (EOF).  Bytes read before the EOF
    /// are buffered and should still be decoded.
    Eof,
}

/// Incremental receive buffer yielding whole frame bodies under `F`.
#[derive(Debug, Default)]
pub struct FrameBuf<F: Framing> {
    /// Initialized storage; `buf[start..end]` is unconsumed data and
    /// `buf[end..]` is room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    rules: PhantomData<F>,
}

impl<F: Framing> FrameBuf<F> {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            end: 0,
            rules: PhantomData,
        }
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Append bytes received by other means.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `r` into the buffer, retrying `Interrupted`; the
    /// byte count, `0` at EOF.  It asks for at least the rest of the
    /// frame at the head, so a large frame needs no extra reads.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let frame = self.head().map_or(PREFIX, |p| {
            PREFIX + (u32::from_be_bytes(p) as usize).min(F::MAX)
        });
        self.reserve(frame.saturating_sub(self.pending()).max(READ_CHUNK));
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read from `r` until it runs dry (`WouldBlock`) or reports EOF,
    /// buffering everything; other transport errors propagate.  On a
    /// blocking transport this returns only at EOF.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<Fill> {
        loop {
            match self.read_from(r) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Fill::WouldBlock),
                Err(e) => return Err(e),
            }
        }
    }

    /// Pop the next complete frame body, if one is buffered.
    ///
    /// * `Ok(Some(body))` — a complete frame (prefix stripped);
    /// * `Ok(None)` — only part of a frame is buffered so far;
    /// * `Err` — a prefix `F` forbids: the stream is out of sync, and
    ///   the same error comes back on every later call.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, F::Error> {
        let Some(head) = self.head() else {
            return Ok(None);
        };
        let len = check::<F>(head)?;
        let Some(body) = self.buf[self.start..self.end].get(PREFIX..PREFIX + len) else {
            return Ok(None);
        };
        let body = body.to_vec();
        self.start += PREFIX + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(body))
    }

    /// The prefix at the head of the buffer, once all of it is in.
    fn head(&self) -> Option<[u8; PREFIX]> {
        self.buf[self.start..self.end]
            .get(..PREFIX)?
            .try_into()
            .ok()
    }

    /// Make room for `want` more bytes after `end`: first by moving the
    /// unconsumed tail to the front, then by growing.
    fn reserve(&mut self, want: usize) {
        if self.buf.len() - self.end >= want {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < want {
            self.buf.resize(self.end + want, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serving protocol's rules: a body holds at least an opcode.
    #[derive(Debug)]
    struct Serve;
    impl Framing for Serve {
        const MIN: usize = 1;
        const MAX: usize = 64 * 1024;
        type Error = usize;
        fn reject(len: usize) -> usize {
            len
        }
    }

    /// The packet wire's rules: empty packets are legal.
    #[derive(Debug)]
    struct Wire;
    impl Framing for Wire {
        const MIN: usize = 0;
        const MAX: usize = 1 << 20;
        type Error = usize;
        fn reject(len: usize) -> usize {
            len
        }
    }

    fn stream(bodies: &[Vec<u8>]) -> Vec<u8> {
        bodies.iter().flat_map(|b| encode(b)).collect()
    }

    fn bodies() -> Vec<Vec<u8>> {
        vec![
            vec![1],
            vec![2, 3, 4],
            vec![5; 300],
            vec![6; 20_000],
            vec![7],
        ]
    }

    fn drain<F: Framing>(fb: &mut FrameBuf<F>) -> Vec<Vec<u8>>
    where
        F::Error: std::fmt::Debug,
    {
        std::iter::from_fn(|| fb.next_frame().unwrap()).collect()
    }

    #[test]
    fn every_split_point_yields_each_frame_exactly_once() {
        let bodies = bodies();
        let bytes = stream(&bodies);
        for cut in 0..=bytes.len() {
            let mut fb = FrameBuf::<Serve>::new();
            fb.extend(&bytes[..cut]);
            let mut seen = drain(&mut fb);
            fb.extend(&bytes[cut..]);
            seen.extend(drain(&mut fb));
            assert_eq!(seen, bodies, "split at {cut}");
            assert_eq!(fb.pending(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_decode_yields_each_frame_exactly_once() {
        let bodies = bodies();
        let mut fb = FrameBuf::<Serve>::new();
        let mut seen = Vec::new();
        for byte in stream(&bodies) {
            fb.extend(&[byte]);
            seen.extend(drain(&mut fb));
        }
        assert_eq!(seen, bodies);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn a_prefix_of_cap_plus_one_is_rejected_by_every_reader() {
        let over = prefix(Serve::MAX + 1);
        let mut fb = FrameBuf::<Serve>::new();
        fb.extend(&over);
        assert_eq!(fb.next_frame(), Err(Serve::MAX + 1));
        assert_eq!(fb.next_frame(), Err(Serve::MAX + 1), "the error sticks");
        assert!(matches!(
            read_frame::<Serve>(&mut &over[..]),
            Err(ReadError::Proto(n)) if n == Serve::MAX + 1
        ));
        let mut fb = FrameBuf::<Wire>::new();
        fb.extend(&prefix(Wire::MAX + 1));
        assert_eq!(fb.next_frame(), Err(Wire::MAX + 1));
        // The cap itself is a legal (if still partial) frame.
        let mut fb = FrameBuf::<Wire>::new();
        fb.extend(&prefix(Wire::MAX));
        assert_eq!(fb.next_frame(), Ok(None));
    }

    #[test]
    fn a_zero_length_is_judged_by_each_protocols_bounds() {
        let empty = encode(&[]);
        let mut fb = FrameBuf::<Serve>::new();
        fb.extend(&empty);
        assert_eq!(fb.next_frame(), Err(0));
        assert!(matches!(
            read_frame::<Serve>(&mut &empty[..]),
            Err(ReadError::Proto(0))
        ));
        let mut fb = FrameBuf::<Wire>::new();
        fb.extend(&empty);
        fb.extend(&encode(b"x"));
        assert_eq!(drain(&mut fb), vec![vec![], b"x".to_vec()]);
        assert_eq!(read_frame::<Wire>(&mut &empty[..]).unwrap(), Some(vec![]));
    }

    #[test]
    fn eof_at_a_boundary_is_clean_and_mid_frame_is_unexpected() {
        let bytes = stream(&bodies());
        let mut r = &bytes[..];
        let mut seen = Vec::new();
        while let Some(b) = read_frame::<Serve>(&mut r).unwrap() {
            seen.push(b);
        }
        assert_eq!(seen, bodies());
        for cut in 1..=PREFIX {
            match read_frame::<Serve>(&mut &bytes[..cut]) {
                Err(ReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("cut {cut}: {other:?}"),
            }
        }
        // The buffered reader sees the same EOF through `fill_from`.
        let mut fb = FrameBuf::<Serve>::new();
        assert_eq!(fb.fill_from(&mut &bytes[..7]).unwrap(), Fill::Eof);
        assert_eq!(drain(&mut fb), vec![vec![1]]);
        assert_eq!(fb.pending(), 2, "the cut frame's bytes stay visible");
    }

    /// A reader that hands out its bytes in fixed slices, then times out.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.bytes.is_empty() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let n = self.step.min(self.bytes.len()).min(out.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_partial_frame_survives_a_timeout() {
        let body: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let bytes = encode(&body);
        let mut fb = FrameBuf::<Wire>::new();
        let mut first = Trickle {
            bytes: &bytes[..300],
            step: 7,
        };
        loop {
            match fb.read_from(&mut first) {
                Ok(_) => assert_eq!(fb.next_frame(), Ok(None)),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::TimedOut);
                    break;
                }
            }
        }
        assert_eq!(fb.pending(), 300);
        let mut rest = Trickle {
            bytes: &bytes[300..],
            step: 4096,
        };
        fb.read_from(&mut rest).unwrap();
        assert_eq!(fb.next_frame(), Ok(Some(body)));
    }

    #[test]
    fn a_large_frame_arrives_in_one_read() {
        let body = vec![9u8; 3 * READ_CHUNK];
        let bytes = encode(&body);
        let mut fb = FrameBuf::<Wire>::new();
        let mut r = &bytes[..];
        fb.read_from(&mut r).unwrap();
        fb.read_from(&mut r).unwrap();
        assert_eq!(r.len(), 0, "the second read asked for the whole rest");
        assert_eq!(fb.next_frame(), Ok(Some(body)));
    }

    #[test]
    fn consumed_bytes_are_reclaimed_before_the_buffer_grows() {
        let frame = encode(&[7u8; 100]);
        let mut fb = FrameBuf::<Serve>::new();
        for _ in 0..10_000 {
            fb.extend(&frame);
            fb.extend(&frame[..50]);
            assert_eq!(drain(&mut fb).len(), 1);
            fb.extend(&frame[50..]);
            assert_eq!(drain(&mut fb).len(), 1);
        }
        assert!(fb.buf.len() < 4 * frame.len(), "grew to {}", fb.buf.len());
    }
}
