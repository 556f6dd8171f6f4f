//! The simulated network: per-connection duplex links carrying the real
//! wire bytes.
//!
//! Frames produced by `romp_serve::protocol` travel as opaque byte
//! payloads; nothing here understands the protocol, exactly like a real
//! kernel socket.  Two delivery modes:
//!
//! * **TCP mode** ([`LinkDir::send`]) — reliable and ordered, like the
//!   production transport: every payload arrives exactly once, after the
//!   link's base delay plus seeded jitter, and never before a payload
//!   sent earlier on the same direction (a FIFO clamp models the stream's
//!   in-order guarantee).  Partitions *hold* traffic in order and release
//!   it on heal — delivered late, never dropped, which is what a TCP
//!   stream that survives the partition does.
//! * **Adversarial mode** ([`LinkDir::send_adversarial`]) — the
//!   protocol-robustness harness.  The payload is split at seeded byte
//!   boundaries and the chunks may be duplicated, dropped, or reordered.
//!   No real TCP stream does this to framed bytes, so production serving
//!   never sees it — the mode exists to prove the frame decoder and
//!   request router survive *arbitrary* byte streams with typed errors,
//!   never panics (the property tests drive it).

use std::collections::{BTreeMap, VecDeque};

use mca_sync::SmallRng;

/// What travels on a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A run of stream bytes (one or more wire frames, or fragments).
    Bytes(Vec<u8>),
    /// The sender closed its write side.
    Eof,
}

/// One direction of a duplex link.
#[derive(Debug)]
pub struct LinkDir {
    /// Base propagation delay, virtual ns.
    pub delay_ns: u64,
    /// Max extra seeded jitter, virtual ns (uniform in `0..=jitter_ns`).
    pub jitter_ns: u64,
    /// Latest delivery timestamp scheduled so far (the FIFO clamp).
    last_at: u64,
    /// Whether the direction is partitioned (traffic held, not lost).
    partitioned: bool,
    /// Payloads held while partitioned, in send order.
    held: VecDeque<Payload>,
}

impl LinkDir {
    /// A direction with the given delay characteristics.
    pub fn new(delay_ns: u64, jitter_ns: u64) -> Self {
        LinkDir {
            delay_ns,
            jitter_ns,
            last_at: 0,
            partitioned: false,
            held: VecDeque::new(),
        }
    }

    fn schedule(&mut self, now_ns: u64, rng: &mut SmallRng) -> u64 {
        let jitter = if self.jitter_ns == 0 {
            0
        } else {
            rng.gen_range(0, self.jitter_ns + 1)
        };
        // In-order delivery: never before anything already in flight.
        let at = (now_ns + self.delay_ns + jitter).max(self.last_at + 1);
        self.last_at = at;
        at
    }

    /// TCP-mode send: returns the delivery `(at_ns, payload)`, or `None`
    /// if the direction is partitioned (the payload is held for heal).
    pub fn send(
        &mut self,
        now_ns: u64,
        rng: &mut SmallRng,
        payload: Payload,
    ) -> Option<(u64, Payload)> {
        if self.partitioned {
            self.held.push_back(payload);
            return None;
        }
        let at = self.schedule(now_ns, rng);
        Some((at, payload))
    }

    /// Adversarial send: split `bytes` at seeded boundaries; chunks may
    /// be dropped, duplicated, and delivered out of order.  Returns the
    /// deliveries to schedule.
    pub fn send_adversarial(
        &mut self,
        now_ns: u64,
        rng: &mut SmallRng,
        bytes: &[u8],
    ) -> Vec<(u64, Payload)> {
        let mut out = Vec::new();
        let mut off = 0usize;
        while off < bytes.len() {
            let max_chunk = (bytes.len() - off).min(64);
            let n = rng.gen_index(1, max_chunk + 1);
            let chunk = bytes[off..off + n].to_vec();
            off += n;
            let roll = rng.gen_range(0, 100);
            if roll < 10 {
                continue; // drop
            }
            // No FIFO clamp: reordering is the point.
            let at = now_ns + self.delay_ns + rng.gen_range(0, self.jitter_ns.max(1) + 1);
            if roll < 20 {
                // duplicate, possibly arriving before the original
                let at2 = now_ns + self.delay_ns + rng.gen_range(0, self.jitter_ns.max(1) + 1);
                out.push((at2, Payload::Bytes(chunk.clone())));
            }
            out.push((at, Payload::Bytes(chunk)));
        }
        out
    }

    /// Cut the direction: subsequent sends are held, in order.
    pub fn partition(&mut self) {
        self.partitioned = true;
    }

    /// Heal the direction: everything held is scheduled for delivery,
    /// send order preserved.
    pub fn heal(&mut self, now_ns: u64, rng: &mut SmallRng) -> Vec<(u64, Payload)> {
        self.partitioned = false;
        let mut out = Vec::new();
        while let Some(p) = self.held.pop_front() {
            let at = self.schedule(now_ns, rng);
            out.push((at, p));
        }
        out
    }
}

/// A duplex client↔server link.
#[derive(Debug)]
pub struct DuplexLink {
    /// Client → server direction.
    pub up: LinkDir,
    /// Server → client direction.
    pub down: LinkDir,
}

/// The per-connection link table (BTreeMap: deterministic iteration).
#[derive(Debug, Default)]
pub struct SimNet {
    links: BTreeMap<u64, DuplexLink>,
}

impl SimNet {
    /// An empty network.
    pub fn new() -> Self {
        SimNet::default()
    }

    /// Install the link for connection `conn`.
    pub fn add_link(&mut self, conn: u64, link: DuplexLink) {
        self.links.insert(conn, link);
    }

    /// The link for `conn` (panics if absent — links live for the run).
    pub fn link(&mut self, conn: u64) -> &mut DuplexLink {
        self.links.get_mut(&conn).expect("link exists")
    }

    /// Connection ids, ascending (deterministic).
    pub fn conns(&self) -> Vec<u64> {
        self.links.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_mode_preserves_order_under_jitter() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut dir = LinkDir::new(1_000, 5_000);
        let mut last = 0;
        for i in 0..50u8 {
            let (at, p) = dir
                .send(i as u64 * 10, &mut rng, Payload::Bytes(vec![i]))
                .unwrap();
            assert!(at > last, "FIFO clamp holds");
            last = at;
            assert_eq!(p, Payload::Bytes(vec![i]));
        }
    }

    #[test]
    fn partition_holds_and_heal_releases_in_order() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut dir = LinkDir::new(100, 0);
        dir.partition();
        assert!(dir.send(0, &mut rng, Payload::Bytes(vec![1])).is_none());
        assert!(dir.send(5, &mut rng, Payload::Bytes(vec![2])).is_none());
        assert!(dir.send(9, &mut rng, Payload::Eof).is_none());
        let released = dir.heal(1_000, &mut rng);
        assert_eq!(released.len(), 3);
        assert_eq!(released[0].1, Payload::Bytes(vec![1]));
        assert_eq!(released[2].1, Payload::Eof);
        assert!(released.windows(2).all(|w| w[0].0 < w[1].0), "order kept");
    }
}
