//! Connected scalar channels (`mcapi_sclchan_*`).
//!
//! The cheapest MCAPI transport: a FIFO of bare 8/16/32/64-bit words, used
//! for doorbells, sequence numbers and tiny control words between cores.
//! The receive size must match the send size — a mismatch is
//! `MCAPI_ERR_SCL_SIZE` and leaves the word queued (the spec makes the
//! pairing a protocol contract).

use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::registry::{ChanKind, ChanRole, ChanState, Endpoint, Item};
use crate::status::{ensure, McapiResult, McapiStatus};

impl std::fmt::Debug for SclTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SclTx")
            .field("ep", &self.ep.addr())
            .finish()
    }
}

/// Sending half of a scalar channel.
pub struct SclTx {
    ep: Endpoint,
    peer: Endpoint,
}

impl std::fmt::Debug for SclRx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SclRx")
            .field("ep", &self.ep.addr())
            .finish()
    }
}

/// Receiving half of a scalar channel.
pub struct SclRx {
    ep: Endpoint,
    peer: Endpoint,
}

/// Bind `tx → rx` as a scalar channel (see
/// [`crate::pktchan::connect`] for the shared preconditions).
pub fn connect(tx: &Endpoint, rx: &Endpoint) -> McapiResult<(SclTx, SclRx)> {
    tx.check_live()?;
    rx.check_live()?;
    ensure(
        tx.queued() == 0 && rx.queued() == 0,
        McapiStatus::ErrChanInvalid,
    )?;
    let mut tc = tx.inner.chan.lock();
    let mut rc = rx.inner.chan.lock();
    ensure(tc.is_none() && rc.is_none(), McapiStatus::ErrChanConnected)?;
    *tc = Some(ChanState {
        kind: ChanKind::Scalar,
        role: ChanRole::Sender,
        peer: rx.addr(),
    });
    *rc = Some(ChanState {
        kind: ChanKind::Scalar,
        role: ChanRole::Receiver,
        peer: tx.addr(),
    });
    drop(tc);
    drop(rc);
    Ok((
        SclTx {
            ep: tx.clone(),
            peer: rx.clone(),
        },
        SclRx {
            ep: rx.clone(),
            peer: tx.clone(),
        },
    ))
}

impl SclTx {
    fn check_open(&self) -> McapiResult<()> {
        self.ep.check_live()?;
        ensure(
            !self.ep.inner.peer_closed.load(Ordering::Acquire),
            McapiStatus::ErrChanClosed,
        )?;
        let c = self.ep.inner.chan.lock();
        match *c {
            Some(ChanState {
                kind: ChanKind::Scalar,
                role: ChanRole::Sender,
                ..
            }) => Ok(()),
            _ => Err(crate::McapiError(McapiStatus::ErrChanInvalid)),
        }
    }

    fn send_bits(&self, bits: u64, size: u8) -> McapiResult<()> {
        self.check_open()?;
        Endpoint::deliver(&self.peer.inner, Item::Scalar { bits, size }, None)
    }

    /// `mcapi_sclchan_send_uint8`.
    pub fn send_u8(&self, v: u8) -> McapiResult<()> {
        self.send_bits(v as u64, 1)
    }

    /// `mcapi_sclchan_send_uint16`.
    pub fn send_u16(&self, v: u16) -> McapiResult<()> {
        self.send_bits(v as u64, 2)
    }

    /// `mcapi_sclchan_send_uint32`.
    pub fn send_u32(&self, v: u32) -> McapiResult<()> {
        self.send_bits(v as u64, 4)
    }

    /// `mcapi_sclchan_send_uint64`.
    pub fn send_u64(&self, v: u64) -> McapiResult<()> {
        self.send_bits(v, 8)
    }

    /// Close the sending half.
    pub fn close(self) {
        *self.ep.inner.chan.lock() = None;
        self.peer.inner.raise(&self.peer.inner.peer_closed);
    }
}

impl SclRx {
    fn check_open(&self) -> McapiResult<()> {
        self.ep.check_live()?;
        let c = self.ep.inner.chan.lock();
        match *c {
            Some(ChanState {
                kind: ChanKind::Scalar,
                role: ChanRole::Receiver,
                ..
            }) => Ok(()),
            _ => Err(crate::McapiError(McapiStatus::ErrChanInvalid)),
        }
    }

    fn recv_bits(&self, size: u8, timeout: Option<Duration>) -> McapiResult<u64> {
        self.check_open()?;
        self.ep.take_next(
            timeout,
            |item| match item {
                Item::Scalar { size: s, .. } if *s == size => Ok(()),
                Item::Scalar { .. } => Err(crate::McapiError(McapiStatus::ErrScalarSize)),
                _ => Err(crate::McapiError(McapiStatus::ErrChanType)),
            },
            |item| match item {
                Item::Scalar { bits, .. } => bits,
                _ => unreachable!("filtered"),
            },
        )
    }

    /// `mcapi_sclchan_recv_uint8` (blocking; `timeout` bounds the wait).
    pub fn recv_u8(&self, timeout: Option<Duration>) -> McapiResult<u8> {
        Ok(self.recv_bits(1, timeout)? as u8)
    }

    /// `mcapi_sclchan_recv_uint16`.
    pub fn recv_u16(&self, timeout: Option<Duration>) -> McapiResult<u16> {
        Ok(self.recv_bits(2, timeout)? as u16)
    }

    /// `mcapi_sclchan_recv_uint32`.
    pub fn recv_u32(&self, timeout: Option<Duration>) -> McapiResult<u32> {
        Ok(self.recv_bits(4, timeout)? as u32)
    }

    /// `mcapi_sclchan_recv_uint64`.
    pub fn recv_u64(&self, timeout: Option<Duration>) -> McapiResult<u64> {
        self.recv_bits(8, timeout)
    }

    /// Scalars waiting (`mcapi_sclchan_available`).
    pub fn available(&self) -> usize {
        self.ep.queued()
    }

    /// Close the receiving half.
    pub fn close(self) {
        *self.ep.inner.chan.lock() = None;
        self.peer.inner.peer_closed.store(true, Ordering::Release);
        self.ep.inner.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::McapiDomain;

    fn channel() -> (SclTx, SclRx) {
        let dom = McapiDomain::new(1);
        let tx = dom.initialize(0).unwrap().create_endpoint(1).unwrap();
        let rx = dom.initialize(1).unwrap().create_endpoint(1).unwrap();
        connect(&tx, &rx).unwrap()
    }

    #[test]
    fn all_widths_roundtrip() {
        let (tx, rx) = channel();
        tx.send_u8(0xAB).unwrap();
        tx.send_u16(0xBEEF).unwrap();
        tx.send_u32(0xDEAD_BEEF).unwrap();
        tx.send_u64(u64::MAX - 1).unwrap();
        let t = Some(Duration::from_secs(1));
        assert_eq!(rx.recv_u8(t).unwrap(), 0xAB);
        assert_eq!(rx.recv_u16(t).unwrap(), 0xBEEF);
        assert_eq!(rx.recv_u32(t).unwrap(), 0xDEAD_BEEF);
        assert_eq!(rx.recv_u64(t).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn size_mismatch_reports_and_preserves() {
        let (tx, rx) = channel();
        tx.send_u32(7).unwrap();
        assert_eq!(
            rx.recv_u8(Some(Duration::from_millis(10))).unwrap_err().0,
            McapiStatus::ErrScalarSize
        );
        // The word is still there for a correctly sized receive.
        assert_eq!(rx.recv_u32(Some(Duration::from_secs(1))).unwrap(), 7);
    }

    #[test]
    fn doorbell_pattern_across_threads() {
        let (tx, rx) = channel();
        let h = std::thread::spawn(move || {
            let mut acc = 0u64;
            for _ in 0..100 {
                acc += rx.recv_u64(Some(Duration::from_secs(5))).unwrap();
            }
            acc
        });
        for i in 0..100u64 {
            tx.send_u64(i).unwrap();
        }
        assert_eq!(h.join().unwrap(), 4950);
    }

    #[test]
    fn scalar_and_packet_channels_do_not_mix() {
        let dom = McapiDomain::new(1);
        let tx = dom.initialize(0).unwrap().create_endpoint(1).unwrap();
        let rx = dom.initialize(1).unwrap().create_endpoint(1).unwrap();
        let (_stx, _srx) = connect(&tx, &rx).unwrap();
        // A packet connect on the same endpoints must fail.
        assert_eq!(
            crate::pktchan::connect(&tx, &rx).unwrap_err().0,
            McapiStatus::ErrChanConnected
        );
    }

    #[test]
    fn close_propagates() {
        let (tx, rx) = channel();
        tx.send_u8(1).unwrap();
        tx.close();
        assert_eq!(rx.recv_u8(None).unwrap(), 1);
        assert_eq!(rx.recv_u8(None).unwrap_err().0, McapiStatus::ErrChanClosed);
    }
}
