//! Connected packet channels (`mcapi_pktchan_*`).
//!
//! A packet channel is a unidirectional FIFO between exactly two endpoints.
//! The spec's three-step dance (connect, open send side, open receive side)
//! is condensed into [`connect`], which returns the two typed half-handles;
//! either side may close, after which the receiver drains what is queued and
//! then observes `MCAPI_ERR_CHAN_CLOSED`.

use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::registry::{ChanKind, ChanRole, ChanState, Endpoint, Item};
use crate::status::{ensure, McapiResult, McapiStatus};

impl std::fmt::Debug for PktTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PktTx")
            .field("ep", &self.ep.addr())
            .finish()
    }
}

/// Sending half of a packet channel.
pub struct PktTx {
    ep: Endpoint,
    peer: Endpoint,
}

impl std::fmt::Debug for PktRx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PktRx")
            .field("ep", &self.ep.addr())
            .finish()
    }
}

/// Receiving half of a packet channel.
pub struct PktRx {
    ep: Endpoint,
    peer: Endpoint,
}

/// `mcapi_pktchan_connect_i` + both opens: bind `tx → rx`.
///
/// Fails with `MCAPI_ERR_CHAN_CONNECTED` if either endpoint is already
/// bound, and refuses endpoints with queued connectionless messages
/// (`MCAPI_ERR_CHAN_INVALID`) — channel traffic must not interleave with
/// datagrams.
pub fn connect(tx: &Endpoint, rx: &Endpoint) -> McapiResult<(PktTx, PktRx)> {
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
        kind: ChanKind::Packet,
        role: ChanRole::Sender,
        peer: rx.addr(),
    });
    *rc = Some(ChanState {
        kind: ChanKind::Packet,
        role: ChanRole::Receiver,
        peer: tx.addr(),
    });
    drop(tc);
    drop(rc);
    Ok((
        PktTx {
            ep: tx.clone(),
            peer: rx.clone(),
        },
        PktRx {
            ep: rx.clone(),
            peer: tx.clone(),
        },
    ))
}

impl PktTx {
    fn check_open(&self) -> McapiResult<()> {
        self.ep.check_live()?;
        ensure(
            !self.ep.inner.peer_closed.load(Ordering::Acquire),
            McapiStatus::ErrChanClosed,
        )?;
        let c = self.ep.inner.chan.lock();
        match *c {
            Some(ChanState {
                kind: ChanKind::Packet,
                role: ChanRole::Sender,
                ..
            }) => Ok(()),
            _ => Err(crate::McapiError(McapiStatus::ErrChanInvalid)),
        }
    }

    /// `mcapi_pktchan_send` — blocking FIFO send.
    pub fn send(&self, data: &[u8]) -> McapiResult<()> {
        self.check_open()?;
        Endpoint::deliver(&self.peer.inner, Item::Packet(data.to_vec()), None)
    }

    /// Non-blocking send (`MCAPI_ERR_MEM_LIMIT` when the peer queue is
    /// full).
    pub fn try_send(&self, data: &[u8]) -> McapiResult<()> {
        self.check_open()?;
        Endpoint::try_deliver(&self.peer.inner, Item::Packet(data.to_vec()))
    }

    /// Close the sending half; the receiver drains then sees
    /// `MCAPI_ERR_CHAN_CLOSED`.
    pub fn close(self) {
        *self.ep.inner.chan.lock() = None;
        self.peer.inner.raise(&self.peer.inner.peer_closed);
    }
}

impl PktRx {
    fn check_open(&self) -> McapiResult<()> {
        self.ep.check_live()?;
        let c = self.ep.inner.chan.lock();
        match *c {
            Some(ChanState {
                kind: ChanKind::Packet,
                role: ChanRole::Receiver,
                ..
            }) => Ok(()),
            _ => Err(crate::McapiError(McapiStatus::ErrChanInvalid)),
        }
    }

    /// `mcapi_pktchan_recv` — blocking FIFO receive.
    pub fn recv(&self) -> McapiResult<Vec<u8>> {
        self.recv_inner(None)
    }

    /// Blocking receive bounded by `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> McapiResult<Vec<u8>> {
        self.recv_inner(Some(timeout))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> McapiResult<Vec<u8>> {
        self.check_open()?;
        self.ep.try_take(accept_packet, convert_packet)
    }

    fn recv_inner(&self, timeout: Option<Duration>) -> McapiResult<Vec<u8>> {
        self.check_open()?;
        self.ep.take_next(timeout, accept_packet, convert_packet)
    }

    /// Packets waiting (`mcapi_pktchan_available`).
    pub fn available(&self) -> usize {
        self.ep.queued()
    }

    /// Close the receiving half; pending packets are discarded and a
    /// blocked sender wakes with `MCAPI_ERR_CHAN_CLOSED` on its next send.
    pub fn close(self) {
        *self.ep.inner.chan.lock() = None;
        self.peer.inner.peer_closed.store(true, Ordering::Release);
        self.ep.inner.wake.notify_all();
    }
}

fn accept_packet(item: &Item) -> McapiResult<()> {
    match item {
        Item::Packet(_) => Ok(()),
        _ => Err(crate::McapiError(McapiStatus::ErrChanType)),
    }
}

fn convert_packet(item: Item) -> Vec<u8> {
    match item {
        Item::Packet(d) => d,
        _ => unreachable!("accept_packet filtered"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EndpointAddr, McapiDomain};

    fn channel() -> (PktTx, PktRx) {
        let dom = McapiDomain::new(1);
        let tx = dom.initialize(0).unwrap().create_endpoint(1).unwrap();
        let rx = dom.initialize(1).unwrap().create_endpoint(1).unwrap();
        connect(&tx, &rx).unwrap()
    }

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = channel();
        for i in 0..50u32 {
            tx.send(&i.to_le_bytes()).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(rx.recv().unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn connected_endpoint_rejects_messages() {
        let dom = McapiDomain::new(1);
        let n0 = dom.initialize(0).unwrap();
        let tx = n0.create_endpoint(1).unwrap();
        let rx = dom.initialize(1).unwrap().create_endpoint(1).unwrap();
        let other = n0.create_endpoint(2).unwrap();
        let (_t, _r) = connect(&tx, &rx).unwrap();
        assert_eq!(
            tx.msg_send(other.addr(), b"x", 0).unwrap_err().0,
            McapiStatus::ErrChanConnected
        );
        assert_eq!(
            other.msg_send(rx.addr(), b"x", 0).unwrap_err().0,
            McapiStatus::ErrChanConnected,
            "messages must not target a connected endpoint"
        );
    }

    #[test]
    fn double_connect_rejected() {
        let dom = McapiDomain::new(1);
        let tx = dom.initialize(0).unwrap().create_endpoint(1).unwrap();
        let rx = dom.initialize(1).unwrap().create_endpoint(1).unwrap();
        let _c = connect(&tx, &rx).unwrap();
        let rx2 = dom.get_endpoint(EndpointAddr { node: 1, port: 1 }).unwrap();
        assert_eq!(
            connect(&tx, &rx2).unwrap_err().0,
            McapiStatus::ErrChanConnected
        );
    }

    #[test]
    fn connect_refuses_dirty_queues() {
        let dom = McapiDomain::new(1);
        let a = dom.initialize(0).unwrap().create_endpoint(1).unwrap();
        let b = dom.initialize(1).unwrap().create_endpoint(1).unwrap();
        a.msg_send(b.addr(), b"stale", 0).unwrap();
        assert_eq!(connect(&a, &b).unwrap_err().0, McapiStatus::ErrChanInvalid);
    }

    #[test]
    fn close_drains_then_fails() {
        let (tx, rx) = channel();
        tx.send(b"one").unwrap();
        tx.send(b"two").unwrap();
        tx.close();
        assert_eq!(rx.recv().unwrap(), b"one");
        assert_eq!(rx.recv().unwrap(), b"two");
        assert_eq!(rx.recv().unwrap_err().0, McapiStatus::ErrChanClosed);
    }

    #[test]
    fn receiver_close_fails_sender() {
        let (tx, rx) = channel();
        rx.close();
        assert_eq!(tx.send(b"x").unwrap_err().0, McapiStatus::ErrChanClosed);
    }

    #[test]
    fn cross_thread_stream() {
        let (tx, rx) = channel();
        let producer = std::thread::spawn(move || {
            for i in 0..200u32 {
                tx.send(&i.to_le_bytes()).unwrap();
            }
            tx.close();
        });
        let mut next = 0u32;
        loop {
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(d) => {
                    assert_eq!(d, next.to_le_bytes());
                    next += 1;
                }
                Err(e) => {
                    assert_eq!(e.0, McapiStatus::ErrChanClosed);
                    break;
                }
            }
        }
        assert_eq!(next, 200);
        producer.join().unwrap();
    }

    #[test]
    fn close_racing_a_blocked_receiver_always_wakes_it() {
        // The close's flag store and the receiver's empty-queue check
        // race; a store outside the queue lock could land between that
        // check and the wait, stranding the receiver until its timeout.
        for _ in 0..5000 {
            let (tx, rx) = channel();
            let closer = std::thread::spawn(move || tx.close());
            let t0 = std::time::Instant::now();
            let err = rx.recv_timeout(Duration::from_secs(2)).unwrap_err();
            assert_eq!(err.0, McapiStatus::ErrChanClosed);
            assert!(t0.elapsed() < Duration::from_secs(1), "stranded receiver");
            closer.join().unwrap();
        }
    }

    #[test]
    fn try_ops_report_state() {
        let (tx, rx) = channel();
        assert_eq!(rx.try_recv().unwrap_err().0, McapiStatus::ErrQueueEmpty);
        tx.try_send(b"x").unwrap();
        assert_eq!(rx.available(), 1);
        assert_eq!(rx.try_recv().unwrap(), b"x");
    }
}
