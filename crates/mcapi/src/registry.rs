//! Domains, nodes, endpoints, and the shared delivery machinery.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mca_sync::park::{EventCount, SpinBudget};
use mca_sync::{Mutex as PlMutex, RwLock};

use crate::status::{ensure, McapiResult, McapiStatus};
use crate::{DEFAULT_QUEUE_CAPACITY, MCAPI_MAX_PRIORITY};

/// A fully qualified endpoint address within a domain
/// (`mcapi_endpoint_t` identity: node + port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointAddr {
    /// Owning node id within the domain.
    pub node: u32,
    /// Port number on that node (unique per node).
    pub port: u32,
}

/// One queued delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Item {
    /// Connectionless message with priority (0 = most urgent).
    Msg { data: Vec<u8>, prio: u8 },
    /// Packet-channel payload.
    Packet(Vec<u8>),
    /// Scalar-channel word with its size in bytes (1/2/4/8).
    Scalar { bits: u64, size: u8 },
}

/// What a connected endpoint is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChanKind {
    Packet,
    Scalar,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChanRole {
    Sender,
    Receiver,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct ChanState {
    pub kind: ChanKind,
    pub role: ChanRole,
    /// The other end's address (spec-visible via `*_peer` queries).
    pub peer: EndpointAddr,
}

impl ChanState {
    /// The connected peer's address.
    pub(crate) fn peer(&self) -> EndpointAddr {
        self.peer
    }
}

pub(crate) struct Queues {
    by_prio: Vec<VecDeque<Item>>,
    pub len: usize,
}

impl Queues {
    fn new() -> Self {
        Queues {
            by_prio: (0..=MCAPI_MAX_PRIORITY as usize)
                .map(|_| VecDeque::new())
                .collect(),
            len: 0,
        }
    }

    fn push(&mut self, item: Item) {
        let p = match &item {
            Item::Msg { prio, .. } => *prio as usize,
            // Channel traffic is strict FIFO: one lane.
            Item::Packet(_) | Item::Scalar { .. } => 0,
        };
        self.by_prio[p].push_back(item);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Item> {
        for q in self.by_prio.iter_mut() {
            if let Some(i) = q.pop_front() {
                self.len -= 1;
                return Some(i);
            }
        }
        None
    }

    fn peek(&self) -> Option<&Item> {
        self.by_prio.iter().find_map(|q| q.front())
    }
}

pub(crate) struct EpInner {
    pub addr: EndpointAddr,
    pub queue: PlMutex<Queues>,
    /// Receivers wait here for deliveries, senders for space; rung after
    /// every change to the queue or the flags.
    pub wake: EventCount,
    pub capacity: usize,
    pub chan: PlMutex<Option<ChanState>>,
    /// Set when the channel peer closed (drain-then-fail semantics).
    pub peer_closed: AtomicBool,
    pub deleted: AtomicBool,
}

impl EpInner {
    /// Set one of this endpoint's flags (`peer_closed`, `deleted`) and
    /// wake its waiters.
    pub(crate) fn raise(&self, flag: &AtomicBool) {
        flag.store(true, Ordering::Release);
        self.wake.notify_all();
    }
}

struct DomainInner {
    id: u32,
    nodes: RwLock<HashMap<u32, ()>>,
    endpoints: RwLock<HashMap<(u32, u32), Arc<EpInner>>>,
}

/// An MCAPI domain: the registry one simulated interconnect shares.
#[derive(Clone)]
pub struct McapiDomain {
    inner: Arc<DomainInner>,
}

impl McapiDomain {
    /// Create a fresh domain with the given id.
    pub fn new(id: u32) -> Self {
        McapiDomain {
            inner: Arc::new(DomainInner {
                id,
                nodes: RwLock::new(HashMap::new()),
                endpoints: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Domain id.
    pub fn id(&self) -> u32 {
        self.inner.id
    }

    /// `mcapi_initialize` — register a node.
    pub fn initialize(&self, node: u32) -> McapiResult<McapiNode> {
        let mut nodes = self.inner.nodes.write();
        ensure(!nodes.contains_key(&node), McapiStatus::ErrNodeInitFailed)?;
        nodes.insert(node, ());
        Ok(McapiNode {
            domain: self.clone(),
            id: node,
        })
    }

    /// Look up an endpoint by address (`mcapi_endpoint_get`).
    pub fn get_endpoint(&self, addr: EndpointAddr) -> McapiResult<Endpoint> {
        let inner = self
            .inner
            .endpoints
            .read()
            .get(&(addr.node, addr.port))
            .cloned()
            .ok_or(crate::McapiError(McapiStatus::ErrEndpointInvalid))?;
        ensure(
            !inner.deleted.load(Ordering::Acquire),
            McapiStatus::ErrEndpointInvalid,
        )?;
        Ok(Endpoint {
            domain: self.clone(),
            inner,
        })
    }

    pub(crate) fn lookup(&self, addr: EndpointAddr) -> McapiResult<Arc<EpInner>> {
        let inner = self
            .inner
            .endpoints
            .read()
            .get(&(addr.node, addr.port))
            .cloned()
            .ok_or(crate::McapiError(McapiStatus::ErrEndpointInvalid))?;
        ensure(
            !inner.deleted.load(Ordering::Acquire),
            McapiStatus::ErrEndpointInvalid,
        )?;
        Ok(inner)
    }
}

impl std::fmt::Debug for McapiDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McapiDomain")
            .field("id", &self.inner.id)
            .field("endpoints", &self.inner.endpoints.read().len())
            .finish()
    }
}

/// A registered MCAPI node.
#[derive(Debug)]
pub struct McapiNode {
    domain: McapiDomain,
    id: u32,
}

impl McapiNode {
    /// Node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// `mcapi_endpoint_create` — claim `port` on this node with the default
    /// queue capacity.
    pub fn create_endpoint(&self, port: u32) -> McapiResult<Endpoint> {
        self.create_endpoint_with_capacity(port, DEFAULT_QUEUE_CAPACITY)
    }

    /// Endpoint with an explicit receive-queue bound (the
    /// `MCAPI_MAX_QUEUE_ELEMENTS` attribute).
    pub fn create_endpoint_with_capacity(
        &self,
        port: u32,
        capacity: usize,
    ) -> McapiResult<Endpoint> {
        ensure(capacity > 0, McapiStatus::ErrParameter)?;
        let addr = EndpointAddr {
            node: self.id,
            port,
        };
        let inner = Arc::new(EpInner {
            addr,
            queue: PlMutex::new(Queues::new()),
            wake: EventCount::new(),
            capacity,
            chan: PlMutex::new(None),
            peer_closed: AtomicBool::new(false),
            deleted: AtomicBool::new(false),
        });
        let mut eps = self.domain.inner.endpoints.write();
        ensure(
            !eps.contains_key(&(addr.node, addr.port)),
            McapiStatus::ErrEndpointExists,
        )?;
        eps.insert((addr.node, addr.port), Arc::clone(&inner));
        Ok(Endpoint {
            domain: self.domain.clone(),
            inner,
        })
    }

    /// `mcapi_finalize` — deregister the node.  Its endpoints are deleted.
    pub fn finalize(self) {
        self.domain.inner.nodes.write().remove(&self.id);
        let mut eps = self.domain.inner.endpoints.write();
        eps.retain(|(node, _), ep| {
            if *node == self.id {
                ep.raise(&ep.deleted);
                false
            } else {
                true
            }
        });
    }
}

/// A live endpoint handle.  Message operations live in [`crate::msg`];
/// channel operations in [`crate::pktchan`] / [`crate::sclchan`].
#[derive(Clone)]
pub struct Endpoint {
    pub(crate) domain: McapiDomain,
    pub(crate) inner: Arc<EpInner>,
}

impl Endpoint {
    /// This endpoint's address.
    pub fn addr(&self) -> EndpointAddr {
        self.inner.addr
    }

    /// Deliveries waiting in the receive queue.
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().len
    }

    /// The receive-queue bound (`MCAPI_MAX_QUEUE_ELEMENTS` attribute).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Free queue slots right now.
    pub fn free_slots(&self) -> usize {
        self.inner.capacity.saturating_sub(self.queued())
    }

    /// Whether this endpoint is bound to a channel.
    pub fn is_connected(&self) -> bool {
        self.inner.chan.lock().is_some()
    }

    /// The connected peer's address, if this endpoint is channel-bound
    /// (`mcapi_*chan_get_peer`-style query).
    pub fn peer(&self) -> Option<EndpointAddr> {
        self.inner.chan.lock().map(|c| c.peer())
    }

    /// `mcapi_endpoint_delete`.  Pending deliveries are dropped; blocked
    /// peers wake with `MCAPI_ERR_ENDP_INVALID`.
    pub fn delete(self) {
        self.inner.raise(&self.inner.deleted);
        self.domain
            .inner
            .endpoints
            .write()
            .remove(&(self.inner.addr.node, self.inner.addr.port));
    }

    pub(crate) fn check_live(&self) -> McapiResult<()> {
        ensure(
            !self.inner.deleted.load(Ordering::Acquire),
            McapiStatus::ErrEndpointInvalid,
        )
    }

    /// Deliver `item` into `dest`'s queue, blocking while full (bounded by
    /// `timeout`; `None` = forever).
    pub(crate) fn deliver(
        dest: &Arc<EpInner>,
        item: Item,
        timeout: Option<Duration>,
    ) -> McapiResult<()> {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            ensure(
                !dest.deleted.load(Ordering::Acquire),
                McapiStatus::ErrEndpointInvalid,
            )?;
            let mut q = dest.queue.lock();
            if q.len < dest.capacity {
                q.push(item);
                drop(q);
                dest.wake.notify_all();
                return Ok(());
            }
            drop(q);
            let room = dest.wake.wait_until(SpinBudget::NONE, deadline, || {
                dest.deleted.load(Ordering::Acquire) || dest.queue.lock().len < dest.capacity
            });
            ensure(room, McapiStatus::Timeout)?;
        }
    }

    /// Try to deliver without blocking (`ErrQueueFull` when at capacity).
    pub(crate) fn try_deliver(dest: &Arc<EpInner>, item: Item) -> McapiResult<()> {
        ensure(
            !dest.deleted.load(Ordering::Acquire),
            McapiStatus::ErrEndpointInvalid,
        )?;
        let mut q = dest.queue.lock();
        ensure(q.len < dest.capacity, McapiStatus::ErrQueueFull)?;
        q.push(item);
        drop(q);
        dest.wake.notify_all();
        Ok(())
    }

    /// Pop the next delivery, waiting up to `timeout` (`None` = forever).
    /// `accept` filters/validates the head item *without* consuming it, so
    /// type mismatches leave the queue intact.
    pub(crate) fn take_next<T>(
        &self,
        timeout: Option<Duration>,
        accept: impl Fn(&Item) -> McapiResult<()>,
        convert: impl FnOnce(Item) -> T,
    ) -> McapiResult<T> {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        let ep = &self.inner;
        loop {
            self.check_live()?;
            let mut q = ep.queue.lock();
            if let Some(head) = q.peek() {
                accept(head)?;
                let item = q.pop().expect("peeked head exists");
                drop(q);
                // A sender may be waiting for space.
                ep.wake.notify_all();
                return Ok(convert(item));
            }
            drop(q);
            if ep.peer_closed.load(Ordering::Acquire) {
                return Err(crate::McapiError(McapiStatus::ErrChanClosed));
            }
            let ready = ep.wake.wait_until(SpinBudget::NONE, deadline, || {
                ep.deleted.load(Ordering::Acquire)
                    || ep.peer_closed.load(Ordering::Acquire)
                    || ep.queue.lock().len > 0
            });
            ensure(ready, McapiStatus::Timeout)?;
        }
    }

    /// Pop without blocking (`ErrQueueEmpty` if nothing is queued).
    pub(crate) fn try_take<T>(
        &self,
        accept: impl Fn(&Item) -> McapiResult<()>,
        convert: impl FnOnce(Item) -> T,
    ) -> McapiResult<T> {
        self.check_live()?;
        let mut q = self.inner.queue.lock();
        match q.peek() {
            Some(head) => {
                accept(head)?;
                let item = q.pop().expect("peeked head exists");
                drop(q);
                self.inner.wake.notify_all();
                Ok(convert(item))
            }
            None if self.inner.peer_closed.load(Ordering::Acquire) => {
                Err(crate::McapiError(McapiStatus::ErrChanClosed))
            }
            None => Err(crate::McapiError(McapiStatus::ErrQueueEmpty)),
        }
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("node", &self.inner.addr.node)
            .field("port", &self.inner.addr.port)
            .field("queued", &self.queued())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_endpoint_registration() {
        let dom = McapiDomain::new(3);
        let n = dom.initialize(5).unwrap();
        assert_eq!(
            dom.initialize(5).unwrap_err().0,
            McapiStatus::ErrNodeInitFailed
        );
        let ep = n.create_endpoint(1).unwrap();
        assert_eq!(ep.addr(), EndpointAddr { node: 5, port: 1 });
        assert_eq!(
            n.create_endpoint(1).unwrap_err().0,
            McapiStatus::ErrEndpointExists
        );
        let found = dom.get_endpoint(EndpointAddr { node: 5, port: 1 }).unwrap();
        assert_eq!(found.addr(), ep.addr());
        assert_eq!(
            dom.get_endpoint(EndpointAddr { node: 5, port: 99 })
                .unwrap_err()
                .0,
            McapiStatus::ErrEndpointInvalid
        );
    }

    #[test]
    fn finalize_deletes_node_endpoints() {
        let dom = McapiDomain::new(1);
        let n = dom.initialize(1).unwrap();
        let _ep = n.create_endpoint(1).unwrap();
        n.finalize();
        assert_eq!(
            dom.get_endpoint(EndpointAddr { node: 1, port: 1 })
                .unwrap_err()
                .0,
            McapiStatus::ErrEndpointInvalid
        );
        // The node id is reusable afterwards.
        dom.initialize(1).unwrap();
    }

    #[test]
    fn queue_priorities_order_pops() {
        let mut q = Queues::new();
        q.push(Item::Msg {
            data: vec![3],
            prio: 3,
        });
        q.push(Item::Msg {
            data: vec![1],
            prio: 1,
        });
        q.push(Item::Msg {
            data: vec![2],
            prio: 1,
        });
        assert_eq!(
            q.pop(),
            Some(Item::Msg {
                data: vec![1],
                prio: 1
            })
        );
        assert_eq!(
            q.pop(),
            Some(Item::Msg {
                data: vec![2],
                prio: 1
            }),
            "FIFO within a priority"
        );
        assert_eq!(
            q.pop(),
            Some(Item::Msg {
                data: vec![3],
                prio: 3
            })
        );
        assert_eq!(q.pop(), None);
        assert_eq!(q.len, 0);
    }

    #[test]
    fn zero_capacity_rejected() {
        let dom = McapiDomain::new(1);
        let n = dom.initialize(1).unwrap();
        assert_eq!(
            n.create_endpoint_with_capacity(1, 0).unwrap_err().0,
            McapiStatus::ErrParameter
        );
    }

    #[test]
    fn capacity_and_peer_queries() {
        let dom = McapiDomain::new(1);
        let n = dom.initialize(1).unwrap();
        let ep = n.create_endpoint_with_capacity(1, 5).unwrap();
        assert_eq!(ep.capacity(), 5);
        assert_eq!(ep.free_slots(), 5);
        assert_eq!(ep.peer(), None, "unconnected endpoint has no peer");
        let rx = dom.initialize(2).unwrap().create_endpoint(1).unwrap();
        let _c = crate::pktchan::connect(&ep, &rx).unwrap();
        assert_eq!(ep.peer(), Some(rx.addr()));
        assert_eq!(rx.peer(), Some(ep.addr()));
    }

    #[test]
    fn delete_wakes_blocked_receiver() {
        let dom = McapiDomain::new(1);
        let n = dom.initialize(1).unwrap();
        let ep = n.create_endpoint(1).unwrap();
        let ep2 = ep.clone();
        let h = std::thread::spawn(move || {
            ep2.take_next(Some(Duration::from_secs(5)), |_| Ok(()), |i| i)
                .unwrap_err()
                .0
        });
        std::thread::sleep(Duration::from_millis(30));
        ep.delete();
        assert_eq!(h.join().unwrap(), McapiStatus::ErrEndpointInvalid);
    }
}
