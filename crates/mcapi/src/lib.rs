//! # mca-mcapi — the Multicore Communications API
//!
//! MCAPI is the MCA's message-passing standard for *closely distributed*
//! embedded systems (paper §2B): lightweight communication and
//! synchronization between cores, partitions, or host-and-accelerator, with
//! three communication modes:
//!
//! 1. **Connectionless messages** ([`msg`]) — datagrams between endpoints,
//!    with per-message priorities;
//! 2. **Packet channels** ([`pktchan`]) — connected, unidirectional FIFO
//!    streams of variable-size packets;
//! 3. **Scalar channels** ([`sclchan`]) — connected FIFO streams of 8/16/32/
//!    64-bit scalars, the cheapest path for doorbells and small control
//!    words.
//!
//! The paper limits its implementation work to MRAPI but describes MCAPI and
//! plans it for the hypervisor/heterogeneous future work (§4A, §7); this
//! crate implements it so those experiments are runnable (the
//! `heterogeneous_offload` example), and [`wire`] frames packets straight
//! onto a Unix socket between processes for the `romp-cluster` worker
//! pool (no relay thread; the in-process [`pktchan`] is not under it).
//! The spec's non-blocking `_i` request handles (`mcapi_test` /
//! `mcapi_wait`) are not implemented: nothing calls them, and
//! `try_msg_recv` / `PktRx::try_recv` cover polling.
//!
//! Addressing follows the spec: an endpoint is `(domain, node, port)`;
//! endpoints are created by their owning node and looked up by address.
//! Everything lives in a [`McapiDomain`] registry (one per simulated
//! interconnect).
//!
//! ```
//! use mca_mcapi::{McapiDomain, EndpointAddr};
//!
//! let dom = McapiDomain::new(1);
//! let host = dom.initialize(0).unwrap();
//! let dsp = dom.initialize(1).unwrap();
//!
//! let tx = host.create_endpoint(10).unwrap();
//! let rx = dsp.create_endpoint(20).unwrap();
//!
//! tx.msg_send(EndpointAddr { node: 1, port: 20 }, b"halt", 0).unwrap();
//! let (data, _prio) = rx.msg_recv_timeout(std::time::Duration::from_secs(1)).unwrap();
//! assert_eq!(&data[..], b"halt");
//! ```

#![warn(missing_docs)]

pub mod msg;
pub mod pktchan;
pub mod sclchan;
pub mod status;
pub mod wire;

mod registry;

pub use registry::{Endpoint, EndpointAddr, McapiDomain, McapiNode};
pub use status::{McapiError, McapiStatus};
pub use wire::{WireChan, WireListener};

/// Default bound on an endpoint's receive queue (messages), per the spec's
/// `MCAPI_MAX_QUEUE_ELEMENTS` attribute.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Lowest-urgency message priority (0 is most urgent, like the reference
/// implementation).
pub const MCAPI_MAX_PRIORITY: u8 = 7;
