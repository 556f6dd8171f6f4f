//! # romp-sim — deterministic whole-system simulation of the serve stack
//!
//! PR 6's chaos tests threw real threads, real sockets and a real clock
//! at the server and hoped the interesting interleavings showed up.
//! This crate removes the hope: the **entire serving stack runs inside
//! one seeded, single-threaded event loop on a virtual clock**, in the
//! style of FoundationDB's simulation testing and madsim.  A run is a
//! pure function of `(scenario, seed)` — same seed, byte-identical
//! event trace — so any failing schedule in a million-seed sweep is
//! reproduced exactly by re-running its seed, and fixed bugs stay fixed
//! as pinned-seed regression tests.
//!
//! What is real and what is modelled:
//!
//! * **Real**: the wire protocol and frame codecs, `RecvBuf`/`SendBuf`
//!   reassembly, the connection engine the epoll reactor drives
//!   ([`romp_serve::session::Engine`]: service pass, await parking,
//!   completion delivery, backpressure deferral, flush and
//!   close-after-flush), the `route_frames` + `ServeCore` policy
//!   (admission, idempotency, batch admission, cancel, drain), and the
//!   one [`romp_serve::ServeState`] the
//!   production server and the cluster router also drive: job table
//!   (deadlines, sweep, dedup bounds), EDF queue, `serve.*` metrics,
//!   service-time estimators, the watchdog's sweep bookkeeping, and the
//!   [`romp_serve::dispatcher::Dispatcher`] the server and the cluster
//!   router drive: placement, orphan retries, cancel forwarding, the
//!   escalation choice and the drain condition — the exact code
//!   production runs.
//! * **Modelled**: threads (event sources), sockets ([`net`]: seeded
//!   delays, ordered delivery, partitions; each server-side connection's
//!   transport is an inbox plus a write window), the executors under the
//!   dispatcher (seeded durations, outcomes, wedges, unwinds and deaths,
//!   with `mca-mrapi` fault-plan probes deciding failures), and time
//!   itself ([`mca_platform::VirtualClock`]).
//!
//! The [`scenario`] module defines six storm classes and the invariant
//! checks every seed must satisfy — no accepted job dropped, no double
//! terminal state, duplicate submissions never yield two jobs, every
//! parked await answered, bounded dedup map, graceful drain always
//! completes.  The `simstorm` binary sweeps seeds for CI.

#![warn(missing_docs)]

pub mod core;
pub mod net;
pub mod scenario;
pub mod sched;
pub mod world;

pub use crate::core::{SimCore, SimCoreConfig};
pub use net::{DuplexLink, LinkDir, Payload, SimNet};
pub use scenario::{run_scenario, Scenario, SimReport, SimStats};
pub use sched::EventQueue;
pub use world::World;
