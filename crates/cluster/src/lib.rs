//! # romp-cluster — a multi-process worker pool for `romp-serve`
//!
//! The paper's future-work section puts OpenMP-MCA on *closely
//! distributed* systems: compute spread over OS processes (or cores)
//! that talk through the MCA standards rather than shared data
//! structures.  This crate is that topology for the serving stack
//! (DESIGN.md §5.12): the front-end keeps its reactor, admission
//! queue, job table, watchdog and dispatcher, but the executors behind
//! the [`romp_serve::Dispatch`] seam become a [`router::Router`] over N
//! **worker processes**, each a real `std::process` child running its
//! own `romp` runtime:
//!
//! ```text
//!  clients ──TCP──▶ reactor ──▶ queue ─▶ Router ──MCAPI wire──▶ worker 0 (romp runtime)
//!                                          │        (unix sockets)  worker 1
//!                                          │                        …
//!                                          └──▶ attach ◀── mrapi rmem (file-backed, zero-copy results)
//! ```
//!
//! The MCA crates supply the substance, not just the vocabulary:
//!
//! * **mca-mcapi** carries dispatch and control — each router↔worker
//!   link is an [`mca_mcapi::WireChan`] (packets framed straight onto a
//!   Unix socket, no relay threads), so worker death surfaces as the
//!   channel's typed `MCAPI_ERR_CHAN_CLOSED`;
//! * **mca-mtapi** is the remote-dispatch vocabulary — inside each
//!   worker the `Dispatch` packet becomes the input of an MTAPI task on
//!   the worker's `Mtapi` runtime (`job 1` = "run a romp job spec"),
//!   whose action runs the job and sends `Done` itself;
//! * **mca-mrapi** provides the zero-copy result path — each worker
//!   creates a file-backed `rmem` segment (`rmem_create_file`), the
//!   router attaches it (`rmem_attach_file`), and result payloads come
//!   back through the shared mapping instead of the socket, in slots
//!   released after every fetch (the drain report asserts zero leaks).
//!
//! Supervision (the paper's node-failure story): workers heartbeat;
//! a killed worker is detected by heartbeat loss or channel error, the
//! dispatcher retries its in-flight jobs on survivors (idempotent by
//! construction — a job's terminal state is recorded exactly once), and
//! the worker is respawned.  An operator `Restart` request cycles
//! workers one at a time with zero lost jobs.

#![warn(missing_docs)]

pub mod proto;
pub mod router;
pub mod worker;

pub use router::{locate_worker_bin, ClusterConfig, Router};
pub use worker::{run_worker, WorkerConfig};
