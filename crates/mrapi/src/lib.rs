//! # mca-mrapi — the Multicore Resource Management API
//!
//! A from-scratch implementation of MRAPI, the Multicore Association's
//! resource-management standard, as used (and extended) by the OpenMP-MCA
//! paper.  MRAPI abstracts the four resource classes an embedded runtime
//! needs (paper §2B):
//!
//! 1. **Computation entities** — [`node`]: domains and nodes with a
//!    domain-global database, *plus the paper's extension* (§5A.1):
//!    `mrapi_thread_create`-style worker-thread nodes, so node management can
//!    back an OpenMP thread team instead of heavyweight processes;
//! 2. **Memory primitives** — [`shmem`] (shared memory with key-based
//!    attach from many nodes, *plus the paper's `use_malloc` extension*
//!    (§5A.2) mapping allocations to the process heap for thread-level
//!    sharing) and [`rmem`] (remote memory reached directly or via DMA);
//! 3. **Synchronization primitives** — [`sync`]: mutexes with MRAPI lock
//!    keys, recursion, timeouts and shared-by-key lookup (the one primitive
//!    the paper's libGOMP port uses; MRAPI's semaphores and reader/writer
//!    locks are not implemented);
//! 4. **System resource metadata** — [`metadata`]: resource trees harvested
//!    from the simulated platform ([`mca_platform`]), used by the OpenMP
//!    runtime to discover online processors (§5B.4).
//!
//! ## Shape of the API
//!
//! The C API operates on a process-global runtime.  This crate makes the
//! system object explicit — [`MrapiSystem`] — so tests and simulations can
//! run many independent "boards" in one process; a process-global default is
//! available through [`MrapiSystem::global`].
//!
//! ```
//! use mca_mrapi::{MrapiSystem, NodeId, DomainId};
//! use mca_mrapi::shmem::ShmemAttributes;
//!
//! let sys = MrapiSystem::new_t4240();
//! let node = sys.initialize(DomainId(1), NodeId(0)).unwrap();
//!
//! // Paper extension 1: spawn a worker thread registered as node 1.
//! let worker = node.thread_create(NodeId(1), move |n| {
//!     assert_eq!(n.node_id().0, 1);
//!     42
//! }).unwrap();
//! assert_eq!(worker.join().unwrap(), 42);
//!
//! // Paper extension 2: heap-backed shared memory (gomp_malloc's path).
//! let attrs = ShmemAttributes { use_malloc: true, ..Default::default() };
//! let shm = node.shmem_create(0xBEEF, 4096, &attrs).unwrap();
//! shm.write_u64(0, 7);
//! assert_eq!(shm.read_u64(0), 7);
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod filemap;
pub mod metadata;
pub mod node;
pub mod rmem;
pub mod shmem;
pub mod status;
pub mod sync;

mod db;

pub use db::MrapiSystem;
pub use fault::{FaultDecision, FaultPlan, FaultProbe, FaultSite, SiteObserver};
pub use filemap::FileMapping;
pub use node::{DomainId, Node, NodeAttributes, NodeId, WorkerNode};
pub use rmem::{RmemAccess, RmemAttributes, RmemHandle};
pub use shmem::{ShmemAttributes, ShmemHandle, ShmemKey};
pub use status::{MrapiError, MrapiStatus};
pub use sync::{Mutex as MrapiMutex, MutexKey};

/// MRAPI's "wait forever" timeout sentinel.
pub const MRAPI_TIMEOUT_INFINITE: std::time::Duration =
    std::time::Duration::from_secs(u64::MAX / 4);
