//! # mca-platform — a simulated multicore embedded platform
//!
//! The OpenMP-MCA paper (Sun, Chandrasekaran, Chapman; IPDPSW 2015) evaluates
//! its runtime on a Freescale **T4240RDB** reference design board: twelve
//! PowerPC e6500 64-bit dual-threaded cores at 1.8 GHz, grouped into three
//! clusters of four cores, each cluster sharing a multibank L2 cache, the
//! three clusters joined by the **CoreNet** coherency fabric with a 1.5 MB
//! CoreNet platform (L3) cache.  The board runs an embedded hypervisor that
//! can partition CPUs, memory and I/O between guests.
//!
//! That hardware is not available to this reproduction, so this crate builds
//! the closest software equivalent: a complete *platform model* that the rest
//! of the stack (MRAPI, MCAPI, MTAPI and the `romp` OpenMP-style runtime)
//! treats as "the board".
//!
//! The crate provides:
//!
//! * [`topology`] — chips, clusters, cores, hardware threads and the cache
//!   hierarchy, with presets for the T4240RDB, its predecessor P4080DS
//!   (the paper's §4C comparison platform) and the actual host machine;
//! * [`resource`] — MRAPI-style *resource metadata trees* describing a
//!   topology, the structure `mrapi_resources_get` hands back to callers;
//! * [`partition`] — an embedded-hypervisor model (the paper's Figure 2)
//!   that slices a topology into guest partitions with dedicated CPUs and
//!   memory windows;
//! * [`memory`] — the platform memory map: DDR controllers, on-chip SRAM,
//!   and remote (DMA-reached) windows, each with latency/bandwidth
//!   parameters used by the simulation;
//! * [`vtime`] — the virtual-time engine that reconstructs *board* execution
//!   times from *host* measurements (per-thread CPU time plus contention and
//!   synchronization cost models), used to regenerate the paper's Figure 4
//!   speedup curves on a machine with fewer than 24 hardware threads;
//! * [`boot`] — an illustrative simulation of the board bring-up flow the
//!   paper describes in §4B (u-boot, TFTP kernel fetch, NFS root mount);
//! * [`shard`] — topology → runtime-shard placement: how the `romp`
//!   runtime groups team members into cluster-aligned scheduling
//!   domains with an affinity-key hash for home-shard dispatch.
//!
//! ## Quick start
//!
//! ```
//! use mca_platform::{Topology, resource::ResourceTree};
//!
//! let board = Topology::t4240rdb();
//! assert_eq!(board.num_cores(), 12);
//! assert_eq!(board.num_hw_threads(), 24);
//! assert_eq!(board.num_clusters(), 3);
//!
//! // The MRAPI metadata tree is derived straight from the topology.
//! let tree = ResourceTree::from_topology(&board);
//! assert_eq!(tree.count_kind(mca_platform::resource::ResourceKind::Core), 12);
//! ```

#![warn(missing_docs)]

pub mod boot;
pub mod memory;
pub mod partition;
pub mod power;
pub mod resource;
pub mod shard;
pub mod topology;
pub mod vtime;

pub use memory::{MemoryMap, MemoryRegion, RegionClass};
pub use partition::{Hypervisor, Partition, PartitionSpec};
pub use power::{EnergyEstimate, PowerModel, PowerState};
pub use resource::{ResourceAttr, ResourceKind, ResourceNode, ResourceTree};
pub use shard::{mix64, ShardLayout};
pub use topology::{CacheLevel, CacheSpec, Cluster, Core, HwThread, Topology};
pub use vtime::{Clock, CostModel, RegionProfile, VirtualClock, VirtualTimer};
