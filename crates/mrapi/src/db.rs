//! The MRAPI global database.
//!
//! MRAPI nodes in one domain share a *domain-global database* (paper §5A.1):
//! node registrations, shared-memory segments keyed by `shmem key`, and the
//! synchronization objects, all discoverable by key from any node.  This
//! module owns those registries; the public entry point is [`MrapiSystem`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use mca_platform::{MemoryMap, Topology};
use mca_sync::RwLock;

use crate::fault::{FaultDecision, FaultProbe, FaultSite, SiteObserver};
use crate::node::{DomainId, Node, NodeId, NodeRecord};
use crate::rmem::RmemBuffer;
use crate::shmem::ShmemSegment;
use crate::status::{ensure, MrapiError, MrapiResult, MrapiStatus};
use crate::sync::MutexInner;

/// Registries for one MRAPI domain.
pub(crate) struct DomainDb {
    pub id: DomainId,
    pub nodes: RwLock<HashMap<u32, Arc<NodeRecord>>>,
    pub shmems: RwLock<HashMap<u32, Arc<ShmemSegment>>>,
    pub rmems: RwLock<HashMap<u32, Arc<RmemBuffer>>>,
    pub mutexes: RwLock<HashMap<u32, Arc<MutexInner>>>,
}

impl DomainDb {
    fn new(id: DomainId) -> Self {
        DomainDb {
            id,
            nodes: RwLock::new(HashMap::new()),
            shmems: RwLock::new(HashMap::new()),
            rmems: RwLock::new(HashMap::new()),
            mutexes: RwLock::new(HashMap::new()),
        }
    }
}

pub(crate) struct SystemInner {
    pub topo: Topology,
    pub mem_map: MemoryMap,
    pub domains: RwLock<HashMap<u32, Arc<DomainDb>>>,
    /// Accumulated simulated nanoseconds spent in modeled transfers
    /// (segment-shmem access, remote-memory DMA) — the simulation's cost
    /// ledger, readable via [`MrapiSystem::simulated_transfer_ns`].
    pub sim_ns: AtomicU64,
    /// Per-hw-thread utilization cells surfaced as dynamic metadata.
    pub utilization: Vec<Arc<AtomicU64>>,
    /// Fast gate: a bitmask of [`HOOK_FAULTS`] / [`HOOK_OBSERVER`],
    /// nonzero only while a fault probe or site observer is installed, so
    /// the boundary checks still cost one relaxed load in production.
    pub hooks: AtomicU8,
    pub fault_probe: RwLock<Option<Arc<dyn FaultProbe>>>,
    pub site_observer: RwLock<Option<Arc<dyn SiteObserver>>>,
}

/// [`SystemInner::hooks`] bit: a fault probe is installed.
const HOOK_FAULTS: u8 = 1;
/// [`SystemInner::hooks`] bit: a site observer is installed.
const HOOK_OBSERVER: u8 = 2;

/// One MRAPI "system": a board plus its domain databases.
///
/// Cloning is cheap (shared handle).  The C API's single implicit runtime is
/// available as [`MrapiSystem::global`], which models the paper's T4240RDB.
#[derive(Clone)]
pub struct MrapiSystem {
    pub(crate) inner: Arc<SystemInner>,
}

impl MrapiSystem {
    /// A system over an arbitrary platform topology.
    pub fn new(topo: Topology) -> Self {
        let mem_map = MemoryMap::for_topology(&topo);
        let utilization = (0..topo.num_hw_threads())
            .map(|_| Arc::new(AtomicU64::new(0)))
            .collect();
        MrapiSystem {
            inner: Arc::new(SystemInner {
                topo,
                mem_map,
                domains: RwLock::new(HashMap::new()),
                sim_ns: AtomicU64::new(0),
                utilization,
                hooks: AtomicU8::new(0),
                fault_probe: RwLock::new(None),
                site_observer: RwLock::new(None),
            }),
        }
    }

    /// A system modeling the paper's T4240RDB board.
    pub fn new_t4240() -> Self {
        MrapiSystem::new(Topology::t4240rdb())
    }

    /// The process-global default system (T4240RDB model), mirroring the C
    /// API's implicit runtime.
    pub fn global() -> &'static MrapiSystem {
        static GLOBAL: OnceLock<MrapiSystem> = OnceLock::new();
        GLOBAL.get_or_init(MrapiSystem::new_t4240)
    }

    /// The platform topology this system models.
    pub fn topology(&self) -> &Topology {
        &self.inner.topo
    }

    /// The platform memory map (used by remote-memory windows).
    pub fn memory_map(&self) -> &MemoryMap {
        &self.inner.mem_map
    }

    /// Total simulated transfer time accumulated so far, nanoseconds.
    pub fn simulated_transfer_ns(&self) -> u64 {
        self.inner.sim_ns.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Install (or clear, with `None`) the fault probe consulted at every
    /// MRAPI boundary on this system.  With no probe installed the boundary
    /// check is a single relaxed atomic load.
    pub fn set_fault_probe(&self, probe: Option<Arc<dyn FaultProbe>>) {
        let enabled = probe.is_some();
        *self.inner.fault_probe.write() = probe;
        if enabled {
            self.inner.hooks.fetch_or(HOOK_FAULTS, Ordering::Release);
        } else {
            self.inner.hooks.fetch_and(!HOOK_FAULTS, Ordering::Release);
        }
    }

    /// Install (or clear, with `None`) a passive [`SiteObserver`] notified
    /// at every MRAPI boundary crossing.  Shares the fault probe's fast
    /// gate: with neither installed the boundary check is a single relaxed
    /// atomic load.
    pub fn set_site_observer(&self, observer: Option<Arc<dyn SiteObserver>>) {
        let enabled = observer.is_some();
        *self.inner.site_observer.write() = observer;
        if enabled {
            self.inner.hooks.fetch_or(HOOK_OBSERVER, Ordering::Release);
        } else {
            self.inner
                .hooks
                .fetch_and(!HOOK_OBSERVER, Ordering::Release);
        }
    }

    /// Whether a fault probe is currently installed.
    pub fn fault_injection_enabled(&self) -> bool {
        self.inner.hooks.load(Ordering::Relaxed) & HOOK_FAULTS != 0
    }

    /// Consult the fault probe at `site`: sleep out any ordered latency
    /// spike, then fail with the ordered status, if any.  The disabled
    /// path is one relaxed load.
    #[inline]
    pub(crate) fn fault_check(&self, site: FaultSite) -> MrapiResult<()> {
        if self.inner.hooks.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        self.fault_check_slow(site)
    }

    #[cold]
    fn fault_check_slow(&self, site: FaultSite) -> MrapiResult<()> {
        let decision = match self.inner.fault_probe.read().as_ref() {
            Some(probe) => probe.decide(site),
            None => FaultDecision::PASS,
        };
        if let Some(obs) = self.inner.site_observer.read().as_ref() {
            obs.observe(site, decision.fail);
        }
        if let Some(delay) = decision.delay {
            std::thread::sleep(delay);
        }
        match decision.fail {
            Some(status) => Err(MrapiError(status)),
            None => Ok(()),
        }
    }

    /// `mrapi_initialize`: register `node_id` in `domain_id` and return the
    /// node handle every other operation hangs off.
    ///
    /// Fails with `MRAPI_ERR_NODE_INITFAILED` if the node id is already live
    /// in the domain.
    pub fn initialize(&self, domain_id: DomainId, node_id: NodeId) -> MrapiResult<Node> {
        self.fault_check(FaultSite::NodeInit)?;
        let domain = self.domain(domain_id);
        let record = Arc::new(NodeRecord::new(node_id));
        {
            let mut nodes = domain.nodes.write();
            ensure(
                !nodes.contains_key(&node_id.0),
                MrapiStatus::ErrNodeInitFailed,
            )?;
            nodes.insert(node_id.0, Arc::clone(&record));
        }
        Ok(Node::from_parts(self.clone(), domain, record))
    }

    /// Number of nodes currently registered in a domain (0 if the domain was
    /// never touched).
    pub fn node_count(&self, domain_id: DomainId) -> usize {
        self.with_domain(domain_id, |d| d.nodes.read().len())
    }

    /// Number of live (created, not yet deleted) shared-memory segments in
    /// a domain — a leak check for users that create one per operation.
    pub fn shmem_count(&self, domain_id: DomainId) -> usize {
        self.with_domain(domain_id, |d| d.shmems.read().len())
    }

    /// Number of live (created, not yet deleted) mutexes in a domain.
    pub fn mutex_count(&self, domain_id: DomainId) -> usize {
        self.with_domain(domain_id, |d| d.mutexes.read().len())
    }

    /// `f` over an existing domain database; 0 if the domain was never
    /// touched.
    fn with_domain(&self, domain_id: DomainId, f: impl FnOnce(&DomainDb) -> usize) -> usize {
        self.inner
            .domains
            .read()
            .get(&domain_id.0)
            .map(|d| f(d))
            .unwrap_or(0)
    }

    /// Fetch-or-create the domain database.
    pub(crate) fn domain(&self, id: DomainId) -> Arc<DomainDb> {
        if let Some(d) = self.inner.domains.read().get(&id.0) {
            return Arc::clone(d);
        }
        let mut w = self.inner.domains.write();
        Arc::clone(w.entry(id.0).or_insert_with(|| Arc::new(DomainDb::new(id))))
    }

    /// Charge simulated transfer time to the ledger.
    pub(crate) fn charge_sim_ns(&self, ns: f64) {
        self.inner
            .sim_ns
            .fetch_add(ns as u64, std::sync::atomic::Ordering::Relaxed);
    }
}

impl std::fmt::Debug for MrapiSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MrapiSystem")
            .field("platform", &self.inner.topo.name)
            .field("domains", &self.inner.domains.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_object_counts_follow_create_and_delete() {
        let sys = MrapiSystem::new_t4240();
        let d = DomainId(8);
        assert_eq!((sys.shmem_count(d), sys.mutex_count(d)), (0, 0));
        let n = sys.initialize(d, NodeId(0)).unwrap();
        let attrs = crate::shmem::ShmemAttributes::default();
        let seg = n.shmem_create(1, 64, &attrs).unwrap();
        let mutex = n
            .mutex_create(2, &crate::sync::MutexAttributes::default())
            .unwrap();
        assert_eq!((sys.shmem_count(d), sys.mutex_count(d)), (1, 1));
        // Dropping a handle only detaches; deleting removes the object.
        drop(n.shmem_get(1).unwrap());
        assert_eq!(sys.shmem_count(d), 1);
        seg.delete().unwrap();
        mutex.delete().unwrap();
        assert_eq!((sys.shmem_count(d), sys.mutex_count(d)), (0, 0));
    }

    #[test]
    fn initialize_registers_and_rejects_duplicates() {
        let sys = MrapiSystem::new_t4240();
        let d = DomainId(7);
        let _n0 = sys.initialize(d, NodeId(0)).unwrap();
        let _n1 = sys.initialize(d, NodeId(1)).unwrap();
        assert_eq!(sys.node_count(d), 2);
        let err = sys.initialize(d, NodeId(0)).unwrap_err();
        assert_eq!(err.0, MrapiStatus::ErrNodeInitFailed);
    }

    #[test]
    fn domains_are_isolated() {
        let sys = MrapiSystem::new_t4240();
        sys.initialize(DomainId(1), NodeId(5)).unwrap();
        // Same node id in a different domain is fine.
        sys.initialize(DomainId(2), NodeId(5)).unwrap();
        assert_eq!(sys.node_count(DomainId(1)), 1);
        assert_eq!(sys.node_count(DomainId(2)), 1);
        assert_eq!(sys.node_count(DomainId(3)), 0);
    }

    #[test]
    fn systems_are_isolated_from_each_other() {
        let a = MrapiSystem::new_t4240();
        let b = MrapiSystem::new_t4240();
        a.initialize(DomainId(1), NodeId(0)).unwrap();
        assert_eq!(b.node_count(DomainId(1)), 0);
    }

    #[test]
    fn global_system_is_t4240() {
        let g = MrapiSystem::global();
        assert_eq!(g.topology().name, "T4240RDB");
        assert_eq!(g.topology().num_hw_threads(), 24);
    }

    #[test]
    fn fault_probe_gates_initialize() {
        use crate::fault::FaultPlan;
        let sys = MrapiSystem::new_t4240();
        assert!(!sys.fault_injection_enabled());
        let plan = Arc::new(FaultPlan::new(0).with_persistent(
            FaultSite::NodeInit,
            MrapiStatus::ErrNodeInitFailed,
            0,
        ));
        sys.set_fault_probe(Some(plan));
        assert!(sys.fault_injection_enabled());
        let err = sys.initialize(DomainId(1), NodeId(0)).unwrap_err();
        assert_eq!(err.0, MrapiStatus::ErrNodeInitFailed);
        // Clearing the probe restores normal operation.
        sys.set_fault_probe(None);
        assert!(!sys.fault_injection_enabled());
        sys.initialize(DomainId(1), NodeId(0)).unwrap();
    }

    #[test]
    fn sim_ledger_accumulates() {
        let sys = MrapiSystem::new_t4240();
        assert_eq!(sys.simulated_transfer_ns(), 0);
        sys.charge_sim_ns(1234.7);
        sys.charge_sim_ns(100.2);
        assert_eq!(sys.simulated_transfer_ns(), 1334);
    }
}
