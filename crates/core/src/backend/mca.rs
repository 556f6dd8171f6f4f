//! The MCA backend — the paper's MCA-libGOMP plumbing.
//!
//! Every service is routed through MRAPI, mirroring §5B:
//!
//! * **Node management** (§5B.1): the backend initializes a master MRAPI
//!   node at construction; each pool worker is created with the
//!   `mrapi_thread_create` extension, registering the worker in the
//!   domain-global database, and is finalized when the pool thread joins;
//! * **Memory mapping** (§5B.2, Listing 3): runtime-internal shared buffers
//!   are MRAPI shared-memory segments created with the `use_malloc`
//!   attribute — the paper's `gomp_malloc` replacement;
//! * **Synchronization** (§5B.3, Listing 4): [`RegionLock`]s are MRAPI
//!   mutexes; lock/unlock run the exact `mrapi_mutex_lock(handle, &key,
//!   timeout, &status)` protocol;
//! * **Metadata** (§5B.4): the online-processor count comes from the MRAPI
//!   resource tree of the modeled board.
//!
//! # Fault model (DESIGN.md §5)
//!
//! No MRAPI status ever panics.  Transient statuses (`Timeout`, key/id
//! clashes) are retried with bounded exponential backoff — id-clash
//! retries pick a fresh key, so two backends racing on a shared system
//! converge instead of failing.  Lock waits are *timed*: an attempt that
//! exceeds [`McaOptions::lock_timeout`] cuts a [`DeadlockReport`] (which
//! node holds which key, how long the waiter has waited) and keeps
//! waiting — pure contention never degrades anything.  A *persistent*
//! failure (invalid handle, memory limit, retry exhaustion) poisons the
//! backend for runtime-level fallback and, on the lock path, flips the
//! individual lock over to a native mutex embedded in it, preserving
//! mutual exclusion through the transition (see [`McaLock`]).

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mca_mrapi::shmem::ShmemAttributes;
use mca_mrapi::sync::MutexAttributes;
use mca_mrapi::{
    DomainId, FaultSite, MrapiError, MrapiStatus, MrapiSystem, Node, NodeId, ShmemHandle,
    SiteObserver, WorkerNode,
};
use mca_sync::Mutex as PlMutex;
use romp_trace::{Counter, EventKind, Histogram, Tracer};

use super::{
    Backend, BackendKind, DeadlockReport, NativeBackend, RegionLock, SharedWords, WorkerJoin,
};
use crate::config::RetryPolicy;
use crate::sync::RawMutex;
use crate::RompError;

/// Domain the OpenMP runtime occupies, one per backend instance.
const OMP_DOMAIN: DomainId = DomainId(0x0E0);
/// The master (initial) node id.
const MASTER_NODE: NodeId = NodeId(0);
/// Most deadlock reports retained between drains.
const MAX_REPORTS: usize = 64;

/// Recovery policy for the MCA backend: how long one lock attempt may
/// wait before a [`DeadlockReport`] is cut, and how transient MRAPI
/// statuses are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McaOptions {
    /// Per-attempt MRAPI lock wait before a deadlock report.
    pub lock_timeout: Duration,
    /// Bounded exponential backoff for transient statuses.
    pub retry: RetryPolicy,
}

impl Default for McaOptions {
    fn default() -> Self {
        McaOptions {
            lock_timeout: Duration::from_millis(100),
            retry: RetryPolicy::default(),
        }
    }
}

/// State shared between the backend and every lock it handed out.
struct McaShared {
    lock_timeout: Duration,
    retry: RetryPolicy,
    /// Set on the first persistent failure; the runtime checks it at
    /// region boundaries and swaps in [`Backend::fallback`].
    poisoned: AtomicBool,
    /// The failure that poisoned the backend (first one wins).
    reason: PlMutex<Option<RompError>>,
    /// Over-long lock-wait diagnostics, capped at [`MAX_REPORTS`].
    reports: PlMutex<Vec<DeadlockReport>>,
    /// Whether the one-shot over-long-wait warning has been printed.
    warned: AtomicBool,
    /// Fast gate for `trace`: the hot paths pay one relaxed load when
    /// tracing is disarmed (mirroring the MRAPI fault-probe gate).
    trace_armed: AtomicBool,
    /// Armed-mode instruments, installed by `attach_tracer`.
    trace: PlMutex<Option<Arc<McaTrace>>>,
}

impl McaShared {
    fn poison(&self, err: &RompError) {
        let mut reason = self.reason.lock();
        if reason.is_none() {
            *reason = Some(err.clone());
        }
        drop(reason);
        self.poisoned.store(true, Ordering::Release);
    }

    /// The armed trace instruments, or `None` (one relaxed load) when
    /// tracing is disarmed.
    #[inline]
    fn trace(&self) -> Option<Arc<McaTrace>> {
        if !self.trace_armed.load(Ordering::Relaxed) {
            return None;
        }
        self.trace.lock().clone()
    }
}

/// The MCA backend's armed-mode instruments: the tracer plus pre-resolved
/// metric handles, so hot paths never take the registry's name lookup.
struct McaTrace {
    tracer: Arc<Tracer>,
    /// Lock wait-time distribution, nanoseconds.
    lock_wait: Arc<Histogram>,
    /// Lock-wait timeouts reported (one per `lock_timeout` expiry).
    lock_timeouts: Arc<Counter>,
    /// Transient-status retries across every MRAPI call site.
    retries: Arc<Counter>,
    /// Bytes allocated through MRAPI shared memory.
    shmem_bytes: Arc<Counter>,
    /// Deadlock reports cut (capped copies of `McaShared::reports`).
    deadlocks: Arc<Counter>,
}

impl McaTrace {
    fn new(tracer: &Arc<Tracer>) -> Self {
        let m = tracer.metrics();
        McaTrace {
            tracer: Arc::clone(tracer),
            lock_wait: m.histogram_ns("mca.lock_wait_ns"),
            lock_timeouts: m.counter("mca.lock_timeouts"),
            retries: m.counter("mrapi.retries"),
            shmem_bytes: m.counter("mca.shmem_bytes"),
            deadlocks: m.counter("mca.deadlock_reports"),
        }
    }
}

/// Forwards MRAPI boundary crossings into the trace: every crossing is an
/// [`EventKind::Mrapi`] instant, and an injected failure additionally cuts
/// an [`EventKind::Fault`] instant.
struct McaObserver {
    trace: Arc<McaTrace>,
}

impl SiteObserver for McaObserver {
    fn observe(&self, site: FaultSite, injected: Option<MrapiStatus>) {
        let t = &self.trace.tracer;
        let code = injected.map(|s| s as u64).unwrap_or(u64::MAX);
        t.instant(EventKind::Mrapi, u32::MAX, site.index() as u64, code);
        if let Some(status) = injected {
            t.instant(
                EventKind::Fault,
                u32::MAX,
                site.index() as u64,
                status as u64,
            );
        }
    }
}

/// Statuses worth retrying: timed waits and id clashes (clash retries use
/// a fresh key/id, so they resolve unless the registry is truly wedged).
fn retryable(s: MrapiStatus) -> bool {
    matches!(
        s,
        MrapiStatus::Timeout
            | MrapiStatus::ErrMutexAlreadyLocked
            | MrapiStatus::ErrMutexExists
            | MrapiStatus::ErrShmExists
            | MrapiStatus::ErrNodeInitFailed
    )
}

/// Run `attempt` under the backend's retry policy.  Transient statuses
/// back off exponentially; persistent statuses return immediately as
/// [`RompError::Mrapi`]; running out of attempts returns
/// [`RompError::Exhausted`].  When `shared` is given and tracing is armed,
/// every backed-off retry bumps the `mrapi.retries` counter (`None` only
/// during master initialization, before the shared state exists).
fn with_retries<T>(
    policy: &RetryPolicy,
    op: &'static str,
    shared: Option<&McaShared>,
    mut attempt: impl FnMut() -> Result<T, MrapiError>,
) -> Result<T, RompError> {
    let attempts = policy.max_attempts.max(1);
    let mut last = MrapiError(MrapiStatus::Timeout);
    for n in 1..=attempts {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) if retryable(e.0) => {
                last = e;
                if n < attempts {
                    if let Some(tr) = shared.and_then(|s| s.trace()) {
                        tr.retries.incr();
                    }
                    std::thread::sleep(policy.backoff_delay(n));
                }
            }
            Err(e) => return Err(RompError::Mrapi(e)),
        }
    }
    Err(RompError::Exhausted { op, attempts, last })
}

/// The MCA-libGOMP backend.
pub struct McaBackend {
    system: MrapiSystem,
    master: Node,
    next_node: AtomicU32,
    next_key: AtomicU32,
    shared: Arc<McaShared>,
}

impl McaBackend {
    /// Initialize on a fresh MRAPI system modeling the T4240RDB (each
    /// runtime gets its own domain database, like each process on the
    /// board), with default recovery options.
    pub fn new() -> Result<Self, RompError> {
        Self::on_system(MrapiSystem::new_t4240())
    }

    /// Initialize on a caller-provided MRAPI system (shared-system setups,
    /// tests with other topologies), with default recovery options.
    pub fn on_system(system: MrapiSystem) -> Result<Self, RompError> {
        Self::with_options(system, McaOptions::default())
    }

    /// Initialize with an explicit recovery policy.
    pub fn with_options(system: MrapiSystem, opts: McaOptions) -> Result<Self, RompError> {
        // Master initialization itself retries: a fault plan may inject
        // ErrNodeInitFailed here, and a bounded retry is the difference
        // between a chaos run that starts degraded-to-native and one that
        // never starts at all.
        let master = with_retries(&opts.retry, "mrapi_initialize", None, || {
            system.initialize(OMP_DOMAIN, MASTER_NODE)
        })?;
        Ok(McaBackend {
            system,
            master,
            next_node: AtomicU32::new(1),
            next_key: AtomicU32::new(1),
            shared: Arc::new(McaShared {
                lock_timeout: opts.lock_timeout,
                retry: opts.retry,
                poisoned: AtomicBool::new(false),
                reason: PlMutex::new(None),
                reports: PlMutex::new(Vec::new()),
                warned: AtomicBool::new(false),
                trace_armed: AtomicBool::new(false),
                trace: PlMutex::new(None),
            }),
        })
    }

    /// The master MRAPI node (for tests and diagnostics).
    pub fn master_node(&self) -> &Node {
        &self.master
    }

    fn fresh_key(&self) -> u32 {
        self.next_key.fetch_add(1, Ordering::Relaxed)
    }
}

/// `McaLock::state` bit: the lock has degraded to its embedded native
/// mutex (one-way).
const DEGRADED: u64 = 1 << 63;
/// `McaLock::state` bit: held through the embedded native mutex.
const NATIVE_HELD: u64 = 1 << 62;
/// `McaLock::state` bits carrying the outstanding MRAPI lock key; 0 means
/// no MRAPI holder is inside.
const KEY_MASK: u64 = NATIVE_HELD - 1;

/// An MRAPI-mutex-backed lock, carrying the outstanding lock key as MRAPI
/// requires (Listing 4's `mrapi_key_t`) — plus a one-way escape hatch.
///
/// When MRAPI fails persistently the lock sets [`DEGRADED`] and services
/// all later acquisitions from the embedded [`RawMutex`].  Who is inside
/// the critical section lives in one atomic word, `state`, so entering it
/// is a single compare-and-swap on that word and mutual exclusion holds
/// *through* the flip:
///
/// * an MRAPI acquirer, once it holds the MRAPI mutex, enters by swapping
///   `state` from exactly 0 to its key; if the flip landed first the swap
///   fails, and it stands down (releases the MRAPI mutex) and takes the
///   native path instead;
/// * a native acquirer, once it holds the native mutex, enters by setting
///   [`NATIVE_HELD`], which it only does while the key bits are 0 — it
///   yields until an MRAPI holder that entered before the flip has left.
///
/// The key bits and [`NATIVE_HELD`] are never set together, so the two
/// paths exclude each other by construction; within a path the MRAPI or
/// the native mutex excludes.
///
/// Dropping the lock deletes its MRAPI mutex from the domain's registry.
struct McaLock {
    shared: Arc<McaShared>,
    mutex: ManuallyDrop<mca_mrapi::MrapiMutex>,
    /// [`DEGRADED`] | [`NATIVE_HELD`] | the MRAPI key of the current hold.
    state: AtomicU64,
    native: RawMutex,
}

impl McaLock {
    fn new(mutex: mca_mrapi::MrapiMutex, shared: Arc<McaShared>) -> Self {
        McaLock {
            shared,
            mutex: ManuallyDrop::new(mutex),
            state: AtomicU64::new(0),
            native: RawMutex::new(),
        }
    }

    fn degraded(&self) -> bool {
        self.state.load(Ordering::Acquire) & DEGRADED != 0
    }

    /// Flip to native servicing (one-way) and poison the backend.
    #[cold]
    fn degrade(&self, err: &RompError) {
        self.shared.poison(err);
        self.state.fetch_or(DEGRADED, Ordering::AcqRel);
        if let Some(tr) = self.shared.trace() {
            // `a` = the abandoned mutex's key; distinguishes a single-lock
            // degradation from the runtime-level backend swap (a = 0).
            tr.tracer
                .instant(EventKind::Fallback, u32::MAX, self.mutex.key() as u64, 0);
        }
    }

    /// Enter the critical section holding MRAPI lock `k`; `false` (with
    /// the MRAPI mutex released again) if the flip landed first.
    fn enter_mrapi(&self, k: mca_mrapi::sync::MutexKey) -> bool {
        if self
            .state
            .compare_exchange(0, k.raw(), Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return true;
        }
        let _ = self.mutex.unlock(&k);
        false
    }

    /// Enter the critical section holding the native mutex, once any
    /// MRAPI holder that entered before the flip has left.
    fn enter_native(&self) {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            if cur & KEY_MASK != 0 {
                std::thread::yield_now();
                cur = self.state.load(Ordering::Relaxed);
                continue;
            }
            match self.state.compare_exchange_weak(
                cur,
                cur | NATIVE_HELD,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Acquire through the embedded native mutex.
    fn lock_native(&self) {
        self.native.lock();
        self.enter_native();
    }

    /// Record one over-long wait; first one per backend also warns.
    #[cold]
    fn note_timeout(&self, waited: Duration) {
        let report = DeadlockReport {
            mutex_key: self.mutex.key(),
            holder_node: self.mutex.holder_node().map(|n| n.0),
            waiter: std::thread::current()
                .name()
                .unwrap_or("<unnamed>")
                .to_string(),
            waited,
        };
        let mut reports = self.shared.reports.lock();
        if reports.len() < MAX_REPORTS {
            reports.push(report.clone());
        }
        drop(reports);
        if let Some(tr) = self.shared.trace() {
            tr.deadlocks.incr();
        }
        if !self.shared.warned.swap(true, Ordering::Relaxed) {
            eprintln!("romp[WARN] backend=mca {report}");
        }
    }
}

impl Drop for McaLock {
    fn drop(&mut self) {
        // SAFETY: the mutex is taken exactly once, here, and never
        // touched again.
        let mutex = unsafe { ManuallyDrop::take(&mut self.mutex) };
        // As for `ShmemWords`: fails only during runtime teardown.
        let _ = mutex.delete();
    }
}

impl RegionLock for McaLock {
    fn lock(&self) {
        let tr = self.shared.trace();
        let t0 = tr.as_ref().map(|_| Instant::now());
        // The key only labels trace events: disarmed, leave it unread.
        let key = tr.as_ref().map_or(0, |_| self.mutex.key() as u64);
        // True once this acquisition has opened a LockContend span (first
        // timed-out wait); the span closes when the lock is finally taken.
        let mut contended = false;
        // Close out the acquisition in the trace: end any contention span,
        // cut the LockAcquire instant, feed the wait-time histogram.
        let finish = |contended: bool| {
            if let (Some(tr), Some(t0)) = (tr.as_ref(), t0) {
                let wait_ns = t0.elapsed().as_nanos() as u64;
                if contended {
                    tr.tracer.end(EventKind::LockContend, u32::MAX, key);
                }
                tr.tracer
                    .instant(EventKind::LockAcquire, u32::MAX, key, wait_ns);
                tr.lock_wait.record(wait_ns);
            }
        };
        let mut waited = Duration::ZERO;
        let mut failures = 0u32;
        loop {
            if self.degraded() {
                self.lock_native();
                return finish(contended);
            }
            match self.mutex.lock(self.shared.lock_timeout) {
                Ok(k) => {
                    if !self.enter_mrapi(k) {
                        // The flip landed while we were acquiring: take
                        // the native path.
                        self.lock_native();
                    }
                    return finish(contended);
                }
                // A timed-out wait is contention (or a wedged holder),
                // never a reason to degrade: report and keep waiting.
                // If the holder wedged, its own failed unlock flips the
                // mode and the next iteration goes native.
                Err(MrapiError(MrapiStatus::Timeout))
                | Err(MrapiError(MrapiStatus::ErrMutexAlreadyLocked)) => {
                    waited += self.shared.lock_timeout;
                    if let Some(tr) = tr.as_ref() {
                        if !contended {
                            tr.tracer.begin(EventKind::LockContend, u32::MAX, key);
                            contended = true;
                        }
                        tr.tracer.instant(
                            EventKind::LockTimeout,
                            u32::MAX,
                            key,
                            waited.as_nanos() as u64,
                        );
                        tr.lock_timeouts.incr();
                    }
                    self.note_timeout(waited);
                    // Escalation escape hatch: a supervisor that poisoned
                    // the whole backend (watchdog grace-period expiry) is
                    // declaring the wedge permanent.  Flip this lock to
                    // native; the next iteration takes the handover path,
                    // which still waits out an MRAPI holder before admitting
                    // a native acquirer, so mutual exclusion holds.
                    if self.shared.poisoned.load(Ordering::Acquire) {
                        self.state.fetch_or(DEGRADED, Ordering::AcqRel);
                    }
                }
                Err(e) => {
                    failures += 1;
                    if failures < self.shared.retry.max_attempts {
                        std::thread::sleep(self.shared.retry.backoff_delay(failures));
                    } else {
                        self.degrade(&RompError::Exhausted {
                            op: "mrapi_mutex_lock",
                            attempts: failures,
                            last: e,
                        });
                        self.lock_native();
                        return finish(contended);
                    }
                }
            }
        }
    }

    fn unlock(&self) -> Result<(), RompError> {
        // Leave the critical section: clear the holder bits, keep the mode.
        let prev = self.state.fetch_and(DEGRADED, Ordering::Release);
        if prev & NATIVE_HELD != 0 {
            self.native.unlock();
            return Ok(());
        }
        if prev & KEY_MASK == 0 {
            return Err(RompError::Lock(MrapiError(MrapiStatus::ErrMutexNotLocked)));
        }
        let k = mca_mrapi::sync::MutexKey::from_raw(prev & KEY_MASK);
        let mut failures = 0u32;
        loop {
            match self.mutex.unlock(&k) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    failures += 1;
                    if failures < self.shared.retry.max_attempts {
                        std::thread::sleep(self.shared.retry.backoff_delay(failures));
                    } else {
                        // The MRAPI mutex is wedged: abandon it.  Every
                        // waiter that times out on it now finds the native
                        // path, and nobody is inside to wait out.
                        let err = RompError::Exhausted {
                            op: "mrapi_mutex_unlock",
                            attempts: failures,
                            last: e,
                        };
                        self.degrade(&err);
                        return Err(err);
                    }
                }
            }
        }
    }

    fn try_lock(&self) -> bool {
        if self.degraded() {
            if self.native.try_lock() {
                self.enter_native();
                return true;
            }
            return false;
        }
        match self.mutex.try_lock() {
            Ok(k) => self.enter_mrapi(k),
            // Contention and injected statuses alike: a failed try_lock
            // is always a legal answer.
            Err(_) => false,
        }
    }
}

/// Shared words carved from an MRAPI shmem segment (heap-backed via the
/// `use_malloc` extension).  The backend creates one per region, so the
/// segment is deleted from the domain's registry when the words drop.
struct ShmemWords(ManuallyDrop<ShmemHandle>);

impl SharedWords for ShmemWords {
    fn words(&self) -> &[AtomicU64] {
        self.0.as_words()
    }
}

impl Drop for ShmemWords {
    fn drop(&mut self) {
        // SAFETY: the handle is taken exactly once, here, and never
        // touched again.
        let handle = unsafe { ManuallyDrop::take(&mut self.0) };
        // Fails only once the master node is finalized, i.e. the runtime
        // (and with it the domain) is being torn down anyway.
        let _ = handle.delete();
    }
}

struct McaJoin(WorkerNode<()>);

impl WorkerJoin for McaJoin {
    fn join(self: Box<Self>) {
        let _ = self.0.join();
    }
}

impl Backend for McaBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Mca
    }

    fn online_processors(&self) -> usize {
        // §5B.4: read the processor count from the MRAPI metadata tree.
        self.master.online_processors().unwrap_or(1)
    }

    fn spawn_worker(
        &self,
        label: String,
        body: Box<dyn FnOnce() + Send>,
    ) -> Result<Box<dyn WorkerJoin>, RompError> {
        // A failed creation attempt consumes the closure it was given, so
        // the body lives in a shared slot each attempt's wrapper drains.
        type BodySlot = Arc<PlMutex<Option<Box<dyn FnOnce() + Send>>>>;
        let slot: BodySlot = Arc::new(PlMutex::new(Some(body)));
        let res = with_retries(
            &self.shared.retry,
            "mrapi_thread_create",
            Some(&self.shared),
            || {
                // Fresh node id per attempt: ErrNodeInitFailed means the id
                // was taken (or an injected clash), and ids are never reused.
                let id = NodeId(self.next_node.fetch_add(1, Ordering::Relaxed));
                let attrs = mca_mrapi::NodeAttributes {
                    affinity_hw_thread: None,
                    name: Some(label.clone()),
                };
                let slot = Arc::clone(&slot);
                self.master
                    .thread_create_with_attrs(id, attrs, move |_node| {
                        if let Some(b) = slot.lock().take() {
                            b()
                        }
                    })
            },
        );
        match res {
            Ok(worker) => Ok(Box::new(McaJoin(worker))),
            Err(e) => {
                self.shared.poison(&e);
                Err(e)
            }
        }
    }

    fn new_lock(&self) -> Result<Arc<dyn RegionLock>, RompError> {
        let res = with_retries(
            &self.shared.retry,
            "mrapi_mutex_create",
            Some(&self.shared),
            || {
                // Fresh key per attempt (clash recovery).
                self.master
                    .mutex_create(0x4000_0000 | self.fresh_key(), &MutexAttributes::default())
            },
        );
        match res {
            Ok(mutex) => Ok(Arc::new(McaLock::new(mutex, Arc::clone(&self.shared)))),
            Err(e) => {
                self.shared.poison(&e);
                Err(e)
            }
        }
    }

    fn alloc_shared_words(&self, words: usize) -> Result<Arc<dyn SharedWords>, RompError> {
        // Listing 3: shm_attr.use_malloc = MCA_TRUE.
        let attrs = ShmemAttributes {
            use_malloc: true,
            ..Default::default()
        };
        let bytes = (words * 8).max(8);
        let res = with_retries(
            &self.shared.retry,
            "mrapi_shmem_create",
            Some(&self.shared),
            || {
                self.master
                    .shmem_create(0x8000_0000 | self.fresh_key(), bytes, &attrs)
            },
        );
        match res {
            Ok(handle) => {
                if let Some(tr) = self.shared.trace() {
                    tr.shmem_bytes.add(bytes as u64);
                }
                Ok(Arc::new(ShmemWords(ManuallyDrop::new(handle))))
            }
            Err(e) => {
                self.shared.poison(&e);
                Err(e)
            }
        }
    }

    fn fallback(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(NativeBackend::new()))
    }

    fn poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }

    fn poison(&self, reason: RompError) -> bool {
        self.shared.poison(&reason);
        true
    }

    fn failure_reason(&self) -> Option<RompError> {
        self.shared.reason.lock().clone()
    }

    fn take_deadlock_reports(&self) -> Vec<DeadlockReport> {
        std::mem::take(&mut *self.shared.reports.lock())
    }

    fn attach_tracer(&self, tracer: &Arc<Tracer>) {
        if !tracer.armed() {
            // Keep the disarmed hot paths at a single relaxed load: no
            // instruments, no MRAPI observer, gate stays cold.
            return;
        }
        let trace = Arc::new(McaTrace::new(tracer));
        *self.shared.trace.lock() = Some(Arc::clone(&trace));
        self.shared.trace_armed.store(true, Ordering::Release);
        // Every MRAPI boundary crossing now lands in the trace, riding the
        // same gated slow path as fault injection.
        self.system
            .set_site_observer(Some(Arc::new(McaObserver { trace })));
    }

    fn shutdown(&self) {
        // Master finalization happens on drop of the last Node clone; the
        // registry entry is removed eagerly here so repeated
        // construct/destroy cycles in one process don't collide.
        if self.master.is_initialized() {
            let _ = self.master.clone().finalize();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_mrapi::{FaultPlan, FaultProbe, FaultSite};

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(100),
        }
    }

    #[test]
    fn workers_register_in_domain_database() {
        let be = McaBackend::new().unwrap();
        let sys = be.system.clone();
        assert_eq!(sys.node_count(OMP_DOMAIN), 1, "master only");
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g2 = Arc::clone(&gate);
        let j = be
            .spawn_worker(
                "w".into(),
                Box::new(move || {
                    g2.wait(); // hold the node alive until counted
                    g2.wait();
                }),
            )
            .unwrap();
        gate.wait();
        assert_eq!(sys.node_count(OMP_DOMAIN), 2, "worker node registered");
        gate.wait();
        j.join();
        assert_eq!(
            sys.node_count(OMP_DOMAIN),
            1,
            "worker node finalized on join"
        );
    }

    #[test]
    fn shared_words_are_malloc_backed_shmem() {
        let be = McaBackend::new().unwrap();
        let before = be.system.simulated_transfer_ns();
        let buf = be.alloc_shared_words(8).unwrap();
        buf.words()[0].store(1, Ordering::Release);
        assert_eq!(
            be.system.simulated_transfer_ns(),
            before,
            "use_malloc path must not charge IPC costs (Listing 3 semantics)"
        );
    }

    #[test]
    fn listing_4_lock_protocol() {
        let be = McaBackend::new().unwrap();
        let lock = be.new_lock().unwrap();
        lock.lock();
        assert!(!lock.try_lock());
        lock.unlock().unwrap();
        assert!(lock.try_lock());
        lock.unlock().unwrap();
    }

    #[test]
    fn distinct_locks_do_not_alias() {
        let be = McaBackend::new().unwrap();
        let a = be.new_lock().unwrap();
        let b = be.new_lock().unwrap();
        a.lock();
        assert!(b.try_lock(), "b must be independent of a");
        b.unlock().unwrap();
        a.unlock().unwrap();
    }

    #[test]
    fn shutdown_allows_recreation_on_shared_system() {
        let sys = MrapiSystem::new_t4240();
        let be = McaBackend::on_system(sys.clone()).unwrap();
        be.shutdown();
        // Master slot freed: a second backend can claim it.
        let be2 = McaBackend::on_system(sys).unwrap();
        be2.shutdown();
    }

    #[test]
    fn double_unlock_reports_not_locked() {
        let be = McaBackend::new().unwrap();
        let lock = be.new_lock().unwrap();
        lock.lock();
        lock.unlock().unwrap();
        let err = lock.unlock().unwrap_err();
        assert_eq!(err.status(), Some(MrapiStatus::ErrMutexNotLocked));
        // The lock stays usable after the misuse report.
        lock.lock();
        lock.unlock().unwrap();
        assert!(!be.poisoned(), "misuse is recoverable, not poisoning");
    }

    #[test]
    fn transient_create_faults_are_retried_with_fresh_keys() {
        let sys = MrapiSystem::new_t4240();
        // 20% injected clash rate on both creation sites; the seeded
        // schedule is deterministic, so this test is not flaky.
        let plan = Arc::new(
            FaultPlan::new(0x5EED_0001)
                .with_fail_rate(FaultSite::MutexCreate, 200_000)
                .with_fail_rate(FaultSite::NodeCreate, 200_000),
        );
        sys.set_fault_probe(Some(plan as Arc<dyn FaultProbe>));
        let be = McaBackend::with_options(
            sys,
            McaOptions {
                lock_timeout: Duration::from_millis(50),
                retry: fast_retry(),
            },
        )
        .unwrap();
        for _ in 0..20 {
            let lock = be.new_lock().unwrap();
            lock.lock();
            lock.unlock().unwrap();
        }
        let ran = Arc::new(AtomicU64::new(0));
        let joins: Vec<_> = (0..8)
            .map(|i| {
                let r = Arc::clone(&ran);
                be.spawn_worker(
                    format!("w{i}"),
                    Box::new(move || {
                        r.fetch_add(1, Ordering::Relaxed);
                    }),
                )
                .unwrap()
            })
            .collect();
        for j in joins {
            j.join();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        assert!(!be.poisoned(), "transient faults never poison the backend");
    }

    #[test]
    fn over_long_waits_produce_deadlock_reports() {
        let be = McaBackend::with_options(
            MrapiSystem::new_t4240(),
            McaOptions {
                lock_timeout: Duration::from_millis(2),
                retry: fast_retry(),
            },
        )
        .unwrap();
        let lock = be.new_lock().unwrap();
        lock.lock();
        let l2 = Arc::clone(&lock);
        let waiter = std::thread::Builder::new()
            .name("waiter-1".into())
            .spawn(move || {
                l2.lock();
                l2.unlock().unwrap();
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        lock.unlock().unwrap();
        waiter.join().unwrap();
        let reports = be.take_deadlock_reports();
        assert!(!reports.is_empty(), "over-long wait must be reported");
        let r = &reports[0];
        assert_eq!(r.holder_node, Some(MASTER_NODE.0), "holder identified");
        assert_eq!(r.waiter, "waiter-1");
        assert!(r.waited >= Duration::from_millis(2));
        assert!(!be.poisoned(), "timeouts alone never poison the backend");
        assert!(be.take_deadlock_reports().is_empty(), "drain empties");
    }

    #[test]
    fn persistent_unlock_failure_degrades_lock_but_preserves_exclusion() {
        let sys = MrapiSystem::new_t4240();
        // Every MRAPI unlock fails: the first unlocker wedges the MRAPI
        // mutex, degrades the lock, and all traffic — including threads
        // mid-wait on the wedged mutex — must migrate to the native path
        // without ever breaking mutual exclusion.
        let plan = Arc::new(FaultPlan::new(0x5EED_0002).with_persistent(
            FaultSite::MutexUnlock,
            MrapiStatus::ErrMutexInvalid,
            0,
        ));
        sys.set_fault_probe(Some(plan as Arc<dyn FaultProbe>));
        let be = McaBackend::with_options(
            sys,
            McaOptions {
                lock_timeout: Duration::from_millis(5),
                retry: fast_retry(),
            },
        )
        .unwrap();
        let lock = be.new_lock().unwrap();
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        lock.lock();
                        // Non-atomic read-modify-write: only mutual
                        // exclusion makes the final count exact.
                        let v = c.load(Ordering::Relaxed);
                        c.store(v + 1, Ordering::Relaxed);
                        let _ = lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 400, "exclusion preserved");
        assert!(be.poisoned(), "persistent failure poisons the backend");
        assert!(
            be.failure_reason().is_some(),
            "the poisoning failure is recorded"
        );
        // The degraded lock keeps working.
        lock.lock();
        assert!(!lock.try_lock());
        lock.unlock().unwrap();
    }

    #[test]
    fn mrapi_acquirer_racing_the_flip_stands_down() {
        // B is parked on the MRAPI mutex when the lock degrades; C then
        // queues on the native path behind the MRAPI holder A.  When A
        // leaves, B wins the MRAPI mutex after the flip and must stand
        // down rather than enter beside C.
        let be = McaBackend::with_options(
            MrapiSystem::new_t4240(),
            McaOptions {
                lock_timeout: Duration::from_secs(10),
                retry: fast_retry(),
            },
        )
        .unwrap();
        let mutex = be
            .master
            .mutex_create(0x7777, &MutexAttributes::default())
            .unwrap();
        let lock = Arc::new(McaLock::new(mutex, Arc::clone(&be.shared)));
        let inside = Arc::new(AtomicBool::new(false));
        let enter = |lock: Arc<McaLock>, inside: Arc<AtomicBool>| {
            std::thread::spawn(move || {
                lock.lock();
                assert!(!inside.swap(true, Ordering::SeqCst), "two holders inside");
                std::thread::sleep(Duration::from_millis(20));
                inside.store(false, Ordering::SeqCst);
                lock.unlock().unwrap();
            })
        };
        lock.lock();
        let b = enter(Arc::clone(&lock), Arc::clone(&inside));
        while lock.mutex.contended() == 0 {
            std::thread::yield_now();
        }
        lock.degrade(&RompError::Mrapi(MrapiError(MrapiStatus::ErrMutexInvalid)));
        let c = enter(Arc::clone(&lock), Arc::clone(&inside));
        // Give C time to queue behind A (exclusion is asserted either way).
        std::thread::sleep(Duration::from_millis(30));
        lock.unlock().unwrap();
        b.join().unwrap();
        c.join().unwrap();
        assert!(lock.degraded(), "the flip is one-way");
        assert!(lock.try_lock(), "free again, on the native path");
        lock.unlock().unwrap();
    }

    #[test]
    fn regions_and_locks_leave_no_mrapi_objects_behind() {
        // One reduction segment per region and one MRAPI mutex per lock:
        // both must leave the domain's registries when dropped.
        let sys = MrapiSystem::new_t4240();
        let be = McaBackend::on_system(sys.clone()).unwrap();
        let rt = crate::Runtime::with_config_and_backend(crate::Config::default(), Box::new(be))
            .unwrap();
        rt.parallel(2, |_| {});
        rt.quiesce();
        let segments = sys.shmem_count(OMP_DOMAIN);
        let mutexes = sys.mutex_count(OMP_DOMAIN);
        for i in 0..1000u64 {
            if i % 2 == 0 {
                rt.parallel(2, |_| {});
            } else {
                assert_eq!(rt.parallel_reduce_sum(2, 0..i, |x| x), i * (i - 1) / 2);
            }
        }
        for _ in 0..100 {
            let lock = rt.new_lock();
            lock.set();
            lock.unset();
        }
        // Workers release their team reference before going idle.
        rt.quiesce();
        assert_eq!(rt.backend_kind(), BackendKind::Mca, "no fallback happened");
        assert_eq!(sys.shmem_count(OMP_DOMAIN), segments, "segment leaked");
        assert_eq!(sys.mutex_count(OMP_DOMAIN), mutexes, "mutex leaked");
    }

    #[test]
    fn concurrent_first_use_of_a_critical_creates_one_mrapi_mutex() {
        let sys = MrapiSystem::new_t4240();
        let be = McaBackend::on_system(sys.clone()).unwrap();
        let rt = crate::Runtime::with_config_and_backend(crate::Config::default(), Box::new(be))
            .unwrap();
        rt.parallel(4, |_| {});
        rt.quiesce();
        let before = sys.mutex_count(OMP_DOMAIN);
        const NAMES: usize = 20;
        rt.parallel(4, |w| {
            for i in 0..NAMES {
                // Line every member up so all four race the first use.
                w.barrier();
                w.critical(&format!("first-use-{i}"), || {});
            }
        });
        rt.quiesce();
        assert_eq!(rt.backend_kind(), BackendKind::Mca, "no fallback happened");
        assert_eq!(
            sys.mutex_count(OMP_DOMAIN),
            before + NAMES,
            "one MRAPI mutex per name"
        );
        assert_eq!(rt.stats().criticals, 4 * NAMES as u64);
    }

    #[test]
    fn persistent_create_failure_poisons_for_fallback() {
        let sys = MrapiSystem::new_t4240();
        let plan = Arc::new(FaultPlan::new(0x5EED_0003).with_persistent(
            FaultSite::ShmemCreate,
            MrapiStatus::ErrMemLimit,
            0,
        ));
        sys.set_fault_probe(Some(plan as Arc<dyn FaultProbe>));
        let be = McaBackend::with_options(
            sys,
            McaOptions {
                lock_timeout: Duration::from_millis(50),
                retry: fast_retry(),
            },
        )
        .unwrap();
        let err = match be.alloc_shared_words(4) {
            Ok(_) => panic!("allocation must fail under the persistent fault"),
            Err(e) => e,
        };
        assert_eq!(err.status(), Some(MrapiStatus::ErrMemLimit));
        assert!(be.poisoned());
        let fb = be.fallback().expect("mca degrades to native");
        assert_eq!(fb.kind(), BackendKind::Native);
        assert!(fb.alloc_shared_words(4).is_ok(), "fallback serves the op");
    }
}
