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

use std::collections::HashMap;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mca_mrapi::shmem::ShmemAttributes;
use mca_mrapi::sync::{MutexAttributes, MutexKey};
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
    /// One scratch segment per requested length (one per team width),
    /// handed out again while no live team holds it.
    scratch: PlMutex<HashMap<usize, Arc<ShmemWords>>>,
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
            scratch: PlMutex::new(HashMap::new()),
        })
    }

    /// The master MRAPI node (for tests and diagnostics).
    pub fn master_node(&self) -> &Node {
        &self.master
    }

    fn fresh_key(&self) -> u32 {
        self.next_key.fetch_add(1, Ordering::Relaxed)
    }

    /// Create a scratch segment of `words` words, and keep it for reuse if
    /// no segment of that length is kept yet.
    fn create_scratch(&self, words: usize) -> Result<Arc<ShmemWords>, RompError> {
        // Listing 3: shm_attr.use_malloc = MCA_TRUE.
        let attrs = ShmemAttributes {
            use_malloc: true,
            ..Default::default()
        };
        let bytes = (words * 8).max(8);
        let handle = with_retries(
            &self.shared.retry,
            "mrapi_shmem_create",
            Some(&self.shared),
            || {
                self.master
                    .shmem_create(0x8000_0000 | self.fresh_key(), bytes, &attrs)
            },
        )?;
        if let Some(tr) = self.shared.trace() {
            tr.shmem_bytes.add(bytes as u64);
        }
        let seg = Arc::new(ShmemWords(ManuallyDrop::new(handle)));
        self.scratch
            .lock()
            .entry(words)
            .or_insert_with(|| Arc::clone(&seg));
        Ok(seg)
    }
}

/// An MRAPI-mutex-backed lock (Listing 4's `mrapi_mutex_lock` /
/// `mrapi_mutex_unlock`) — plus a one-way escape hatch.
///
/// When MRAPI fails persistently the lock *degrades*: it retires its MRAPI
/// mutex ([`MrapiMutex::retire`](mca_mrapi::MrapiMutex::retire)) and
/// services all later acquisitions from the embedded [`RawMutex`].  Who is
/// inside lives in one word, the MRAPI mutex's owner word, so the MRAPI
/// path costs one compare-and-swap in and one read-modify-write out, and
/// mutual exclusion holds *through* the flip:
///
/// * the retired word grants no new MRAPI hold, and wakes the acquirers
///   parked on it, which then take the native path;
/// * a native acquirer, once it holds the native mutex, waits until no
///   MRAPI holder that entered before the flip is still inside.
///
/// The mutex is non-recursive, so the key of every MRAPI hold is
/// [`MutexKey::OUTERMOST`] and the lock carries no key of its own.
///
/// Dropping the lock deletes its MRAPI mutex from the domain's registry.
struct McaLock {
    shared: Arc<McaShared>,
    mutex: ManuallyDrop<mca_mrapi::MrapiMutex>,
    /// Lock-entry hint, set by [`McaLock::retire`] once the word is
    /// retired: it shares a line with the handles every call reads and no
    /// fast path writes, so a degraded lock goes native without crossing
    /// into MRAPI.  A stale `false` only costs one MRAPI `lock` call that
    /// finds the word retired; which path a hold took is read from the
    /// word itself.
    degraded: AtomicBool,
    native: RawMutex,
}

impl McaLock {
    fn new(mutex: mca_mrapi::MrapiMutex, shared: Arc<McaShared>) -> Self {
        McaLock {
            shared,
            mutex: ManuallyDrop::new(mutex),
            degraded: AtomicBool::new(false),
            native: RawMutex::new(),
        }
    }

    fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Flip to native servicing (one-way) without poisoning the backend.
    fn retire(&self) {
        self.mutex.retire();
        self.degraded.store(true, Ordering::Release);
    }

    /// Flip to native servicing (one-way) and poison the backend.
    #[cold]
    fn degrade(&self, err: &RompError) {
        self.shared.poison(err);
        self.retire();
        if let Some(tr) = self.shared.trace() {
            // `a` = the abandoned mutex's key; distinguishes a single-lock
            // degradation from the runtime-level backend swap (a = 0).
            tr.tracer
                .instant(EventKind::Fallback, u32::MAX, self.mutex.key() as u64, 0);
        }
    }

    /// Acquire through the embedded native mutex, once any MRAPI holder
    /// that entered before the flip has left (the retired word admits no
    /// new one).
    fn lock_native(&self) {
        self.native.lock();
        while self.mutex.is_held() {
            std::thread::yield_now();
        }
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

    /// Release an MRAPI hold whose unlock failed with `first`, retrying
    /// under the backend's policy.  If the failures persist the MRAPI mutex
    /// is wedged: the holder abandons it, which retires it and leaves the
    /// owner word, so the waiters on it find the native path and nobody
    /// is left inside to wait out.
    #[cold]
    fn unlock_failed(&self, first: MrapiError) -> Result<(), RompError> {
        let mut last = first;
        let mut failures = 1u32;
        while failures < self.shared.retry.max_attempts {
            std::thread::sleep(self.shared.retry.backoff_delay(failures));
            match self.mutex.unlock(&MutexKey::OUTERMOST) {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
            failures += 1;
        }
        let err = RompError::Exhausted {
            op: "mrapi_mutex_unlock",
            attempts: failures,
            last,
        };
        // Abandon fails only if the hold is already gone.
        let _ = self.mutex.abandon();
        self.degrade(&err);
        Err(err)
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
        if self.degraded() {
            self.lock_native();
            return finish(contended);
        }
        let lock_timeout = self.shared.lock_timeout;
        // Where the clock behind the reports' `waited` started, and what
        // the first failed attempt is credited with: an MRAPI timeout
        // returns only once its whole budget has passed.  Read only after
        // a failure, so the fast path takes no clock.
        let mut clock: Option<(Instant, Duration)> = None;
        let mut failures = 0u32;
        loop {
            let attempt = clock.map(|_| Instant::now());
            match self.mutex.lock(lock_timeout) {
                Ok(k) => {
                    debug_assert_eq!(k, MutexKey::OUTERMOST);
                    return finish(contended);
                }
                // The mutex was retired under us (its waiters are woken):
                // take the native path.
                Err(_) if self.mutex.is_retired() => {
                    self.lock_native();
                    return finish(contended);
                }
                // A timed-out wait is contention (or a wedged holder),
                // never a reason to degrade: report and keep waiting.
                // If the holder wedged, its own failed unlock abandons the
                // mutex and the next attempt goes native.  An attempt that
                // failed before its budget passed — `AlreadyLocked`, this
                // thread holding the lock already (a task run inside the
                // lock section, say), or an injected timeout — blocks out
                // the rest of it: nothing changes by retrying at once, and
                // reports come one per `lock_timeout`, not one per spin.
                Err(MrapiError(
                    status @ (MrapiStatus::Timeout | MrapiStatus::ErrMutexAlreadyLocked),
                )) => {
                    let (origin, credit) = *clock.get_or_insert_with(|| {
                        let credit = if status == MrapiStatus::Timeout {
                            lock_timeout
                        } else {
                            Duration::ZERO
                        };
                        (Instant::now(), credit)
                    });
                    let spent = attempt.map_or(credit, |t| t.elapsed());
                    if let Some(rest) = lock_timeout.checked_sub(spent) {
                        std::thread::sleep(rest);
                    }
                    let waited = credit + origin.elapsed();
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
                    // declaring the wedge permanent.  Retire this lock's
                    // mutex; the next attempt takes the native path, which
                    // still waits out an MRAPI holder before admitting a
                    // native acquirer, so mutual exclusion holds.
                    if self.shared.poisoned.load(Ordering::Acquire) {
                        self.retire();
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
        let not_locked = || RompError::Lock(MrapiError(MrapiStatus::ErrMutexNotLocked));
        if self.mutex.is_retired() && !self.mutex.is_held_by_caller() {
            // Held through the native path, which a thread takes only
            // after it saw the word retired (any MRAPI hold left is
            // another thread's, entered before the flip).
            if !self.native.is_locked() {
                return Err(not_locked());
            }
            self.native.unlock();
            return Ok(());
        }
        match self.mutex.unlock(&MutexKey::OUTERMOST) {
            Ok(()) => Ok(()),
            // Misuse — the caller holds nothing — is reported, not retried
            // (an injected key or invalid status on a real hold is).
            Err(_) if !self.mutex.is_held_by_caller() => Err(not_locked()),
            Err(e) => self.unlock_failed(e),
        }
    }

    fn try_lock(&self) -> bool {
        if !self.degraded() {
            match self.mutex.try_lock() {
                Ok(_) => return true,
                // The mutex was retired under us: try the native path.
                Err(_) if self.mutex.is_retired() => {}
                // Contention and injected statuses alike: a failed
                // try_lock is always a legal answer.
                Err(_) => return false,
            }
        }
        if !self.native.try_lock() {
            return false;
        }
        if self.mutex.is_held() {
            // An MRAPI holder from before the flip is still inside.
            self.native.unlock();
            return false;
        }
        true
    }
}

/// Shared words carved from an MRAPI shmem segment (heap-backed via the
/// `use_malloc` extension).  The segment is deleted from the domain's
/// registry when the words drop: a kept one at backend shutdown, any
/// other with its team.
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
        // A team holds its scratch until it drops, so a cached segment
        // nobody else references is free to hand out again; a nested or
        // concurrent team of the same width finds it taken and gets a
        // segment of its own.
        let idle = self
            .scratch
            .lock()
            .get(&words)
            .filter(|seg| Arc::strong_count(seg) == 1)
            .cloned();
        let res = match idle {
            Some(seg) => with_retries(
                &self.shared.retry,
                "mrapi_shmem_create",
                Some(&self.shared),
                || seg.0.recycle(),
            )
            .map(|()| seg),
            None => self.create_scratch(words),
        };
        match res {
            Ok(seg) => Ok(seg),
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
        // Kept scratch segments leave the registry while the master can
        // still delete them (a segment a live team holds goes with it).
        self.scratch.lock().clear();
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
    fn dropping_the_runtime_deletes_its_kept_scratch() {
        // The system outlives the runtime: every segment the runtime kept
        // for reuse must leave the domain's registry with it.
        let sys = MrapiSystem::new_t4240();
        let baseline = sys.shmem_count(OMP_DOMAIN);
        let be = McaBackend::on_system(sys.clone()).unwrap();
        let rt = crate::Runtime::with_config_and_backend(crate::Config::default(), Box::new(be))
            .unwrap();
        for width in [2, 3, 4, 2] {
            assert_eq!(rt.parallel_reduce_sum(width, 0..100, |x| x), 4950);
        }
        rt.quiesce();
        assert!(sys.shmem_count(OMP_DOMAIN) > baseline, "segments were kept");
        drop(rt);
        assert_eq!(sys.shmem_count(OMP_DOMAIN), baseline, "kept segment leaked");
    }

    #[test]
    fn self_relock_blocks_and_reports_real_waits() {
        // A thread re-locking the non-recursive lock it holds can never be
        // served; each attempt must block out `lock_timeout` and report
        // the time it really waited, not spin and file fictitious waits.
        let lock_timeout = Duration::from_millis(10);
        let be = McaBackend::with_options(
            MrapiSystem::new_t4240(),
            McaOptions {
                lock_timeout,
                retry: fast_retry(),
            },
        )
        .unwrap();
        let lock = be.new_lock().unwrap();
        let start = Instant::now();
        let l2 = Arc::clone(&lock);
        // Not joined: a self-deadlock never returns (as on the native
        // lock), so the thread is left behind, sleeping between reports.
        std::thread::Builder::new()
            .name("relocker".into())
            .spawn(move || {
                l2.lock();
                l2.lock();
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(120));
        let reports = be.take_deadlock_reports();
        let elapsed = start.elapsed();
        assert!(!reports.is_empty(), "the blocked re-lock is reported");
        let longest = reports.iter().map(|r| r.waited).max().unwrap();
        assert!(
            longest <= elapsed,
            "reported a {longest:?} wait within {elapsed:?}"
        );
        let bound = elapsed.as_nanos() / lock_timeout.as_nanos() + 1;
        assert!(
            reports.len() as u128 <= bound,
            "{} reports within {elapsed:?} at one per {lock_timeout:?}",
            reports.len()
        );
        assert!(reports.iter().all(|r| r.waiter == "relocker"));
    }

    #[test]
    fn flip_under_contention_moves_parked_waiters_to_native() {
        // Two threads take turns on the lock, each holding it long enough
        // that the other parks; a third flips it mid-run.  Every
        // acquisition must finish far inside `lock_timeout` (a parked
        // waiter the flip left asleep would sit out the whole timeout)
        // and no update may be lost.
        const ITERS: u64 = 300;
        let lock_timeout = Duration::from_secs(20);
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let be = McaBackend::with_options(
                MrapiSystem::new_t4240(),
                McaOptions {
                    lock_timeout,
                    retry: fast_retry(),
                },
            )
            .unwrap();
            let mutex = be
                .master
                .mutex_create(0x7778, &MutexAttributes::default())
                .unwrap();
            let lock = Arc::new(McaLock::new(mutex, Arc::clone(&be.shared)));
            let count = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (lock, count) = (Arc::clone(&lock), Arc::clone(&count));
                    std::thread::spawn(move || {
                        let mut slowest = Duration::ZERO;
                        for _ in 0..ITERS {
                            let t = Instant::now();
                            lock.lock();
                            slowest = slowest.max(t.elapsed());
                            let v = count.load(Ordering::Relaxed);
                            std::thread::sleep(Duration::from_micros(50));
                            count.store(v + 1, Ordering::Relaxed);
                            lock.unlock().unwrap();
                            // Let the woken partner take its turn.
                            std::thread::sleep(Duration::from_micros(20));
                        }
                        slowest
                    })
                })
                .collect();
            // Flip once the partners have met the lock held a few times
            // (past the spin phase, a waiter parks within microseconds).
            while lock.mutex.contended() < 4 && count.load(Ordering::Relaxed) < 2 * ITERS {
                std::thread::sleep(Duration::from_micros(200));
            }
            let flipped_at = count.load(Ordering::Relaxed);
            lock.degrade(&RompError::Mrapi(MrapiError(MrapiStatus::ErrMutexInvalid)));
            let slowest = workers.into_iter().map(|w| w.join().unwrap()).max();
            let _ = tx.send((
                count.load(Ordering::Relaxed),
                flipped_at,
                slowest.unwrap(),
                lock.degraded(),
            ));
        });
        let (count, flipped_at, slowest, degraded) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("lock wedged across the flip");
        run.join().unwrap();
        assert_eq!(count, 2 * ITERS, "a lost update");
        assert!(flipped_at < count, "the flip landed after the run");
        assert!(degraded, "the flip is one-way");
        assert!(
            slowest < Duration::from_secs(5),
            "an acquisition took {slowest:?} (lock_timeout {lock_timeout:?})"
        );
    }

    #[test]
    fn native_holder_admitted_before_the_flag_is_set_unlocks_natively() {
        // The retiring thread sets the `degraded` hint only after it
        // retired the word; a thread that meets the retired word first
        // takes the native path, and its unlock, which reads the word, not
        // the hint, must release the native mutex.
        let be = McaBackend::new().unwrap();
        let mutex = be
            .master
            .mutex_create(0x7779, &MutexAttributes::default())
            .unwrap();
        let lock = McaLock::new(mutex, Arc::clone(&be.shared));
        lock.mutex.retire();
        lock.lock();
        lock.unlock().unwrap();
        assert!(lock.try_lock(), "the native mutex was released");
        lock.unlock().unwrap();
        assert!(!lock.degraded(), "only `retire` sets the hint");
    }

    #[test]
    fn reduction_scratch_is_reused_per_team_width() {
        /// Counts the `ShmemCreate` decisions and lets every crossing pass.
        struct CountCreates(AtomicU64);
        impl FaultProbe for CountCreates {
            fn decide(&self, site: FaultSite) -> mca_mrapi::FaultDecision {
                if site == FaultSite::ShmemCreate {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
                mca_mrapi::FaultDecision::PASS
            }
        }
        let sys = MrapiSystem::new_t4240();
        let probe = Arc::new(CountCreates(AtomicU64::new(0)));
        sys.set_fault_probe(Some(Arc::clone(&probe) as Arc<dyn FaultProbe>));
        let be = McaBackend::on_system(sys.clone()).unwrap();
        let rt = crate::Runtime::with_config_and_backend(crate::Config::default(), Box::new(be))
            .unwrap();
        let segments = sys.shmem_count(OMP_DOMAIN);
        let mut regions = 0u64;
        for round in 0..12u64 {
            for width in [2, 4, 2, 3] {
                let n = 100 + round;
                assert_eq!(rt.parallel_reduce_sum(width, 0..n, |x| x), n * (n - 1) / 2);
                regions += 1;
            }
        }
        // Each member of a width-2 region runs a nested (team-of-one)
        // region between two reductions of its own, and the two nested
        // teams meet while both are live: every live team, nested ones
        // included, needs scratch of its own.
        let kept = sys.shmem_count(OMP_DOMAIN);
        let meet = std::sync::Barrier::new(2);
        let live = AtomicU64::new(0);
        let nested_ok = AtomicU64::new(0);
        rt.parallel(2, |w| {
            let me = w.thread_num() as u64;
            assert_eq!(w.reduce_u64(me + 1, crate::ReduceOp::Sum), 3);
            rt.parallel(2, |inner| {
                meet.wait();
                live.fetch_max(sys.shmem_count(OMP_DOMAIN) as u64, Ordering::Relaxed);
                if inner.reduce_u64(me + 10, crate::ReduceOp::Sum) == me + 10 {
                    nested_ok.fetch_add(1, Ordering::Relaxed);
                }
                meet.wait();
            });
            assert_eq!(w.reduce_u64(me + 5, crate::ReduceOp::Sum), 11);
        });
        regions += 3;
        assert_eq!(nested_ok.load(Ordering::Relaxed), 2);
        assert_eq!(
            live.load(Ordering::Relaxed),
            kept as u64 + 2,
            "two live nested teams, two fresh segments"
        );
        assert_eq!(
            probe.0.load(Ordering::Relaxed),
            regions,
            "one ShmemCreate decision per region"
        );
        rt.quiesce();
        assert_eq!(rt.backend_kind(), BackendKind::Mca, "no fallback happened");
        // Widths 1 (nested), 2, 3 and 4: one kept segment each.
        assert!(
            sys.shmem_count(OMP_DOMAIN) <= segments + 4,
            "{} segments kept for 4 widths",
            sys.shmem_count(OMP_DOMAIN) - segments
        );
        sys.set_fault_probe(None);
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
