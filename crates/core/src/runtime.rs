//! The [`Runtime`]: pool ownership, fork/join, and the public entry points.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use mca_sync::Mutex as PlMutex;
use romp_trace::{EventKind, RunSummary, Trace, Tracer};

use crate::backend::{
    make_backend, Backend, BackendKind, DeadlockReport, NativeBackend, RegionLock, SharedWords,
    WorkerJoin,
};
use crate::barrier::Barrier;
use crate::cancel::CancelToken;
use crate::config::Config;
use crate::lock::OmpLock;
use crate::schedule::Schedule;
use crate::stats::{ProfileAccum, RuntimeStats, StatsSnapshot};
use crate::sync::BackendMutex;
use crate::team::{note_fork, run_region_member, JobMsg, PoolSlot, RegionFn, TeamShared};
use crate::worker::{ReduceOp, Worker};
use crate::RompError;

use mca_platform::vtime::RegionProfile;
use mca_platform::{ShardLayout, Topology};

thread_local! {
    /// Set while this thread is executing inside a parallel region, so a
    /// nested `parallel` serializes (the OpenMP `OMP_NESTED=false` default).
    /// Maintained by `run_region_member` for every team member — masters
    /// and pool workers alike — because a nested `parallel` from a pool
    /// worker would otherwise block on the region gate the master holds.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Flag accessors for `team::run_region_member`.
pub(crate) fn enter_region_flag() -> bool {
    IN_PARALLEL.with(|c| c.replace(true))
}

pub(crate) fn restore_region_flag(prev: bool) {
    IN_PARALLEL.with(|c| c.set(prev));
}

/// Hard cap on team size, protecting the host from runaway requests.
const MAX_TEAM: usize = 512;

/// Erase the region closure's lifetime into a [`RegionFn`].
///
/// SAFETY: the returned pointer is only dereferenced by team members while
/// the region runs, and `parallel` does not return until every member has
/// passed the end-of-region barrier (i.e. finished calling the closure), so
/// the referent strictly outlives every dereference.
fn erase_region_fn<F: Fn(&Worker) + Sync>(f: &F) -> RegionFn {
    let short: &(dyn Fn(&Worker) + Sync) = f;
    // Fat-pointer lifetime transmute; layout is identical.
    let long: &'static (dyn Fn(&Worker) + Sync + 'static) = unsafe { std::mem::transmute(short) };
    RegionFn(long as *const _)
}

/// Slots in the published `critical(name)` table.  Names beyond it still
/// work; they take the table lock on every call.
const CRITICAL_SLOTS: usize = 64;
/// How many slots, from a name's home slot on, hold its published lock.
const CRITICAL_PROBES: usize = 8;

/// A `critical(name)` lock published for lookup without the table lock.
/// Set once, never replaced or removed while the runtime lives.
struct PublishedCritical {
    /// FNV-1a of `name` (the tag the critical's trace span carries).
    tag: u64,
    name: Box<str>,
    lock: Arc<dyn RegionLock>,
}

/// Named critical-section locks (`#pragma omp critical(name)` is
/// program-global in OpenMP; runtime-global here).  libGOMP's split: a
/// reader finds an existing name's lock through published, never-replaced
/// entries; only first use takes the table lock (`create_lock_lock`) —
/// a backend lock, so an MRAPI mutex on the MCA backend.
struct Criticals {
    /// Every name's lock; the creation authority.
    table: BackendMutex<HashMap<String, Arc<dyn RegionLock>>>,
    /// Locks of names whose first use found a free slot among the
    /// [`CRITICAL_PROBES`] slots from the tag's home slot.
    published: Box<[OnceLock<PublishedCritical>]>,
}

impl Criticals {
    fn new(guard: Arc<dyn RegionLock>) -> Self {
        Criticals {
            table: BackendMutex::new(guard, HashMap::new()),
            published: (0..CRITICAL_SLOTS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The slots that may hold the lock of a name tagged `tag`.
    fn probe(&self, tag: u64) -> impl Iterator<Item = &OnceLock<PublishedCritical>> {
        (0..CRITICAL_PROBES).map(move |i| &self.published[(tag as usize + i) % CRITICAL_SLOTS])
    }
}

/// A native lock, for the last-resort paths where the active backend
/// cannot produce one (native lock creation itself cannot fail).
fn native_lock() -> Arc<dyn RegionLock> {
    NativeBackend::new()
        .new_lock()
        .expect("native lock creation is infallible")
}

pub(crate) struct RtInner {
    /// The active backend.  Swapped (under the mutex) for its
    /// [`Backend::fallback`] when it reports itself poisoned — the
    /// MCA→native graceful-degradation path of DESIGN.md §5.
    backend: PlMutex<Arc<dyn Backend>>,
    /// Backends replaced by a fallback swap.  Kept alive — locks and pool
    /// workers created through them may still be in use — and shut down
    /// when the runtime drops.
    retired: PlMutex<Vec<Arc<dyn Backend>>>,
    /// Whether a fallback swap has ever happened.
    degraded: AtomicBool,
    pub cfg: Config,
    pool: PlMutex<Vec<Arc<PoolSlot>>>,
    joins: PlMutex<Vec<Box<dyn WorkerJoin>>>,
    /// Serializes parallel regions launched from different threads; the
    /// dock slots are single-occupancy.
    region_gate: PlMutex<()>,
    criticals: Criticals,
    pub stats: RuntimeStats,
    profile: PlMutex<ProfileAccum>,
    profiling: AtomicBool,
    /// The event recorder.  Armed by `cfg.trace`; disarmed, every trace
    /// site in the runtime costs one relaxed load.
    pub(crate) tracer: Arc<Tracer>,
    /// The ambient cancel token: armed by a supervisor (the serving
    /// dispatcher) before running a job, cloned into every team forked
    /// while armed.  Ambient rather than a `parallel` parameter because
    /// kernels fork regions internally and cannot thread one through.
    cancel: PlMutex<Option<CancelToken>>,
    /// The placement topology handed to [`Runtime::with_topology`]:
    /// shards every team by cluster.  `None` (and no `cfg.shards`
    /// override) runs unsharded.  Kept outside `Config` — `Topology`
    /// carries `f64` model parameters and is not `Eq`.
    topology: Option<Arc<Topology>>,
    /// The ambient affinity key (same discipline as `cancel`): armed by
    /// the dispatcher before running a job, hashed to a home shard in
    /// every team forked while armed.
    affinity: PlMutex<Option<u64>>,
}

impl RtInner {
    /// The active backend (cheap Arc clone).
    pub(crate) fn backend(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend.lock())
    }

    /// If the active backend has poisoned itself, swap in its fallback,
    /// logging one structured warning.  Returns whether a swap happened.
    fn heal_backend(&self) -> bool {
        let mut cur = self.backend.lock();
        if !cur.poisoned() {
            return false;
        }
        let Some(fb) = cur.fallback() else {
            return false;
        };
        let fb: Arc<dyn Backend> = Arc::from(fb);
        fb.attach_tracer(&self.tracer);
        let reason = cur
            .failure_reason()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "unspecified persistent failure".to_string());
        eprintln!(
            "romp[WARN] backend={} degraded ({reason}); falling back to backend={}",
            cur.name(),
            fb.name()
        );
        let old = std::mem::replace(&mut *cur, fb);
        drop(cur);
        self.retired.lock().push(old);
        self.degraded.store(true, Ordering::Release);
        self.tracer.instant(EventKind::Fallback, u32::MAX, 0, 0);
        if self.tracer.armed() {
            self.tracer.metrics().counter("backend.fallback").incr();
        }
        true
    }

    /// Run `op` on the active backend; on failure, swap in the fallback
    /// backend if the active one has poisoned itself and run `op` once
    /// more on it.
    fn with_healing<T>(
        &self,
        op: impl Fn(&dyn Backend) -> Result<T, RompError>,
    ) -> Result<T, RompError> {
        op(&*self.backend()).or_else(|e| {
            if self.heal_backend() {
                op(&*self.backend())
            } else {
                Err(e)
            }
        })
    }

    /// Create a lock through the active backend, with heal-and-retry.
    pub(crate) fn backend_new_lock(&self) -> Result<Arc<dyn RegionLock>, RompError> {
        self.with_healing(|be| be.new_lock())
    }

    /// Wait until no pool worker is mid-region, so a trace drain observes
    /// every member's trailing events.  Must not be called from inside a
    /// parallel region (the caller's own member would never go idle).
    pub(crate) fn quiesce_pool(&self) {
        let slots: Vec<_> = self.pool.lock().iter().map(Arc::clone).collect();
        for slot in slots {
            slot.wait_idle();
        }
    }

    /// Allocate shared words, with heal-and-retry.
    fn backend_alloc(&self, words: usize) -> Result<Arc<dyn SharedWords>, RompError> {
        self.with_healing(|be| be.alloc_shared_words(words))
    }

    /// The published lock backing `critical(name)` (`tag` = the name's
    /// FNV-1a), read without the table lock; `None` if the name has not
    /// been used yet or did not fit the published table.
    #[inline]
    pub(crate) fn published_critical(&self, name: &str, tag: u64) -> Option<&dyn RegionLock> {
        for slot in self.criticals.probe(tag) {
            // Entries are only ever added: an empty slot ends the name's run.
            let entry = slot.get()?;
            if entry.tag == tag && *entry.name == *name {
                return Some(&*entry.lock);
            }
        }
        None
    }

    /// The lock backing `critical(name)` from the table, created through
    /// the backend on first use (Listing 4's `mrapi_mutex_create`
    /// initialization step) and then published for
    /// [`RtInner::published_critical`] if a slot is free.  Infallible: a
    /// backend that cannot produce a lock has already poisoned itself, and
    /// the native last resort cannot fail.
    pub(crate) fn critical_lock(&self, name: &str, tag: u64) -> Arc<dyn RegionLock> {
        self.criticals.table.with(|map| {
            if let Some(l) = map.get(name) {
                return Arc::clone(l);
            }
            let l = self.backend_new_lock().unwrap_or_else(|_| native_lock());
            map.insert(name.to_string(), Arc::clone(&l));
            // Publishing happens only here, under the table lock, so the
            // first free slot cannot be taken from under us.
            if let Some(slot) = self.criticals.probe(tag).find(|s| s.get().is_none()) {
                let _ = slot.set(PublishedCritical {
                    tag,
                    name: name.into(),
                    lock: Arc::clone(&l),
                });
            }
            l
        })
    }

    /// A minimal native-backed inner for unit tests in sibling modules.
    #[cfg(test)]
    pub(crate) fn for_tests() -> Arc<RtInner> {
        let backend: Arc<dyn Backend> = Arc::new(crate::backend::NativeBackend::new());
        let criticals = Criticals::new(backend.new_lock().unwrap());
        Arc::new(RtInner {
            backend: PlMutex::new(backend),
            retired: PlMutex::new(Vec::new()),
            degraded: AtomicBool::new(false),
            cfg: Config::default(),
            pool: PlMutex::new(Vec::new()),
            joins: PlMutex::new(Vec::new()),
            region_gate: PlMutex::new(()),
            criticals,
            stats: RuntimeStats::default(),
            profile: PlMutex::new(ProfileAccum::default()),
            profiling: AtomicBool::new(false),
            tracer: Arc::new(Tracer::new(false)),
            cancel: PlMutex::new(None),
            topology: None,
            affinity: PlMutex::new(None),
        })
    }

    /// The currently armed ambient cancel token, if any.
    pub(crate) fn current_cancel(&self) -> Option<CancelToken> {
        self.cancel.lock().clone()
    }

    /// The currently armed ambient affinity key, if any.
    pub(crate) fn current_affinity(&self) -> Option<u64> {
        *self.affinity.lock()
    }

    /// The shard layout a team of `size` gets: an explicit
    /// `cfg.shards` override wins, then the placement topology (one
    /// shard per cluster in use), else a single shard.
    pub(crate) fn team_layout(&self, size: usize) -> ShardLayout {
        match (self.cfg.shards, self.topology.as_deref()) {
            (Some(s), _) => ShardLayout::uniform(s, size),
            (None, Some(topo)) => ShardLayout::from_topology(topo, size),
            (None, None) => ShardLayout::single(size),
        }
    }

    fn new_team(&self, size: usize) -> Result<Arc<TeamShared>, RompError> {
        let layout = self.team_layout(size);
        Ok(Arc::new(TeamShared::new(
            size,
            Barrier::with_layout(size, self.cfg.barrier, &layout),
            self.backend_alloc(TeamShared::reduce_words_len(size))?,
            Arc::clone(&self.tracer),
            self.current_cancel(),
            layout,
            self.current_affinity(),
        )))
    }

    /// Grow the dock to at least `n` slots, swapping in the fallback
    /// backend if a spawn fails persistently.  Workers already docked stay
    /// valid across the swap — the pool loop is backend-agnostic.
    fn ensure_pool(self: &Arc<Self>, n: usize) -> Result<(), RompError> {
        let mut pool = self.pool.lock();
        while pool.len() < n {
            let slot = PoolSlot::new(Arc::as_ptr(self));
            let label = format!("romp-worker-{}", pool.len() + 1);
            let join = self.with_healing(|be| {
                let slot = Arc::clone(&slot);
                be.spawn_worker(label.clone(), Box::new(move || slot.worker_loop()))
            })?;
            self.joins.lock().push(join);
            pool.push(slot);
        }
        Ok(())
    }
}

impl Drop for RtInner {
    fn drop(&mut self) {
        for slot in self.pool.lock().iter() {
            slot.send_exit();
        }
        for join in self.joins.lock().drain(..) {
            join.join();
        }
        self.backend.lock().shutdown();
        for be in self.retired.lock().drain(..) {
            be.shutdown();
        }
        // With `ROMP_TRACE_OUT` set, the runtime's last act is writing the
        // chrome://tracing view of everything still buffered.
        if let Some(path) = self.cfg.trace_out.as_deref() {
            if self.tracer.armed() {
                let json = self.tracer.drain().chrome_json();
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("romp[WARN] could not write trace to {path}: {e}");
                }
            }
        }
    }
}

/// The OpenMP-style runtime: owns a backend and a persistent worker pool.
///
/// Cheap to clone (shared handle).  See the crate docs for an overview and
/// [`Worker`] for the constructs available inside a region.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

impl Runtime {
    /// Environment-configured runtime (`ROMP_BACKEND`, `OMP_NUM_THREADS`,
    /// `OMP_SCHEDULE`, ...).
    pub fn new() -> Result<Self, RompError> {
        Self::with_config(Config::from_env())
    }

    /// Default configuration on the given backend.
    pub fn with_backend(kind: BackendKind) -> Result<Self, RompError> {
        Self::with_config(Config::default().with_backend(kind))
    }

    /// Fully explicit construction.  A non-native backend that fails to
    /// initialize persistently (e.g. under an injected fault schedule)
    /// degrades to the native backend with a warning instead of failing
    /// construction.
    pub fn with_config(cfg: Config) -> Result<Self, RompError> {
        Self::with_fallback(cfg, None)
    }

    /// Environment-configured runtime placed on a [`Topology`]: every
    /// team is sharded by cluster — each shard gets its own task
    /// injector, work stealing escalates outward (shard-mates first,
    /// cross-shard only when the shard is dry), and teams spanning more
    /// than one shard synchronize through a hierarchical barrier.  An
    /// explicit [`Config::shards`] override (or `ROMP_SHARDS`) beats the
    /// topology-derived count.
    ///
    /// ```
    /// use mca_platform::Topology;
    /// use romp::Runtime;
    ///
    /// // Three clusters of four dual-threaded cores: a 6-thread team
    /// // round-robins the clusters, so it runs as 3 shards of 2.
    /// let rt = Runtime::with_topology(Topology::t4240rdb()).unwrap();
    /// assert_eq!(rt.shard_layout(6).num_shards(), 3);
    ///
    /// // Regions run normally on the sharded pool (hierarchical barrier
    /// // underneath): steal counts land in `stats().steals_{local,remote}`.
    /// let sum = rt.parallel_reduce_sum(6, 0..100, |i| i);
    /// assert_eq!(sum, 4950);
    /// ```
    pub fn with_topology(topo: Topology) -> Result<Self, RompError> {
        Self::with_config_and_topology(Config::from_env(), topo)
    }

    /// [`Runtime::with_topology`] with an explicit [`Config`].
    ///
    /// ```
    /// use mca_platform::Topology;
    /// use romp::{Config, Runtime};
    ///
    /// // --shards style override: the config wins over the topology.
    /// let rt = Runtime::with_config_and_topology(
    ///     Config::default().with_shards(2),
    ///     Topology::t4240rdb(),
    /// ).unwrap();
    /// assert_eq!(rt.shard_layout(8).num_shards(), 2);
    /// ```
    pub fn with_config_and_topology(cfg: Config, topo: Topology) -> Result<Self, RompError> {
        Self::with_fallback(cfg, Some(Arc::new(topo)))
    }

    /// Build `cfg`'s backend, degrading a non-native one that fails to
    /// initialize to the native backend with a warning, and assemble the
    /// runtime on it.
    fn with_fallback(cfg: Config, topo: Option<Arc<Topology>>) -> Result<Self, RompError> {
        let mut started_degraded = false;
        let backend: Arc<dyn Backend> = match make_backend(&cfg) {
            Ok(be) => Arc::from(be),
            Err(e) if cfg.backend != BackendKind::Native => {
                eprintln!(
                    "romp[WARN] backend={} failed to initialize ({e}); \
                     falling back to backend=native",
                    cfg.backend.label()
                );
                started_degraded = true;
                Arc::new(NativeBackend::new())
            }
            Err(e) => return Err(e),
        };
        Self::assemble(cfg, backend, started_degraded, topo)
    }

    /// Construction on a caller-built backend (targeted fault tests,
    /// shared MRAPI systems).  `cfg.backend` is ignored in favour of the
    /// given backend's kind.
    pub fn with_config_and_backend(
        cfg: Config,
        backend: Box<dyn Backend>,
    ) -> Result<Self, RompError> {
        Self::assemble(cfg, Arc::from(backend), false, None)
    }

    fn assemble(
        cfg: Config,
        backend: Arc<dyn Backend>,
        degraded: bool,
        topology: Option<Arc<Topology>>,
    ) -> Result<Self, RompError> {
        // If the backend cannot even produce the criticals guard it is
        // poisoned already; the first region boundary will swap it out.
        let guard = backend.new_lock().unwrap_or_else(|_| native_lock());
        let criticals = Criticals::new(guard);
        let profiling = cfg.profiling;
        let tracer = Arc::new(Tracer::new(cfg.trace));
        backend.attach_tracer(&tracer);
        Ok(Runtime {
            inner: Arc::new(RtInner {
                backend: PlMutex::new(backend),
                retired: PlMutex::new(Vec::new()),
                degraded: AtomicBool::new(degraded),
                cfg,
                pool: PlMutex::new(Vec::new()),
                joins: PlMutex::new(Vec::new()),
                region_gate: PlMutex::new(()),
                criticals,
                stats: RuntimeStats::default(),
                profile: PlMutex::new(ProfileAccum::default()),
                profiling: AtomicBool::new(profiling),
                tracer,
                cancel: PlMutex::new(None),
                topology,
                affinity: PlMutex::new(None),
            }),
        })
    }

    /// The placement topology this runtime was built on, if any.
    pub fn topology(&self) -> Option<&Topology> {
        self.inner.topology.as_deref()
    }

    /// The [`ShardLayout`] a team of `team_size` would get (0 = the
    /// default team size): the `shards` config override, else the
    /// topology's cluster placement, else one shard.
    pub fn shard_layout(&self, team_size: usize) -> ShardLayout {
        let n = self.normalize_team(team_size);
        self.inner.team_layout(n)
    }

    /// Which backend this runtime currently uses (reflects degradation:
    /// after an MCA→native fallback this reports `Native`).
    pub fn backend_kind(&self) -> BackendKind {
        self.inner.backend().kind()
    }

    /// Whether the runtime has degraded away from its configured backend
    /// (at construction or mid-run).
    pub fn degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    /// Drain over-long lock-wait diagnostics from the active backend and
    /// any retired (degraded-away) backends.
    pub fn take_deadlock_reports(&self) -> Vec<DeadlockReport> {
        let mut out = self.inner.backend().take_deadlock_reports();
        for be in self.inner.retired.lock().iter() {
            out.extend(be.take_deadlock_reports());
        }
        out
    }

    /// The construction configuration.
    pub fn config(&self) -> &Config {
        &self.inner.cfg
    }

    /// Default team size: the configured `OMP_NUM_THREADS`, else the
    /// backend's online-processor count (§5B.4 metadata on the MCA
    /// backend).
    pub fn max_threads(&self) -> usize {
        self.inner
            .cfg
            .num_threads
            .unwrap_or_else(|| self.inner.backend().online_processors())
    }

    /// `omp_in_parallel` for the calling thread.
    pub fn in_parallel() -> bool {
        IN_PARALLEL.with(|c| c.get())
    }

    fn normalize_team(&self, requested: usize) -> usize {
        let n = if requested == 0 {
            self.max_threads()
        } else {
            requested
        };
        let n = if self.inner.cfg.dynamic {
            n.min(self.inner.backend().online_processors())
        } else {
            n
        };
        n.clamp(1, MAX_TEAM)
    }

    /// `#pragma omp parallel num_threads(n)` — run `f` on a team of `n`
    /// members (0 = default size).  Thread 0 is the calling thread; the
    /// region ends with an implicit barrier; member panics propagate to the
    /// caller after the region completes.
    ///
    /// Never aborts on backend failure: persistent MRAPI trouble degrades
    /// to the native backend, and if even forking is impossible the region
    /// runs on a team of one.  Use [`Runtime::try_parallel`] to observe
    /// the failure instead.
    pub fn parallel<F>(&self, num_threads: usize, f: F)
    where
        F: Fn(&Worker) + Sync,
    {
        if Self::in_parallel() {
            // Nested region: OpenMP default is a team of one (serialized).
            match self.run_inline_team(&f) {
                // A cancelled nested region must not re-run on the native
                // inline path — the whole point is to stop.
                Ok(()) | Err(RompError::Cancelled) => {}
                Err(_) => self.run_inline_native(&f),
            }
            return;
        }
        match self.fork_join(num_threads, &f) {
            Ok(()) => {}
            // Cancellation is not a failure to absorb: the region was asked
            // to stop, so stop — no team-of-one retry.
            Err(RompError::Cancelled) => {}
            Err(e) => {
                eprintln!("romp[WARN] parallel region fell back to a team of one: {e}");
                match self.run_inline_team(&f) {
                    Ok(()) | Err(RompError::Cancelled) => {}
                    Err(_) => self.run_inline_native(&f),
                }
            }
        }
    }

    /// Fallible [`Runtime::parallel`]: on persistent backend failure the
    /// typed error is returned instead of degrading to a team of one.
    /// (The MCA→native backend swap still happens transparently; only an
    /// error the fallback cannot absorb surfaces.)
    pub fn try_parallel<F>(&self, num_threads: usize, f: F) -> Result<(), RompError>
    where
        F: Fn(&Worker) + Sync,
    {
        if Self::in_parallel() {
            return self.run_inline_team(&f);
        }
        self.fork_join(num_threads, &f)
    }

    /// The fork/join engine behind `parallel`/`try_parallel`.
    fn fork_join<F>(&self, num_threads: usize, f: &F) -> Result<(), RompError>
    where
        F: Fn(&Worker) + Sync,
    {
        let n = self.normalize_team(num_threads);
        let _gate = self.inner.region_gate.lock();
        note_fork(Arc::as_ptr(&self.inner));
        // Region boundary: if the backend poisoned itself mid-run, swap
        // in its fallback before forking the next team.
        self.inner.heal_backend();
        // An already-fired token means the job this region belongs to was
        // cancelled between regions: don't fork at all.
        if self
            .inner
            .current_cancel()
            .is_some_and(|t| t.is_cancelled())
        {
            return Err(RompError::Cancelled);
        }
        self.inner.stats.regions.fetch_add(1, Ordering::Relaxed);
        let team = self.inner.new_team(n)?;
        self.inner.ensure_pool(n.saturating_sub(1))?;
        let profiling = self.inner.profiling.load(Ordering::Relaxed);
        let func = erase_region_fn(f);
        {
            let pool = self.inner.pool.lock();
            for tid in 1..n {
                pool[tid - 1].assign(JobMsg {
                    team: Arc::clone(&team),
                    tid,
                    func,
                    rt: Arc::as_ptr(&self.inner),
                    profiling,
                });
            }
        }
        run_region_member(&JobMsg {
            team: Arc::clone(&team),
            tid: 0,
            func,
            rt: Arc::as_ptr(&self.inner),
            profiling,
        });
        // All members have passed the end barrier: fold this team's
        // counters into the runtime totals.
        let barriers = team.counters.barriers.load(Ordering::Relaxed);
        let criticals = team.counters.criticals.load(Ordering::Relaxed);
        self.inner
            .stats
            .barriers
            .fetch_add(barriers, Ordering::Relaxed);
        self.inner
            .stats
            .criticals
            .fetch_add(criticals, Ordering::Relaxed);
        self.inner.stats.singles.fetch_add(
            team.counters.singles.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.inner.stats.loops.fetch_add(
            team.counters.loops.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.inner.stats.tasks.fetch_add(
            team.counters.tasks.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.inner.stats.steals_local.fetch_add(
            team.counters.steals_local.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.inner.stats.steals_remote.fetch_add(
            team.counters.steals_remote.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        if profiling {
            let cpu: Vec<u64> = team
                .cpu_ns
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            self.inner.profile.lock().merge(&cpu, barriers, criticals);
        }
        let payload = team.panic.lock().take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
        // A user panic outranks cancellation (it is the more informative
        // outcome); a cleanly-cancelled team reports the typed error.
        if team.cancelled.load(Ordering::Acquire) {
            return Err(RompError::Cancelled);
        }
        Ok(())
    }

    fn run_team_of_one(&self, team: Arc<TeamShared>, func: RegionFn) -> Result<(), RompError> {
        run_region_member(&JobMsg {
            team: Arc::clone(&team),
            tid: 0,
            func,
            rt: Arc::as_ptr(&self.inner),
            profiling: false,
        });
        let payload = team.panic.lock().take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
        if team.cancelled.load(Ordering::Acquire) {
            return Err(RompError::Cancelled);
        }
        Ok(())
    }

    fn run_inline_team<F: Fn(&Worker) + Sync>(&self, f: &F) -> Result<(), RompError> {
        let team = self.inner.new_team(1)?;
        self.run_team_of_one(team, erase_region_fn(f))
    }

    /// Last resort when even a team-of-one allocation fails through the
    /// backend: build the team from native services directly (which cannot
    /// fail) so `parallel` still completes.
    fn run_inline_native<F: Fn(&Worker) + Sync>(&self, f: &F) {
        let words = NativeBackend::new()
            .alloc_shared_words(TeamShared::reduce_words_len(1))
            .expect("native allocation is infallible");
        let team = Arc::new(TeamShared::new(
            1,
            Barrier::new(1, self.inner.cfg.barrier),
            words,
            Arc::clone(&self.inner.tracer),
            self.inner.current_cancel(),
            ShardLayout::single(1),
            self.inner.current_affinity(),
        ));
        let _ = self.run_team_of_one(team, erase_region_fn(f));
    }

    /// Run a region and collect each member's return value (indexed by
    /// thread number; if the region degraded to a smaller team, only the
    /// members that ran contribute).
    pub fn parallel_map<T, F>(&self, num_threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Worker) -> T + Sync,
    {
        let n = self.normalize_team(num_threads);
        let slots: Vec<PlMutex<Option<T>>> = (0..n).map(|_| PlMutex::new(None)).collect();
        self.parallel(n, |w| {
            let v = f(w);
            *slots[w.thread_num()].lock() = Some(v);
        });
        slots.into_iter().filter_map(|s| s.into_inner()).collect()
    }

    /// `#pragma omp parallel for` — fork a team and workshare `range`.
    pub fn parallel_for<F>(
        &self,
        num_threads: usize,
        range: std::ops::Range<u64>,
        sched: Schedule,
        f: F,
    ) where
        F: Fn(u64) + Sync,
    {
        self.parallel(num_threads, |w| {
            w.for_range_nowait(range.clone(), sched, &f);
        });
    }

    /// `#pragma omp parallel for reduction(+:sum)` over u64.
    pub fn parallel_reduce_sum<F>(
        &self,
        num_threads: usize,
        range: std::ops::Range<u64>,
        f: F,
    ) -> u64
    where
        F: Fn(u64) -> u64 + Sync,
    {
        let out = PlMutex::new(0u64);
        self.parallel(num_threads, |w| {
            let mut local = 0u64;
            w.for_chunks_nowait(range.clone(), Schedule::Static { chunk: None }, |chunk| {
                for i in chunk {
                    local = local.wrapping_add(f(i));
                }
            });
            let total = w.reduce_u64(local, ReduceOp::Sum);
            if w.is_master() {
                *out.lock() = total;
            }
        });
        out.into_inner()
    }

    /// `#pragma omp parallel for reduction(+:sum)` over f64.
    pub fn parallel_reduce_sum_f64<F>(
        &self,
        num_threads: usize,
        range: std::ops::Range<u64>,
        f: F,
    ) -> f64
    where
        F: Fn(u64) -> f64 + Sync,
    {
        let out = PlMutex::new(0f64);
        self.parallel(num_threads, |w| {
            let mut local = 0f64;
            w.for_chunks_nowait(range.clone(), Schedule::Static { chunk: None }, |chunk| {
                for i in chunk {
                    local += f(i);
                }
            });
            let total = w.reduce_f64(local, ReduceOp::Sum);
            if w.is_master() {
                *out.lock() = total;
            }
        });
        out.into_inner()
    }

    /// `#pragma omp parallel sections`: fork a team and distribute the
    /// given section bodies dynamically (each runs exactly once).
    pub fn parallel_sections(&self, num_threads: usize, sections: &[&(dyn Fn() + Sync)]) {
        let n_sections = sections.len();
        self.parallel(num_threads, |w| {
            w.sections(n_sections, |i| sections[i]());
        });
    }

    /// An OpenMP-style lock (`omp_init_lock`), backed by the runtime's
    /// backend — an MRAPI mutex on the MCA backend.  Never aborts: on
    /// persistent backend failure the lock comes from the fallback chain.
    pub fn new_lock(&self) -> OmpLock {
        OmpLock::new(
            self.inner
                .backend_new_lock()
                .unwrap_or_else(|_| native_lock()),
        )
    }

    /// Fallible [`Runtime::new_lock`]: surfaces the creation failure
    /// instead of silently degrading to a native lock.
    pub fn try_new_lock(&self) -> Result<OmpLock, RompError> {
        Ok(OmpLock::new(self.inner.backend_new_lock()?))
    }

    /// Arm (or clear, with `None`) the ambient [`CancelToken`]: every
    /// region forked while a token is armed carries a clone and unwinds at
    /// its cooperative checkpoints once the token fires, surfacing as
    /// [`RompError::Cancelled`] from [`Runtime::try_parallel`] (and a
    /// silent early return from [`Runtime::parallel`]).
    ///
    /// This is how a supervisor cancels work that forks regions
    /// internally (served kernels, benchmarks): arm a fresh token before
    /// dispatch, fire it from any thread, clear it afterwards.  Unarmed,
    /// checkpoints cost one branch.
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        *self.inner.cancel.lock() = token;
    }

    /// Arm (or clear, with `None`) the ambient affinity key — the same
    /// discipline as [`Runtime::set_cancel_token`]: a dispatcher arms the
    /// job's key before running it and clears it afterwards.  While
    /// armed, every forked team hashes the key to a *home shard*
    /// ([`ShardLayout::shard_for_key`]); explicit tasks spawned by
    /// members outside the home shard are routed to its injector, so the
    /// job's task graph concentrates where its cache state lives.
    /// Meaningless (and free) on an unsharded runtime.
    ///
    /// ```
    /// use romp::{Config, Runtime};
    ///
    /// let rt = Runtime::with_config(Config::default().with_shards(2)).unwrap();
    /// rt.set_affinity(Some(42));
    /// rt.parallel(4, |w| {
    ///     w.task(|| { /* routed toward shard_for_key(42) */ });
    ///     w.taskwait();
    /// });
    /// rt.set_affinity(None);
    /// ```
    pub fn set_affinity(&self, key: Option<u64>) {
        *self.inner.affinity.lock() = key;
    }

    /// Externally poison the active backend so the next region boundary
    /// swaps in its fallback ([`Backend::poison`]).  The watchdog's
    /// escalation path: work wedged inside backend primitives (e.g. an
    /// MRAPI mutex timing out forever) is cut loose — poisoning also flips
    /// in-flight MCA lock waits onto their native escape hatch.  Returns
    /// whether the backend accepted the poisoning.
    pub fn poison_backend(&self, reason: &str) -> bool {
        self.inner
            .backend()
            .poison(RompError::Config(format!("externally poisoned: {reason}")))
    }

    /// If the active backend is poisoned, swap in its fallback *now*
    /// instead of waiting for the next region boundary.  Returns whether a
    /// swap happened.
    pub fn heal_backend_now(&self) -> bool {
        self.inner.heal_backend()
    }

    /// Wait until every pool worker has fully finished its in-flight
    /// region member (post-barrier epilogues included).
    ///
    /// This is the runtime's quiescence hook: long-lived hosts that share
    /// one runtime across many submitted jobs — the `romp-serve` drain
    /// path in particular — call it between "last job completed" and
    /// "report shutdown", so no worker is still running a trailing
    /// epilogue when the process exits.  [`Runtime::take_trace`] and
    /// [`Runtime::run_summary`] quiesce implicitly.
    ///
    /// Must not be called from inside a parallel region (the caller's own
    /// team member would never go idle).
    pub fn quiesce(&self) {
        self.inner.quiesce_pool();
    }

    /// Always-on construct counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// A monotonically increasing liveness signal: bumped every time a
    /// worker enters a barrier or worksharing loop, or *acquires* a
    /// critical's lock, live from inside running regions.  A supervisor
    /// watching a cancelled job can distinguish "still unwinding toward a
    /// checkpoint" (value advancing) from "wedged inside the backend"
    /// (value flat) and escalate only the latter.
    pub fn activity(&self) -> u64 {
        self.inner
            .stats
            .activity
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The runtime's event recorder.  Armed via [`Config::with_tracing`]
    /// or `ROMP_TRACE=1`; disarmed (the default) it records nothing and
    /// each instrumentation site costs one relaxed atomic load.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.inner.tracer
    }

    /// Drain every buffered trace event into a [`Trace`] (per-thread
    /// lanes, drop accounting).  Empty when tracing is disarmed.
    ///
    /// Waits for every pool worker to finish its in-flight region member
    /// first (post-barrier epilogues included), so a drain right after
    /// [`Runtime::parallel`] returns sees complete spans.  Do not call
    /// from inside a parallel region.
    pub fn take_trace(&self) -> Trace {
        self.inner.quiesce_pool();
        self.inner.tracer.drain()
    }

    /// A non-consuming observability summary: trace event totals plus the
    /// metrics registry, with the always-on construct counters
    /// ([`Runtime::stats`]) folded in as `stats.*` counters.
    ///
    /// ```
    /// use romp::{BackendKind, Runtime};
    ///
    /// let rt = Runtime::with_backend(BackendKind::Native).unwrap();
    /// rt.parallel(2, |w| w.barrier());
    /// let summary = rt.run_summary();
    /// assert_eq!(summary.events, 0, "tracing disarmed by default");
    /// assert!(summary.metrics.counters.iter().any(|(n, v)| n == "stats.regions" && *v == 1));
    /// println!("{}", summary.render());
    /// ```
    pub fn run_summary(&self) -> RunSummary {
        self.inner.quiesce_pool();
        let mut s = self.inner.tracer.summary();
        let st = self.stats();
        for (name, v) in [
            ("stats.regions", st.regions),
            ("stats.barriers", st.barriers),
            ("stats.criticals", st.criticals),
            ("stats.singles", st.singles),
            ("stats.loops", st.loops),
            ("stats.tasks", st.tasks),
            ("stats.steals.local", st.steals_local),
            ("stats.steals.remote", st.steals_remote),
        ] {
            if v > 0 {
                s.metrics.counters.push((name.to_string(), v));
            }
        }
        s.metrics.counters.sort();
        s
    }

    /// Zero the construct counters.
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
    }

    /// Toggle per-worker CPU profiling (for the virtual-time engine).
    pub fn set_profiling(&self, on: bool) {
        self.inner.profiling.store(on, Ordering::Relaxed);
    }

    /// Drop accumulated profile data.
    pub fn reset_profile(&self) {
        *self.inner.profile.lock() = ProfileAccum::default();
    }

    /// The profile accumulated since the last reset, as the platform cost
    /// model's input.
    pub fn take_profile(&self) -> RegionProfile {
        let mut p = self.inner.profile.lock();
        let out = p.to_region_profile();
        *p = ProfileAccum::default();
        out
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("backend", &self.inner.backend().name())
            .field("max_threads", &self.max_threads())
            .finish()
    }
}
