//! The router: a [`romp_serve::Dispatch`] implementation that farms
//! jobs out to N supervised worker **processes** over MCAPI wire
//! channels, fetching results through each worker's file-backed MRAPI
//! rmem segment.
//!
//! Supervision model (DESIGN.md §5.12):
//!
//! * every worker heartbeats on its wire channel, carrying its
//!   runtime's activity counter — the watchdog's progress signal for the
//!   jobs on that worker;
//! * a worker dies when its channel reports the typed
//!   `MCAPI_ERR_CHAN_CLOSED`, and its receive thread handles the death.
//!   The supervisor (after `heartbeat_misses` silent periods) and the
//!   watchdog's escalation only SIGKILL the process, so neither stalls
//!   on a respawn;
//! * a dead worker's in-flight jobs are **retried** on survivors (at
//!   most `MAX_RETRIES` (3) times; jobs whose cancel token already fired
//!   are completed terminal instead — the job table records exactly one
//!   terminal state per job, so retries are idempotent from the
//!   client's point of view);
//! * the dead worker is respawned with a bumped generation; stale
//!   receive threads and late packets from the old incarnation are
//!   ignored by generation check;
//! * an operator `Restart` request cycles workers one at a time:
//!   drain (stop targeting, wait for its in-flight jobs), graceful
//!   `Exit`, respawn — zero lost jobs by construction.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use mca_mcapi::{McapiStatus, WireChan, WireListener};
use mca_mrapi::{DomainId, MrapiSystem, Node, NodeId, RmemAttributes, RmemHandle};
use mca_platform::mix64;
use mca_sync::{Condvar, Mutex};
use romp::BackendKind;
use romp_serve::lifecycle::terminal_for;
use romp_serve::{Dispatch, DispatchCtx, JobOutcome, JobState, QueuedJob};
use romp_trace::{json_escape, Counter, Gauge};

use crate::proto::{ToRouter, ToWorker, SLOT_BYTES, SLOT_INLINE};
use crate::worker::CLUSTER_DOMAIN;

/// How the pool is built and supervised.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Path to the `romp-worker` binary; `None` = locate next to the
    /// current executable (or `$ROMP_WORKER_BIN`).
    pub worker_bin: Option<PathBuf>,
    /// romp pool threads inside each worker.
    pub worker_threads: usize,
    /// Backend each worker runs jobs on.
    pub backend: BackendKind,
    /// Worker heartbeat period, milliseconds.
    pub heartbeat_ms: u64,
    /// Silent heartbeat periods before a worker is declared dead.
    pub heartbeat_misses: u64,
    /// Directory for sockets and rmem backing files; `None` = a fresh
    /// per-router directory under the system temp dir.
    pub dir: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 2,
            worker_bin: None,
            worker_threads: 2,
            backend: BackendKind::Native,
            heartbeat_ms: 25,
            heartbeat_misses: 40,
            dir: None,
        }
    }
}

/// Dispatch window per worker: jobs in flight before the router holds
/// further dispatches back.
const INFLIGHT_PER_WORKER: u32 = 2;

/// Times a job orphaned by a worker death is retried before it is failed.
const MAX_RETRIES: u32 = 3;

/// One worker process as the router sees it.
struct WorkerSlot {
    /// Bumped on every (re)spawn; packets and threads from older
    /// generations are ignored.
    generation: u64,
    pid: u32,
    child: Option<Child>,
    chan: Option<Arc<WireChan>>,
    rmem: Option<Arc<RmemHandle>>,
    up: bool,
    /// Excluded from dispatch targeting (rolling restart).
    draining: bool,
    /// A spawn attempt is in progress (serializes respawners).
    respawning: bool,
    last_hb: Option<Instant>,
    inflight: u32,
    /// MTAPI tasks executed, from the last heartbeat.
    executed: u64,
    /// The worker runtime's activity counter, from the last heartbeat.
    activity: u64,
    restarts: u64,
}

impl WorkerSlot {
    fn new() -> WorkerSlot {
        WorkerSlot {
            generation: 0,
            pid: 0,
            child: None,
            chan: None,
            rmem: None,
            up: false,
            draining: false,
            respawning: false,
            last_hb: None,
            inflight: 0,
            executed: 0,
            activity: 0,
            restarts: 0,
        }
    }
}

/// A dispatched, not-yet-completed job.
struct Inflight {
    worker: usize,
    generation: u64,
    job: QueuedJob,
    retries: u32,
    cancel_sent: bool,
}

struct Inner {
    workers: Vec<WorkerSlot>,
    inflight: HashMap<u64, Inflight>,
}

/// `cluster.*` handles in the runtime's metrics registry.
struct ClusterMetrics {
    dispatched: Arc<Counter>,
    retries: Arc<Counter>,
    restarts: Arc<Counter>,
    escalations: Arc<Counter>,
    inline_results: Arc<Counter>,
    rmem_fetched: Arc<Counter>,
    workers_up: Arc<Gauge>,
    inflight: Arc<Gauge>,
    slots_held: Arc<Gauge>,
}

/// The multi-process dispatcher (see the module docs).  Constructed
/// with [`Router::new`], handed to
/// [`romp_serve::Server::start_with_dispatch`] as an `Arc<dyn
/// Dispatch>`; all supervision runs on threads it spawns from
/// [`Dispatch::run`].
pub struct Router {
    cfg: ClusterConfig,
    dir: PathBuf,
    /// MRAPI node used to attach workers' file-backed rmem segments.
    node: Node,
    /// Keeps the node's domain registry alive.
    _sys: MrapiSystem,
    inner: Mutex<Inner>,
    /// Signals dispatch capacity and in-flight completions.
    cv: Condvar,
    ctx: OnceLock<DispatchCtx>,
    metrics: OnceLock<ClusterMetrics>,
    me: OnceLock<Weak<Router>>,
    stop: AtomicBool,
    restart_requested: AtomicBool,
    /// rmem slots received in `Done` and not yet released back — the
    /// drain report's leak detector.
    slots_outstanding: AtomicI64,
}

impl Router {
    /// Build a router (no processes spawned yet — that happens when the
    /// server calls [`Dispatch::run`]).  Creates the socket/rmem
    /// directory and the MRAPI attach node.
    pub fn new(cfg: ClusterConfig) -> std::io::Result<Arc<Router>> {
        // One directory per router, not per process: two routers in one
        // process (parallel tests) would otherwise bind the same socket
        // paths and remove each other's directory on shutdown.
        static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
        let dir = cfg.dir.clone().unwrap_or_else(|| {
            let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("romp-cluster-{}-{n}", std::process::id()))
        });
        std::fs::create_dir_all(&dir)?;
        let sys = MrapiSystem::new_t4240();
        // Node id past any worker id: the workers live in their own
        // processes, but keep the ids disjoint for log readability.
        let node = sys
            .initialize(DomainId(CLUSTER_DOMAIN), NodeId(1000))
            .map_err(|e| std::io::Error::other(format!("mrapi init: {e}")))?;
        let workers = (0..cfg.workers.max(1)).map(|_| WorkerSlot::new()).collect();
        let router = Arc::new(Router {
            cfg,
            dir,
            node,
            _sys: sys,
            inner: Mutex::new(Inner {
                workers,
                inflight: HashMap::new(),
            }),
            cv: Condvar::new(),
            ctx: OnceLock::new(),
            metrics: OnceLock::new(),
            me: OnceLock::new(),
            stop: AtomicBool::new(false),
            restart_requested: AtomicBool::new(false),
            slots_outstanding: AtomicI64::new(0),
        });
        router
            .me
            .set(Arc::downgrade(&router))
            .unwrap_or_else(|_| unreachable!("fresh OnceLock"));
        Ok(router)
    }

    /// Number of workers currently up (test hook).
    pub fn workers_up(&self) -> usize {
        self.inner.lock().workers.iter().filter(|w| w.up).count()
    }

    /// OS pids of the live workers, by worker index (test hook: the
    /// chaos test's SIGKILL target).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.inner
            .lock()
            .workers
            .iter()
            .map(|w| if w.up { w.pid } else { 0 })
            .collect()
    }

    /// Total worker (re)spawns after the initial launch (test hook).
    pub fn restarts(&self) -> u64 {
        self.count("cluster.restarts")
    }

    /// Total orphaned-job retries (test hook).
    pub fn retries(&self) -> u64 {
        self.count("cluster.retries")
    }

    /// A `cluster.*` counter from the metrics registry — the one copy of
    /// the router's counts; 0 until [`Dispatch::run`] registers them.
    fn count(&self, name: &str) -> u64 {
        self.ctx.get().map_or(0, |ctx| {
            ctx.runtime().tracer().metrics().counter(name).get()
        })
    }

    fn me(&self) -> Arc<Router> {
        self.me
            .get()
            .and_then(Weak::upgrade)
            .expect("router alive while its threads run")
    }

    fn m(&self) -> Option<&ClusterMetrics> {
        self.metrics.get()
    }

    fn set_pool_gauges(&self, inner: &Inner) {
        if let Some(m) = self.m() {
            m.workers_up
                .set(inner.workers.iter().filter(|w| w.up).count() as u64);
            m.inflight.set(inner.inflight.len() as u64);
        }
    }

    /// Spawn (or respawn) worker `id`: bind the listener, launch the
    /// process, wait for `Hello`, attach its rmem segment, start its
    /// receive thread.  Serialized per worker by the `respawning` flag;
    /// a no-op when the worker is already up or being spawned.
    fn spawn_worker(&self, id: usize) -> Result<(), String> {
        let generation = {
            let mut inner = self.inner.lock();
            let ws = &mut inner.workers[id];
            if ws.up || ws.respawning {
                return Ok(());
            }
            ws.respawning = true;
            ws.generation += 1;
            ws.generation
        };
        let result = self.spawn_worker_inner(id, generation);
        if result.is_err() {
            let mut inner = self.inner.lock();
            inner.workers[id].respawning = false;
        }
        result
    }

    fn spawn_worker_inner(&self, id: usize, generation: u64) -> Result<(), String> {
        let sock = self.dir.join(format!("worker-{id}-{generation}.sock"));
        let rmem_path = self.dir.join(format!("worker-{id}-{generation}.rmem"));
        let _ = std::fs::remove_file(&sock);
        let _ = std::fs::remove_file(&rmem_path);
        let listener = WireListener::bind(&sock).map_err(|e| format!("bind {sock:?}: {e}"))?;
        let bin = self
            .cfg
            .worker_bin
            .clone()
            .or_else(locate_worker_bin)
            .ok_or("romp-worker binary not found (pass --worker-bin or set ROMP_WORKER_BIN)")?;
        let mut child = Command::new(&bin)
            .arg("--socket")
            .arg(&sock)
            .arg("--worker-id")
            .arg(id.to_string())
            .arg("--threads")
            .arg(self.cfg.worker_threads.to_string())
            .arg("--backend")
            .arg(self.cfg.backend.label())
            .arg("--rmem-path")
            .arg(&rmem_path)
            .arg("--heartbeat-ms")
            .arg(self.cfg.heartbeat_ms.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let setup = (|| -> Result<WireChan, String> {
            let chan = listener
                .accept(Duration::from_secs(10))
                .map_err(|e| format!("worker {id} never connected: {e}"))?;
            // Hello is the first packet by protocol; tolerate strays.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                let pkt = chan
                    .recv_timeout(left)
                    .map_err(|e| format!("worker {id} hello: {e}"))?;
                match ToRouter::decode(&pkt) {
                    Ok(ToRouter::Hello { .. }) => return Ok(chan),
                    Ok(_) => continue,
                    Err(e) => return Err(format!("worker {id} bad hello: {e}")),
                }
            }
        })();
        let chan = match setup {
            Ok(v) => v,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let rmem =
            match self
                .node
                .rmem_attach_file(id as u32, &rmem_path, &RmemAttributes::default())
            {
                Ok(r) => Arc::new(r),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("attach rmem {rmem_path:?}: {e}"));
                }
            };
        let chan = Arc::new(chan);
        {
            let mut inner = self.inner.lock();
            let ws = &mut inner.workers[id];
            ws.pid = pid;
            ws.child = Some(child);
            ws.chan = Some(Arc::clone(&chan));
            ws.rmem = Some(rmem);
            ws.up = true;
            ws.draining = false;
            ws.respawning = false;
            ws.last_hb = Some(Instant::now());
            ws.inflight = 0;
            self.set_pool_gauges(&inner);
        }
        self.cv.notify_all();
        let me = self.me();
        std::thread::Builder::new()
            .name(format!("cluster-rx-{id}"))
            .spawn(move || me.rx_loop(id, generation, chan))
            .map_err(|e| format!("spawn rx thread: {e}"))?;
        Ok(())
    }

    /// Per-worker receive loop: heartbeats, completions, death.
    fn rx_loop(&self, id: usize, generation: u64, chan: Arc<WireChan>) {
        let poll = Duration::from_millis(self.cfg.heartbeat_ms.max(1) * 4);
        loop {
            match chan.recv_timeout(poll) {
                Ok(pkt) => match ToRouter::decode(&pkt) {
                    Ok(ToRouter::Heartbeat {
                        executed, activity, ..
                    }) => {
                        let mut inner = self.inner.lock();
                        let ws = &mut inner.workers[id];
                        if ws.generation == generation {
                            ws.last_hb = Some(Instant::now());
                            ws.executed = executed;
                            ws.activity = activity;
                        }
                    }
                    Ok(ToRouter::Done {
                        job,
                        state,
                        ok,
                        wall_us,
                        slot,
                        len,
                        inline,
                    }) => self.handle_done(
                        id, generation, &chan, job, state, ok, wall_us, slot, len, inline,
                    ),
                    Ok(ToRouter::Hello { .. }) => {}
                    Err(e) => {
                        eprintln!(
                            "romp-cluster: worker {id} sent a bad packet ({e}); restarting it"
                        );
                        self.handle_worker_death(id, generation);
                        return;
                    }
                },
                Err(e) if e.0 == McapiStatus::Timeout => {
                    // Liveness is judged by the supervisor from
                    // `last_hb`; this thread just keeps listening while
                    // its generation is current.
                    if self.inner.lock().workers[id].generation != generation {
                        return;
                    }
                }
                Err(_) => {
                    // Channel closed: worker death (or its graceful
                    // exit, which the generation/up guard makes a no-op).
                    self.handle_worker_death(id, generation);
                    return;
                }
            }
        }
    }

    /// A worker reported a job terminal: fetch the detail (rmem slot or
    /// inline), release the slot, reconcile the terminal state against
    /// the router's own token, record it.
    #[allow(clippy::too_many_arguments)]
    fn handle_done(
        &self,
        id: usize,
        generation: u64,
        chan: &Arc<WireChan>,
        job: u64,
        wstate: JobState,
        ok: bool,
        wall_us: u64,
        slot: u32,
        len: u32,
        inline: Vec<u8>,
    ) {
        let (entry, rmem) = {
            let mut inner = self.inner.lock();
            let entry = match inner.inflight.get(&job) {
                Some(inf) if inf.worker == id && inf.generation == generation => {
                    inner.inflight.remove(&job)
                }
                _ => None,
            };
            let ws = &mut inner.workers[id];
            let rmem = ws.rmem.clone();
            if entry.is_some() {
                ws.inflight = ws.inflight.saturating_sub(1);
            }
            self.set_pool_gauges(&inner);
            (entry, rmem)
        };
        // Fetch the detail and release the slot even when the job entry
        // is stale (a retry completed elsewhere first) — the slot is
        // real either way.
        let detail = if slot == SLOT_INLINE {
            if let Some(m) = self.m() {
                m.inline_results.incr();
            }
            inline
        } else {
            self.slots_outstanding.fetch_add(1, Ordering::AcqRel);
            let mut buf = vec![0u8; len as usize];
            let read_ok = rmem
                .as_ref()
                .map(|r| {
                    r.read((slot as usize) * (SLOT_BYTES as usize), &mut buf)
                        .is_ok()
                })
                .unwrap_or(false);
            let _ = chan.send(&ToWorker::Release { slot }.encode());
            let held = self.slots_outstanding.fetch_sub(1, Ordering::AcqRel) - 1;
            if let Some(m) = self.m() {
                m.rmem_fetched.add(len as u64);
                m.slots_held.set(held.max(0) as u64);
            }
            if read_ok {
                buf
            } else {
                b"rmem read failed".to_vec()
            }
        };
        let Some(inf) = entry else { return };
        let outcome = JobOutcome {
            ok,
            wall_us,
            detail: String::from_utf8_lossy(&detail).into_owned(),
        };
        // The worker's Cancelled/TimedOut verdicts come from the very
        // token the router forwarded — trust them.  For Done/Failed,
        // re-check the token: a cancel may have fired after the worker
        // sealed its outcome.
        let (state, outcome) = match wstate {
            JobState::Cancelled | JobState::TimedOut => (wstate, outcome),
            _ => terminal_for(inf.job.cancel.reason(), outcome),
        };
        if let Some(ctx) = self.ctx.get() {
            ctx.complete(
                job,
                &inf.job.spec.label(),
                state,
                outcome,
                wall_us.saturating_mul(1000),
            );
        }
        self.cv.notify_all();
    }

    /// SIGKILL worker `id` if it is still generation `generation`.  The
    /// death itself is handled on the worker's receive thread, which sees
    /// the channel close: the watchdog and the supervisor that call this
    /// must not stall on a respawn or on re-dispatching orphans.
    fn kill_worker(&self, id: usize, generation: u64) -> bool {
        let mut inner = self.inner.lock();
        let ws = &mut inner.workers[id];
        match ws.child.as_mut() {
            Some(c) if ws.generation == generation => {
                let _ = c.kill();
                true
            }
            _ => false,
        }
    }

    /// A worker is gone (channel closed — its crash, or a kill for
    /// heartbeat silence or escalation): reap it, settle its orphaned
    /// jobs (terminal if their token fired, retried on a survivor
    /// otherwise), respawn.  Generation-guarded — stale callers return
    /// immediately.
    fn handle_worker_death(&self, id: usize, generation: u64) {
        let (child, chan, orphans) = {
            let mut inner = self.inner.lock();
            let ws = &mut inner.workers[id];
            if ws.generation != generation || !ws.up {
                return;
            }
            ws.up = false;
            ws.draining = false;
            ws.last_hb = None;
            ws.inflight = 0;
            let child = ws.child.take();
            let chan = ws.chan.take();
            ws.rmem = None;
            let ids: Vec<u64> = inner
                .inflight
                .iter()
                .filter(|(_, inf)| inf.worker == id && inf.generation == generation)
                .map(|(k, _)| *k)
                .collect();
            let orphans: Vec<Inflight> = ids
                .iter()
                .filter_map(|k| inner.inflight.remove(k))
                .collect();
            self.set_pool_gauges(&inner);
            (child, chan, orphans)
        };
        drop(chan);
        if let Some(mut c) = child {
            let _ = c.kill();
            let _ = c.wait();
        }
        if !orphans.is_empty() || !self.stop.load(Ordering::Acquire) {
            eprintln!(
                "romp-cluster: worker {id} (generation {generation}) died with {} job(s) in flight",
                orphans.len()
            );
        }
        // Respawn before settling orphans: a single-worker pool must
        // have somewhere for the retries to land.
        let stopping = self.stop.load(Ordering::Acquire);
        if !stopping {
            if let Some(m) = self.m() {
                m.restarts.incr();
            }
            if let Err(e) = self.spawn_worker(id) {
                // Leave it down; the supervisor retries every tick.
                eprintln!("romp-cluster: respawn of worker {id} failed: {e}");
            }
        }
        for mut inf in orphans {
            if inf.job.cancel.is_cancelled() {
                self.settle(&inf.job, "worker died during cancellation".into());
            } else if inf.retries < MAX_RETRIES && !stopping {
                inf.retries += 1;
                if let Some(m) = self.m() {
                    m.retries.incr();
                }
                self.dispatch_job(inf.job, inf.retries);
            } else {
                self.settle(&inf.job, format!("worker {id} died; retries exhausted"));
            }
        }
        self.cv.notify_all();
    }

    /// Complete a job that will not run (again) on any worker: its fired
    /// token decides the terminal state, otherwise it failed.  The zero
    /// exec time keeps it out of the service-time estimates.
    fn settle(&self, job: &QueuedJob, detail: String) {
        let (state, outcome) = terminal_for(
            job.cancel.reason(),
            JobOutcome {
                ok: false,
                wall_us: 0,
                detail,
            },
        );
        if let Some(ctx) = self.ctx.get() {
            ctx.complete(job.id, &job.spec.label(), state, outcome, 0);
        }
    }

    /// Place one job on a worker (called from the dispatch loop and the
    /// orphan-retry path).  Blocks while the pool is saturated; settles
    /// the job terminal if its token fires while waiting.
    fn dispatch_job(&self, job: QueuedJob, retries: u32) {
        let mut job = Some(job);
        loop {
            let j = job.as_ref().expect("job present until placed");
            if j.cancel.is_cancelled() {
                self.settle(j, "cancelled before dispatch".into());
                return;
            }
            let target = {
                let mut inner = self.inner.lock();
                match pick_worker(&inner, j.affinity) {
                    Some(i) => {
                        let generation = inner.workers[i].generation;
                        let chan = inner.workers[i]
                            .chan
                            .clone()
                            .expect("eligible worker has a channel");
                        inner.workers[i].inflight += 1;
                        let pkt = ToWorker::Dispatch {
                            job: j.id,
                            spec: j.spec,
                        }
                        .encode();
                        let placed = job.take().expect("job present until placed");
                        inner.inflight.insert(
                            placed.id,
                            Inflight {
                                worker: i,
                                generation,
                                job: placed,
                                retries,
                                cancel_sent: false,
                            },
                        );
                        self.set_pool_gauges(&inner);
                        Some((i, generation, chan, pkt))
                    }
                    None => {
                        if self.stop.load(Ordering::Acquire) {
                            self.settle(j, "cluster shutting down".into());
                            return;
                        }
                        let _ = self.cv.wait_for(&mut inner, Duration::from_millis(50));
                        None
                    }
                }
            };
            match target {
                Some((i, generation, chan, pkt)) => {
                    if chan.send(&pkt).is_ok() {
                        if let Some(m) = self.m() {
                            m.dispatched.incr();
                        }
                    } else {
                        // The death handler owns the job now (it was
                        // entered in the in-flight map): it settles or
                        // retries it.
                        self.handle_worker_death(i, generation);
                    }
                    return;
                }
                // Saturated: waited on the condvar, go pick again.
                None => continue,
            }
        }
    }

    /// Supervisor tick loop: heartbeat timeouts, cancel forwarding,
    /// downed-worker respawn retries, rolling restarts.
    fn supervisor_loop(&self) {
        let period = Duration::from_millis(self.cfg.heartbeat_ms.max(1));
        let dead_after = period * (self.cfg.heartbeat_misses.max(1) as u32);
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(period);
            let mut deaths: Vec<(usize, u64)> = Vec::new();
            let mut respawns: Vec<usize> = Vec::new();
            let mut cancels: Vec<(u64, bool, Arc<WireChan>)> = Vec::new();
            {
                let mut inner = self.inner.lock();
                for (i, ws) in inner.workers.iter().enumerate() {
                    if ws.up {
                        if let Some(hb) = ws.last_hb {
                            if hb.elapsed() > dead_after {
                                deaths.push((i, ws.generation));
                            }
                        }
                    } else if !ws.respawning {
                        respawns.push(i);
                    }
                }
                let pending: Vec<(u64, usize, bool)> = inner
                    .inflight
                    .iter()
                    .filter(|(_, inf)| !inf.cancel_sent)
                    .filter_map(|(id, inf)| {
                        inf.job
                            .cancel
                            .reason()
                            .map(|r| (*id, inf.worker, matches!(r, romp::CancelReason::Deadline)))
                    })
                    .collect();
                for (jid, w, deadline) in pending {
                    if let Some(chan) = inner.workers[w].chan.clone() {
                        if let Some(inf) = inner.inflight.get_mut(&jid) {
                            inf.cancel_sent = true;
                        }
                        cancels.push((jid, deadline, chan));
                    }
                }
            }
            for (jid, deadline, chan) in cancels {
                let _ = chan.send(&ToWorker::Cancel { job: jid, deadline }.encode());
            }
            for (i, generation) in deaths {
                if self.kill_worker(i, generation) {
                    eprintln!("romp-cluster: worker {i} heartbeat lost; killing it");
                }
            }
            for i in respawns {
                if self.stop.load(Ordering::Acquire) {
                    break;
                }
                if let Err(e) = self.spawn_worker(i) {
                    eprintln!("romp-cluster: respawn of worker {i} failed: {e}");
                }
            }
            if self.restart_requested.swap(false, Ordering::AcqRel) {
                self.rolling_restart_now();
            }
        }
    }

    /// Cycle every worker, one at a time: drain, graceful `Exit`, reap,
    /// respawn.  Runs on the supervisor thread.
    fn rolling_restart_now(&self) {
        let n = { self.inner.lock().workers.len() };
        for id in 0..n {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            {
                let mut inner = self.inner.lock();
                let ws = &mut inner.workers[id];
                if !ws.up {
                    continue;
                }
                ws.draining = true;
            }
            // Wait out the worker's in-flight jobs (new dispatches avoid
            // a draining worker).
            loop {
                let (busy, up) = {
                    let inner = self.inner.lock();
                    (
                        inner.inflight.values().any(|inf| inf.worker == id),
                        inner.workers[id].up,
                    )
                };
                if !busy || !up || self.stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let (child, chan) = {
                let mut inner = self.inner.lock();
                let ws = &mut inner.workers[id];
                if !ws.up {
                    continue;
                }
                ws.up = false;
                ws.draining = false;
                ws.last_hb = None;
                ws.rmem = None;
                (ws.child.take(), ws.chan.take())
            };
            if let Some(ch) = &chan {
                let _ = ch.send(&ToWorker::Exit.encode());
            }
            drop(chan);
            if let Some(mut c) = child {
                reap_with_timeout(&mut c, Duration::from_secs(5));
            }
            if let Some(m) = self.m() {
                m.restarts.incr();
            }
            {
                let mut inner = self.inner.lock();
                inner.workers[id].restarts += 1;
                self.set_pool_gauges(&inner);
            }
            if let Err(e) = self.spawn_worker(id) {
                eprintln!("romp-cluster: rolling restart of worker {id} failed: {e}");
            }
        }
    }

    /// Final drain: wait for the in-flight map to empty, stop the
    /// supervisor, `Exit` every worker, reap, clean the directory.
    fn drain(&self) {
        {
            let mut inner = self.inner.lock();
            while !inner.inflight.is_empty() {
                let _ = self.cv.wait_for(&mut inner, Duration::from_millis(100));
            }
        }
        self.stop.store(true, Ordering::Release);
        self.cv.notify_all();
        let teardown: Vec<(Option<Child>, Option<Arc<WireChan>>)> = {
            let mut inner = self.inner.lock();
            inner
                .workers
                .iter_mut()
                .map(|ws| {
                    ws.up = false;
                    ws.rmem = None;
                    (ws.child.take(), ws.chan.take())
                })
                .collect()
        };
        for (child, chan) in teardown {
            if let Some(ch) = &chan {
                let _ = ch.send(&ToWorker::Exit.encode());
            }
            drop(chan);
            if let Some(mut c) = child {
                reap_with_timeout(&mut c, Duration::from_secs(5));
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Dispatch for Router {
    fn run(&self, ctx: DispatchCtx) {
        if self.ctx.set(ctx.clone()).is_err() {
            return; // a Router runs once
        }
        let reg = ctx.runtime();
        let reg = reg.tracer().metrics();
        let _ = self.metrics.set(ClusterMetrics {
            dispatched: reg.counter("cluster.dispatched"),
            retries: reg.counter("cluster.retries"),
            restarts: reg.counter("cluster.restarts"),
            escalations: reg.counter("cluster.escalations"),
            inline_results: reg.counter("cluster.rmem.inline"),
            rmem_fetched: reg.counter("cluster.rmem.bytes_fetched"),
            workers_up: reg.gauge("cluster.workers_up"),
            inflight: reg.gauge("cluster.inflight"),
            slots_held: reg.gauge("cluster.rmem.slots_held"),
        });
        let n = self.cfg.workers.max(1);
        for id in 0..n {
            if let Err(e) = self.spawn_worker(id) {
                eprintln!("romp-cluster: worker {id} failed to start: {e}");
            }
        }
        let me = self.me();
        let supervisor = std::thread::Builder::new()
            .name("cluster-supervisor".into())
            .spawn(move || me.supervisor_loop())
            .expect("spawn supervisor");
        while let Some(qjob) = ctx.pop() {
            self.dispatch_job(qjob, 0);
        }
        self.drain();
        let _ = supervisor.join();
    }

    fn escalate(&self, job: u64) -> bool {
        let target = {
            let inner = self.inner.lock();
            inner
                .inflight
                .get(&job)
                .map(|inf| (inf.worker, inf.generation))
        };
        let Some((w, generation)) = target else {
            return false;
        };
        if !self.kill_worker(w, generation) {
            return false;
        }
        if let Some(m) = self.m() {
            m.escalations.incr();
        }
        eprintln!("romp-cluster: job {job} unresponsive to cancellation; killing worker {w}");
        true
    }

    /// Each in-flight job with its worker's last reported activity.
    fn job_activity(&self) -> Vec<(u64, u64)> {
        let inner = self.inner.lock();
        inner
            .inflight
            .iter()
            .map(|(&job, inf)| (job, inner.workers[inf.worker].activity))
            .collect()
    }

    fn rolling_restart(&self) -> Option<u64> {
        let n = { self.inner.lock().workers.len() as u64 };
        self.restart_requested.store(true, Ordering::Release);
        Some(n)
    }

    fn stats_json(&self) -> Option<String> {
        let inner = self.inner.lock();
        let workers: Vec<String> = inner
            .workers
            .iter()
            .enumerate()
            .map(|(i, ws)| {
                format!(
                    "{{\"id\":{i},\"up\":{},\"pid\":{},\"generation\":{},\"inflight\":{},\"executed\":{},\"restarts\":{}}}",
                    ws.up, ws.pid, ws.generation, ws.inflight, ws.executed, ws.restarts
                )
            })
            .collect();
        Some(format!(
            "{{\"workers\":[{}],\"dispatched\":{},\"retries\":{},\"restarts\":{},\"escalations\":{},\"inline_results\":{},\"rmem_fetched_bytes\":{},\"dir\":\"{}\"}}",
            workers.join(","),
            self.count("cluster.dispatched"),
            self.count("cluster.retries"),
            self.count("cluster.restarts"),
            self.count("cluster.escalations"),
            self.count("cluster.rmem.inline"),
            self.count("cluster.rmem.bytes_fetched"),
            json_escape(&self.dir.display().to_string()),
        ))
    }

    fn rmem_leaked(&self) -> u64 {
        self.slots_outstanding.load(Ordering::Acquire).max(0) as u64
    }
}

/// Choose a dispatch target: the affinity-preferred worker (the key's
/// [`mix64`] placement, as for runtime shards) when it is eligible (up,
/// not draining, has window), else the least-loaded eligible worker.
/// `None` when the pool is saturated or empty.
fn pick_worker(inner: &Inner, affinity: u64) -> Option<usize> {
    let eligible = |ws: &WorkerSlot| {
        ws.up && !ws.draining && ws.chan.is_some() && ws.inflight < INFLIGHT_PER_WORKER
    };
    let n = inner.workers.len();
    if affinity != 0 {
        let pref = (mix64(affinity) % n as u64) as usize;
        if eligible(&inner.workers[pref]) {
            return Some(pref);
        }
    }
    inner
        .workers
        .iter()
        .enumerate()
        .filter(|(_, ws)| eligible(ws))
        .min_by_key(|(i, ws)| (ws.inflight, *i))
        .map(|(i, _)| i)
}

/// Find `romp-worker` next to the current executable (cargo puts all
/// workspace binaries in the same target directory), or take
/// `$ROMP_WORKER_BIN`.
pub fn locate_worker_bin() -> Option<PathBuf> {
    if let Some(p) = std::env::var_os("ROMP_WORKER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for d in [dir, dir.parent().unwrap_or(dir)] {
        let cand = d.join("romp-worker");
        if cand.is_file() {
            return Some(cand);
        }
    }
    None
}

/// Wait for a child with a timeout, then SIGKILL it.
fn reap_with_timeout(child: &mut Child, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::AtomicUsize;

    static SOCK_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn pool(states: &[(bool, bool, u32)]) -> Inner {
        Inner {
            workers: states
                .iter()
                .map(|&(up, draining, inflight)| {
                    let mut ws = WorkerSlot::new();
                    ws.up = up;
                    ws.draining = draining;
                    ws.inflight = inflight;
                    ws
                })
                .collect(),
            inflight: HashMap::new(),
        }
    }

    // pick_worker requires chan.is_some(); build a loopback pair per
    // live worker (the tests never send on it).
    fn with_chans(mut inner: Inner) -> Inner {
        let dir = std::env::temp_dir().join(format!("romp-cluster-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for ws in inner.workers.iter_mut() {
            if ws.up {
                let seq = SOCK_SEQ.fetch_add(1, Ordering::Relaxed);
                let sock = dir.join(format!("pick-{seq}.sock"));
                let _ = std::fs::remove_file(&sock);
                let listener = WireListener::bind(&sock).unwrap();
                let client = std::thread::spawn({
                    let sock = sock.clone();
                    move || WireChan::connect(&sock, Duration::from_secs(5))
                });
                let server = listener.accept(Duration::from_secs(5)).unwrap();
                let _ = client.join().unwrap();
                ws.chan = Some(Arc::new(server));
                let _ = std::fs::remove_file(&sock);
            }
        }
        inner
    }

    #[test]
    fn pick_prefers_least_loaded_eligible() {
        let inner = with_chans(pool(&[
            (true, false, 2),
            (true, false, 0),
            (false, false, 0),
        ]));
        assert_eq!(pick_worker(&inner, 0), Some(1));
    }

    #[test]
    fn pick_skips_draining_and_saturated() {
        let inner = with_chans(pool(&[(true, true, 0), (true, false, 2)]));
        assert_eq!(pick_worker(&inner, 0), None);
    }

    #[test]
    fn affinity_is_stable_and_falls_back() {
        let inner = with_chans(pool(&[(true, false, 0), (true, false, 0)]));
        let key = 0xFEED_F00Du64;
        let first = pick_worker(&inner, key).unwrap();
        for _ in 0..10 {
            assert_eq!(pick_worker(&inner, key), Some(first));
        }
        // Saturate the preferred worker: the key falls back to the other.
        let mut inner = inner;
        inner.workers[first].inflight = INFLIGHT_PER_WORKER;
        let other = pick_worker(&inner, key).unwrap();
        assert_ne!(other, first);
    }
}
