//! The router: the [`romp_serve::Dispatch`] executors for a pool of N
//! supervised worker **processes**, reached over MCAPI wire channels,
//! with results fetched through each worker's file-backed MRAPI rmem
//! segment.
//!
//! Where a job goes, when it is retried and which worker the watchdog
//! escalates against are the server's one
//! [`romp_serve::dispatcher::Dispatcher`]'s decisions (DESIGN.md §5.10);
//! the router carries them out and reports back through the
//! [`DispatchCtx`].  What it keeps is the process side (DESIGN.md
//! §5.12):
//!
//! * **start / cancel / escalate** — a `Dispatch` or `Cancel` packet on
//!   the worker's channel; escalation SIGKILLs the worker;
//! * **heartbeats** — every worker heartbeats on its channel with its
//!   runtime's activity counter, which the receive thread reports as the
//!   progress of the jobs on that worker;
//! * **death** — a worker dies when its channel reports the typed
//!   `MCAPI_ERR_CHAN_CLOSED`, and its receive thread handles it: report
//!   the worker down (the dispatcher retries or settles its jobs), reap,
//!   respawn with a bumped generation.  The supervisor (after
//!   `heartbeat_misses` silent periods) and escalation only SIGKILL the
//!   process, so neither stalls on a respawn; stale receive threads and
//!   late packets from an old incarnation are ignored by generation;
//! * **rmem results** — `Done` names a result slot, which the receive
//!   thread reads and releases back to the worker;
//! * **rolling restart** — an operator `Restart` cycles workers one at a
//!   time: retire (no new placements), wait until it holds no job,
//!   graceful `Exit`, respawn — zero lost jobs by construction.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mca_mcapi::{McapiStatus, WireChan, WireListener};
use mca_mrapi::{DomainId, MrapiSystem, Node, NodeId, RmemAttributes, RmemHandle};
use mca_sync::Mutex;
use romp::BackendKind;
use romp_serve::{Dispatch, DispatchCtx, JobOutcome, QueuedJob};
use romp_trace::json_escape;

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

/// Dispatch window per worker: jobs in flight before the dispatcher
/// holds further placements back.
const INFLIGHT_PER_WORKER: u32 = 2;

/// One worker process as the router sees it.
#[derive(Default)]
struct WorkerSlot {
    /// Bumped on every (re)spawn; packets and threads from older
    /// generations are ignored.
    generation: u64,
    pid: u32,
    child: Option<Child>,
    chan: Option<Arc<WireChan>>,
    rmem: Option<Arc<RmemHandle>>,
    up: bool,
    /// A spawn attempt is in progress (serializes respawners).
    respawning: bool,
    last_hb: Option<Instant>,
    /// MTAPI tasks executed, from the last heartbeat.
    executed: u64,
    restarts: u64,
}

/// The `cluster.*` counters and gauges, registered when the router
/// opens (so they read 0 rather than missing).
const COUNTERS: [&str; 6] = [
    "cluster.dispatched",
    "cluster.retries",
    "cluster.restarts",
    "cluster.escalations",
    "cluster.rmem.inline",
    "cluster.rmem.bytes_fetched",
];
const GAUGES: [&str; 3] = [
    "cluster.workers_up",
    "cluster.inflight",
    "cluster.rmem.slots_held",
];

/// The multi-process executors (see the module docs).  Constructed with
/// [`Router::new`], handed to
/// [`romp_serve::Server::start_with_dispatch`] as an `Arc<dyn
/// Dispatch>`; the workers and the supervisor start in
/// [`Dispatch::open`].
pub struct Router {
    cfg: ClusterConfig,
    dir: PathBuf,
    /// MRAPI node used to attach workers' file-backed rmem segments.
    node: Node,
    /// Keeps the node's domain registry alive.
    _sys: MrapiSystem,
    workers: Mutex<Vec<WorkerSlot>>,
    ctx: OnceLock<DispatchCtx>,
    me: Weak<Router>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    stop: AtomicBool,
    restart_requested: AtomicBool,
    /// rmem slots received in `Done` and not yet released back — the
    /// drain report's leak detector.
    slots_outstanding: AtomicI64,
}

impl Router {
    /// Build a router (no processes spawned yet — that happens when the
    /// server calls [`Dispatch::open`]).  Creates the socket/rmem
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
        let workers = (0..cfg.workers.max(1))
            .map(|_| WorkerSlot::default())
            .collect();
        Ok(Arc::new_cyclic(|me| Router {
            cfg,
            dir,
            node,
            _sys: sys,
            workers: Mutex::new(workers),
            ctx: OnceLock::new(),
            me: me.clone(),
            supervisor: Mutex::new(None),
            stop: AtomicBool::new(false),
            restart_requested: AtomicBool::new(false),
            slots_outstanding: AtomicI64::new(0),
        }))
    }

    /// Number of workers currently up (test hook).
    pub fn workers_up(&self) -> usize {
        self.workers.lock().iter().filter(|w| w.up).count()
    }

    /// OS pids of the live workers, by worker index (test hook: the
    /// chaos test's SIGKILL target).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.workers
            .lock()
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
    /// the router's counts; 0 until [`Dispatch::open`] registers them.
    fn count(&self, name: &str) -> u64 {
        self.ctx.get().map_or(0, |ctx| {
            ctx.runtime().tracer().metrics().counter(name).get()
        })
    }

    /// Add `n` to the `cluster.*` counter `name`.
    fn bump(&self, name: &str, n: u64) {
        if let Some(ctx) = self.ctx.get() {
            ctx.runtime().tracer().metrics().counter(name).add(n);
        }
    }

    fn me(&self) -> Arc<Router> {
        self.me
            .upgrade()
            .expect("router alive while its threads run")
    }

    fn ctx(&self) -> &DispatchCtx {
        self.ctx.get().expect("the server opened the router")
    }

    /// Set the `cluster.*` gauge `name`.
    fn gauge(&self, name: &str, v: u64) {
        if let Some(ctx) = self.ctx.get() {
            ctx.runtime().tracer().metrics().gauge(name).set(v);
        }
    }

    fn set_pool_gauges(&self) {
        if let Some(ctx) = self.ctx.get() {
            self.gauge("cluster.workers_up", self.workers_up() as u64);
            self.gauge("cluster.inflight", ctx.drive(|d, _| d.inflight()) as u64);
        }
    }

    /// Worker `id`'s channel, if generation `generation` is still up.
    fn chan(&self, id: usize, generation: u64) -> Option<Arc<WireChan>> {
        let workers = self.workers.lock();
        let ws = &workers[id];
        (ws.up && ws.generation == generation)
            .then(|| ws.chan.clone())
            .flatten()
    }

    /// Spawn (or respawn) worker `id`: bind the listener, launch the
    /// process, wait for `Hello`, attach its rmem segment, start its
    /// receive thread, and report it up.  Serialized per worker by the
    /// `respawning` flag; a no-op when the worker is already up or being
    /// spawned.
    fn spawn_worker(&self, id: usize) -> Result<(), String> {
        let generation = {
            let mut workers = self.workers.lock();
            let ws = &mut workers[id];
            if ws.up || ws.respawning {
                return Ok(());
            }
            ws.respawning = true;
            ws.generation += 1;
            ws.generation
        };
        let result = self.spawn_worker_inner(id, generation);
        if result.is_err() {
            self.workers.lock()[id].respawning = false;
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
        let setup = (|| -> Result<(WireChan, RmemHandle), String> {
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
                    Ok(ToRouter::Hello { .. }) => break,
                    Ok(_) => continue,
                    Err(e) => return Err(format!("worker {id} bad hello: {e}")),
                }
            }
            let attrs = RmemAttributes::default();
            let rmem = (self.node.rmem_attach_file(id as u32, &rmem_path, &attrs))
                .map_err(|e| format!("attach rmem {rmem_path:?}: {e}"))?;
            Ok((chan, rmem))
        })();
        let (chan, rmem) = match setup {
            Ok(v) => v,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let chan = Arc::new(chan);
        {
            let mut workers = self.workers.lock();
            let ws = &mut workers[id];
            ws.pid = pid;
            ws.child = Some(child);
            ws.chan = Some(Arc::clone(&chan));
            ws.rmem = Some(Arc::new(rmem));
            ws.up = true;
            ws.respawning = false;
            ws.last_hb = Some(Instant::now());
        }
        let me = self.me();
        std::thread::Builder::new()
            .name(format!("cluster-rx-{id}"))
            .spawn(move || me.rx_loop(id, generation, chan))
            .map_err(|e| format!("spawn rx thread: {e}"))?;
        self.ctx().drive(|d, core| d.up(core, id, generation));
        self.set_pool_gauges();
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
                        {
                            let mut workers = self.workers.lock();
                            let ws = &mut workers[id];
                            if ws.generation == generation {
                                ws.last_hb = Some(Instant::now());
                                ws.executed = executed;
                            }
                        }
                        self.ctx()
                            .drive(|d, _| d.activity(id, generation, activity));
                    }
                    Ok(ToRouter::Done {
                        job,
                        state,
                        ok,
                        wall_us,
                        slot,
                        len,
                        inline,
                    }) => {
                        let detail = self.fetch_detail(id, &chan, slot, len, inline);
                        let outcome = JobOutcome {
                            ok,
                            wall_us,
                            detail: String::from_utf8_lossy(&detail).into_owned(),
                        };
                        let exec_ns = wall_us.saturating_mul(1000);
                        self.ctx().drive(|d, core| {
                            d.finished(core, id, generation, job, state, outcome, exec_ns)
                        });
                        self.set_pool_gauges();
                    }
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
                    if self.workers.lock()[id].generation != generation {
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

    /// A `Done`'s result detail: inline, or read from the worker's rmem
    /// slot, which is released back to the worker either way — even when
    /// the job itself is stale (a retry completed elsewhere first).
    fn fetch_detail(
        &self,
        id: usize,
        chan: &WireChan,
        slot: u32,
        len: u32,
        inline: Vec<u8>,
    ) -> Vec<u8> {
        if slot == SLOT_INLINE {
            self.bump("cluster.rmem.inline", 1);
            return inline;
        }
        let rmem = self.workers.lock()[id].rmem.clone();
        self.slots_outstanding.fetch_add(1, Ordering::AcqRel);
        let mut buf = vec![0u8; len as usize];
        let read_ok = rmem.is_some_and(|r| {
            r.read((slot as usize) * (SLOT_BYTES as usize), &mut buf)
                .is_ok()
        });
        let _ = chan.send(&ToWorker::Release { slot }.encode());
        let held = self.slots_outstanding.fetch_sub(1, Ordering::AcqRel) - 1;
        self.bump("cluster.rmem.bytes_fetched", len as u64);
        self.gauge("cluster.rmem.slots_held", held.max(0) as u64);
        if read_ok {
            buf
        } else {
            b"rmem read failed".to_vec()
        }
    }

    /// SIGKILL worker `id` if it is still generation `generation`.  The
    /// death itself is handled on the worker's receive thread, which sees
    /// the channel close: the watchdog and the supervisor that call this
    /// must not stall on a respawn.
    fn kill_worker(&self, id: usize, generation: u64) -> bool {
        let mut workers = self.workers.lock();
        let ws = &mut workers[id];
        match ws.child.as_mut() {
            Some(c) if ws.generation == generation => {
                let _ = c.kill();
                true
            }
            _ => false,
        }
    }

    /// Take worker `id` out of service if it is still generation
    /// `generation`: mark it down, report it down to the dispatcher
    /// (which retries or settles its jobs), and hand back the orphan
    /// count, its process and its channel.
    fn take_down(&self, id: usize, generation: u64) -> Option<(usize, Child, Arc<WireChan>)> {
        let (child, chan) = {
            let mut workers = self.workers.lock();
            let ws = &mut workers[id];
            if ws.generation != generation || !ws.up {
                return None;
            }
            (ws.up, ws.last_hb, ws.rmem) = (false, None, None);
            (ws.child.take()?, ws.chan.take()?)
        };
        let (orphans, retried) = self.ctx().drive(|d, core| d.down(core, id, generation));
        self.bump("cluster.retries", retried as u64);
        Some((orphans, child, chan))
    }

    /// A worker is gone (channel closed — its crash, or a kill for
    /// heartbeat silence or escalation): take it down, reap it, respawn.
    /// Generation-guarded — stale callers return immediately.
    fn handle_worker_death(&self, id: usize, generation: u64) {
        let Some((orphans, mut child, _)) = self.take_down(id, generation) else {
            return;
        };
        let _ = child.kill();
        let _ = child.wait();
        let stopping = self.stop.load(Ordering::Acquire);
        if orphans > 0 || !stopping {
            eprintln!(
                "romp-cluster: worker {id} (generation {generation}) died with {orphans} job(s) in flight"
            );
        }
        if !stopping {
            self.bump("cluster.restarts", 1);
            if let Err(e) = self.spawn_worker(id) {
                // Leave it down; the supervisor retries every tick.
                eprintln!("romp-cluster: respawn of worker {id} failed: {e}");
            }
        }
        self.set_pool_gauges();
    }

    /// Supervisor tick loop: heartbeat timeouts, downed-worker respawn
    /// retries, rolling restarts.
    fn supervisor_loop(&self) {
        let period = Duration::from_millis(self.cfg.heartbeat_ms.max(1));
        let dead_after = period * (self.cfg.heartbeat_misses.max(1) as u32);
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(period);
            for i in 0..self.shape().0 {
                let (up, generation, silent) = {
                    let ws = &self.workers.lock()[i];
                    let silent = ws.last_hb.is_some_and(|hb| hb.elapsed() > dead_after);
                    (ws.up, ws.generation, silent)
                };
                if up && silent && self.kill_worker(i, generation) {
                    eprintln!("romp-cluster: worker {i} heartbeat lost; killing it");
                } else if !up && !self.stop.load(Ordering::Acquire) {
                    // A no-op while a respawn is already in progress.
                    if let Err(e) = self.spawn_worker(i) {
                        eprintln!("romp-cluster: respawn of worker {i} failed: {e}");
                    }
                }
            }
            if self.restart_requested.swap(false, Ordering::AcqRel) {
                self.rolling_restart_now();
            }
        }
    }

    /// Cycle every worker, one at a time: retire it, wait until it holds
    /// no job, graceful `Exit`, reap, respawn.  Runs on the supervisor
    /// thread.
    fn rolling_restart_now(&self) {
        let n = self.workers.lock().len();
        for id in 0..n {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let generation = {
                let workers = self.workers.lock();
                if !workers[id].up {
                    continue;
                }
                workers[id].generation
            };
            self.ctx().drive(|d, _| d.retire(id));
            // A death meanwhile empties it too (and `take_down` then
            // skips it).
            self.ctx().wait(|d| d.load(id) == 0);
            let Some((_, child, chan)) = self.take_down(id, generation) else {
                continue;
            };
            self.workers.lock()[id].restarts += 1;
            exit_worker(child, &chan);
            self.bump("cluster.restarts", 1);
            if let Err(e) = self.spawn_worker(id) {
                eprintln!("romp-cluster: rolling restart of worker {id} failed: {e}");
            }
            self.set_pool_gauges();
        }
    }
}

impl Dispatch for Router {
    fn shape(&self) -> (usize, u32) {
        (self.cfg.workers.max(1), INFLIGHT_PER_WORKER)
    }

    /// Register the `cluster.*` metrics, spawn every worker, start the
    /// supervisor.
    fn open(&self, ctx: &DispatchCtx) {
        if self.ctx.set(ctx.clone()).is_err() {
            return; // a Router opens once
        }
        let rt = ctx.runtime();
        let reg = rt.tracer().metrics();
        let _ = (
            COUNTERS.map(|n| reg.counter(n)),
            GAUGES.map(|n| reg.gauge(n)),
        );
        for id in 0..self.shape().0 {
            if let Err(e) = self.spawn_worker(id) {
                eprintln!("romp-cluster: worker {id} failed to start: {e}");
            }
        }
        let me = self.me();
        let supervisor = std::thread::Builder::new()
            .name("cluster-supervisor".into())
            .spawn(move || me.supervisor_loop())
            .expect("spawn supervisor");
        *self.supervisor.lock() = Some(supervisor);
    }

    /// Send the job to its worker.  A failed send means the worker is
    /// dying: kill it, and its death hands the job back to the
    /// dispatcher.
    fn start(&self, _ctx: &DispatchCtx, exec: usize, gen: u64, job: &QueuedJob) {
        let pkt = ToWorker::Dispatch {
            job: job.id,
            spec: job.spec,
        }
        .encode();
        if self.chan(exec, gen).is_some_and(|c| c.send(&pkt).is_ok()) {
            self.bump("cluster.dispatched", 1);
        } else {
            self.kill_worker(exec, gen);
        }
        self.set_pool_gauges();
    }

    fn cancel(&self, exec: usize, gen: u64, job: u64, deadline: bool) {
        if let Some(chan) = self.chan(exec, gen) {
            let _ = chan.send(&ToWorker::Cancel { job, deadline }.encode());
        }
    }

    fn escalate(&self, exec: usize, gen: u64, job: u64) -> bool {
        if !self.kill_worker(exec, gen) {
            return false;
        }
        self.bump("cluster.escalations", 1);
        eprintln!("romp-cluster: job {job} unresponsive to cancellation; killing worker {exec}");
        true
    }

    /// Stop the supervisor, `Exit` every worker, reap, clean the
    /// directory.
    fn close(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.supervisor.lock().take() {
            let _ = h.join();
        }
        let teardown: Vec<_> = self
            .workers
            .lock()
            .iter_mut()
            .filter_map(|ws| {
                (ws.up, ws.rmem) = (false, None);
                Some((ws.child.take()?, ws.chan.take()?))
            })
            .collect();
        for (child, chan) in teardown {
            exit_worker(child, &chan);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn rolling_restart(&self) -> Option<u64> {
        let n = self.workers.lock().len() as u64;
        self.restart_requested.store(true, Ordering::Release);
        Some(n)
    }

    fn stats_json(&self) -> Option<String> {
        let loads: Vec<u32> = self.ctx.get().map_or_else(Vec::new, |ctx| {
            ctx.drive(|d, _| (0..self.shape().0).map(|i| d.load(i)).collect())
        });
        let workers: Vec<String> = self
            .workers
            .lock()
            .iter()
            .enumerate()
            .map(|(i, ws)| {
                format!(
                    "{{\"id\":{i},\"up\":{},\"pid\":{},\"generation\":{},\"inflight\":{},\"executed\":{},\"restarts\":{}}}",
                    ws.up,
                    ws.pid,
                    ws.generation,
                    loads.get(i).copied().unwrap_or(0),
                    ws.executed,
                    ws.restarts
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

/// Ask a worker to exit gracefully and reap it; SIGKILL it if it has not
/// exited within 5 s.
fn exit_worker(mut child: Child, chan: &WireChan) {
    let _ = chan.send(&ToWorker::Exit.encode());
    let deadline = Instant::now() + Duration::from_secs(5);
    while matches!(child.try_wait(), Ok(None)) {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
