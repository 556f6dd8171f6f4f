//! The worker process: one MRAPI node running one `romp` runtime,
//! executing jobs the router dispatches over the MCAPI wire.
//!
//! Lifecycle: connect to the router's Unix socket ([`mca_mcapi::WireChan`]),
//! create the file-backed rmem result segment, send `Hello`, then serve
//! `Dispatch`/`Cancel`/`Release` messages until `Exit` (graceful — waits
//! for in-flight jobs, deletes the segment) or the channel dies (the
//! router is gone; exit immediately, the OS reclaims everything).
//!
//! Inside the process the dispatch vocabulary is MTAPI: the romp job is
//! action `JOB_RUN_SPEC` on the worker's [`Mtapi`] runtime, started as
//! one task per `Dispatch` with the packet itself as the task's input.
//! The action decodes it, runs the job, writes the result detail into an
//! rmem slot (or inline when no slot fits) and answers `Done` itself.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mca_mcapi::WireChan;
use mca_mrapi::{DomainId, MrapiSystem, NodeId, RmemAttributes, RmemHandle};
use mca_mtapi::Mtapi;
use mca_sync::park::{EventCount, SpinBudget};
use mca_sync::Mutex;
use romp::{BackendKind, CancelToken, Config, Runtime};
use romp_serve::job::run_guarded;
use romp_serve::{JobOutcome, JobState};

use crate::proto::{ToRouter, ToWorker, SLOTS, SLOT_BYTES, SLOT_INLINE};

/// The MTAPI job id carrying "run a romp job spec".
pub const JOB_RUN_SPEC: u32 = 1;

/// The MRAPI domain all cluster workers initialize into.
pub const CLUSTER_DOMAIN: u32 = 7;

/// Worker construction parameters (parsed from `romp-worker` flags).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The router's Unix-socket path to connect to.
    pub socket: PathBuf,
    /// This worker's index in the pool (also its MRAPI node id).
    pub worker_id: u32,
    /// romp pool threads for job execution.
    pub threads: usize,
    /// Which romp backend to run jobs on.
    pub backend: BackendKind,
    /// Path of the file backing the rmem result segment.
    pub rmem_path: PathBuf,
    /// Heartbeat period, milliseconds.
    pub heartbeat_ms: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            socket: PathBuf::new(),
            worker_id: 0,
            threads: 2,
            backend: BackendKind::Native,
            rmem_path: PathBuf::new(),
            heartbeat_ms: 25,
        }
    }
}

/// What the MTAPI action needs to run a job and answer for it; shared
/// with the control loop, which registers and cancels jobs and returns
/// released slots.
struct Exec {
    rt: Runtime,
    chan: Arc<WireChan>,
    rmem: RmemHandle,
    /// In-flight jobs: each one's cancel token and the instant its
    /// `Dispatch` arrived (the start of the `Done.wall_us` span).
    jobs: Mutex<HashMap<u64, (CancelToken, Instant)>>,
    /// Notified each time a job leaves `jobs` (the graceful exit's wait).
    retired: EventCount,
    /// Free result slots (indices into the rmem segment).
    free_slots: Mutex<Vec<u32>>,
}

impl Exec {
    /// The MTAPI action body: run the job of one `Dispatch` packet and
    /// answer `Done`.  The action's own output is unused.
    fn run(&self, dispatch: &[u8]) -> Vec<u8> {
        // The control loop starts a task only for a packet it decoded
        // as a `Dispatch` and registered.
        let Ok(ToWorker::Dispatch { job, spec }) = ToWorker::decode(dispatch) else {
            return Vec::new();
        };
        let (token, received) = self.jobs.lock()[&job].clone();
        let (state, outcome) = run_guarded(&self.rt, &spec, &token, 0);
        self.send_done(job, state, outcome, received);
        Vec::new()
    }

    /// Answer `Done` for `job` — the detail in an rmem slot when one
    /// fits, else inline — and retire the job.  A send error means the
    /// router is gone: nothing left to serve.
    fn send_done(&self, job: u64, state: JobState, outcome: JobOutcome, received: Instant) {
        let detail = outcome.detail.into_bytes();
        let slot = place_detail(&self.rmem, &self.free_slots, &detail);
        let msg = ToRouter::Done {
            job,
            state,
            ok: outcome.ok,
            wall_us: received.elapsed().as_micros() as u64,
            slot,
            len: detail.len() as u32,
            inline: if slot == SLOT_INLINE {
                detail
            } else {
                Vec::new()
            },
        };
        let sent = self.chan.send(&msg.encode());
        self.jobs.lock().remove(&job);
        self.retired.notify_all();
        if sent.is_err() {
            std::process::exit(3);
        }
    }
}

/// Put a job's result detail in a free rmem slot (the zero-copy path)
/// and return the slot; [`SLOT_INLINE`] when the detail outgrows a slot,
/// no slot is free, or the write fails — a failed write returns its slot
/// to the free list.
fn place_detail(rmem: &RmemHandle, free_slots: &Mutex<Vec<u32>>, detail: &[u8]) -> u32 {
    if detail.len() > SLOT_BYTES as usize {
        return SLOT_INLINE;
    }
    let Some(slot) = free_slots.lock().pop() else {
        return SLOT_INLINE;
    };
    if rmem
        .write(slot as usize * SLOT_BYTES as usize, detail)
        .is_ok()
    {
        slot
    } else {
        free_slots.lock().push(slot);
        SLOT_INLINE
    }
}

/// Worker process body.  Returns the process exit code: `0` after a
/// graceful `Exit`, non-zero when the router vanished or setup failed.
pub fn run_worker(cfg: WorkerConfig) -> i32 {
    let chan = match WireChan::connect(&cfg.socket, Duration::from_secs(5)) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            eprintln!("romp-worker[{}]: connect failed: {e}", cfg.worker_id);
            return 2;
        }
    };

    // MRAPI node + the file-backed result segment the router attaches.
    let sys = MrapiSystem::new_t4240();
    let node = match sys.initialize(DomainId(CLUSTER_DOMAIN), NodeId(cfg.worker_id)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("romp-worker[{}]: mrapi init failed: {e}", cfg.worker_id);
            return 2;
        }
    };
    let rmem = match node.rmem_create_file(
        cfg.worker_id,
        &cfg.rmem_path,
        SLOTS as usize * SLOT_BYTES as usize,
        &RmemAttributes::default(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("romp-worker[{}]: rmem create failed: {e}", cfg.worker_id);
            return 2;
        }
    };

    // The romp runtime every job executes on (this process's pool).
    let rt = match Runtime::with_config(
        Config::from_env()
            .with_backend(cfg.backend)
            .with_num_threads(cfg.threads.max(1)),
    ) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("romp-worker[{}]: runtime failed: {e}", cfg.worker_id);
            return 2;
        }
    };

    // MTAPI: the remote-dispatch vocabulary.  One action — "run a romp
    // job spec" — executed by the MTAPI pool (1 worker: jobs already
    // parallelize internally through the romp pool, and the runtime
    // holds one armed cancel token at a time, so jobs run one after
    // another).
    let mtapi = match Mtapi::initialize(CLUSTER_DOMAIN, cfg.worker_id, 1) {
        Ok(m) => Arc::new(m),
        Err(e) => {
            eprintln!("romp-worker[{}]: mtapi init failed: {e}", cfg.worker_id);
            return 2;
        }
    };
    let exec = Arc::new(Exec {
        rt,
        chan: Arc::clone(&chan),
        rmem: node.rmem_get(cfg.worker_id).expect("own segment"),
        jobs: Mutex::new(HashMap::new()),
        retired: EventCount::new(),
        free_slots: Mutex::new((0..SLOTS).rev().collect()),
    });
    let action_exec = Arc::clone(&exec);
    mtapi
        .create_action(JOB_RUN_SPEC, move |input| action_exec.run(input))
        .expect("fresh action table");
    let job_handle = mtapi.job(JOB_RUN_SPEC).expect("action registered");

    // Hello must be the first packet on the wire (the router's accept
    // path waits for it), so send it before the heartbeat starts.
    let hello = ToRouter::Hello {
        worker: cfg.worker_id,
        pid: std::process::id(),
        rmem_id: cfg.worker_id,
    };
    if chan.send(&hello.encode()).is_err() {
        return 3;
    }

    // Heartbeat thread: liveness beacon; a send error means the router
    // is gone — nothing left to serve.
    {
        let chan = Arc::clone(&chan);
        let period = Duration::from_millis(cfg.heartbeat_ms.max(1));
        let mtapi = Arc::clone(&mtapi);
        let rt = exec.rt.clone();
        std::thread::Builder::new()
            .name("worker-heartbeat".into())
            .spawn(move || {
                let mut seq = 0u64;
                loop {
                    seq += 1;
                    let msg = ToRouter::Heartbeat {
                        seq,
                        executed: mtapi.tasks_executed() as u64,
                        activity: rt.activity(),
                    };
                    if chan.send(&msg.encode()).is_err() {
                        std::process::exit(3);
                    }
                    std::thread::sleep(period);
                }
            })
            .expect("spawn heartbeat");
    }

    // Main loop: control messages until Exit or channel death.
    loop {
        let pkt = match chan.recv() {
            Ok(p) => p,
            // Router died or closed without Exit: nothing to flush that
            // anyone will read.  The OS reclaims the mapping; the file
            // is the router's to clean up.
            Err(_) => return 3,
        };
        match ToWorker::decode(&pkt) {
            Ok(ToWorker::Dispatch { job, .. }) => {
                let received = Instant::now();
                exec.jobs.lock().insert(job, (CancelToken::new(), received));
                // The packet itself is the task's input.
                if let Err(e) = job_handle.start(pkt) {
                    let outcome = JobOutcome::unrun(&format!("task start: {e}"));
                    exec.send_done(job, JobState::Failed, outcome, received);
                }
            }
            Ok(ToWorker::Cancel { job, deadline }) => {
                if let Some((token, _)) = exec.jobs.lock().get(&job) {
                    if deadline {
                        token.cancel_deadline();
                    } else {
                        token.cancel();
                    }
                }
            }
            Ok(ToWorker::Release { slot }) => {
                if slot < SLOTS {
                    let mut free = exec.free_slots.lock();
                    if !free.contains(&slot) {
                        free.push(slot);
                    }
                }
            }
            Ok(ToWorker::Exit) => break,
            // A malformed control packet is a router bug; refuse loudly
            // rather than guessing.
            Err(e) => {
                eprintln!("romp-worker[{}]: bad control packet: {e}", cfg.worker_id);
                return 4;
            }
        }
    }

    // Graceful exit: let in-flight jobs finish (each action answers its
    // own Done before leaving the job map), then tear down.
    exec.retired
        .wait_until(SpinBudget::NONE, None, || exec.jobs.lock().is_empty());
    let _ = rmem.delete();
    let _ = std::fs::remove_file(&cfg.rmem_path);
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_rmem_write_returns_the_slot_and_goes_inline() {
        let sys = MrapiSystem::new_t4240();
        let node = sys.initialize(DomainId(CLUSTER_DOMAIN), NodeId(0)).unwrap();
        let seg = node
            .rmem_create(
                1,
                SLOTS as usize * SLOT_BYTES as usize,
                &RmemAttributes::default(),
            )
            .unwrap();
        let view = node.rmem_get(1).unwrap();
        let free = Mutex::new(vec![0, 1]);
        assert_eq!(place_detail(&view, &free, b"fits"), 1);
        let mut back = [0u8; 4];
        view.read(SLOT_BYTES as usize, &mut back).unwrap();
        assert_eq!(&back, b"fits");
        let too_big = vec![0u8; SLOT_BYTES as usize + 1];
        assert_eq!(place_detail(&view, &free, &too_big), SLOT_INLINE);
        assert_eq!(*free.lock(), vec![0]);

        seg.delete().unwrap();
        assert_eq!(place_detail(&view, &free, b"detail"), SLOT_INLINE);
        assert_eq!(*free.lock(), vec![0], "the slot went back to the free list");
    }
}
