//! The MTAPI runtime: jobs, actions, tasks, groups, queues, scheduler.
//!
//! Every blocking wait parks on one of the runtime's two [`EventCount`]s:
//! idle pool workers on `idle`, which an injected task or shutdown
//! notifies; `Task::wait` and `Group::wait_all` on `done`, which a task
//! reaching its final state notifies.  Those waiters help run queued
//! tasks, so an injection notifies `done` too.  A completion therefore
//! wakes no idle worker, and a `notify` with nobody parked costs no
//! syscall.  Only the API's own timeouts bound a wait.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mca_sync::deque::{Injector, Steal};
use mca_sync::park::EventCount;
use mca_sync::{Mutex as PlMutex, RwLock};

use crate::status::{ensure, MtapiResult, MtapiStatus};
use crate::{MtapiError, MTAPI_PRIORITIES};

type ActionFn = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// Where a task is in its life-cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Queued, not yet claimed by a worker.
    Pending,
    /// A worker is executing the action.
    Running,
    /// Completed; the result is available.
    Done,
    /// Cancelled before it ran.
    Cancelled,
    /// The action panicked.
    Failed,
}

struct TaskInner {
    state: PlMutex<(TaskState, Option<Vec<u8>>)>,
    action: ActionFn,
    input: PlMutex<Option<Vec<u8>>>,
    /// The owning group's outstanding-task count.
    group: Option<Arc<AtomicUsize>>,
    queue: Option<Arc<QueueInner>>,
    priority: u8,
}

impl TaskInner {
    /// Count a task that reached its final state out of its group, and
    /// wake the runtime's task and group waiters.
    fn settle(&self, rt: &RtInner) {
        if let Some(outstanding) = &self.group {
            outstanding.fetch_sub(1, Ordering::AcqRel);
        }
        rt.done.notify_all();
    }
}

/// A handle to one started task (`mtapi_task_hndl_t`).
#[derive(Clone)]
pub struct Task {
    inner: Arc<TaskInner>,
    rt: Arc<RtInner>,
}

impl Task {
    /// Current life-cycle state.
    pub fn state(&self) -> TaskState {
        self.inner.state.lock().0
    }

    /// `mtapi_task_wait` — block until the task finishes (bounded by
    /// `timeout`; `None` = forever) and return the action's output.
    ///
    /// While waiting, the caller lends itself to the scheduler (helping
    /// execute queued tasks), so waiting inside an action cannot deadlock
    /// the pool.
    pub fn wait(&self, timeout: Option<Duration>) -> MtapiResult<Vec<u8>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let finished = || !matches!(self.state(), TaskState::Pending | TaskState::Running);
        if !self.rt.help_until(&self.rt.done, deadline, finished) {
            return Err(MtapiError(MtapiStatus::Timeout));
        }
        let mut st = self.inner.state.lock();
        match st.0 {
            TaskState::Done => Ok(st.1.take().unwrap_or_default()),
            TaskState::Cancelled => Err(MtapiError(MtapiStatus::ErrTaskCancelled)),
            _ => Err(MtapiError(MtapiStatus::ErrActionFailed)),
        }
    }

    /// `mtapi_task_cancel` — best-effort: succeeds only while the task is
    /// still pending.
    pub fn cancel(&self) -> MtapiResult<()> {
        let mut st = self.inner.state.lock();
        ensure(st.0 == TaskState::Pending, MtapiStatus::ErrParameter)?;
        *st = (TaskState::Cancelled, None);
        drop(st);
        self.inner.settle(&self.rt);
        if let Some(q) = &self.inner.queue {
            q.advance(&self.rt);
        }
        Ok(())
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("state", &self.state())
            .finish()
    }
}

/// A fork/join task group (`mtapi_group_hndl_t`).
#[derive(Clone)]
pub struct Group {
    /// Tasks started in the group and not yet finished.
    outstanding: Arc<AtomicUsize>,
    rt: Arc<RtInner>,
}

impl Group {
    /// Tasks started in this group and not yet finished.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// `mtapi_group_wait_all` — block until every task in the group has
    /// finished (helping the scheduler meanwhile).
    pub fn wait_all(&self, timeout: Option<Duration>) -> MtapiResult<()> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let drained = || self.outstanding.load(Ordering::Acquire) == 0;
        ensure(
            self.rt.help_until(&self.rt.done, deadline, drained),
            MtapiStatus::Timeout,
        )
    }
}

impl std::fmt::Debug for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Group")
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

struct QueueInner {
    job: u32,
    pending: PlMutex<VecDeque<Arc<TaskInner>>>,
    in_flight: AtomicBool,
    deleted: AtomicBool,
}

impl QueueInner {
    /// Called when a queue task finishes: dispatch the next, if any.
    fn advance(&self, rt: &Arc<RtInner>) {
        let next = {
            let mut p = self.pending.lock();
            match p.pop_front() {
                Some(t) => Some(t),
                None => {
                    self.in_flight.store(false, Ordering::Release);
                    None
                }
            }
        };
        if let Some(t) = next {
            rt.inject(t);
        }
    }
}

/// A strictly ordered task queue to one job (`mtapi_queue_hndl_t`).
#[derive(Clone)]
pub struct Queue {
    inner: Arc<QueueInner>,
    rt: Arc<RtInner>,
}

impl Queue {
    /// `mtapi_task_enqueue` — run the job on `input`, after every earlier
    /// task from this queue has finished.
    pub fn enqueue(&self, input: Vec<u8>) -> MtapiResult<Task> {
        ensure(
            !self.inner.deleted.load(Ordering::Acquire),
            MtapiStatus::ErrQueueInvalid,
        )?;
        let action = self.rt.action_for(self.inner.job)?;
        let task = Arc::new(TaskInner {
            state: PlMutex::new((TaskState::Pending, None)),
            action,
            input: PlMutex::new(Some(input)),
            group: None,
            queue: Some(Arc::clone(&self.inner)),
            priority: 0,
        });
        let dispatch_now = !self.inner.in_flight.swap(true, Ordering::AcqRel);
        if dispatch_now {
            self.rt.inject(Arc::clone(&task));
        } else {
            self.inner.pending.lock().push_back(Arc::clone(&task));
            // Re-check: the in-flight task may have finished while we
            // queued, leaving nobody to advance us.
            if !self.inner.in_flight.swap(true, Ordering::AcqRel) {
                self.inner.advance(&self.rt);
            }
        }
        Ok(Task {
            inner: task,
            rt: Arc::clone(&self.rt),
        })
    }

    /// `mtapi_queue_delete` — later enqueues fail; queued tasks still run.
    pub fn delete(self) {
        self.inner.deleted.store(true, Ordering::Release);
    }
}

impl std::fmt::Debug for Queue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Queue")
            .field("job", &self.inner.job)
            .finish()
    }
}

/// A job handle (`mtapi_job_hndl_t`): the door for starting tasks.
#[derive(Clone)]
pub struct Job {
    id: u32,
    rt: Arc<RtInner>,
}

impl Job {
    /// `mtapi_task_start` at default priority.
    pub fn start(&self, input: Vec<u8>) -> MtapiResult<Task> {
        self.start_prio(input, 1, None)
    }

    /// Start in a group (for `wait_all`).
    pub fn start_in_group(&self, group: &Group, input: Vec<u8>) -> MtapiResult<Task> {
        self.start_prio(input, 1, Some(group))
    }

    /// Start with an explicit priority (0 = most urgent).
    pub fn start_prio(
        &self,
        input: Vec<u8>,
        priority: u8,
        group: Option<&Group>,
    ) -> MtapiResult<Task> {
        ensure(
            (priority as usize) < MTAPI_PRIORITIES,
            MtapiStatus::ErrParameter,
        )?;
        let action = self.rt.action_for(self.id)?;
        if let Some(g) = group {
            g.outstanding.fetch_add(1, Ordering::AcqRel);
        }
        let task = Arc::new(TaskInner {
            state: PlMutex::new((TaskState::Pending, None)),
            action,
            input: PlMutex::new(Some(input)),
            group: group.map(|g| Arc::clone(&g.outstanding)),
            queue: None,
            priority,
        });
        self.rt.inject(Arc::clone(&task));
        Ok(Task {
            inner: task,
            rt: Arc::clone(&self.rt),
        })
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("id", &self.id).finish()
    }
}

struct RtInner {
    actions: RwLock<HashMap<u32, ActionFn>>,
    injectors: Vec<Injector<Arc<TaskInner>>>,
    /// Where idle pool workers park (see module docs).
    idle: EventCount,
    /// Where task and group waiters park.
    done: EventCount,
    shutdown: AtomicBool,
    executed: AtomicUsize,
}

impl RtInner {
    fn action_for(&self, job: u32) -> MtapiResult<ActionFn> {
        ensure(
            !self.shutdown.load(Ordering::Acquire),
            MtapiStatus::ErrShutdown,
        )?;
        self.actions
            .read()
            .get(&job)
            .cloned()
            .ok_or(MtapiError(MtapiStatus::ErrJobInvalid))
    }

    fn inject(&self, task: Arc<TaskInner>) {
        self.injectors[task.priority as usize].push(task);
        self.idle.notify_one();
        self.done.notify_all();
    }

    fn next_task(&self) -> Option<Arc<TaskInner>> {
        for inj in &self.injectors {
            loop {
                match inj.steal() {
                    Steal::Success(t) => return Some(t),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Claim and execute one queued task; `false` if none was available.
    fn run_one_task(self: &Arc<Self>) -> bool {
        let Some(task) = self.next_task() else {
            return false;
        };
        // Claim: pending → running (a cancelled task is skipped).
        {
            let mut st = task.state.lock();
            if st.0 != TaskState::Pending {
                return true;
            }
            st.0 = TaskState::Running;
        }
        let input = task.input.lock().take().unwrap_or_default();
        let action = Arc::clone(&task.action);
        let result = catch_unwind(AssertUnwindSafe(|| action(&input)));
        // Count before completing the task: that wakes its waiters,
        // who may read `tasks_executed()` straight away.
        self.executed.fetch_add(1, Ordering::Relaxed);
        *task.state.lock() = match result {
            Ok(out) => (TaskState::Done, Some(out)),
            Err(_) => (TaskState::Failed, None),
        };
        task.settle(self);
        if let Some(q) = &task.queue {
            q.advance(self);
        }
        true
    }

    /// Run queued tasks until `ready` holds, parking on `park` while
    /// there are none; `false` if `deadline` passed first.
    fn help_until(
        self: &Arc<Self>,
        park: &EventCount,
        deadline: Option<Instant>,
        ready: impl Fn() -> bool,
    ) -> bool {
        while !ready() {
            if self.run_one_task() {
                continue;
            }
            let key = park.prepare_wait();
            if ready() || self.injectors.iter().any(|inj| !inj.is_empty()) {
                park.cancel_wait(key);
            } else if !park.commit_wait(key, deadline) {
                return ready();
            }
        }
        true
    }

    fn worker_loop(self: Arc<Self>) {
        self.help_until(&self.idle, None, || self.shutdown.load(Ordering::Acquire));
    }
}

/// The MTAPI node runtime: owns the worker pool and the job/action table.
pub struct Mtapi {
    inner: Arc<RtInner>,
    workers: PlMutex<Vec<thread::JoinHandle<()>>>,
}

impl Mtapi {
    /// `mtapi_initialize` — start a runtime with `workers` pool threads.
    /// `domain` and `node` identify the caller, as the spec's signature
    /// requires; a runtime is one node's pool and does not keep them.
    pub fn initialize(_domain: u32, _node: u32, workers: usize) -> MtapiResult<Self> {
        ensure(workers > 0, MtapiStatus::ErrParameter)?;
        let inner = Arc::new(RtInner {
            actions: RwLock::new(HashMap::new()),
            injectors: (0..MTAPI_PRIORITIES).map(|_| Injector::new()).collect(),
            idle: EventCount::new(),
            done: EventCount::new(),
            shutdown: AtomicBool::new(false),
            executed: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let rt = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("mtapi-worker-{i}"))
                    .spawn(move || rt.worker_loop())
                    .expect("worker spawn")
            })
            .collect();
        Ok(Mtapi {
            inner,
            workers: PlMutex::new(handles),
        })
    }

    /// `mtapi_action_create` — attach an implementation to `job_id`.
    pub fn create_action(
        &self,
        job_id: u32,
        f: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    ) -> MtapiResult<()> {
        let mut actions = self.inner.actions.write();
        ensure(!actions.contains_key(&job_id), MtapiStatus::ErrActionExists)?;
        actions.insert(job_id, Arc::new(f));
        Ok(())
    }

    /// `mtapi_job_get` — handle for starting tasks on `job_id`.
    pub fn job(&self, job_id: u32) -> MtapiResult<Job> {
        ensure(
            self.inner.actions.read().contains_key(&job_id),
            MtapiStatus::ErrJobInvalid,
        )?;
        Ok(Job {
            id: job_id,
            rt: Arc::clone(&self.inner),
        })
    }

    /// `mtapi_group_create`.
    pub fn create_group(&self) -> Group {
        Group {
            outstanding: Arc::default(),
            rt: Arc::clone(&self.inner),
        }
    }

    /// `mtapi_queue_create` — an ordered queue feeding `job_id`.
    pub fn create_queue(&self, job_id: u32) -> MtapiResult<Queue> {
        ensure(
            self.inner.actions.read().contains_key(&job_id),
            MtapiStatus::ErrJobInvalid,
        )?;
        Ok(Queue {
            inner: Arc::new(QueueInner {
                job: job_id,
                pending: PlMutex::new(VecDeque::new()),
                in_flight: AtomicBool::new(false),
                deleted: AtomicBool::new(false),
            }),
            rt: Arc::clone(&self.inner),
        })
    }

    /// Total tasks executed (diagnostics).
    pub fn tasks_executed(&self) -> usize {
        self.inner.executed.load(Ordering::Relaxed)
    }
}

impl Drop for Mtapi {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.idle.notify_all();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Mtapi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mtapi")
            .field("actions", &self.inner.actions.read().len())
            .field("executed", &self.tasks_executed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_runtime(workers: usize) -> Mtapi {
        let mt = Mtapi::initialize(1, 0, workers).unwrap();
        mt.create_action(1, |input| {
            let x = u64::from_le_bytes(input.try_into().unwrap());
            (x * x).to_le_bytes().to_vec()
        })
        .unwrap();
        mt
    }

    fn as_u64(v: Vec<u8>) -> u64 {
        u64::from_le_bytes(v.try_into().unwrap())
    }

    #[test]
    fn task_lifecycle_to_done() {
        let mt = square_runtime(2);
        let t = mt
            .job(1)
            .unwrap()
            .start(5u64.to_le_bytes().to_vec())
            .unwrap();
        assert_eq!(as_u64(t.wait(None).unwrap()), 25);
        assert_eq!(t.state(), TaskState::Done);
    }

    #[test]
    fn unknown_job_and_duplicate_action() {
        let mt = square_runtime(1);
        assert_eq!(mt.job(99).unwrap_err().0, MtapiStatus::ErrJobInvalid);
        assert_eq!(
            mt.create_action(1, |_| vec![]).unwrap_err().0,
            MtapiStatus::ErrActionExists
        );
    }

    #[test]
    fn many_tasks_all_complete() {
        let mt = square_runtime(4);
        let job = mt.job(1).unwrap();
        let tasks: Vec<Task> = (0..200u64)
            .map(|i| job.start(i.to_le_bytes().to_vec()).unwrap())
            .collect();
        for (i, t) in tasks.into_iter().enumerate() {
            assert_eq!(as_u64(t.wait(None).unwrap()), (i * i) as u64);
        }
        assert_eq!(mt.tasks_executed(), 200);
    }

    #[test]
    fn group_wait_all_joins_everything() {
        let mt = square_runtime(3);
        let job = mt.job(1).unwrap();
        let g = mt.create_group();
        for i in 0..50u64 {
            job.start_in_group(&g, i.to_le_bytes().to_vec()).unwrap();
        }
        g.wait_all(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(g.outstanding(), 0);
        assert_eq!(mt.tasks_executed(), 50);
    }

    #[test]
    fn queue_preserves_order() {
        let mt = Mtapi::initialize(1, 0, 4).unwrap();
        let log = Arc::new(PlMutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        mt.create_action(2, move |input| {
            let x = u64::from_le_bytes(input.try_into().unwrap());
            l2.lock().push(x);
            vec![]
        })
        .unwrap();
        let q = mt.create_queue(2).unwrap();
        let tasks: Vec<Task> = (0..100u64)
            .map(|i| q.enqueue(i.to_le_bytes().to_vec()).unwrap())
            .collect();
        for t in tasks {
            t.wait(Some(Duration::from_secs(10))).unwrap();
        }
        assert_eq!(
            *log.lock(),
            (0..100).collect::<Vec<u64>>(),
            "strict queue order"
        );
    }

    #[test]
    fn queues_do_not_serialize_each_other() {
        let mt = Mtapi::initialize(1, 0, 2).unwrap();
        mt.create_action(3, |i| i.to_vec()).unwrap();
        let qa = mt.create_queue(3).unwrap();
        let qb = mt.create_queue(3).unwrap();
        let ta: Vec<Task> = (0..20).map(|i| qa.enqueue(vec![i]).unwrap()).collect();
        let tb: Vec<Task> = (0..20).map(|i| qb.enqueue(vec![i]).unwrap()).collect();
        for t in ta.into_iter().chain(tb) {
            t.wait(Some(Duration::from_secs(10))).unwrap();
        }
        assert_eq!(mt.tasks_executed(), 40);
    }

    #[test]
    fn cancel_pending_task() {
        // Single worker busy with a long task: the second is cancellable.
        let mt = Mtapi::initialize(1, 0, 1).unwrap();
        mt.create_action(4, |input| {
            if input == b"slow" {
                thread::sleep(Duration::from_millis(150));
            }
            vec![1]
        })
        .unwrap();
        let job = mt.job(4).unwrap();
        let slow = job.start(b"slow".to_vec()).unwrap();
        thread::sleep(Duration::from_millis(20)); // let the worker claim it
        let victim = job.start(b"fast".to_vec()).unwrap();
        victim.cancel().unwrap();
        assert_eq!(
            victim.wait(None).unwrap_err().0,
            MtapiStatus::ErrTaskCancelled
        );
        slow.wait(None).unwrap();
        assert_eq!(
            victim.cancel().unwrap_err().0,
            MtapiStatus::ErrParameter,
            "already cancelled"
        );
    }

    #[test]
    fn panicking_action_reports_failure() {
        let mt = Mtapi::initialize(1, 0, 2).unwrap();
        mt.create_action(5, |_| panic!("bad action")).unwrap();
        let t = mt.job(5).unwrap().start(vec![]).unwrap();
        assert_eq!(t.wait(None).unwrap_err().0, MtapiStatus::ErrActionFailed);
        // The pool survives.
        mt.create_action(6, |_| vec![9]).unwrap();
        assert_eq!(
            mt.job(6)
                .unwrap()
                .start(vec![])
                .unwrap()
                .wait(None)
                .unwrap(),
            vec![9]
        );
    }

    #[test]
    fn priorities_prefer_urgent_tasks() {
        // One worker, saturated; then enqueue low and urgent: urgent runs
        // first once the worker frees up.
        let mt = Mtapi::initialize(1, 0, 1).unwrap();
        let log = Arc::new(PlMutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        mt.create_action(7, move |input| {
            if input == b"block" {
                thread::sleep(Duration::from_millis(100));
            } else {
                l2.lock().push(input[0]);
            }
            vec![]
        })
        .unwrap();
        let job = mt.job(7).unwrap();
        let blocker = job.start(b"block".to_vec()).unwrap();
        thread::sleep(Duration::from_millis(20));
        let low = job.start_prio(vec![2], 3, None).unwrap();
        let urgent = job.start_prio(vec![1], 0, None).unwrap();
        blocker.wait(None).unwrap();
        low.wait(None).unwrap();
        urgent.wait(None).unwrap();
        assert_eq!(*log.lock(), vec![1, 2], "priority 0 before priority 3");
    }

    #[test]
    fn deleted_queue_rejects_enqueue() {
        let mt = square_runtime(1);
        let q = mt.create_queue(1).unwrap();
        let q2 = q.clone();
        q.delete();
        assert_eq!(
            q2.enqueue(vec![0; 8]).unwrap_err().0,
            MtapiStatus::ErrQueueInvalid
        );
    }

    #[test]
    fn timeout_on_wait() {
        let mt = Mtapi::initialize(1, 0, 1).unwrap();
        mt.create_action(8, |_| {
            thread::sleep(Duration::from_millis(200));
            vec![]
        })
        .unwrap();
        let t = mt.job(8).unwrap().start(vec![]).unwrap();
        // Let the pool worker claim the slow task first — otherwise the
        // waiting thread would "help" by running it inline and never time
        // out.
        while t.state() == TaskState::Pending {
            thread::yield_now();
        }
        assert_eq!(
            t.wait(Some(Duration::from_millis(20))).unwrap_err().0,
            MtapiStatus::Timeout
        );
        t.wait(None).unwrap();
    }

    #[test]
    fn zero_workers_rejected() {
        assert_eq!(
            Mtapi::initialize(1, 0, 0).unwrap_err().0,
            MtapiStatus::ErrParameter
        );
    }
}
