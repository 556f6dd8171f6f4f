//! Teams, the worker pool, and the fork/join machinery.
//!
//! Mirrors libGOMP's "dock" design: the runtime keeps a pool of docked
//! worker threads; `parallel` hands `n-1` of them a job (spawning more
//! through the backend if the pool is short), gives every member the region
//! closure and a shared `TeamShared`, runs thread 0 on the encountering
//! thread, and joins at the implicit end-of-region barrier.  Workers return
//! to their dock slot afterwards, so steady-state region launch costs no
//! thread creation — the behaviour EPCC's `parallel` overhead measures.  A
//! docked worker spins, then yields, on its slot's phase word for a bounded
//! time before it parks on an eventcount (libGOMP's spin-then-futex, on
//! [`mca_sync::park`]), so back-to-back regions hand over without a syscall
//! on either side; see `PoolSlot`.
//!
//! Two lock-free structures carry the region's hot paths:
//!
//! * the **construct ring** (`ConstructRing`) hands out shared
//!   per-construct state (dynamic/guided cursors, copyprivate and
//!   reduction staging) without a team-global lock — see the type docs for
//!   the claim/ready protocol.  Plain `single` needs no shared state
//!   beyond one team word (`TeamShared::single_count`);
//! * the **sharded two-level task scheduler** gives every member a bounded
//!   local ring ([`mca_sync::deque::RingQueue`]) and every *shard* (a
//!   cluster-aligned member group from [`mca_platform::ShardLayout`]) its
//!   own overflow [`Injector`]; idle members pop locally, drain their
//!   shard's injector, steal round-robin from shard-mates, and only cross
//!   the shard boundary — other shards' injectors, then rings — once every
//!   local source is dry.  The local/remote split is counted in the
//!   team's counters and, when tracing is armed, in the
//!   `steals.{local,remote}` metrics.

use std::any::Any;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mca_platform::ShardLayout;
use mca_sync::deque::{Injector, RingQueue, Steal};
use mca_sync::park::{spin_until, EventCount, SpinBudget};
use mca_sync::{CachePadded, Mutex as PlMutex};
use romp_trace::{EventKind, Tracer};

use crate::backend::SharedWords;
use crate::barrier::Barrier;
use crate::cancel::{CancelToken, CancelUnwind};

/// A queued explicit task.  Lifetime-erased to the region (see the SAFETY
/// discussion in [`crate::worker::Worker::task`]).
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Capacity of each member's local task ring; overflow spills into the
/// team-wide injector, so this only bounds the lock-free fast path.
const LOCAL_TASK_RING: usize = 256;

/// Reduction scratch is strided so each member's slot owns a full
/// 128-byte prefetch pair: slot `i` lives at word `i * REDUCE_STRIDE`.
pub(crate) const REDUCE_STRIDE: usize = 16;

/// Slots in the lock-free construct ring.  Bounds how many worksharing
/// constructs the fastest member may run ahead of the slowest before the
/// fast member has to wait (a lap); 64 is far beyond any real nowait chain.
pub(crate) const CONSTRUCT_RING: usize = 64;

/// Shared per-construct state (dynamic/guided loop cursors, copyprivate
/// `single` arbitration and staging), keyed by construct sequence number.
pub(crate) struct ConstructState {
    /// Next unclaimed iteration (dynamic/guided/sections cursor).
    pub cursor: CachePadded<AtomicU64>,
    /// Iterations not yet handed out (guided's shrinking share).
    pub remaining: CachePadded<AtomicU64>,
    /// `single_copy`'s first-arriver flag.
    pub claimed: AtomicBool,
    /// Copyprivate / generic-reduction staging slot.
    pub stage: PlMutex<Option<Box<dyn Any + Send>>>,
    /// Members that completed the construct (for slot release).
    pub finished: AtomicUsize,
}

impl ConstructState {
    pub(crate) fn new(start: u64, total: u64) -> Self {
        ConstructState {
            cursor: CachePadded::new(AtomicU64::new(start)),
            remaining: CachePadded::new(AtomicU64::new(total)),
            claimed: AtomicBool::new(false),
            stage: PlMutex::new(None),
            finished: AtomicUsize::new(0),
        }
    }
}

/// One construct-ring slot.  `claim` and `ready` hold `seq + 1` of the
/// construct occupying the slot (0 = vacant); storing the full sequence
/// number rather than a parity bit makes lapped slots unambiguous.
struct ConstructSlot {
    /// Who owns the slot: CAS'd `0 → seq + 1` by the member that arrives
    /// first; reset to 0 only after the construct is fully released.
    claim: AtomicU64,
    /// Publication flag: set to `seq + 1` *after* `state` is written, so a
    /// reader that observes it acquires the initialized state.
    ready: AtomicU64,
    state: UnsafeCell<Option<Arc<ConstructState>>>,
}

// SAFETY: `state` is written by exactly one thread at a time — the claim
// winner before `ready` is published, or the last finisher after every
// other member has passed its `finished` increment — and only read between
// an Acquire of `ready == seq + 1` and that reader's own `finished`
// increment.
unsafe impl Sync for ConstructSlot {}

/// Lock-free table of in-flight worksharing constructs.
///
/// OpenMP requires every team member to encounter worksharing constructs in
/// the same order, so a construct is fully named by its per-member sequence
/// number, and at most `size` constructs are live at once (members can't be
/// more than the ring's length apart without someone having finished).  The
/// table is therefore a fixed ring indexed by `seq % CONSTRUCT_RING`:
///
/// * **lookup/insert** — spin on `ready == seq + 1` (already published), or
///   win the `claim` CAS and publish the state yourself; no team lock, no
///   allocation beyond the state `Arc` itself;
/// * **release** — the last member through the construct clears the slot
///   (`state`, then `ready`, then `claim`), making it claimable for
///   `seq + CONSTRUCT_RING`;
/// * **backpressure** — a member lapping the ring (its `seq` maps onto a
///   slot still owned by `seq - CONSTRUCT_RING`) waits for the stragglers,
///   running queued tasks meanwhile so task-starved laggards still make
///   progress.
pub(crate) struct ConstructRing {
    slots: Box<[ConstructSlot]>,
}

impl ConstructRing {
    fn new() -> Self {
        let slots = (0..CONSTRUCT_RING)
            .map(|_| ConstructSlot {
                claim: AtomicU64::new(0),
                ready: AtomicU64::new(0),
                state: UnsafeCell::new(None),
            })
            .collect();
        ConstructRing { slots }
    }

    /// Fetch-or-create the state for construct `seq`.  `stall` is invoked
    /// while waiting (on another member's initialization, or on a lapped
    /// slot); it should do useful work or yield.
    fn get(
        &self,
        seq: u64,
        init: impl FnOnce() -> ConstructState,
        mut stall: impl FnMut(),
    ) -> Arc<ConstructState> {
        let slot = &self.slots[(seq as usize) % CONSTRUCT_RING];
        let tag = seq + 1;
        let mut init = Some(init);
        loop {
            if slot.ready.load(Ordering::Acquire) == tag {
                // Published by a teammate: the Acquire above pairs with the
                // Release in the publisher, so the state write is visible.
                // SAFETY: see ConstructSlot — the slot can't be released or
                // reused until this member increments `finished`.
                let state = unsafe { (*slot.state.get()).as_ref() };
                return Arc::clone(state.expect("ready slot holds a state"));
            }
            match slot
                .claim
                .compare_exchange(0, tag, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // This member initializes the construct.
                    let state = Arc::new((init.take().expect("claim won once"))());
                    // SAFETY: winning the CAS makes this thread the slot's
                    // unique writer until `ready` is published.
                    unsafe { *slot.state.get() = Some(Arc::clone(&state)) };
                    slot.ready.store(tag, Ordering::Release);
                    return state;
                }
                Err(current) if current == tag => {
                    // A teammate won the claim; its publication is imminent.
                    std::hint::spin_loop();
                }
                Err(_lapped) => {
                    // The slot still belongs to construct seq - RING: this
                    // member lapped the ring ahead of stragglers.
                    stall();
                }
            }
        }
    }

    /// Release the slot for construct `seq`; call only from the last member
    /// through the construct.
    fn release(&self, seq: u64) {
        let slot = &self.slots[(seq as usize) % CONSTRUCT_RING];
        debug_assert_eq!(slot.ready.load(Ordering::Relaxed), seq + 1);
        // SAFETY: every member has incremented `finished` (AcqRel), so no
        // reader can still be dereferencing the cell.
        unsafe { *slot.state.get() = None };
        slot.ready.store(0, Ordering::Release);
        // Clearing `claim` last re-opens the slot: a claimant for
        // seq + RING CASes 0 → its tag and only then writes the cell.
        slot.claim.store(0, Ordering::Release);
    }
}

/// Per-team always-on counters; folded into the runtime's totals at join.
/// Each counter is cache-padded: they are bumped from different members on
/// different constructs and must not ping-pong one line between them.
#[derive(Default)]
pub(crate) struct TeamCounters {
    pub barriers: CachePadded<AtomicU64>,
    pub criticals: CachePadded<AtomicU64>,
    pub singles: CachePadded<AtomicU64>,
    pub loops: CachePadded<AtomicU64>,
    pub tasks: CachePadded<AtomicU64>,
    /// Ring steals from a shard-mate (stayed inside the cluster).
    pub steals_local: CachePadded<AtomicU64>,
    /// Work taken across a shard boundary (another shard's injector or
    /// a member ring in another shard) — the fabric-crossing steals.
    pub steals_remote: CachePadded<AtomicU64>,
}

/// Everything a team shares for the duration of one parallel region.
pub(crate) struct TeamShared {
    /// Team size (≥ 1).
    pub size: usize,
    /// The team barrier (implicit and explicit uses).
    pub barrier: Barrier,
    /// In-flight worksharing constructs, indexed by sequence number.
    pub constructs: ConstructRing,
    /// Plain `single` constructs claimed so far (libGOMP's
    /// `team->single_count`): each encounter's winner moves it by one.
    pub single_count: CachePadded<AtomicU64>,
    /// Reduction scratch: `size` value slots + one result slot, each strided
    /// to [`REDUCE_STRIDE`] words, allocated through the backend — the
    /// gomp_malloc substitution of §5B.2.
    pub reduce_words: Arc<dyn SharedWords>,
    /// Per-member local task rings (work-stealing fast path).
    pub task_rings: Box<[CachePadded<RingQueue<Task>>]>,
    /// How the members are grouped into shards (cluster-aligned when the
    /// runtime was built from a topology; one shard otherwise).
    pub layout: ShardLayout,
    /// Per-shard overflow + external submission queues for tasks.
    pub shard_injectors: Box<[Injector<Task>]>,
    /// Home shard for this region's job, from the runtime's ambient
    /// affinity key: plain `task()` spawns from members *outside* the
    /// home shard are routed to its injector, keeping the job's task
    /// graph concentrated where its cache state lives.
    pub home_shard: Option<usize>,
    /// Tasks queued or running, not yet finished.
    pub outstanding_tasks: AtomicUsize,
    /// `ordered` cursor: the loop index allowed to run its ordered block.
    pub ordered_cursor: AtomicU64,
    /// Members waiting for the cursor (or for cancellation).
    pub ordered_wake: EventCount,
    /// First panic payload from any member (re-thrown by the master).
    pub panic: PlMutex<Option<Box<dyn Any + Send>>>,
    /// The supervisor's cancel token, if this region was launched with one
    /// armed.  `None` costs checkpoints a single branch.
    pub cancel: Option<CancelToken>,
    /// Team-local cancellation latch: set once by the first member to
    /// observe a fired token (or a cancelled nested region), so teammates
    /// see the decision without re-reading the shared token.
    pub cancelled: AtomicBool,
    /// End-of-region join latch.  Every member increments it after its
    /// implicit barrier (or after unwinding, on a cancelled team); the
    /// master waits for `size` before returning, which is what keeps the
    /// lifetime-erased region closure alive for every dereference even
    /// when cancellation breaks the normal barrier protocol.
    pub joined: CachePadded<AtomicUsize>,
    /// Per-member CPU time for this region (profiling only).
    pub cpu_ns: Vec<AtomicU64>,
    pub counters: TeamCounters,
    /// The runtime's event recorder; disarmed it costs one relaxed load
    /// per would-be event.
    pub tracer: Arc<Tracer>,
}

impl TeamShared {
    pub(crate) fn new(
        size: usize,
        barrier: Barrier,
        reduce_words: Arc<dyn SharedWords>,
        tracer: Arc<Tracer>,
        cancel: Option<CancelToken>,
        layout: ShardLayout,
        affinity: Option<u64>,
    ) -> Self {
        debug_assert_eq!(layout.num_members(), size);
        let home_shard = affinity.map(|k| layout.shard_for_key(k));
        TeamShared {
            size,
            barrier,
            constructs: ConstructRing::new(),
            single_count: CachePadded::new(AtomicU64::new(0)),
            reduce_words,
            task_rings: (0..size)
                .map(|_| CachePadded::new(RingQueue::new(LOCAL_TASK_RING)))
                .collect(),
            shard_injectors: (0..layout.num_shards()).map(|_| Injector::new()).collect(),
            home_shard,
            layout,
            outstanding_tasks: AtomicUsize::new(0),
            ordered_cursor: AtomicU64::new(0),
            ordered_wake: EventCount::new(),
            panic: PlMutex::new(None),
            cancel,
            cancelled: AtomicBool::new(false),
            joined: CachePadded::new(AtomicUsize::new(0)),
            cpu_ns: (0..size).map(|_| AtomicU64::new(0)).collect(),
            counters: TeamCounters::default(),
            tracer,
        }
    }

    /// Words the reduction scratch needs for a team of `size`.
    pub(crate) fn reduce_words_len(size: usize) -> usize {
        (size + 1) * REDUCE_STRIDE
    }

    /// Fetch-or-create the state for construct `seq`, as member `tid`.
    pub(crate) fn construct(
        &self,
        tid: usize,
        seq: u64,
        init: impl FnOnce() -> ConstructState,
    ) -> Arc<ConstructState> {
        self.constructs.get(seq, init, || {
            // A lapped member could stall forever behind teammates that
            // have already unwound; cancellation must reach this loop too.
            self.cancel_checkpoint();
            // Lapped the ring: help stragglers along by running their
            // queued tasks (a laggard may be stuck in taskwait behind work
            // sitting in a queue) instead of burning the core.
            if !self.run_one_task(tid) {
                std::thread::yield_now();
            }
        })
    }

    /// Has cancellation been requested for this team — via the supervisor
    /// token or the team-local latch?  One branch when no token is armed.
    #[inline]
    pub(crate) fn cancel_pending(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
            || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Latch the cancellation team-wide: breaks the barrier and wakes
    /// `ordered` waiters so blocked teammates observe the latch.
    /// Idempotent.
    pub(crate) fn latch_cancel(&self) {
        if !self.cancelled.swap(true, Ordering::AcqRel) {
            self.barrier.cancel();
            self.ordered_wake.notify_all();
        }
    }

    /// A cooperative cancellation point: if cancellation is pending, latch
    /// it and unwind with the [`CancelUnwind`] sentinel (caught by the
    /// region's `catch_unwind` net and filtered by [`record_panic`]).
    ///
    /// [`record_panic`]: TeamShared::record_panic
    #[inline]
    pub(crate) fn cancel_checkpoint(&self) {
        if self.cancel_pending() {
            self.latch_cancel();
            crate::cancel::silence_cancel_unwind_reports();
            std::panic::panic_any(CancelUnwind);
        }
    }

    /// End-of-region join: every member checks in once; the master (tid 0)
    /// does not return until all have, because the region closure and the
    /// runtime pointer die with the master's frame.
    pub(crate) fn join_member(&self, tid: usize) {
        self.joined.fetch_add(1, Ordering::AcqRel);
        if tid == 0 {
            let mut spin = JOIN_SPIN;
            while self.joined.load(Ordering::Acquire) < self.size {
                spin.snooze();
            }
        }
    }

    /// Mark member done with construct `seq`; the last one releases the
    /// ring slot.
    pub(crate) fn construct_done(&self, seq: u64, state: &Arc<ConstructState>) {
        if state.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.size {
            self.constructs.release(seq);
        }
    }

    /// The home shard of a plain task spawned by member `tid`: the
    /// region's ambient home shard if it has one, else `tid`'s own.
    pub(crate) fn home_of(&self, tid: usize) -> usize {
        self.home_shard.unwrap_or_else(|| self.layout.shard_of(tid))
    }

    /// Queue a task on behalf of member `tid` for shard `home` (`key` is
    /// the task's affinity key, or 0, for the trace).  From outside the
    /// home shard the task goes to the home shard's injector, so a job's
    /// task graph stays concentrated there; from inside it, to `tid`'s
    /// own ring, overflowing to the shard's injector.
    pub(crate) fn push_task(&self, tid: usize, home: usize, key: u64, task: Task) {
        self.tracer
            .instant(EventKind::TaskSpawn, tid as u32, 0, key);
        self.outstanding_tasks.fetch_add(1, Ordering::AcqRel);
        if self.layout.shard_of(tid) != home {
            self.shard_injectors[home].push(task);
        } else if let Err(task) = self.task_rings[tid].push(task) {
            self.shard_injectors[home].push(task);
        }
    }

    /// Drain one shard's injector (absorbing `Retry` contention blips).
    fn steal_injector(&self, shard: usize) -> Option<Task> {
        loop {
            match self.shard_injectors[shard].steal() {
                Steal::Success(t) => return Some(t),
                Steal::Retry => continue,
                Steal::Empty => return None,
            }
        }
    }

    /// Count (and, when tracing is armed, record) a successful steal.
    fn note_steal(&self, tid: usize, victim: usize, remote: bool, armed: bool) {
        if remote {
            self.counters.steals_remote.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.steals_local.fetch_add(1, Ordering::Relaxed);
        }
        if armed {
            self.tracer.instant(
                EventKind::TaskSteal,
                tid as u32,
                victim as u64,
                remote as u64,
            );
            let m = self.tracer.metrics();
            m.counter("task.steal.hit").incr();
            m.counter(if remote {
                "steals.remote"
            } else {
                "steals.local"
            })
            .incr();
        }
    }

    /// Take one queued task as member `tid`, escalating outward: own
    /// ring → own shard's injector → shard-mates' rings (counted as
    /// `steals.local`) → and only once every local source is dry, other
    /// shards' injectors and rings (counted as `steals.remote`).
    pub(crate) fn take_task(&self, tid: usize) -> Option<Task> {
        if let Some(t) = self.task_rings[tid].pop() {
            return Some(t);
        }
        let armed = self.tracer.armed();
        if armed {
            self.tracer.metrics().counter("task.steal.attempt").incr();
        }
        let my_shard = self.layout.shard_of(tid);
        if let Some(t) = self.steal_injector(my_shard) {
            return Some(t);
        }
        let mates = self.layout.members_of(my_shard);
        let my_pos = mates.iter().position(|&m| m == tid).unwrap_or(0);
        for k in 1..mates.len() {
            let victim = mates[(my_pos + k) % mates.len()];
            if let Some(t) = self.task_rings[victim].pop() {
                self.note_steal(tid, victim, false, armed);
                return Some(t);
            }
        }
        // Local sources are dry: escalate across the shard boundary.
        // Other shards' injectors first (their backlog is the cheapest
        // remote work to claim), then their member rings.
        let num_shards = self.layout.num_shards();
        if num_shards > 1 {
            for k in 1..num_shards {
                let shard = (my_shard + k) % num_shards;
                if let Some(t) = self.steal_injector(shard) {
                    self.note_steal(tid, self.layout.members_of(shard)[0], true, armed);
                    return Some(t);
                }
            }
            for k in 1..self.size {
                let victim = (tid + k) % self.size;
                if self.layout.shard_of(victim) == my_shard {
                    continue;
                }
                if let Some(t) = self.task_rings[victim].pop() {
                    self.note_steal(tid, victim, true, armed);
                    return Some(t);
                }
            }
        }
        None
    }

    /// Run one queued task as member `tid`; returns whether one ran.  Task
    /// panics are captured into the team's panic slot (first wins) so a
    /// panic inside a *stolen* task still reaches the master, and
    /// `outstanding_tasks` still reaches zero so barriers don't hang.
    pub(crate) fn run_one_task(&self, tid: usize) -> bool {
        let Some(t) = self.take_task(tid) else {
            return false;
        };
        self.tracer.instant(EventKind::TaskRun, tid as u32, 0, 0);
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(t)) {
            self.record_panic(payload);
        }
        self.outstanding_tasks.fetch_sub(1, Ordering::AcqRel);
        self.counters.tasks.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Run queued tasks until none are reachable; returns `true` if at
    /// least one task ran.
    pub(crate) fn drain_tasks(&self, tid: usize) -> bool {
        let mut any = false;
        while self.run_one_task(tid) {
            any = true;
        }
        any
    }

    /// Record a panic payload (first wins).  The [`CancelUnwind`] sentinel
    /// is *not* a panic — a cancelled member unwinds with it by design —
    /// so it is filtered here rather than stored and re-thrown.
    pub(crate) fn record_panic(&self, payload: Box<dyn Any + Send>) {
        if payload.is::<CancelUnwind>() {
            return;
        }
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// The master's end-of-region join: 64 pauses, then yields until every
/// member has checked in (they are past the barrier, so it is short).
const JOIN_SPIN: SpinBudget = SpinBudget::spins(64).then_yields(u32::MAX);

/// Dock phases ([`PoolSlot::phase`]).  Each transition has one writer:
/// the master moves `IDLE → JOB` and `IDLE → EXIT`, the worker `JOB →
/// RUNNING → IDLE`.
const IDLE: u8 = 0;
/// A job is posted and not yet taken.
const JOB: u8 = 1;
/// A taken job is still executing; the slot returns to `IDLE` when the
/// member (and its post-barrier epilogue) fully completes.
const RUNNING: u8 = 2;
/// Exit the worker loop (runtime shutdown).
const EXIT: u8 = 3;

/// Pause-loop iterations a dock waiter burns before it starts yielding.
const DOCK_SPINS: u32 = 128;
/// How long a dock waiter keeps yielding before it parks.
/// Covers the master's gap between back-to-back regions — join, counter
/// fold, the next team's allocation: 2–8 µs, rarely 16, on a 2-vCPU KVM
/// guest — with room to spare, so a steady stream of regions never
/// sleeps; a worker left idle longer parks and stops competing for the
/// core.
const DOCK_YIELD: Duration = Duration::from_micros(50);

/// The runtime (its `RtInner` address) that forked a region most recently
/// in this process.  A docked worker spins only while this is its own
/// runtime: once the process forks on another runtime — a benchmark
/// alternating two backends on one thread, say — its master has moved on,
/// so it parks at once.  A worker left spinning would take a core from the
/// other runtime's team, and make the kernel place that team's freshly
/// woken worker on a busy core.
static LAST_FORK: AtomicUsize = AtomicUsize::new(0);

/// Record that runtime `rt` is forking a region (see [`LAST_FORK`]).  The
/// shared word is only written when the forking runtime changes.
pub(crate) fn note_fork(rt: *const crate::runtime::RtInner) {
    let rt = rt as usize;
    if LAST_FORK.load(Ordering::Relaxed) != rt {
        LAST_FORK.store(rt, Ordering::Relaxed);
    }
}

/// The dock's spin budget: [`DOCK_SPINS`] pauses, then [`DOCK_YIELD`] of
/// yields.
const DOCK_SPIN: SpinBudget = SpinBudget::spins(DOCK_SPINS).then_yield_for(DOCK_YIELD);

/// A region assignment for one pool worker.
pub(crate) struct JobMsg {
    pub team: Arc<TeamShared>,
    pub tid: usize,
    /// The region closure, lifetime-erased.  SAFETY: the master joins the
    /// end-of-region barrier before `parallel` returns, and members never
    /// touch the closure after arriving at that barrier, so the referent
    /// outlives every dereference.
    pub func: RegionFn,
    /// The owning runtime, for construct bookkeeping.  SAFETY: the master
    /// holds the runtime alive for the whole region.
    pub rt: *const crate::runtime::RtInner,
    pub profiling: bool,
}

// SAFETY: see the field-level comments on `func` and `rt`; both raw
// pointers are only dereferenced while the master provably keeps their
// referents alive (it is blocked in the same region).
unsafe impl Send for JobMsg {}

/// Lifetime-erased pointer to the region closure.
#[derive(Clone, Copy)]
pub(crate) struct RegionFn(pub *const (dyn Fn(&crate::worker::Worker) + Sync));

impl RegionFn {
    /// # Safety
    /// Caller must guarantee the referent is still alive (region running).
    pub(crate) unsafe fn call(&self, w: &crate::worker::Worker) {
        unsafe { (*self.0)(w) }
    }
}

/// One dock slot: a mailbox between the master and a pool worker.
///
/// The `phase` word is the whole handshake: the idle worker spins, then
/// yields, on it within [`DOCK_SPIN`], so a job posted inside that window
/// is taken without either side sleeping.  Past the budget a waiter parks
/// on its direction's eventcount — `to_worker` for a posted job or exit,
/// `to_master` for the slot's return to idle — and every phase change is
/// followed by that eventcount's notify, which makes a syscall only when
/// the other side is actually parked.
pub(crate) struct PoolSlot {
    /// The owning runtime, as [`note_fork`] records it.
    owner: usize,
    /// [`IDLE`] / [`JOB`] / [`RUNNING`] / [`EXIT`], read lock-free by
    /// waiters.
    phase: AtomicU8,
    /// The posted job, handed over by the phase word.
    job: PlMutex<Option<JobMsg>>,
    /// Notified master → worker (new job / exit).
    to_worker: EventCount,
    /// Notified worker → master (slot back to idle).
    to_master: EventCount,
}

impl PoolSlot {
    pub(crate) fn new(owner: *const crate::runtime::RtInner) -> Arc<Self> {
        Arc::new(PoolSlot {
            owner: owner as usize,
            phase: AtomicU8::new(IDLE),
            job: PlMutex::new(None),
            to_worker: EventCount::new(),
            to_master: EventCount::new(),
        })
    }

    #[inline]
    fn phase(&self) -> u8 {
        self.phase.load(Ordering::Acquire)
    }

    /// Master side: move an idle slot to `phase` (carrying `job`), waking
    /// the worker only if it is parked.  Posts are serialised by the
    /// runtime's pool lock, so the slot stays idle until this one lands.
    fn post(&self, phase: u8, job: Option<JobMsg>) {
        self.to_master
            .wait_until(DOCK_SPIN, None, || self.phase() == IDLE);
        *self.job.lock() = job;
        self.phase.store(phase, Ordering::Release);
        self.to_worker.notify_one();
    }

    /// Master side: hand a job to this slot (waits for the slot to be idle,
    /// which it almost always already is).
    pub(crate) fn assign(&self, job: JobMsg) {
        self.post(JOB, Some(job));
    }

    /// Block until this slot is idle — i.e. any taken job has fully
    /// completed, trailing trace events included.  Used by trace drains,
    /// which need real quiescence, not just "job accepted".
    pub(crate) fn wait_idle(&self) {
        let idle = || matches!(self.phase(), IDLE | EXIT);
        self.to_master.wait_until(DOCK_SPIN, None, idle);
    }

    /// Master side at shutdown.
    pub(crate) fn send_exit(&self) {
        self.post(EXIT, None);
    }

    /// Worker side: wait for a job or exit — spin, yield, then park —
    /// and take the job.  `None` means exit.  The spin stops early once
    /// another runtime forks (see [`LAST_FORK`]).
    fn take(&self) -> Option<JobMsg> {
        let posted = || matches!(self.phase(), JOB | EXIT);
        spin_until(DOCK_SPIN, || {
            posted() || LAST_FORK.load(Ordering::Relaxed) != self.owner
        });
        self.to_worker.wait_until(SpinBudget::NONE, None, posted);
        if self.phase() == EXIT {
            return None;
        }
        let job = self.job.lock().take();
        self.phase.store(RUNNING, Ordering::Relaxed);
        Some(job.expect("a posted job"))
    }

    /// Worker side: back to idle, waking a master only if one is parked.
    fn finish(&self) {
        self.phase.store(IDLE, Ordering::Release);
        self.to_master.notify_all();
    }

    /// Worker side: the dock loop.
    pub(crate) fn worker_loop(self: &Arc<Self>) {
        while let Some(job) = self.take() {
            // Run outside the job lock.  Mark idle only after the region
            // member fully completes — its trailing trace events included —
            // and its team reference is gone, so `wait_idle` observers see
            // a quiescent member and every per-region backend object the
            // worker kept alive has been released.
            run_region_member(&job);
            drop(job);
            self.finish();
        }
    }
}

/// Execute one team member: profiling bracket, region closure with panic
/// capture, then the implicit end-of-region barrier.
pub(crate) fn run_region_member(job: &JobMsg) {
    let team = &job.team;
    // SAFETY: the master keeps the runtime alive for the whole region (it
    // is itself executing a member of the same team).
    let rt = unsafe { &*job.rt };
    let in_parallel_prev = crate::runtime::enter_region_flag();
    let w = crate::worker::Worker::new(team, rt, job.tid);
    team.tracer
        .begin(EventKind::Region, job.tid as u32, team.size as u64);
    let start = if job.profiling {
        Some(mca_platform::vtime::thread_cpu_ns())
    } else {
        None
    };
    // SAFETY: the closure outlives the region; see RegionFn.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
        job.func.call(&w)
    }));
    if let Err(payload) = result {
        team.record_panic(payload);
    }
    if let Some(t0) = start {
        let dt = mca_platform::vtime::thread_cpu_ns().saturating_sub(t0);
        team.cpu_ns[job.tid].fetch_add(dt, Ordering::Relaxed);
    }
    // Implicit end-of-region barrier: also guarantees all explicit tasks
    // complete (OpenMP's rule), via the worker's task-draining barrier.
    // Never the unwinding kind — nothing past this point may panic.  On a
    // cancelled team the barrier is broken (members may have unwound past
    // mid-region barriers, so its counts no longer mean anything); the
    // join latch below is then the only synchronization.
    if !team.cancel_pending() {
        w.barrier_quiet();
    } else {
        team.latch_cancel();
    }
    // Unconditional join: the master must not drop the region closure (or
    // let the runtime pointer dangle) while any member can still touch it.
    team.join_member(job.tid);
    team.tracer
        .end(EventKind::Region, job.tid as u32, team.size as u64);
    crate::runtime::restore_region_flag(in_parallel_prev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, NativeBackend};
    use crate::barrier::BarrierKind;

    pub(crate) fn mk_team(size: usize) -> Arc<TeamShared> {
        mk_team_sharded(size, ShardLayout::single(size), None)
    }

    pub(crate) fn mk_team_sharded(
        size: usize,
        layout: ShardLayout,
        affinity: Option<u64>,
    ) -> Arc<TeamShared> {
        let be = NativeBackend::new();
        Arc::new(TeamShared::new(
            size,
            Barrier::with_layout(size, BarrierKind::Centralized, &layout),
            be.alloc_shared_words(TeamShared::reduce_words_len(size))
                .unwrap(),
            Arc::new(Tracer::new(false)),
            None,
            layout,
            affinity,
        ))
    }

    #[test]
    fn drain_tasks_runs_everything() {
        let team = mk_team(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..5 {
            let h = Arc::clone(&hits);
            team.push_task(
                0,
                team.home_of(0),
                0,
                Box::new(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        assert!(team.drain_tasks(0));
        assert_eq!(hits.load(Ordering::Relaxed), 5);
        assert_eq!(team.outstanding_tasks.load(Ordering::Relaxed), 0);
        assert!(!team.drain_tasks(0), "second drain finds nothing");
    }

    #[test]
    fn drain_steals_from_other_members() {
        let team = mk_team(4);
        let hits = Arc::new(AtomicU64::new(0));
        // Queue on members 1..3; member 0 must reach all of them by
        // stealing.
        for tid in 1..4 {
            for _ in 0..3 {
                let h = Arc::clone(&hits);
                team.push_task(
                    tid,
                    team.home_of(tid),
                    0,
                    Box::new(move || {
                        h.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
        }
        assert!(team.drain_tasks(0));
        assert_eq!(hits.load(Ordering::Relaxed), 9);
        assert_eq!(team.outstanding_tasks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn task_overflow_spills_to_injector() {
        let team = mk_team(1);
        let hits = Arc::new(AtomicU64::new(0));
        let n = (LOCAL_TASK_RING + 50) as u64;
        for _ in 0..n {
            let h = Arc::clone(&hits);
            team.push_task(
                0,
                team.home_of(0),
                0,
                Box::new(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        assert!(
            !team.shard_injectors[0].is_empty(),
            "overflow reached the shard injector"
        );
        assert!(team.drain_tasks(0));
        assert_eq!(hits.load(Ordering::Relaxed), n);
    }

    #[test]
    fn local_work_never_crosses_shards() {
        // 4 members over 2 shards (round-robin: shard 0 = {0,2}, shard 1
        // = {1,3}).  All work lives in shard 0; member 0 drains it all by
        // popping its own ring and stealing from its shard-mate.  The
        // remote counter must stay zero: local sources never ran dry
        // while shard 0 still had work, and shard 1 never had any.
        let team = mk_team_sharded(4, ShardLayout::uniform(2, 4), None);
        let hits = Arc::new(AtomicU64::new(0));
        for tid in [0usize, 2] {
            for _ in 0..6 {
                let h = Arc::clone(&hits);
                team.push_task(
                    tid,
                    team.home_of(tid),
                    0,
                    Box::new(move || {
                        h.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
        }
        assert!(team.drain_tasks(0));
        assert_eq!(hits.load(Ordering::Relaxed), 12);
        assert!(
            team.counters.steals_local.load(Ordering::Relaxed) > 0,
            "member 0 must have stolen from shard-mate 2"
        );
        assert_eq!(
            team.counters.steals_remote.load(Ordering::Relaxed),
            0,
            "no work ever crossed the shard boundary"
        );
    }

    #[test]
    fn starved_shard_steals_remotely() {
        // All work pinned to shard 0; member 1 (shard 1) is starved and
        // must escalate across the shard boundary to make progress.
        let team = mk_team_sharded(4, ShardLayout::uniform(2, 4), None);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let h = Arc::clone(&hits);
            team.push_task(
                0,
                team.home_of(0),
                0,
                Box::new(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        assert!(team.drain_tasks(1), "starved member found remote work");
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        assert!(
            team.counters.steals_remote.load(Ordering::Relaxed) > 0,
            "cross-shard steals keep a starved shard fed"
        );
    }

    #[test]
    fn keyed_tasks_land_on_home_shard() {
        let layout = ShardLayout::uniform(4, 8);
        let key = 0xFEEDu64;
        let home = layout.shard_for_key(key);
        let team = mk_team_sharded(8, layout.clone(), None);
        // Spawn from a member of a *different* shard: the task must go
        // to the home shard's injector, not the spawner's ring.
        let spawner = layout.members_of((home + 1) % 4)[0];
        team.push_task(spawner, home, key, Box::new(|| {}));
        assert!(
            !team.shard_injectors[home].is_empty(),
            "keyed task staged on its home shard"
        );
        assert!(team.task_rings[spawner].pop().is_none());
        // A home-shard member picks it up without a remote steal.
        assert!(team.drain_tasks(layout.members_of(home)[0]));
        assert_eq!(team.counters.steals_remote.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ambient_affinity_routes_spawns_to_home_shard() {
        let layout = ShardLayout::uniform(2, 4);
        let key = 7u64;
        let home = layout.shard_for_key(key);
        let team = mk_team_sharded(4, layout.clone(), Some(key));
        // A member outside the home shard spawns a plain task: the
        // ambient key redirects it into the home shard's injector.
        let outsider = layout.members_of((home + 1) % 2)[0];
        team.push_task(outsider, team.home_of(outsider), 0, Box::new(|| {}));
        assert!(!team.shard_injectors[home].is_empty());
        assert!(team.task_rings[outsider].pop().is_none());
        assert!(team.drain_tasks(layout.members_of(home)[0]));
    }

    #[test]
    fn tasks_spawned_from_tasks_all_complete() {
        // A queued task that queues more tasks (OpenMP allows arbitrary
        // nesting); a barrier-style drain loop must see all of them,
        // including grandchildren queued mid-drain.
        let team = mk_team(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let team2 = Arc::clone(&team);
            let h = Arc::clone(&hits);
            team.push_task(
                0,
                team.home_of(0),
                0,
                Box::new(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..3 {
                        let team3 = Arc::clone(&team2);
                        let h = Arc::clone(&h);
                        team2.push_task(
                            1,
                            team2.home_of(1),
                            0,
                            Box::new(move || {
                                h.fetch_add(1, Ordering::Relaxed);
                                let h = Arc::clone(&h);
                                team3.push_task(
                                    0,
                                    team3.home_of(0),
                                    0,
                                    Box::new(move || {
                                        h.fetch_add(1, Ordering::Relaxed);
                                    }),
                                );
                            }),
                        );
                    }
                }),
            );
        }
        // The worker barrier's completion loop: drain until outstanding
        // hits zero, which must include tasks spawned *during* the drain.
        while team.outstanding_tasks.load(Ordering::Acquire) > 0 {
            team.drain_tasks(0);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 4 + 4 * 3 + 4 * 3);
    }

    #[test]
    fn panicking_task_is_recorded_not_propagated() {
        let team = mk_team(2);
        team.push_task(1, team.home_of(1), 0, Box::new(|| panic!("task boom")));
        // Member 0 steals and runs it; the panic must be captured.
        assert!(team.drain_tasks(0));
        assert_eq!(team.outstanding_tasks.load(Ordering::Relaxed), 0);
        let p = team.panic.lock().take().expect("panic recorded");
        assert_eq!(*p.downcast_ref::<&str>().unwrap(), "task boom");
    }

    #[test]
    fn first_panic_wins() {
        let team = mk_team(1);
        team.record_panic(Box::new("first"));
        team.record_panic(Box::new("second"));
        let p = team.panic.lock().take().unwrap();
        assert_eq!(*p.downcast_ref::<&str>().unwrap(), "first");
    }

    #[test]
    fn construct_ring_shares_state_per_seq() {
        let team = mk_team(2);
        let a = team.construct(0, 0, || ConstructState::new(0, 10));
        let b = team.construct(1, 0, || ConstructState::new(99, 99));
        assert!(Arc::ptr_eq(&a, &b), "same seq names the same construct");
        assert_eq!(a.cursor.load(Ordering::Relaxed), 0, "first init wins");
        team.construct_done(0, &a);
        team.construct_done(0, &b);
        // Slot released: seq CONSTRUCT_RING reuses it with fresh state.
        let c = team.construct(0, CONSTRUCT_RING as u64, || ConstructState::new(7, 7));
        assert_eq!(c.cursor.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn construct_ring_lap_waits_for_release() {
        // Size-1 team: every construct is released immediately, so a long
        // seq chain must wrap the ring cleanly.
        let team = mk_team(1);
        for seq in 0..(CONSTRUCT_RING as u64 * 3) {
            let st = team.construct(0, seq, || ConstructState::new(seq, 1));
            assert_eq!(st.cursor.load(Ordering::Relaxed), seq);
            team.construct_done(seq, &st);
        }
    }

    #[test]
    fn slot_assign_exit_protocol() {
        let rt = crate::runtime::RtInner::for_tests();
        let slot = PoolSlot::new(Arc::as_ptr(&rt));
        let s2 = Arc::clone(&slot);
        let h = std::thread::spawn(move || s2.worker_loop());
        let team = mk_team(2);
        // tid 1 runs a trivial region; master (this thread) is tid 0.
        let f: &(dyn Fn(&crate::worker::Worker) + Sync) = &|w| {
            assert_eq!(w.num_threads(), 2);
        };
        slot.assign(JobMsg {
            team: Arc::clone(&team),
            tid: 1,
            func: RegionFn(f as *const _),
            rt: &*rt,
            profiling: false,
        });
        // Master member participates so the implicit barrier completes.
        run_region_member(&JobMsg {
            team: Arc::clone(&team),
            tid: 0,
            func: RegionFn(f as *const _),
            rt: &*rt,
            profiling: false,
        });
        slot.send_exit();
        h.join().unwrap();
        assert!(team.panic.lock().is_none());
    }

    #[test]
    fn dock_catches_jobs_spinning_and_parked() {
        // Seeded master gaps on both sides of the dock budget: the worker
        // takes some jobs while still spinning and others after parking.
        // Idle waits land while the worker spins; so does the exit.
        crate::barrier::tests::within(60, || {
            let rt = crate::runtime::RtInner::for_tests();
            let slot = PoolSlot::new(Arc::as_ptr(&rt));
            let s2 = Arc::clone(&slot);
            let h = std::thread::spawn(move || s2.worker_loop());
            let ran = Arc::new(AtomicU64::new(0));
            let r2 = Arc::clone(&ran);
            let f: &(dyn Fn(&crate::worker::Worker) + Sync) = &move |_| {
                r2.fetch_add(1, Ordering::Relaxed);
            };
            let regions = 3000;
            let mut rng = mca_sync::SmallRng::seed_from_u64(0xD0C4);
            for _ in 0..regions {
                match rng.next_u64() % 4 {
                    0 => std::thread::sleep(DOCK_YIELD * 3),
                    1 => slot.wait_idle(),
                    _ => {}
                }
                // As `fork_join` does.  (A concurrently running test that
                // forks its own runtime only makes this worker park more.)
                note_fork(Arc::as_ptr(&rt));
                let team = mk_team(2);
                let job = |tid| JobMsg {
                    team: Arc::clone(&team),
                    tid,
                    func: RegionFn(f as *const _),
                    rt: &*rt,
                    profiling: false,
                };
                slot.assign(job(1));
                run_region_member(&job(0));
                assert!(team.panic.lock().is_none());
            }
            slot.wait_idle();
            assert_eq!(ran.load(Ordering::Relaxed), 2 * regions);
            let parks = slot.to_worker.parks();
            assert!(parks > 0, "no job was caught after parking");
            assert!(parks < regions, "no job was caught while spinning");
            slot.send_exit();
            h.join().unwrap();
        });
    }

    #[test]
    fn idle_waiter_parked_through_a_long_region_is_woken() {
        // A quiesce that outlasts the dock budget parks on `to_master`; the
        // worker's return to idle must wake it.
        crate::barrier::tests::within(20, || {
            let rt = crate::runtime::RtInner::for_tests();
            let slot = PoolSlot::new(Arc::as_ptr(&rt));
            let s2 = Arc::clone(&slot);
            let h = std::thread::spawn(move || s2.worker_loop());
            let f: &(dyn Fn(&crate::worker::Worker) + Sync) = &|w| {
                if w.thread_num() == 1 {
                    std::thread::sleep(DOCK_YIELD * 20);
                }
            };
            for _ in 0..20 {
                let team = mk_team(2);
                let job = |tid| JobMsg {
                    team: Arc::clone(&team),
                    tid,
                    func: RegionFn(f as *const _),
                    rt: &*rt,
                    profiling: false,
                };
                slot.assign(job(1));
                let s3 = Arc::clone(&slot);
                let waiter = std::thread::spawn(move || s3.wait_idle());
                run_region_member(&job(0));
                waiter.join().unwrap();
            }
            slot.send_exit();
            h.join().unwrap();
        });
    }

    #[test]
    fn runtime_regions_quiesce_and_drop_around_the_dock_budget() {
        // The same gaps through the public runtime: regions, quiesce
        // (`wait_idle` on every slot) and runtime drop (`send_exit`) while
        // the pool workers are still spinning.
        crate::barrier::tests::within(60, || {
            let mut rng = mca_sync::SmallRng::seed_from_u64(0xD0C5);
            for kind in crate::BackendKind::all() {
                for _ in 0..4 {
                    let rt = crate::Runtime::with_backend(kind).unwrap();
                    let n = 2 + (rng.next_u64() % 2) as usize;
                    for _ in 0..250 {
                        match rng.next_u64() % 4 {
                            0 => std::thread::sleep(DOCK_YIELD * 3),
                            1 => rt.quiesce(),
                            _ => {}
                        }
                        let sum = rt.parallel_reduce_sum(n, 0..100, |i| i);
                        assert_eq!(sum, 4950);
                    }
                    rt.quiesce();
                    rt.parallel(n, |w| w.barrier());
                    drop(rt);
                }
            }
        });
    }
}
