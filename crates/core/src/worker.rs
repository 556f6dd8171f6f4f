//! The per-thread region context: every OpenMP construct lives here.
//!
//! A [`Worker`] is what the region closure receives — the analogue of the
//! implicit context an OpenMP compiler threads through outlined functions.
//! It exposes the constructs the paper's Table I measures (`parallel` is the
//! runtime's job; `for`, `barrier`, `single`, `critical`, `reduction` are
//! here) plus `master`, `sections`, `ordered`, copyprivate `single`, generic
//! reductions, and explicit tasks with `taskwait`.
//!
//! Construct identity: constructs that need shared state (dynamic/guided
//! loops, copyprivate `single`, `sections`, generic reductions) draw a
//! per-worker sequence number.  OpenMP requires every team member to
//! encounter worksharing constructs in the same order, so equal sequence
//! numbers on different workers name the same construct — the same
//! invariant libGOMP's `work_share` chaining relies on.  Plain `single`
//! uses the same invariant more cheaply: a per-worker count of singles met
//! and one team word, as `GOMP_single_start` does.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mca_sync::park::SpinBudget;

use crate::runtime::RtInner;
use crate::schedule::{guided_chunk, static_block, static_chunk_starts, Schedule};
use crate::team::{ConstructState, TeamShared, REDUCE_STRIDE};

/// FNV-1a over `bytes` — stable tag for named criticals in trace events.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Reduction combiners for the word-typed fast paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `+` (wrapping for integers).
    Sum,
    /// `*` (wrapping for integers).
    Prod,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise AND (integers only).
    BitAnd,
    /// Bitwise OR (integers only).
    BitOr,
    /// Bitwise XOR (integers only).
    BitXor,
}

impl ReduceOp {
    fn apply_u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Prod => a.wrapping_mul(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::BitAnd => a & b,
            ReduceOp::BitOr => a | b,
            ReduceOp::BitXor => a ^ b,
        }
    }

    fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            _ => panic!("bitwise reduction ops are integer-only"),
        }
    }

    /// Identity element for u64.
    pub fn identity_u64(self) -> u64 {
        match self {
            ReduceOp::Sum | ReduceOp::BitOr | ReduceOp::BitXor => 0,
            ReduceOp::Prod => 1,
            ReduceOp::Min | ReduceOp::BitAnd => u64::MAX,
            ReduceOp::Max => 0,
        }
    }
}

/// A team member's handle inside a parallel region.
pub struct Worker<'a> {
    team: &'a Arc<TeamShared>,
    rt: &'a RtInner,
    tid: usize,
    seq: Cell<u64>,
    /// Plain `single` constructs this member has met (see
    /// [`Worker::single_nowait`]).
    singles: Cell<u64>,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(team: &'a Arc<TeamShared>, rt: &'a RtInner, tid: usize) -> Self {
        Worker {
            team,
            rt,
            tid,
            seq: Cell::new(0),
            singles: Cell::new(0),
        }
    }

    /// `omp_get_thread_num`.
    #[inline]
    pub fn thread_num(&self) -> usize {
        self.tid
    }

    /// `omp_get_num_threads`.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.team.size
    }

    /// Whether this member is the master (thread 0).
    #[inline]
    pub fn is_master(&self) -> bool {
        self.tid == 0
    }

    /// Which runtime shard this member belongs to (always 0 on an
    /// unsharded runtime).
    ///
    /// ```
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    /// use romp::{Config, Runtime};
    ///
    /// let rt = Runtime::with_config(Config::default().with_shards(2)).unwrap();
    /// let max_shard = AtomicUsize::new(0);
    /// rt.parallel(4, |w| {
    ///     assert!(w.shard_num() < w.num_shards());
    ///     max_shard.fetch_max(w.shard_num(), Ordering::Relaxed);
    /// });
    /// assert_eq!(max_shard.into_inner(), 1, "4 members span both shards");
    /// ```
    #[inline]
    pub fn shard_num(&self) -> usize {
        self.team.layout.shard_of(self.tid)
    }

    /// How many shards this member's team is split into.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.team.layout.num_shards()
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// Fetch-or-create the shared state for construct `key` — a lock-free
    /// construct-ring lookup (see [`crate::team::ConstructRing`]); no team
    /// lock on any worksharing fast path.
    fn construct(&self, key: u64, init: impl FnOnce() -> ConstructState) -> Arc<ConstructState> {
        self.team.construct(self.tid, key, init)
    }

    /// Mark this member done with construct `key`; the last one releases
    /// the ring slot.
    fn construct_done(&self, key: u64, state: &Arc<ConstructState>) {
        self.team.construct_done(key, state);
    }

    // ------------------------------------------------------------------
    // barrier
    // ------------------------------------------------------------------

    /// `#pragma omp barrier` — also a task scheduling point: queued explicit
    /// tasks are guaranteed complete when the barrier returns.
    ///
    /// Barriers are also *cancellation points*: a member whose team has
    /// been cancelled unwinds here instead of arriving, both on entry (the
    /// common case) and after release (a member woken by a broken barrier).
    pub fn barrier(&self) {
        self.team.cancel_checkpoint();
        self.barrier_quiet();
        self.team.cancel_checkpoint();
    }

    /// The barrier body without cancellation points — never unwinds.  The
    /// end-of-region epilogue uses this directly: nothing outside the
    /// region's `catch_unwind` net may panic.
    pub(crate) fn barrier_quiet(&self) {
        if self.tid == 0 {
            self.team.counters.barriers.fetch_add(1, Ordering::Relaxed);
            self.rt.stats.activity.fetch_add(1, Ordering::Relaxed);
        }
        self.team
            .tracer
            .begin(romp_trace::EventKind::Barrier, self.tid as u32, 0);
        self.team.drain_tasks(self.tid);
        let team = self.team;
        let tid = self.tid;
        self.team.barrier.wait_idle(tid, || team.drain_tasks(tid));
        // Tasks spawned by tasks during the wait: finish them before
        // proceeding, so the OpenMP completion guarantee holds.  A
        // cancelled team forfeits that guarantee — unwound members will
        // never run their share, so waiting would hang.
        while self.team.outstanding_tasks.load(Ordering::Acquire) > 0 {
            if self.team.cancel_pending() {
                break;
            }
            if !self.team.drain_tasks(tid) {
                std::thread::yield_now();
            }
        }
        self.team
            .tracer
            .end(romp_trace::EventKind::Barrier, self.tid as u32, 0);
    }

    // ------------------------------------------------------------------
    // worksharing loops
    // ------------------------------------------------------------------

    fn resolve(&self, sched: Schedule) -> Schedule {
        match sched {
            Schedule::Runtime => match self.rt.cfg.runtime_schedule {
                Schedule::Runtime => Schedule::Static { chunk: None },
                other => other,
            },
            Schedule::Auto => Schedule::Static { chunk: None },
            other => other,
        }
    }

    /// Worksharing loop over `range`, chunk-at-a-time, **no implicit
    /// barrier** (`nowait`).  The primitive the other loop forms wrap;
    /// kernels that want slice access use it directly.
    pub fn for_chunks_nowait(
        &self,
        range: Range<u64>,
        sched: Schedule,
        mut f: impl FnMut(Range<u64>),
    ) {
        if self.tid == 0 {
            self.team.counters.loops.fetch_add(1, Ordering::Relaxed);
            self.rt.stats.activity.fetch_add(1, Ordering::Relaxed);
        }
        self.team.cancel_checkpoint();
        let n = range.end.saturating_sub(range.start);
        let nthreads = self.team.size;
        match self.resolve(sched) {
            Schedule::Static { chunk: None } | Schedule::Auto | Schedule::Runtime => {
                let (s, e) = static_block(n, nthreads, self.tid);
                if s < e {
                    f(range.start + s..range.start + e);
                }
            }
            Schedule::Static { chunk: Some(c) } => {
                for (s, e) in static_chunk_starts(n, c, nthreads, self.tid) {
                    f(range.start + s..range.start + e);
                }
            }
            Schedule::Dynamic { chunk } => {
                let chunk = chunk.max(1) as u64;
                let key = self.next_seq();
                let state = self.construct(key, || ConstructState::new(range.start, n));
                loop {
                    self.team.cancel_checkpoint();
                    let s = state.cursor.fetch_add(chunk, Ordering::AcqRel);
                    if s >= range.end {
                        break;
                    }
                    f(s..(s + chunk).min(range.end));
                }
                self.construct_done(key, &state);
            }
            Schedule::Guided { chunk } => {
                let key = self.next_seq();
                let state = self.construct(key, || ConstructState::new(range.start, n));
                loop {
                    self.team.cancel_checkpoint();
                    let rem = state.remaining.load(Ordering::Acquire);
                    if rem == 0 {
                        break;
                    }
                    let take = guided_chunk(rem, nthreads, chunk);
                    if state
                        .remaining
                        .compare_exchange(rem, rem - take, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue;
                    }
                    let s = state.cursor.fetch_add(take, Ordering::AcqRel);
                    f(s..s + take);
                }
                self.construct_done(key, &state);
            }
        }
    }

    /// Worksharing loop, one call per iteration, with the implicit
    /// end-of-loop barrier (`#pragma omp for`).
    pub fn for_range(&self, range: Range<u64>, sched: Schedule, mut f: impl FnMut(u64)) {
        self.for_chunks_nowait(range, sched, |chunk| {
            for i in chunk {
                f(i);
            }
        });
        self.barrier();
    }

    /// `#pragma omp for nowait`.
    pub fn for_range_nowait(&self, range: Range<u64>, sched: Schedule, mut f: impl FnMut(u64)) {
        self.for_chunks_nowait(range, sched, |chunk| {
            for i in chunk {
                f(i);
            }
        });
    }

    /// `collapse(2)` worksharing: the Cartesian product `outer × inner` is
    /// flattened into one iteration space and workshared under `sched`;
    /// the body receives `(i, j)`.  Implicit end barrier.
    pub fn for_range_2d(
        &self,
        outer: Range<u64>,
        inner: Range<u64>,
        sched: Schedule,
        mut f: impl FnMut(u64, u64),
    ) {
        let ilen = inner.end.saturating_sub(inner.start);
        let olen = outer.end.saturating_sub(outer.start);
        let total = olen.saturating_mul(ilen);
        self.for_chunks_nowait(0..total, sched, |chunk| {
            for flat in chunk {
                let i = outer.start + flat / ilen.max(1);
                let j = inner.start + flat % ilen.max(1);
                f(i, j);
            }
        });
        self.barrier();
    }

    /// Ordered worksharing loop: `body` receives each owned iteration index;
    /// inside it, [`Worker::ordered`] blocks until every lower iteration's
    /// ordered block has run (`#pragma omp for ordered`).
    pub fn for_range_ordered(&self, range: Range<u64>, sched: Schedule, body: impl Fn(u64)) {
        self.barrier();
        if self.tid == 0 {
            self.team
                .ordered_cursor
                .store(range.start, Ordering::Relaxed);
        }
        self.barrier();
        self.for_chunks_nowait(range.clone(), sched, |chunk| {
            for i in chunk {
                body(i);
            }
        });
        self.barrier();
    }

    /// The `#pragma omp ordered` block for iteration `index` (use inside
    /// [`Worker::for_range_ordered`]).
    pub fn ordered<R>(&self, index: u64, f: impl FnOnce() -> R) -> R {
        let team = self.team;
        let mine = || team.ordered_cursor.load(Ordering::Acquire) == index;
        // A lower iteration's owner may unwind and never advance the
        // cursor; the cancellation latch that unwound it notifies us.
        team.ordered_wake
            .wait_until(SpinBudget::NONE, None, || mine() || team.cancel_pending());
        if !mine() {
            team.cancel_checkpoint();
        }
        let out = f();
        team.ordered_cursor.store(index + 1, Ordering::Release);
        team.ordered_wake.notify_all();
        out
    }

    // ------------------------------------------------------------------
    // single / master / sections
    // ------------------------------------------------------------------

    /// `#pragma omp single` (with the implicit barrier): exactly one member
    /// runs `f`; returns `Some` on that member.
    pub fn single<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let out = self.single_nowait(f);
        self.barrier();
        out
    }

    /// `#pragma omp single nowait`.
    ///
    /// libGOMP's `GOMP_single_start`: member-local count `mine` of singles
    /// met, one team word counting singles claimed.  Every member meets
    /// the singles in the same order and has passed the first `mine` of
    /// them, so the team word is at least `mine` here; it moves
    /// `mine → mine + 1` exactly once, and whoever moves it runs `f`.  No
    /// construct-ring slot, no shared state to allocate or release.
    pub fn single_nowait<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let mine = self.singles.get();
        self.singles.set(mine + 1);
        let count = &self.team.single_count;
        // The load spares losers the RMW: a member behind the winner sees
        // the word already past `mine`.
        let won = count.load(Ordering::Relaxed) == mine
            && count
                .compare_exchange(mine, mine + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok();
        if won {
            self.team.counters.singles.fetch_add(1, Ordering::Relaxed);
            Some(f())
        } else {
            None
        }
    }

    /// `single copyprivate`: one member computes the value, everyone
    /// receives a clone (two barriers, like libGOMP's implementation).
    pub fn single_copy<T: Clone + Send + 'static>(&self, f: impl FnOnce() -> T) -> T {
        let key = self.next_seq();
        let state = self.construct(key, || ConstructState::new(0, 0));
        let won = state
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            self.team.counters.singles.fetch_add(1, Ordering::Relaxed);
            *state.stage.lock() = Some(Box::new(f()));
        }
        self.barrier();
        let value = state
            .stage
            .lock()
            .as_ref()
            .and_then(|b| b.downcast_ref::<T>())
            .expect("copyprivate stage must hold the produced value")
            .clone();
        self.barrier();
        self.construct_done(key, &state);
        value
    }

    /// `#pragma omp master`: runs only on thread 0, no barrier.
    pub fn master<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        if self.tid == 0 {
            Some(f())
        } else {
            None
        }
    }

    /// `#pragma omp sections`: `n` section bodies indexed 0..n, distributed
    /// dynamically; implicit end barrier.
    pub fn sections(&self, n: usize, f: impl Fn(usize)) {
        let key = self.next_seq();
        let state = self.construct(key, || ConstructState::new(0, n as u64));
        loop {
            self.team.cancel_checkpoint();
            let i = state.cursor.fetch_add(1, Ordering::AcqRel);
            if i >= n as u64 {
                break;
            }
            f(i as usize);
        }
        self.construct_done(key, &state);
        self.barrier();
    }

    // ------------------------------------------------------------------
    // critical
    // ------------------------------------------------------------------

    /// `#pragma omp critical(name)` — one global lock per name, provided by
    /// the backend (MRAPI mutexes under the MCA backend; §5B.3).  A name
    /// in use is found through its published lock, so a call costs one
    /// lock round trip (libGOMP's `GOMP_critical_name_start`).
    pub fn critical<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        // Cancellation point *before* acquisition only: never unwind while
        // holding the lock, and never between acquire and release.
        self.team.cancel_checkpoint();
        // The span covers acquisition + body, tagged with a stable hash of
        // the critical's name so traces can tell sections apart; the same
        // hash keys the published-lock lookup.
        let name_tag = fnv1a(name.as_bytes());
        self.team
            .tracer
            .begin(romp_trace::EventKind::Critical, self.tid as u32, name_tag);
        let unpublished;
        let lock = match self.rt.published_critical(name, name_tag) {
            Some(lock) => lock,
            None => {
                unpublished = self.rt.critical_lock(name, name_tag);
                &*unpublished
            }
        };
        lock.lock();
        // Counted while holding the lock, so a waiter's bumps never race
        // the holder for these lines.
        self.team.counters.criticals.fetch_add(1, Ordering::Relaxed);
        self.rt.stats.activity.fetch_add(1, Ordering::Relaxed);
        let out = f();
        // The guard was held; residual unlock errors were already retried
        // inside the lock and must not unwind user code.
        let _ = lock.unlock();
        self.team
            .tracer
            .end(romp_trace::EventKind::Critical, self.tid as u32, name_tag);
        out
    }

    // ------------------------------------------------------------------
    // reductions
    // ------------------------------------------------------------------

    fn reduce_bits(&self, bits: u64, combine: impl Fn(u64, u64) -> u64) -> u64 {
        // Contribution slots are strided so each member writes its own
        // 128-byte line pair; without the stride, 16 members share two
        // lines and the stores ping-pong them around the team.
        let words = self.team.reduce_words.words();
        let result = self.team.size * REDUCE_STRIDE;
        words[self.tid * REDUCE_STRIDE].store(bits, Ordering::Release);
        self.barrier();
        if self.tid == 0 {
            let mut acc = words[0].load(Ordering::Acquire);
            for t in 1..self.team.size {
                acc = combine(acc, words[t * REDUCE_STRIDE].load(Ordering::Acquire));
            }
            words[result].store(acc, Ordering::Release);
        }
        self.barrier();
        words[result].load(Ordering::Acquire)
    }

    /// `reduction(op: f64)` — every member contributes `value`, every member
    /// receives the combined result.  The scratch buffer is backend shared
    /// memory (the paper's `gomp_malloc`-through-MRAPI path).
    pub fn reduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        f64::from_bits(self.reduce_bits(value.to_bits(), |a, b| {
            op.apply_f64(f64::from_bits(a), f64::from_bits(b)).to_bits()
        }))
    }

    /// `reduction(op: u64)`.
    pub fn reduce_u64(&self, value: u64, op: ReduceOp) -> u64 {
        self.reduce_bits(value, |a, b| op.apply_u64(a, b))
    }

    /// Generic reduction over any `Clone + Send` type with a caller-supplied
    /// associative combiner.  Combination order is unspecified (as in
    /// OpenMP).
    pub fn reduce_with<T: Clone + Send + 'static>(
        &self,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> T {
        let key = self.next_seq();
        let state = self.construct(key, || ConstructState::new(0, 0));
        {
            let mut stage = state.stage.lock();
            *stage = Some(match stage.take() {
                None => Box::new(value),
                Some(acc) => {
                    let acc = *acc.downcast::<T>().expect("homogeneous reduction type");
                    Box::new(combine(acc, value))
                }
            });
        }
        self.barrier();
        let out = state
            .stage
            .lock()
            .as_ref()
            .and_then(|b| b.downcast_ref::<T>())
            .expect("reduction stage holds the accumulator")
            .clone();
        self.barrier();
        self.construct_done(key, &state);
        out
    }

    // ------------------------------------------------------------------
    // tasks
    // ------------------------------------------------------------------

    /// `#pragma omp task`: queue `f` for execution by any team member at the
    /// next task scheduling point (barriers, `taskwait`).  Requires
    /// `'static` captures (move `Arc`s/atomics in), since tasks may run on
    /// another member's stack.
    pub fn task(&self, f: impl FnOnce() + Send + 'static) {
        self.team
            .push_task(self.tid, self.team.home_of(self.tid), 0, Box::new(f));
    }

    /// [`Worker::task`] with an explicit affinity key: the key hashes to
    /// a home shard ([`mca_platform::ShardLayout::shard_for_key`]) and
    /// the task is queued there — on this member's own ring when it
    /// already sits in the home shard, into the home shard's injector
    /// otherwise.  Tasks sharing a key therefore share a cache domain;
    /// other shards only run them by cross-shard stealing once their own
    /// work is dry.  On an unsharded runtime this is exactly `task`.
    ///
    /// ```
    /// use std::sync::atomic::{AtomicU64, Ordering};
    /// use std::sync::Arc;
    /// use romp::{Config, Runtime};
    ///
    /// let rt = Runtime::with_config(Config::default().with_shards(4)).unwrap();
    /// let ran = Arc::new(AtomicU64::new(0));
    /// rt.parallel(8, |w| {
    ///     if w.is_master() {
    ///         for key in 0..16u64 {
    ///             let ran = Arc::clone(&ran);
    ///             w.task_with_affinity(key, move || {
    ///                 ran.fetch_add(1, Ordering::Relaxed);
    ///             });
    ///         }
    ///     }
    ///     w.barrier(); // task scheduling point: all 16 complete here
    /// });
    /// assert_eq!(ran.load(Ordering::Relaxed), 16);
    /// ```
    pub fn task_with_affinity(&self, key: u64, f: impl FnOnce() + Send + 'static) {
        let home = self.team.layout.shard_for_key(key);
        self.team.push_task(self.tid, home, key, Box::new(f));
    }

    /// `#pragma omp taskloop`: split `range` into tasks of `grain`
    /// iterations each, queue them for the team, and wait for completion.
    /// The body is shared by all tasks (wrapped in an `Arc`), so it needs
    /// only `Fn` — but like [`Worker::task`] it must be `'static`.
    pub fn taskloop(&self, range: Range<u64>, grain: u64, f: impl Fn(u64) + Send + Sync + 'static) {
        let grain = grain.max(1);
        let f = std::sync::Arc::new(f);
        let mut start = range.start;
        while start < range.end {
            let end = (start + grain).min(range.end);
            let f = std::sync::Arc::clone(&f);
            self.task(move || {
                for i in start..end {
                    f(i);
                }
            });
            start = end;
        }
        self.taskwait();
    }

    /// `#pragma omp taskwait`: run/await queued tasks until none remain.
    /// Pops this member's own ring first, then steals, so the common case
    /// (wait for tasks you just queued) never touches a shared line.
    pub fn taskwait(&self) {
        while self.team.outstanding_tasks.load(Ordering::Acquire) > 0 {
            self.team.cancel_checkpoint();
            if !self.team.drain_tasks(self.tid) {
                std::thread::yield_now();
            }
        }
    }

    // ------------------------------------------------------------------
    // memory & environment
    // ------------------------------------------------------------------

    /// `#pragma omp flush`: a sequentially-consistent memory fence.  All of
    /// this runtime's synchronization already carries acquire/release
    /// edges; `flush` exists for code ported from OpenMP that relies on
    /// explicit fences between plain (atomic) accesses.
    pub fn flush(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// `omp_get_num_procs`: the backend's online-processor count (the
    /// MRAPI metadata value on the MCA backend, §5B.4).
    pub fn num_procs(&self) -> usize {
        self.rt.backend().online_processors()
    }
}

impl std::fmt::Debug for Worker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("tid", &self.tid)
            .field("team", &self.team.size)
            .finish()
    }
}
