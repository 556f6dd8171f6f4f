//! Team barriers: centralized and combining-tree algorithms.
//!
//! The barrier is the hottest synchronization construct in an OpenMP runtime
//! (every `parallel`, worksharing loop and `single` ends in one), so the
//! runtime offers two algorithms behind one interface:
//!
//! * [`BarrierKind::Centralized`] — one generation counter and one arrival
//!   counter (sense reversal via the generation); O(n) contention on a
//!   single cache line, minimal latency at small team sizes;
//! * [`BarrierKind::Tree`] — arrivals combine up a tree of the given arity
//!   (default 4, matching the T4240's four-core clusters: a cluster's
//!   arrivals meet in its shared L2 before one representative crosses the
//!   CoreNet fabric), release broadcast through the shared generation.
//!
//! On a sharded runtime (see [`mca_platform::ShardLayout`]) the team's
//! barrier is built with [`Barrier::with_layout`] and becomes
//! *hierarchical*: each shard counts its own arrivals on a private padded
//! counter (the per-shard phase), the last arriver in each shard is
//! elected as that shard's representative into a top-level counter, and
//! the last representative fires the shared release.  Intra-shard
//! arrivals thus stay inside the cluster's cache domain; exactly
//! `num_shards - 1` + 1 writes cross it per phase.
//!
//! Waiting is spin, then yield, then sleep, with an *idle callback* so the
//! team can drain explicit tasks while blocked — the OpenMP rule that
//! barriers are task scheduling points.  The sleep is an [`EventCount`]
//! wait with a 500 µs deadline (the task-drain heartbeat), which keeps
//! oversubscribed runs (24 workers on one host core) from melting down in
//! spin loops.  The release is one generation bump plus the eventcount's
//! notify, which makes a syscall only when a member is registered to
//! sleep: a barrier whose members all catch the release while spinning
//! costs no syscall.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mca_platform::ShardLayout;
use mca_sync::park::{EventCount, SpinBudget};
use mca_sync::CachePadded;

/// Barrier algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierKind {
    /// Single arrival counter + generation.
    #[default]
    Centralized,
    /// Combining tree with the given arity (≥ 2).
    Tree {
        /// Children combined per tree node (clamped to ≥ 2).
        arity: usize,
    },
}

/// What a waiter spends before it sleeps: 64 pauses, then 16 yields.
const BARRIER_SPIN: SpinBudget = SpinBudget::spins(64).then_yields(16);

/// How long a sleeping waiter blocks before re-running its idle callback
/// (a task posted late still gets drained).  Wakes are by notification;
/// this bound is only the task-drain heartbeat.
const SLEEP_BOUND: Duration = Duration::from_micros(500);

/// Shared release machinery: generation word + sleep support.  The
/// generation is cache-padded away from the arrival counters: every waiter
/// spins reading it, and sharing its line with a counter that every
/// arriver writes would turn each arrival into a team-wide invalidation.
///
/// A sleeper prepares an eventcount wait, re-checks the generation and
/// the cancel flag, and only then commits; [`Release::fire`] bumps the
/// generation and [`Barrier::cancel`] sets the flag before each notifies,
/// so the eventcount's protocol covers both wakes.  The bump and the flag
/// are `Release`, paired with the waiters' `Acquire` loads; the
/// eventcount's `SeqCst` fences (not the bump's ordering) order the write
/// against a sleeper's registration.
struct Release {
    gen: CachePadded<AtomicU64>,
    /// Members sleeping (or about to) on the release.
    sleep: EventCount,
    /// Set by [`Barrier::cancel`].  Checked inside the wait loop (not just
    /// once before it) because a waiter can load the flag as clear, then
    /// the canceller sets it and fires — a one-shot release would race; the
    /// in-loop check cannot miss it.
    cancelled: AtomicBool,
    /// Test hook: sleep bound override in milliseconds (0 = `SLEEP_BOUND`),
    /// so a test can tell a notified wake from a timed-out one.
    #[cfg(test)]
    bound_ms: AtomicU64,
}

impl Release {
    fn new() -> Self {
        Release {
            gen: CachePadded::new(AtomicU64::new(0)),
            sleep: EventCount::new(),
            cancelled: AtomicBool::new(false),
            #[cfg(test)]
            bound_ms: AtomicU64::new(0),
        }
    }

    #[inline]
    fn current(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    fn fire(&self) {
        self.gen.fetch_add(1, Ordering::Release);
        self.sleep.notify_all();
    }

    /// Wait until the generation moves past `gen`, calling `idle` in the
    /// loop (it returns `true` when it did useful work and wants an
    /// immediate re-check).
    fn await_change(&self, gen: u64, mut idle: impl FnMut() -> bool) {
        let mut spin = BARRIER_SPIN;
        let released = || self.current() != gen || self.cancelled.load(Ordering::Acquire);
        while !released() {
            if idle() || spin.snooze() {
                continue;
            }
            let heartbeat = Instant::now() + self.sleep_bound();
            self.sleep
                .wait_until(SpinBudget::NONE, Some(heartbeat), released);
        }
    }

    #[inline]
    fn sleep_bound(&self) -> Duration {
        #[cfg(test)]
        match self.bound_ms.load(Ordering::Relaxed) {
            0 => {}
            ms => return Duration::from_millis(ms),
        }
        SLEEP_BOUND
    }
}

/// A team barrier for a fixed number of participants.
pub struct Barrier {
    n: usize,
    release: Release,
    algo: Algo,
}

enum Algo {
    Central {
        arrived: CachePadded<AtomicUsize>,
    },
    Tree {
        arity: usize,
        /// `levels[l][node]` counts arrivals at that tree node.  Nodes are
        /// cache-padded so sibling subtrees combine without stealing each
        /// other's lines (the point of the tree shape in the first place).
        levels: Vec<Vec<CachePadded<AtomicUsize>>>,
        /// Expected arrivals per node (the last level expects the number of
        /// children that actually exist).
        expected: Vec<Vec<usize>>,
    },
    /// Two-level shard hierarchy: per-shard arrival counters electing one
    /// representative each into a top-level counter.
    Hier {
        /// `shard_of[tid]` — which per-shard counter `tid` arrives at.
        shard_of: Vec<usize>,
        /// Arrivals per shard, padded so shards don't share lines.
        shard_arrived: Vec<CachePadded<AtomicUsize>>,
        /// Members per shard (the per-shard arrival target).
        shard_expected: Vec<usize>,
        /// Representatives arrived at the top level.
        top_arrived: CachePadded<AtomicUsize>,
    },
}

impl Barrier {
    /// Build a barrier for `n` participants using `kind`.
    pub fn new(n: usize, kind: BarrierKind) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        let algo = match kind {
            BarrierKind::Centralized => Algo::Central {
                arrived: CachePadded::new(AtomicUsize::new(0)),
            },
            BarrierKind::Tree { arity } => {
                let arity = arity.max(2);
                let mut levels = Vec::new();
                let mut expected = Vec::new();
                let mut width = n;
                loop {
                    let nodes = width.div_ceil(arity);
                    levels.push(
                        (0..nodes)
                            .map(|_| CachePadded::new(AtomicUsize::new(0)))
                            .collect::<Vec<_>>(),
                    );
                    expected.push(
                        (0..nodes)
                            .map(|i| {
                                let lo = i * arity;
                                let hi = ((i + 1) * arity).min(width);
                                hi - lo
                            })
                            .collect::<Vec<_>>(),
                    );
                    if nodes == 1 {
                        break;
                    }
                    width = nodes;
                }
                Algo::Tree {
                    arity,
                    levels,
                    expected,
                }
            }
        };
        Barrier {
            n,
            release: Release::new(),
            algo,
        }
    }

    /// Build the barrier for a sharded team: hierarchical (per-shard
    /// phase + top-level representative phase) whenever the layout has
    /// more than one shard, falling back to `kind` on a single shard.
    pub fn with_layout(n: usize, kind: BarrierKind, layout: &ShardLayout) -> Self {
        if layout.num_shards() <= 1 || layout.num_members() != n {
            return Barrier::new(n, kind);
        }
        let num_shards = layout.num_shards();
        Barrier {
            n,
            release: Release::new(),
            algo: Algo::Hier {
                shard_of: (0..n).map(|tid| layout.shard_of(tid)).collect(),
                shard_arrived: (0..num_shards)
                    .map(|_| CachePadded::new(AtomicUsize::new(0)))
                    .collect(),
                shard_expected: (0..num_shards)
                    .map(|s| layout.members_of(s).len())
                    .collect(),
                top_arrived: CachePadded::new(AtomicUsize::new(0)),
            },
        }
    }

    /// Whether this barrier uses the two-level shard hierarchy.
    pub fn is_hierarchical(&self) -> bool {
        matches!(self.algo, Algo::Hier { .. })
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Break the barrier permanently: current and future waiters return
    /// immediately without blocking.  Used when the owning team is
    /// cancelled — members unwinding past their remaining barriers must not
    /// leave late arrivers stranded on a count that will never fill.  The
    /// barrier is per-region, so a broken barrier dies with its team.
    pub fn cancel(&self) {
        // Same handshake as a release: set the flag, then notify (a
        // sleeper's re-check reads the flag after registering).
        self.release.cancelled.store(true, Ordering::Release);
        self.release.sleep.notify_all();
    }

    /// Has [`Barrier::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.release.cancelled.load(Ordering::Acquire)
    }

    /// Arrive and wait until all `n` participants have arrived.  `tid` is
    /// the caller's dense team index (needed by the tree to find its leaf).
    /// `idle` is invoked while waiting; return `true` from it after doing
    /// useful work to re-check immediately.
    pub fn wait_idle(&self, tid: usize, idle: impl FnMut() -> bool) {
        debug_assert!(tid < self.n);
        if self.n == 1 {
            return;
        }
        // A cancelled barrier admits nobody new: skipping the arrival
        // increment keeps the counts coherent for members that already
        // left, and `await_change` would return immediately anyway.
        if self.is_cancelled() {
            return;
        }
        let gen = self.release.current();
        let is_last = match &self.algo {
            Algo::Central { arrived } => {
                let me = arrived.fetch_add(1, Ordering::AcqRel) + 1;
                if me == self.n {
                    arrived.store(0, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
            Algo::Tree {
                arity,
                levels,
                expected,
            } => {
                let mut idx = tid;
                let mut level = 0;
                loop {
                    let node = idx / arity;
                    let got = levels[level][node].fetch_add(1, Ordering::AcqRel) + 1;
                    if got < expected[level][node] {
                        break false;
                    }
                    // Last arriver at this node: reset it and carry upward.
                    levels[level][node].store(0, Ordering::Relaxed);
                    if level + 1 == levels.len() {
                        break true;
                    }
                    idx = node;
                    level += 1;
                }
            }
            Algo::Hier {
                shard_of,
                shard_arrived,
                shard_expected,
                top_arrived,
            } => {
                // Per-shard phase: arrivals stay on the shard's counter.
                let s = shard_of[tid];
                let got = shard_arrived[s].fetch_add(1, Ordering::AcqRel) + 1;
                if got < shard_expected[s] {
                    false
                } else {
                    // Elected representative: reset the shard phase (safe —
                    // every shard-mate is parked in `await_change` until the
                    // release fires) and carry one arrival to the top.
                    shard_arrived[s].store(0, Ordering::Relaxed);
                    let top = top_arrived.fetch_add(1, Ordering::AcqRel) + 1;
                    if top == shard_arrived.len() {
                        top_arrived.store(0, Ordering::Relaxed);
                        true
                    } else {
                        false
                    }
                }
            }
        };
        if is_last {
            self.release.fire();
        } else {
            self.release.await_change(gen, idle);
        }
    }

    /// Arrive and wait, with no idle work.
    pub fn wait(&self, tid: usize) {
        self.wait_idle(tid, || false);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Au64;
    use std::sync::Arc;
    use std::thread;

    fn phase_check(kind: BarrierKind, n: usize, rounds: u64) {
        let b = Arc::new(Barrier::new(n, kind));
        let phase = Arc::new(Au64::new(0));
        let errs = Arc::new(Au64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|tid| {
                let b = Arc::clone(&b);
                let phase = Arc::clone(&phase);
                let errs = Arc::clone(&errs);
                thread::spawn(move || {
                    for r in 0..rounds {
                        // Everyone must observe the phase of round r before
                        // anyone moves to r+1.
                        phase.fetch_add(1, Ordering::SeqCst);
                        b.wait(tid);
                        let p = phase.load(Ordering::SeqCst);
                        if p < (r + 1) * n as u64 {
                            errs.fetch_add(1, Ordering::SeqCst);
                        }
                        b.wait(tid);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            errs.load(Ordering::SeqCst),
            0,
            "{kind:?} leaked a thread through"
        );
        assert_eq!(phase.load(Ordering::SeqCst), rounds * n as u64);
    }

    #[test]
    fn centralized_is_a_barrier() {
        phase_check(BarrierKind::Centralized, 6, 50);
    }

    #[test]
    fn tree_is_a_barrier() {
        phase_check(BarrierKind::Tree { arity: 4 }, 9, 50);
    }

    #[test]
    fn tree_odd_sizes() {
        for n in [1, 2, 3, 5, 7, 13] {
            phase_check(BarrierKind::Tree { arity: 3 }, n, 10);
        }
    }

    #[test]
    fn single_participant_is_free() {
        let b = Barrier::new(1, BarrierKind::Centralized);
        for _ in 0..10 {
            b.wait(0); // must not block
        }
    }

    #[test]
    fn idle_callback_runs_while_waiting() {
        let b = Arc::new(Barrier::new(2, BarrierKind::Centralized));
        let ran = Arc::new(Au64::new(0));
        let b2 = Arc::clone(&b);
        let ran2 = Arc::clone(&ran);
        let h = thread::spawn(move || {
            b2.wait_idle(1, || {
                ran2.fetch_add(1, Ordering::Relaxed);
                false
            });
        });
        thread::sleep(Duration::from_millis(30));
        b.wait(0);
        h.join().unwrap();
        assert!(
            ran.load(Ordering::Relaxed) > 0,
            "idle callback should have run"
        );
    }

    #[test]
    fn reusable_across_many_generations() {
        let b = Arc::new(Barrier::new(3, BarrierKind::Tree { arity: 2 }));
        let sum = Arc::new(Au64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|tid| {
                let b = Arc::clone(&b);
                let sum = Arc::clone(&sum);
                thread::spawn(move || {
                    for _ in 0..200 {
                        sum.fetch_add(1, Ordering::Relaxed);
                        b.wait(tid);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), 600);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        Barrier::new(0, BarrierKind::Centralized);
    }

    /// `phase_check` against a hierarchical barrier built from a layout.
    fn hier_phase_check(shards: usize, n: usize, rounds: u64) {
        let layout = ShardLayout::uniform(shards, n);
        let b = Arc::new(Barrier::with_layout(n, BarrierKind::Centralized, &layout));
        assert_eq!(b.is_hierarchical(), layout.num_shards() > 1);
        let phase = Arc::new(Au64::new(0));
        let errs = Arc::new(Au64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|tid| {
                let b = Arc::clone(&b);
                let phase = Arc::clone(&phase);
                let errs = Arc::clone(&errs);
                thread::spawn(move || {
                    for r in 0..rounds {
                        phase.fetch_add(1, Ordering::SeqCst);
                        b.wait(tid);
                        if phase.load(Ordering::SeqCst) < (r + 1) * n as u64 {
                            errs.fetch_add(1, Ordering::SeqCst);
                        }
                        b.wait(tid);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            errs.load(Ordering::SeqCst),
            0,
            "{shards}-shard hierarchical barrier leaked a thread through"
        );
        assert_eq!(phase.load(Ordering::SeqCst), rounds * n as u64);
    }

    #[test]
    fn hierarchical_is_a_barrier_at_1_2_4_shards() {
        for shards in [1, 2, 4] {
            hier_phase_check(shards, 8, 50);
        }
    }

    #[test]
    fn hierarchical_uneven_shards() {
        // 7 members over 4 shards: shard 0..2 get 2 members, shard 3 one —
        // a single-member shard elects itself every phase.
        hier_phase_check(4, 7, 30);
        hier_phase_check(2, 3, 30);
    }

    #[test]
    fn hierarchical_cancel_unblocks_waiters() {
        let layout = ShardLayout::uniform(2, 4);
        let b = Arc::new(Barrier::with_layout(4, BarrierKind::Centralized, &layout));
        let b2 = Arc::clone(&b);
        let h = thread::spawn(move || b2.wait(1));
        thread::sleep(Duration::from_millis(10));
        b.cancel();
        h.join().unwrap();
        // Post-cancel arrivals fall straight through.
        b.wait(0);
        b.wait(2);
    }

    /// Run `f` on its own thread and fail — instead of hanging — if it
    /// has not finished within `secs` (a lost wake-up).
    pub(crate) fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        let h = thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(()) => h.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(h.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("watchdog: not done within {secs}s (lost wake-up?)")
            }
        }
    }

    /// A barrier whose sleepers only a notification can wake in time: the
    /// sleep bound is far beyond the watchdog.
    fn notify_only_barrier(layout: &ShardLayout) -> Arc<Barrier> {
        let b = Barrier::with_layout(layout.num_members(), BarrierKind::Centralized, layout);
        b.release.bound_ms.store(600_000, Ordering::Relaxed);
        Arc::new(b)
    }

    /// Park member `tid` of `b` in its wait and return once it is
    /// registered as a sleeper.
    fn park_sleeper(b: &Arc<Barrier>, tid: usize) -> thread::JoinHandle<()> {
        let b2 = Arc::clone(b);
        let h = thread::spawn(move || b2.wait(tid));
        while b.release.sleep.waiters() == 0 {
            thread::yield_now();
        }
        h
    }

    #[test]
    fn fire_wakes_a_registered_sleeper() {
        within(20, || {
            for shards in [1, 2] {
                let layout = ShardLayout::uniform(shards, 2);
                let b = notify_only_barrier(&layout);
                for _ in 0..50 {
                    let h = park_sleeper(&b, 1);
                    b.wait(0); // last arriver: fires
                    h.join().unwrap();
                }
                let sleep = &b.release.sleep;
                assert_eq!(sleep.timeouts(), 0);
                assert!(sleep.wakes() > 0);
            }
        });
    }

    #[test]
    fn cancel_wakes_a_registered_sleeper() {
        within(20, || {
            for shards in [1, 2] {
                let layout = ShardLayout::uniform(shards, 4);
                for _ in 0..20 {
                    let b = notify_only_barrier(&layout);
                    let h = park_sleeper(&b, 1);
                    b.cancel();
                    h.join().unwrap();
                    let sleep = &b.release.sleep;
                    assert_eq!(sleep.timeouts(), 0);
                    assert_eq!(sleep.wakes(), 1);
                }
            }
        });
    }

    #[test]
    fn release_without_sleepers_makes_no_wake_call() {
        let b = Barrier::new(2, BarrierKind::Centralized);
        for _ in 0..100 {
            b.release.fire();
        }
        b.cancel();
        assert_eq!(b.release.sleep.wakes(), 0);
    }

    #[test]
    fn many_generations_with_sleepers_lose_no_wake() {
        // Members alternate between catching the release while spinning
        // and sleeping through it (the last arriver is delayed past the
        // spin phase on seeded rounds); only notifications wake sleepers.
        within(60, || {
            let n = 3;
            let b = notify_only_barrier(&ShardLayout::single(n));
            let handles: Vec<_> = (0..n)
                .map(|tid| {
                    let b = Arc::clone(&b);
                    thread::spawn(move || {
                        let mut rng = mca_sync::SmallRng::seed_from_u64(0xBA55 + tid as u64);
                        for _ in 0..400 {
                            if rng.next_u64().is_multiple_of(4) {
                                thread::sleep(Duration::from_micros(200));
                            }
                            b.wait(tid);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(b.release.sleep.timeouts(), 0);
        });
    }

    #[test]
    fn single_shard_layout_falls_back_to_kind() {
        let layout = ShardLayout::single(4);
        let b = Barrier::with_layout(4, BarrierKind::Tree { arity: 2 }, &layout);
        assert!(!b.is_hierarchical());
    }
}
