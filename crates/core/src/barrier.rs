//! Team barriers: one arrival tree, three shapes.
//!
//! The barrier is the hottest synchronization construct in an OpenMP runtime
//! (every `parallel`, worksharing loop and `single` ends in one).  Every
//! barrier here is the same arrival tree held as data — padded nodes, each
//! with its expected arrival count and its parent — and one climb: a member
//! increments its leaf; the last arrival at a node resets it and carries
//! one arrival to the parent; the last arrival at the root fires the
//! release.  Only the shape differs:
//!
//! * [`BarrierKind::Centralized`] — the root alone, expecting all `n`
//!   members: one RMW on one padded counter per arrival, no heap; O(n)
//!   contention on a single cache line, minimal latency at small teams;
//! * [`BarrierKind::Tree`] — members combine in groups of the given arity
//!   (default 4, matching the T4240's four-core clusters: a cluster's
//!   arrivals meet in its shared L2 before one representative crosses the
//!   CoreNet fabric), and so on up to the root;
//! * [`Barrier::with_layout`] on a sharded runtime (see
//!   [`mca_platform::ShardLayout`]) — one node per shard under the root:
//!   each shard counts its own arrivals on its own line, the last arriver
//!   in each shard carries the shard's arrival to the root, and the last
//!   shard fires the release.  Intra-shard arrivals stay inside the
//!   cluster's cache domain; exactly `num_shards` writes cross it per phase.
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
    /// The root of the arrival tree, inline: a centralized barrier is this
    /// node alone, with no heap behind it.
    root: CachePadded<Node>,
    /// The other nodes, leaves first.
    nodes: Vec<CachePadded<Node>>,
    /// `leaf[tid]` — the node `tid` arrives at; empty when every member
    /// arrives at the root.
    leaf: Vec<usize>,
    /// Built over a layout of more than one shard.
    hierarchical: bool,
}

/// The `parent` of a node directly under the root (and the root's own
/// index in the climb).
const ROOT: usize = usize::MAX;

/// One arrival-tree node.  Padded so sibling subtrees combine without
/// stealing each other's lines (the point of the tree shape in the first
/// place); `expected` and `parent` are read-only and ride on the
/// counter's line.
struct Node {
    arrived: AtomicUsize,
    /// Arrivals that complete the node: its members or child nodes.
    expected: usize,
    parent: usize,
}

impl Node {
    fn new(expected: usize) -> CachePadded<Node> {
        CachePadded::new(Node {
            arrived: AtomicUsize::new(0),
            expected,
            parent: ROOT,
        })
    }
}

impl Barrier {
    /// Build a barrier for `n` participants using `kind`.
    pub fn new(n: usize, kind: BarrierKind) -> Self {
        match kind {
            BarrierKind::Centralized => Barrier::shaped(n, |_| 0, usize::MAX),
            BarrierKind::Tree { arity } => {
                let arity = arity.max(2);
                Barrier::shaped(n, |tid| tid / arity, arity)
            }
        }
    }

    /// Build the barrier for a sharded team: hierarchical (one node per
    /// shard under the root) whenever the layout has more than one shard,
    /// falling back to `kind` on a single shard.
    pub fn with_layout(n: usize, kind: BarrierKind, layout: &ShardLayout) -> Self {
        if layout.num_shards() <= 1 || layout.num_members() != n {
            return Barrier::new(n, kind);
        }
        Barrier {
            hierarchical: true,
            ..Barrier::shaped(n, |tid| layout.shard_of(tid), usize::MAX)
        }
    }

    /// Build the arrival tree: member `tid` arrives at node `group(tid)`
    /// of the lowest level, and each level's nodes then combine `arity` at
    /// a time into the next, until one node (the root) remains.
    fn shaped(n: usize, group: impl Fn(usize) -> usize, arity: usize) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        let mut nodes = Vec::new();
        let mut leaf = Vec::new();
        // The level being grouped: `width` children, the first of them at
        // `nodes[first]` (members, on the lowest level).
        let (mut width, mut first, mut lowest) = (n, 0, true);
        loop {
            let up = |c: usize| if lowest { group(c) } else { c / arity };
            let groups = (0..width).map(up).max().unwrap_or(0) + 1;
            if groups == 1 {
                break;
            }
            let base = nodes.len();
            nodes.extend((0..groups).map(|_| Node::new(0)));
            for c in 0..width {
                let parent = base + up(c);
                nodes[parent].expected += 1;
                if lowest {
                    leaf.push(parent);
                } else {
                    nodes[first + c].parent = parent;
                }
            }
            (width, first, lowest) = (groups, base, false);
        }
        Barrier {
            n,
            release: Release::new(),
            root: Node::new(width),
            nodes,
            leaf,
            hierarchical: false,
        }
    }

    /// Whether this barrier uses the two-level shard hierarchy.
    pub fn is_hierarchical(&self) -> bool {
        self.hierarchical
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
    /// the caller's dense team index (it picks the caller's leaf).
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
        let mut at = self.leaf.get(tid).copied().unwrap_or(ROOT);
        loop {
            let node = if at == ROOT {
                &self.root
            } else {
                &self.nodes[at]
            };
            if node.arrived.fetch_add(1, Ordering::AcqRel) + 1 < node.expected {
                return self.release.await_change(gen, idle);
            }
            // Last arrival here: reset the node (safe — everyone below it
            // waits for the release) and carry one arrival upward.
            node.arrived.store(0, Ordering::Relaxed);
            if at == ROOT {
                return self.release.fire();
            }
            at = node.parent;
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

    /// Check `b`'s arrival tree is well formed (every node expects
    /// exactly the members and child nodes that arrive at it), then run
    /// `rounds` phases on it: nobody may leave a barrier before everyone
    /// has arrived.
    fn phase_check(b: Barrier, rounds: u64) {
        let n = b.participants();
        // One slot per node, the root last.
        let mut arrivals = vec![0; b.nodes.len() + 1];
        let leaves = (0..n).map(|tid| b.leaf.get(tid).copied().unwrap_or(ROOT));
        for p in leaves.chain(b.nodes.iter().map(|node| node.parent)) {
            arrivals[p.min(b.nodes.len())] += 1;
        }
        let expected: Vec<usize> = b
            .nodes
            .iter()
            .chain([&b.root])
            .map(|node| node.expected)
            .collect();
        assert_eq!(
            arrivals, expected,
            "arrivals per node of an {n}-member tree"
        );

        let b = Arc::new(b);
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
            "{n}-member barrier ({} nodes, hierarchical: {}) leaked a thread through",
            b.nodes.len(),
            b.is_hierarchical()
        );
        assert_eq!(phase.load(Ordering::SeqCst), rounds * n as u64);
    }

    #[test]
    fn centralized_is_a_barrier() {
        phase_check(Barrier::new(6, BarrierKind::Centralized), 50);
    }

    #[test]
    fn tree_is_a_barrier() {
        phase_check(Barrier::new(9, BarrierKind::Tree { arity: 4 }), 50);
    }

    #[test]
    fn tree_odd_sizes() {
        for n in [1, 2, 3, 5, 7, 13] {
            phase_check(Barrier::new(n, BarrierKind::Tree { arity: 3 }), 10);
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
        let b = Barrier::with_layout(n, BarrierKind::Centralized, &layout);
        assert_eq!(b.is_hierarchical(), layout.num_shards() > 1);
        phase_check(b, rounds);
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

    #[test]
    fn tree_is_a_barrier_at_every_size_and_arity() {
        for n in 1..=24 {
            for arity in 2..=5 {
                phase_check(Barrier::new(n, BarrierKind::Tree { arity }), 4);
            }
        }
    }

    #[test]
    fn hierarchical_is_a_barrier_over_uniform_layouts() {
        for shards in 2..=4 {
            for n in 1..=24 {
                hier_phase_check(shards, n, 4);
            }
        }
    }

    #[test]
    fn hierarchical_is_a_barrier_on_the_t4240() {
        let topo = mca_platform::Topology::t4240rdb();
        for n in [6, 12, 24] {
            let layout = ShardLayout::from_topology(&topo, n);
            let b = Barrier::with_layout(n, BarrierKind::Tree { arity: 4 }, &layout);
            assert!(b.is_hierarchical());
            assert_eq!(b.nodes.len(), layout.num_shards());
            phase_check(b, 10);
        }
    }

    #[test]
    fn flat_shapes_hold_only_the_root() {
        for n in 1..=8 {
            let shapes = [
                BarrierKind::Centralized,
                BarrierKind::Tree { arity: n.max(2) },
                BarrierKind::Tree { arity: n + 3 },
            ];
            for kind in shapes {
                let b = Barrier::new(n, kind);
                assert!(b.nodes.is_empty() && b.leaf.is_empty(), "{kind:?} at {n}");
                assert_eq!(b.root.expected, n);
            }
        }
    }
}
