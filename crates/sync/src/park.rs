//! The workspace's one wait/wake primitive: a futex word, an eventcount
//! on it, and a spin → yield budget to run before parking.
//!
//! Every blocking wait in the runtime stack — the pool dock, the barrier
//! release and every other wait of a `romp` team, `ordered`, the MRAPI
//! mutex, MTAPI's task, group and idle waits, the serving queue — is
//! built from this module, and it is the only place in the workspace that
//! makes a futex syscall.  The pattern is
//! libGOMP's (spin, then sleep on a futex) with the no-lost-wakeup
//! discipline of Drepper's "Futexes Are Tricky":
//!
//! * [`futex_wait`] / [`futex_wake`] bind `futex(2)` directly (hermetic
//!   `extern "C"`, `FUTEX_PRIVATE_FLAG`, no dependency), for words that
//!   are their own condition — the native `RawMutex`;
//! * [`EventCount`] parks waiters on a condition kept anywhere else.  A
//!   waiter calls [`EventCount::prepare_wait`], re-checks its condition,
//!   then [`EventCount::commit_wait`] (or [`EventCount::cancel_wait`] if
//!   the condition already holds).  A notifier changes the condition and
//!   calls [`EventCount::notify_one`] / [`EventCount::notify_all`], which
//!   is a fence and one load unless a waiter is registered: only then does
//!   it bump the futex word and make the wake syscall;
//! * [`EventCount::help_until`] is the one waiting loop on it: run work
//!   while there is some, spin within the budget, register, re-check
//!   "ready or work queued", park.  A waiter with no work to help with
//!   calls [`EventCount::wait_until`], the same loop;
//! * [`SpinBudget`] is the bounded spin-then-yield phase a site runs
//!   before it prepares to park.  Each site names its own budget.
//!
//! Why no wake is lost: the waiter's registration and the notifier's
//! condition write are each followed by a `SeqCst` fence before the other
//! side's read (a Dekker pair), so either the waiter's re-check sees the
//! condition, or the notifier sees the registration and bumps the word the
//! waiter's key was read from — and the futex wait refuses to sleep on a
//! word that no longer holds the key.

use std::os::raw::{c_int, c_long};
use std::ptr;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const FUTEX_WAIT: c_int = 0;
const FUTEX_WAKE: c_int = 1;
/// The word is private to this process (no shared-mapping lookup).
const FUTEX_PRIVATE_FLAG: c_int = 128;

#[cfg(target_arch = "x86_64")]
const SYS_FUTEX: c_long = 202;
#[cfg(target_arch = "aarch64")]
const SYS_FUTEX: c_long = 98;

/// `struct timespec` on the 64-bit Linux targets the workspace supports.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
}

/// `futex(2)` on `word`, private to this process.
fn futex(word: &AtomicU32, op: c_int, val: u32, timeout: Option<&Timespec>) -> c_long {
    let ts = timeout.map_or(ptr::null(), ptr::from_ref);
    // SAFETY: `word` is a live, aligned u32 and `ts` is null or a live
    // timespec, both for the whole call; the kernel writes through neither.
    unsafe {
        syscall(
            SYS_FUTEX,
            word.as_ptr(),
            op | FUTEX_PRIVATE_FLAG,
            val,
            ts,
            ptr::null::<u32>(),
            0u32,
        )
    }
}

/// Sleep while `word` holds `expected`, until woken or `deadline` passes.
///
/// Returns `false` only when the deadline has passed; `true` covers a
/// wake, a word that no longer held `expected`, and a signal, so callers
/// re-check their condition in a loop.
pub fn futex_wait(word: &AtomicU32, expected: u32, deadline: Option<Instant>) -> bool {
    let ts = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
        Some(left) if left.is_zero() => return false,
        left => left.map(|l| Timespec {
            tv_sec: l.as_secs() as i64,
            tv_nsec: i64::from(l.subsec_nanos()),
        }),
    };
    futex(word, FUTEX_WAIT, expected, ts.as_ref()) == 0
        || deadline.is_none_or(|d| Instant::now() < d)
}

/// Wake up to `n` threads sleeping in [`futex_wait`] on `word`.
pub fn futex_wake(word: &AtomicU32, n: u32) {
    futex(word, FUTEX_WAKE, n, None);
}

/// How long a waiter spins, then yields, before it parks — and, copied
/// into a waiter, what is left of that budget.
///
/// `spins` pause-loop iterations come first, then either `yields`
/// `yield_now` calls or, when [`SpinBudget::then_yield_for`] set a span,
/// yields until that span has passed.
#[derive(Debug, Clone, Copy)]
pub struct SpinBudget {
    spins: u32,
    yields: u32,
    yield_for: Option<Duration>,
    until: Option<Instant>,
}

impl SpinBudget {
    /// Park at once.
    pub const NONE: SpinBudget = SpinBudget::spins(0);

    /// `n` pause-loop iterations and no yields.
    pub const fn spins(n: u32) -> SpinBudget {
        SpinBudget {
            spins: n,
            yields: 0,
            yield_for: None,
            until: None,
        }
    }

    /// After the spins, `n` yields.
    pub const fn then_yields(self, n: u32) -> SpinBudget {
        SpinBudget { yields: n, ..self }
    }

    /// After the spins, yield until `d` has passed.
    pub const fn then_yield_for(self, d: Duration) -> SpinBudget {
        SpinBudget {
            yield_for: Some(d),
            ..self
        }
    }

    /// Spend one step (a pause or a yield); `false` once the budget is
    /// spent and the caller should park.
    #[inline]
    pub fn snooze(&mut self) -> bool {
        if self.spins > 0 {
            self.spins -= 1;
            std::hint::spin_loop();
            return true;
        }
        if let Some(d) = self.yield_for {
            if Instant::now() >= *self.until.get_or_insert_with(|| Instant::now() + d) {
                return false;
            }
        } else if self.yields > 0 {
            self.yields -= 1;
        } else {
            return false;
        }
        std::thread::yield_now();
        true
    }
}

/// Check `ready` between the steps of `budget`; whether it held before the
/// budget ran out.
pub fn spin_until(mut budget: SpinBudget, mut ready: impl FnMut() -> bool) -> bool {
    loop {
        if ready() {
            return true;
        }
        if !budget.snooze() {
            return false;
        }
    }
}

/// A registration taken by [`EventCount::prepare_wait`]: the futex word's
/// value at registration.  Hand it to `commit_wait` or `cancel_wait`.
#[must_use = "a prepared wait must be committed or cancelled"]
#[derive(Debug)]
pub struct WaitKey(u32);

/// An eventcount: parks waiters on a condition stored elsewhere, and lets
/// notifiers skip the syscall when nobody is registered (see module docs).
///
/// Waiter protocol:
///
/// ```
/// # use mca_sync::park::EventCount;
/// # use std::sync::atomic::{AtomicBool, Ordering};
/// # let (ec, flag) = (EventCount::new(), AtomicBool::new(true));
/// loop {
///     if flag.load(Ordering::Acquire) { break; }
///     let key = ec.prepare_wait();
///     if flag.load(Ordering::Acquire) { ec.cancel_wait(key); break; }
///     ec.commit_wait(key, None);
/// }
/// ```
///
/// and a notifier stores `flag` then calls `ec.notify_all()`.
/// [`EventCount::help_until`] packages that loop, with work to run while
/// waiting; [`EventCount::wait_until`] is it with none.
///
/// The counters (`parks`, `wakes`, `timeouts`) are bumped only on the
/// sleeping and waking paths, beside a syscall, so they cost the fast path
/// nothing; tests and budgets read them.
#[derive(Debug, Default)]
pub struct EventCount {
    /// The futex word: moved by every notify that finds a waiter.
    seq: AtomicU32,
    /// Waiters between `prepare_wait` and the end of their commit/cancel.
    waiters: AtomicU32,
    parks: AtomicU64,
    wakes: AtomicU64,
    timeouts: AtomicU64,
}

impl EventCount {
    /// An eventcount with no waiters.
    pub fn new() -> EventCount {
        EventCount::default()
    }

    /// Register as a waiter.  Re-check the condition after this, then
    /// commit or cancel.
    #[inline]
    pub fn prepare_wait(&self) -> WaitKey {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        WaitKey(self.seq.load(Ordering::Acquire))
    }

    /// Withdraw a registration whose condition already holds.
    #[inline]
    pub fn cancel_wait(&self, key: WaitKey) {
        let _ = key;
        self.waiters.fetch_sub(1, Ordering::Release);
    }

    /// Sleep until a notify that followed `key`'s registration, or until
    /// `deadline`.  Returns `false` if it gave up at the deadline.  The
    /// return may also be spurious; callers re-check their condition.
    pub fn commit_wait(&self, key: WaitKey, deadline: Option<Instant>) -> bool {
        self.parks.fetch_add(1, Ordering::Relaxed);
        while self.seq.load(Ordering::Acquire) == key.0 && futex_wait(&self.seq, key.0, deadline) {}
        self.waiters.fetch_sub(1, Ordering::Release);
        let notified = self.seq.load(Ordering::Acquire) != key.0;
        if !notified {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        notified
    }

    /// Wait until `ready` holds, helping meanwhile: run `work` (one unit
    /// per call; `true` if it found any) while there is some, spin within
    /// `budget`, then register, re-check "`ready`, or work `queued`", and
    /// park until a notify or `deadline`.  Returns whether `ready` held.
    ///
    /// This is the workspace's one waiting loop.  It keeps no deadline of
    /// its own, so every condition it reads needs a notifier: whoever
    /// makes `ready` true, or queues work, notifies this eventcount.
    /// `queued` must count only work `work` can still take (not work
    /// already running elsewhere), or the waiter spins until it finishes.
    /// The loop returns at the first call of `ready` that holds, so
    /// `ready` may take what it finds (the serving queue's `pop` does).
    pub fn help_until(
        &self,
        mut budget: SpinBudget,
        deadline: Option<Instant>,
        mut ready: impl FnMut() -> bool,
        mut work: impl FnMut() -> bool,
        mut queued: impl FnMut() -> bool,
    ) -> bool {
        loop {
            if ready() {
                return true;
            }
            if work() || budget.snooze() {
                continue;
            }
            let key = self.prepare_wait();
            if ready() {
                self.cancel_wait(key);
                return true;
            }
            if queued() {
                self.cancel_wait(key);
            } else if !self.commit_wait(key, deadline) {
                return ready();
            }
        }
    }

    /// [`EventCount::help_until`] with no work to help with: spin within
    /// `budget`, then park, until `ready` holds or `deadline` passes.
    pub fn wait_until(
        &self,
        budget: SpinBudget,
        deadline: Option<Instant>,
        ready: impl FnMut() -> bool,
    ) -> bool {
        self.help_until(budget, deadline, ready, || false, || false)
    }

    /// Wake one parked waiter, if any is registered.  Call after making
    /// the condition true.
    #[inline]
    pub fn notify_one(&self) {
        self.notify(1);
    }

    /// Wake every parked waiter, if any is registered.  Call after making
    /// the condition true.
    #[inline]
    pub fn notify_all(&self) {
        self.notify(i32::MAX as u32);
    }

    #[inline]
    fn notify(&self, n: u32) {
        // Pairs with the fence in `prepare_wait`: either that waiter's
        // re-check sees the caller's condition write, or this load sees
        // its registration.
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) != 0 {
            // Release: a waiter whose key load reads this bump also sees
            // the condition, so it cancels instead of sleeping on it.
            self.seq.fetch_add(1, Ordering::Release);
            self.wakes.fetch_add(1, Ordering::Relaxed);
            futex_wake(&self.seq, n);
        }
    }

    /// Waiters registered right now (between prepare and commit/cancel).
    pub fn waiters(&self) -> u32 {
        self.waiters.load(Ordering::SeqCst)
    }

    /// `commit_wait` calls so far: the times a waiter went to sleep.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Notifies that found a registered waiter and made the wake syscall.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Commits that ended at their deadline without a notify.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    /// Run `f` on its own thread and fail — instead of hanging — if it has
    /// not finished within `secs` (with no timed fallback left, a lost wake
    /// is a hang).
    fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
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

    #[test]
    fn notify_after_prepare_makes_commit_return_at_once() {
        within(10, || {
            let ec = EventCount::new();
            let key = ec.prepare_wait();
            ec.notify_one();
            assert!(ec.commit_wait(key, None));
            assert_eq!(ec.wakes(), 1);
            assert_eq!(ec.waiters(), 0);
        });
    }

    #[test]
    fn wait_until_returns_at_the_first_ready_that_holds() {
        // `ready` may take what it finds, as the serving queue's `pop`
        // does: the queue is empty at the first check and a job lands
        // before the re-check after registering, which takes it.  A third
        // call would find the queue empty again, drop the job and park.
        within(10, || {
            let ec = EventCount::new();
            let (mut calls, mut took) = (0, None);
            let held = ec.wait_until(SpinBudget::NONE, None, || {
                calls += 1;
                took = (calls == 2).then_some(calls);
                took.is_some()
            });
            assert!(held);
            assert_eq!((calls, took), (2, Some(2)));
            assert_eq!(ec.waiters(), 0);
        });
    }

    #[test]
    fn cancel_wait_leaves_no_registered_waiter() {
        let ec = EventCount::new();
        let a = ec.prepare_wait();
        let b = ec.prepare_wait();
        assert_eq!(ec.waiters(), 2);
        ec.cancel_wait(a);
        ec.cancel_wait(b);
        assert_eq!(ec.waiters(), 0);
        ec.notify_all();
        assert_eq!(ec.wakes(), 0, "a cancelled waiter still drew a wake");
    }

    #[test]
    fn deadline_wait_reports_the_timeout() {
        within(10, || {
            let ec = EventCount::new();
            let t0 = Instant::now();
            let key = ec.prepare_wait();
            assert!(!ec.commit_wait(key, Some(t0 + Duration::from_millis(20))));
            assert!(t0.elapsed() >= Duration::from_millis(20));
            assert_eq!((ec.timeouts(), ec.waiters()), (1, 0));
            // A deadline already past returns without sleeping.
            let key = ec.prepare_wait();
            assert!(!ec.commit_wait(key, Some(Instant::now())));
            let flag = AtomicBool::new(false);
            assert!(
                !ec.wait_until(SpinBudget::spins(4), Some(Instant::now()), || {
                    flag.load(Ordering::Relaxed)
                })
            );
            assert_eq!(ec.timeouts(), 3);
        });
    }

    #[test]
    fn notify_without_a_registered_waiter_makes_no_syscall() {
        let ec = EventCount::new();
        for _ in 0..1000 {
            ec.notify_one();
            ec.notify_all();
        }
        assert_eq!(ec.wakes(), 0);
        let key = ec.prepare_wait();
        ec.notify_one();
        assert_eq!(ec.wakes(), 1, "a registered waiter must be woken");
        assert!(ec.commit_wait(key, None));
    }

    #[test]
    fn spin_until_honours_its_budget() {
        let mut calls = 0;
        assert!(!spin_until(SpinBudget::spins(8).then_yields(4), || {
            calls += 1;
            false
        }));
        assert_eq!(calls, 8 + 4 + 1);
        let t0 = Instant::now();
        let budget = SpinBudget::spins(2).then_yield_for(Duration::from_millis(5));
        assert!(!spin_until(budget, || false));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        let mut left = 3;
        assert!(spin_until(SpinBudget::NONE.then_yields(5), || {
            left -= 1;
            left == 0
        }));
    }

    #[test]
    fn rounds_of_wait_and_notify_lose_no_wake() {
        // N waiters each wait for round r to be published; the publisher
        // waits for all of them to acknowledge it.  Only notifies move
        // either side, and waiters park with no spin, so every round
        // crosses the futex path at least once.
        within(60, || {
            const N: u64 = 4;
            const ROUNDS: u64 = 2000;
            let round = Arc::new(AtomicU64::new(0));
            let acked = Arc::new(AtomicU64::new(0));
            let to_waiters = Arc::new(EventCount::new());
            let to_publisher = Arc::new(EventCount::new());
            let hs: Vec<_> = (0..N)
                .map(|_| {
                    let (round, acked) = (Arc::clone(&round), Arc::clone(&acked));
                    let (tw, tp) = (Arc::clone(&to_waiters), Arc::clone(&to_publisher));
                    thread::spawn(move || {
                        for r in 1..=ROUNDS {
                            tw.wait_until(SpinBudget::NONE, None, || {
                                round.load(Ordering::Acquire) >= r
                            });
                            acked.fetch_add(1, Ordering::AcqRel);
                            tp.notify_one();
                        }
                    })
                })
                .collect();
            for r in 1..=ROUNDS {
                round.store(r, Ordering::Release);
                to_waiters.notify_all();
                to_publisher.wait_until(SpinBudget::spins(16), None, || {
                    acked.load(Ordering::Acquire) == r * N
                });
            }
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(to_waiters.timeouts() + to_publisher.timeouts(), 0);
            assert!(to_waiters.parks() > 0, "the waiters never parked");
            assert_eq!((to_waiters.waiters(), to_publisher.waiters()), (0, 0));
        });
    }

    #[test]
    fn help_until_runs_queued_work_and_parks_only_when_none_is_queued() {
        // A helper takes every item a producer queues, in bursts with gaps
        // longer than any spin: between bursts it must park (nothing is
        // queued), and each push must wake it.
        within(60, || {
            const ITEMS: u64 = 400;
            let queued = Arc::new(AtomicU64::new(0));
            let (done, ec) = (Arc::new(AtomicU64::new(0)), Arc::new(EventCount::new()));
            let (q, d, e) = (Arc::clone(&queued), Arc::clone(&done), Arc::clone(&ec));
            let helper = thread::spawn(move || {
                let take = || {
                    let n = q.load(Ordering::Acquire);
                    let took = n > 0
                        && q.compare_exchange(n, n - 1, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok();
                    if took {
                        d.fetch_add(1, Ordering::AcqRel);
                    }
                    took
                };
                let all_done = || d.load(Ordering::Acquire) == ITEMS;
                e.help_until(SpinBudget::spins(16), None, all_done, take, || {
                    q.load(Ordering::Acquire) > 0
                })
            });
            for i in 0..ITEMS {
                if i % 8 == 0 {
                    thread::sleep(Duration::from_micros(300));
                }
                queued.fetch_add(1, Ordering::AcqRel);
                ec.notify_one();
            }
            assert!(helper.join().unwrap());
            assert_eq!(done.load(Ordering::Acquire), ITEMS);
            assert_eq!((ec.timeouts(), ec.waiters()), (0, 0));
            assert!(ec.parks() > 0, "the helper never parked between bursts");
        });
    }

    #[test]
    fn futex_word_sleeps_only_on_its_expected_value() {
        within(10, || {
            let word = AtomicU32::new(7);
            // Mismatch: returns at once rather than sleeping.
            assert!(futex_wait(&word, 8, None));
            // Match with a deadline: sleeps it out.
            let t0 = Instant::now();
            assert!(!futex_wait(&word, 7, Some(t0 + Duration::from_millis(10))));
            assert!(t0.elapsed() >= Duration::from_millis(10));
            // A store plus a wake releases a sleeper.
            let word = Arc::new(AtomicU32::new(0));
            let w2 = Arc::clone(&word);
            let h = thread::spawn(move || {
                while w2.load(Ordering::Acquire) == 0 {
                    futex_wait(&w2, 0, None);
                }
            });
            thread::sleep(Duration::from_millis(5));
            word.store(1, Ordering::Release);
            futex_wake(&word, 1);
            h.join().unwrap();
        });
    }
}
