//! Low-level synchronization for the native backend.
//!
//! Stock libGOMP brings its own futex-based locks rather than pthread
//! mutexes; this module is the analogue: Drepper's three-state futex mutex
//! ("Futexes Are Tricky", mutex 3) on the workspace's one futex binding
//! ([`mca_sync::park`]), used by [`crate::backend::NativeBackend`]
//! wherever the MCA backend would use an MRAPI mutex.  Keeping the two
//! backends' lock implementations independent mirrors the paper's setup —
//! Table I compares exactly this substitution.

use std::sync::atomic::{AtomicU32, Ordering};

use mca_sync::park::{futex_wait, futex_wake, spin_until, SpinBudget};

/// Mutex state values.
const FREE: u32 = 0;
const LOCKED: u32 = 1;
/// Held, and a waiter may sleep on the word: `unlock` must wake one.
const CONTENDED: u32 = 2;

/// Pause-loop iterations a contended `lock` burns before it sleeps.
/// Short, because the reproduction often runs oversubscribed (24 workers
/// on few cores), where long spins are pure waste.
const LOCK_SPIN: SpinBudget = SpinBudget::spins(64);

/// A spin-then-futex mutual-exclusion lock (the "native libGOMP" lock).
///
/// Fast path: one compare-and-swap in, one swap out.  Contended path: a
/// brief bounded spin, then the waiter marks the word `CONTENDED` and
/// sleeps on it; the unlock that clears a contended word wakes one
/// sleeper.  The kernel re-checks the word before sleeping, so no wake
/// can be lost.
pub struct RawMutex {
    state: AtomicU32,
}

impl Default for RawMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl RawMutex {
    /// A new, unlocked mutex.
    pub const fn new() -> Self {
        RawMutex {
            state: AtomicU32::new(FREE),
        }
    }

    /// Acquire the lock, blocking as needed.
    #[inline]
    pub fn lock(&self) {
        if !self.try_lock() {
            self.lock_contended();
        }
    }

    #[cold]
    fn lock_contended(&self) {
        if spin_until(LOCK_SPIN, || {
            self.state.load(Ordering::Relaxed) == FREE && self.try_lock()
        }) {
            return;
        }
        // Whoever takes the word from here on takes it as CONTENDED (one
        // spare wake at its unlock is the price of never losing one).
        while self.state.swap(CONTENDED, Ordering::Acquire) != FREE {
            futex_wait(&self.state, CONTENDED, None);
        }
    }

    /// Acquire without blocking; `true` on success.
    #[inline]
    pub fn try_lock(&self) -> bool {
        self.state
            .compare_exchange(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Whether some thread holds the lock.
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) != FREE
    }

    /// Release the lock.  Must only be called by the current holder.
    #[inline]
    pub fn unlock(&self) {
        if self.state.swap(FREE, Ordering::Release) == CONTENDED {
            futex_wake(&self.state, 1);
        }
    }

    /// Run `f` under the lock.
    pub fn with<T>(&self, f: impl FnOnce() -> T) -> T {
        self.lock();
        let out = f();
        self.unlock();
        out
    }
}

/// A value guarded by a backend-provided lock (see
/// [`crate::backend::RegionLock`]): the runtime's internal shared structures
/// go through this so that the *backend choice* decides which mutex
/// implementation protects them — the substitution the paper performs on
/// libGOMP's `gomp_mutex` entry points (§5B.3).
pub struct BackendMutex<T> {
    lock: std::sync::Arc<dyn crate::backend::RegionLock>,
    cell: std::cell::UnsafeCell<T>,
}

// SAFETY: `cell` is only accessed inside `with`, bracketed by
// lock()/unlock() on a mutual-exclusion lock, so access is exclusive.
unsafe impl<T: Send> Send for BackendMutex<T> {}
unsafe impl<T: Send> Sync for BackendMutex<T> {}

impl<T> BackendMutex<T> {
    /// Wrap `value` under `lock`.
    pub fn new(lock: std::sync::Arc<dyn crate::backend::RegionLock>, value: T) -> Self {
        BackendMutex {
            lock,
            cell: std::cell::UnsafeCell::new(value),
        }
    }

    /// Run `f` with exclusive access to the value.
    pub fn with<U>(&self, f: impl FnOnce(&mut T) -> U) -> U {
        self.lock.lock();
        // SAFETY: the backend lock provides mutual exclusion.
        let out = f(unsafe { &mut *self.cell.get() });
        // The guard was held, so the only unlock errors are injected
        // transients already retried by the lock; nothing to surface here.
        let _ = self.lock.unlock();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn uncontended_lock_unlock() {
        let m = RawMutex::new();
        m.lock();
        assert!(!m.try_lock());
        m.unlock();
        assert!(m.try_lock());
        m.unlock();
    }

    #[test]
    fn with_runs_exclusively() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let m = Arc::new(RawMutex::new());
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                let c = Arc::clone(&counter);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        // Non-atomic read-modify-write made correct only by
                        // the mutex.
                        m.with(|| {
                            let v = c.load(Ordering::Relaxed);
                            c.store(v + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80_000);
    }

    #[test]
    fn contended_lock_unlock_stays_exclusive_and_loses_no_wake() {
        // Four threads, 20k round trips each, with a short hold so the
        // word is often CONTENDED and unlocks take the futex wake path.
        // A lost wake is a hang, which the watchdog turns into a failure.
        crate::barrier::tests::within(120, || {
            use std::sync::atomic::{AtomicU32, AtomicU64};
            const THREADS: u64 = 4;
            const ROUNDS: u64 = 20_000;
            let m = Arc::new(RawMutex::new());
            let inside = Arc::new(AtomicU32::new(0));
            let counter = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (m, inside, c) =
                        (Arc::clone(&m), Arc::clone(&inside), Arc::clone(&counter));
                    thread::spawn(move || {
                        for i in 0..ROUNDS {
                            m.lock();
                            assert_eq!(inside.fetch_add(1, Ordering::Relaxed), 0, "two holders");
                            let v = c.load(Ordering::Relaxed);
                            if i % 64 == 0 {
                                thread::yield_now();
                            }
                            c.store(v + 1, Ordering::Relaxed);
                            inside.fetch_sub(1, Ordering::Relaxed);
                            m.unlock();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(counter.load(Ordering::Relaxed), THREADS * ROUNDS);
            assert!(!m.is_locked());
        });
    }

    #[test]
    fn contended_threads_all_make_progress() {
        let m = Arc::new(RawMutex::new());
        m.lock();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    m.lock();
                    m.unlock();
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(30));
        m.unlock();
        for w in waiters {
            w.join().unwrap();
        }
    }

    #[test]
    fn backend_mutex_wraps_region_lock() {
        use crate::backend::{Backend, NativeBackend};
        let be = NativeBackend::new();
        let bm = Arc::new(BackendMutex::new(be.new_lock().unwrap(), Vec::<u32>::new()));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let bm = Arc::clone(&bm);
                thread::spawn(move || {
                    for k in 0..100 {
                        bm.with(|v| v.push(i * 1000 + k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        bm.with(|v| assert_eq!(v.len(), 400));
    }
}
