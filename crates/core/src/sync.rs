//! Low-level synchronization for the native backend.
//!
//! Stock libGOMP brings its own futex-based locks rather than pthread
//! mutexes; this module is the analogue: a spin-then-park mutex built from
//! atomics and `std::thread::park`, used by [`crate::backend::NativeBackend`]
//! wherever the MCA backend would use an MRAPI mutex.  Keeping the two
//! backends' lock implementations independent mirrors the paper's setup —
//! Table I compares exactly this substitution.

use std::collections::VecDeque;
use std::hint;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::thread::{self, Thread};
use std::time::Duration;

/// Mutex state values.
const FREE: u32 = 0;
const LOCKED: u32 = 1;
const CONTENDED: u32 = 2;

/// How many pause-loop iterations to burn before parking.  Short, because
/// the reproduction often runs oversubscribed (24 workers on few cores),
/// where long spins are pure waste.
const SPIN_LIMIT: u32 = 64;

/// A spin-then-park mutual-exclusion lock (the "native libGOMP" lock).
///
/// Fast path: one compare-and-swap.  Contended path: brief bounded spin,
/// then the thread enqueues itself and parks.  `park_timeout` bounds the
/// cost of the benign missed-wakeup race between enqueue and wake.
pub struct RawMutex {
    state: AtomicU32,
    queue_lock: AtomicBool,
    queue: std::cell::UnsafeCell<VecDeque<Thread>>,
}

// SAFETY: `queue` is only touched while `queue_lock` is held (see
// `with_queue`), making the UnsafeCell access exclusive.
unsafe impl Send for RawMutex {}
unsafe impl Sync for RawMutex {}

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
            queue_lock: AtomicBool::new(false),
            queue: std::cell::UnsafeCell::new(VecDeque::new()),
        }
    }

    fn with_queue<T>(&self, f: impl FnOnce(&mut VecDeque<Thread>) -> T) -> T {
        while self
            .queue_lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            hint::spin_loop();
        }
        // SAFETY: queue_lock grants exclusive access.
        let out = f(unsafe { &mut *self.queue.get() });
        self.queue_lock.store(false, Ordering::Release);
        out
    }

    /// Acquire the lock, blocking as needed.
    #[inline]
    pub fn lock(&self) {
        if self
            .state
            .compare_exchange(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        self.lock_contended();
    }

    #[cold]
    fn lock_contended(&self) {
        let mut spins = 0;
        while spins < SPIN_LIMIT {
            if self.state.load(Ordering::Relaxed) == FREE
                && self
                    .state
                    .compare_exchange(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            hint::spin_loop();
            spins += 1;
        }
        loop {
            // Announce contention; if the lock happened to be free, we now
            // own it (in CONTENDED state — unlock will issue a spare wake,
            // which is harmless).
            if self.state.swap(CONTENDED, Ordering::Acquire) == FREE {
                return;
            }
            self.with_queue(|q| q.push_back(thread::current()));
            if self.state.load(Ordering::Acquire) == CONTENDED {
                // The timeout bounds the enqueue-after-wake race.
                thread::park_timeout(Duration::from_millis(1));
            }
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
            if let Some(t) = self.with_queue(|q| q.pop_front()) {
                t.unpark();
            }
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
