//! # mca-sync — the workspace's own concurrency toolbox
//!
//! Every crate in this workspace builds in a hermetic container with no
//! crates.io access, so the concurrency vocabulary the runtime needs is
//! implemented here from `std` and atomics alone:
//!
//! * [`Mutex`] / [`RwLock`] — thin non-poisoning wrappers over the
//!   `std::sync` primitives with the guard-based API the rest of the
//!   workspace uses (`lock()` returns the guard directly);
//! * [`CachePadded`] — aligns a value to 128 bytes so hot atomics never
//!   share a cache line (two lines, matching modern prefetch pairing);
//! * [`SpinMutex`] — a tiny spin-then-yield lock for short critical
//!   sections inside queue internals;
//! * [`queue::SharedQueue`] — an unbounded MPMC queue (the shared overflow
//!   and cross-thread path of the task scheduler);
//! * [`deque`] — the work-stealing substrate: a bounded lock-free MPMC
//!   [`deque::RingQueue`] (Vyukov sequence-slot algorithm) used as each
//!   team member's local task ring, plus an [`deque::Injector`] with the
//!   `steal()` protocol the MTAPI scheduler consumes;
//! * [`rng::SmallRng`] — a deterministic SplitMix64 generator for
//!   randomized tests and benchmark input generation;
//! * [`park`] — the workspace's one wait/wake primitive: `futex(2)`
//!   bindings, an [`park::EventCount`] whose `notify` makes a syscall only
//!   when a waiter is registered, and the [`park::SpinBudget`] each
//!   blocking site spins through before it parks.  Every blocking wait in
//!   the workspace is built on it;
//! * [`frame`] — the one length-prefixed frame format (the u32-BE prefix,
//!   one incremental receive buffer, one blocking read) that the
//!   `romp-serve` protocol and the MCAPI wire both speak, in place of
//!   `tokio-util`'s length-delimited codec;
//! * [`cli`] — the one argument parser every binary declares its flags
//!   to, in place of `clap`: a bad command line is a usage line and exit
//!   status 2, never a panic.

pub mod cli;
pub mod deque;
pub mod frame;
pub mod mutex;
pub mod park;
pub mod queue;
pub mod rng;

pub use mutex::{Mutex, MutexGuard, RwLock};
pub use rng::SmallRng;

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes so neighbouring values in a
/// collection never share (prefetch-paired) cache lines.
///
/// The alignment (two 64-byte lines) matches what crossbeam uses on x86:
/// adjacent-line prefetchers pull cache lines in pairs, so 64-byte
/// alignment alone still invites false sharing between neighbours.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Pad `value`.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }

    /// Unwrap the padded value.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded(value)
    }
}

/// A minimal spin-then-yield mutual-exclusion lock for *short* critical
/// sections (queue pointer juggling, not user code).  Spins briefly, then
/// yields to the scheduler so oversubscribed hosts make progress.
pub struct SpinMutex {
    locked: std::sync::atomic::AtomicBool,
}

impl Default for SpinMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl SpinMutex {
    /// A new, unlocked spin mutex.
    pub const fn new() -> Self {
        SpinMutex {
            locked: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Acquire the lock.
    #[inline]
    pub fn lock(&self) {
        use std::sync::atomic::Ordering;
        let mut spins = 0u32;
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            while self.locked.load(Ordering::Relaxed) {
                if spins < 64 {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Release the lock.  Caller must hold it.
    #[inline]
    pub fn unlock(&self) {
        self.locked
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Run `f` under the lock.
    #[inline]
    pub fn with<T>(&self, f: impl FnOnce() -> T) -> T {
        self.lock();
        let out = f();
        self.unlock();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_big_and_aligned() {
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 128);
        let v: Vec<CachePadded<std::sync::atomic::AtomicU64>> = (0..4)
            .map(|_| CachePadded::new(std::sync::atomic::AtomicU64::new(0)))
            .collect();
        let a = &v[0] as *const _ as usize;
        let b = &v[1] as *const _ as usize;
        assert!(b - a >= 128, "neighbours must not share a line pair");
    }

    #[test]
    fn cache_padded_derefs() {
        let mut c = CachePadded::new(41u32);
        *c += 1;
        assert_eq!(*c, 42);
        assert_eq!(c.into_inner(), 42);
    }

    #[test]
    fn spin_mutex_excludes() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let m = Arc::new(SpinMutex::new());
        let c = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.with(|| {
                            let v = c.load(Ordering::Relaxed);
                            c.store(v + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 80_000);
    }
}
