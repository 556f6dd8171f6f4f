//! Non-poisoning wrappers over `std::sync` with the guard-based API the
//! workspace was written against (`lock()` returns the guard directly).
//! Blocking waits live in [`crate::park`], not on a condition variable.
//!
//! Panic poisoning is deliberately ignored: the runtime captures member
//! panics itself (`romp`'s teams re-throw on the master after the region),
//! so a poisoned std lock would only turn an already-reported panic into a
//! second, less useful one.

use std::ops::{Deref, DerefMut};

/// A mutual-exclusion lock around a value.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    guard: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex and return the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { guard }
    }

    /// Acquire without blocking; `None` if the lock is held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { guard }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                guard: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A readers-writer lock around a value.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock and return the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let guard = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { guard }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let guard = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { guard }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn try_lock_reports_held() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = Arc::new(RwLock::new(0u64));
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 0);
        }
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn poisoned_lock_still_usable() {
        let m = Arc::new(Mutex::new(1u32));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 1, "poisoning must be transparent");
    }
}
