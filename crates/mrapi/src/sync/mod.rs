//! MRAPI synchronization primitives (paper §2B.3).
//!
//! MRAPI offers mutexes, semaphores and reader/writer locks that let nodes
//! coordinate access to shared resources "to avert data race or race
//! conditions".  The paper's libGOMP port uses only the **mutex**, so that
//! is the one primitive implemented here.  It is key-addressed like shared
//! memory: any node in the domain can `get` a mutex created by another
//! node.  Locking accepts a timeout (`MRAPI_TIMEOUT_INFINITE` to wait
//! forever) and reports `MRAPI_TIMEOUT` on expiry.
//!
//! The mutex is the primitive the paper maps `libGOMP`'s lock entry points
//! onto (§5B.3, Listing 4): `gomp_mrapi_mutex_lock` calls
//! `mrapi_mutex_lock(handle, &key, MRAPI_TIMEOUT_INFINITE, &status)`.  The
//! MRAPI *lock key* protocol — each acquisition returns a key that must be
//! presented to unlock, enabling checked recursive locking — is implemented
//! faithfully here.

mod mutex;

pub use mutex::{Mutex, MutexAttributes, MutexKey};

pub(crate) use mutex::MutexInner;

use std::time::Duration;

/// Convert an MRAPI timeout to an optional deadline-style wait budget.
/// Anything at or beyond the infinite sentinel means "wait forever".
pub(crate) fn finite_timeout(t: Duration) -> Option<Duration> {
    if t >= crate::MRAPI_TIMEOUT_INFINITE {
        None
    } else {
        Some(t)
    }
}
