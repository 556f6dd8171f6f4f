//! MRAPI mutexes with lock keys and checked recursion.
//!
//! The lock is one atomic owner word holding the holder's per-thread token
//! (0 = free).  Uncontended, `lock` is one compare-and-swap and `unlock`
//! one read-modify-write on that word; the recursion depth, the owning
//! node and the acquisition count are written only by the holder, so they
//! need no read-modify-write of their own.
//!
//! The word's two high bits are flags (Drepper's free/locked/contended
//! futex word, "Futexes Are Tricky"): [`CONTENDED`] marks a held word some
//! waiter may be parked on, so the releasing `unlock` wakes only when it
//! clears that bit; [`RETIRED`] is the runtime's one-way "this mutex grants
//! no more holds" flag (see [`Mutex::retire`]).  A retired word is never
//! 0, so no claim — all of which expect exactly 0 — can succeed on it.
//! Contended acquirers spin briefly, then park on the mutex's
//! [`EventCount`] (the workspace's one wait/wake primitive).  The `deleted`
//! flag, read by every call, and the `contended` counter, bumped by every
//! waiter, each have a cache line of their own, so neither drags the owner
//! word's line between cores.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mca_sync::park::{spin_until, EventCount, SpinBudget};
use mca_sync::CachePadded;

use crate::fault::FaultSite;
use crate::node::{Node, NodeId};
use crate::status::{ensure, MrapiResult, MrapiStatus};
use crate::sync::finite_timeout;

/// Creation attributes (`mrapi_mutex_attributes_t` subset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutexAttributes {
    /// Allow the holder to re-lock; each acquisition gets its own lock key
    /// and unlocks must be presented in LIFO order.
    pub recursive: bool,
}

/// The lock key `mrapi_mutex_lock` hands back (`mrapi_key_t`).
///
/// Opaque: its only use is to be given back to [`Mutex::unlock`].  Like
/// the C API's integer key it can round-trip through [`MutexKey::raw`] and
/// [`MutexKey::from_raw`] (the value is never zero).
#[derive(Debug, PartialEq, Eq)]
pub struct MutexKey(pub(crate) u64);

impl MutexKey {
    /// The key of an outermost (depth-1) hold — the only key a
    /// non-recursive mutex ever hands out.
    pub const OUTERMOST: MutexKey = MutexKey(1);

    /// The key's integer value, as `mrapi_key_t` carries it.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Rebuild a key from [`MutexKey::raw`].
    pub fn from_raw(raw: u64) -> MutexKey {
        MutexKey(raw)
    }
}

/// Pause-loop iterations a contended `lock` burns before parking.
const LOCK_SPIN: SpinBudget = SpinBudget::spins(64);

/// Owner-word flag: retired by [`Mutex::retire`] (one-way); the word
/// grants no further holds.
const RETIRED: u64 = 1 << 63;
/// Owner-word flag: the word is held and a waiter may be parked on it, so
/// the releasing `unlock` must wake one.
const CONTENDED: u64 = 1 << 62;
/// Owner-word bits carrying the holder's [`token`]; 0 when free.
const TOKEN_MASK: u64 = CONTENDED - 1;

/// This thread's owner token: unique per thread for the process lifetime,
/// never 0 (0 marks a free mutex).
#[inline]
fn token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: Cell<u64> = const { Cell::new(0) };
    }
    TOKEN.with(|t| match t.get() {
        0 => {
            let fresh = mint_token(&NEXT);
            t.set(fresh);
            fresh
        }
        tok => tok,
    })
}

/// Take the next token from `next`, refusing (loudly) one that would reach
/// the owner word's flag bits.
fn mint_token(next: &AtomicU64) -> u64 {
    let fresh = next.fetch_add(1, Ordering::Relaxed);
    assert!(
        fresh <= TOKEN_MASK,
        "MRAPI mutex owner tokens exhausted: {fresh:#x} would overlap the owner word's flag bits"
    );
    fresh
}

/// What a parked acquirer's claim attempt found.
enum Claim {
    /// The word was free and is now the caller's.
    Taken,
    /// The word is held (and flagged [`CONTENDED`] if that was asked for).
    Held,
    /// The word is retired: no hold will ever be granted.
    Retired,
}

/// Registry entry shared by every handle to one mutex.
///
/// The holder-only fields are `Relaxed`: each holder's writes reach the
/// next holder through the owner word (the releasing read-modify-write in
/// `unlock`, the acquiring compare-and-swap in every claim).
pub struct MutexInner {
    key: u32,
    recursive: bool,
    /// [`RETIRED`] | [`CONTENDED`] | the holder's [`token`]; 0 when free.
    owner: AtomicU64,
    /// Holder-only: recursion depth of the current hold.
    depth: AtomicU64,
    /// Holder-only: 1 + the id of the MRAPI node the holder locked through
    /// (the "which node holds this lock" half of a deadlock report), 0
    /// when free.
    owner_node: AtomicU64,
    /// Holder-only: successful acquisitions.
    acquisitions: AtomicU64,
    /// Acquisitions that found the mutex held; bumped by the waiter at its
    /// failed claim, off the owner's line.
    contended: CachePadded<AtomicU64>,
    /// Where contended acquirers park; `unlock`, `retire`, `abandon` and
    /// `delete` notify it.
    park: EventCount,
    /// Set once by `delete`; read by every call, so it lives on a line the
    /// owner word's claims never invalidate.
    deleted: CachePadded<AtomicBool>,
}

impl MutexInner {
    /// Take the free mutex for `me`; `false` if it is held or retired.
    #[inline]
    fn try_claim(&self, me: u64) -> bool {
        self.owner
            .compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// A parking acquirer's claim, made while registered on `park`: take
    /// the free word — flagged [`CONTENDED`] when `others` are registered,
    /// so this hold's `unlock` wakes one of them — or, when `flag`, mark
    /// the held word [`CONTENDED`] so its holder's `unlock` notifies.  The
    /// registration precedes the flag, so that notify finds the waiter.
    fn claim_or_flag(&self, me: u64, others: bool, flag: bool) -> Claim {
        let mut cur = self.owner.load(Ordering::Relaxed);
        loop {
            let next = if cur & RETIRED != 0 {
                return Claim::Retired;
            } else if cur == 0 {
                me | if others { CONTENDED } else { 0 }
            } else if !flag || cur & CONTENDED != 0 {
                return Claim::Held;
            } else {
                cur | CONTENDED
            };
            match self
                .owner
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) if cur == 0 => return Claim::Taken,
                Ok(_) => return Claim::Held,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Bump a holder-only counter (no other thread writes it).
    #[inline]
    fn bump(counter: &AtomicU64) -> u64 {
        let v = counter.load(Ordering::Relaxed) + 1;
        counter.store(v, Ordering::Relaxed);
        v
    }
}

/// A node's handle to an MRAPI mutex.
pub struct Mutex {
    node: Node,
    inner: Arc<MutexInner>,
}

impl Node {
    /// `mrapi_mutex_create`.  Fails with `MRAPI_ERR_MUTEX_EXISTS` on key
    /// clash.
    pub fn mutex_create(&self, key: u32, attrs: &MutexAttributes) -> MrapiResult<Mutex> {
        self.check_alive()?;
        self.system().fault_check(FaultSite::MutexCreate)?;
        let inner = Arc::new(MutexInner {
            key,
            recursive: attrs.recursive,
            owner: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            owner_node: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
            contended: CachePadded::new(AtomicU64::new(0)),
            park: EventCount::new(),
            deleted: CachePadded::new(AtomicBool::new(false)),
        });
        let mut map = self.domain_db().mutexes.write();
        ensure(!map.contains_key(&key), MrapiStatus::ErrMutexExists)?;
        map.insert(key, Arc::clone(&inner));
        Ok(Mutex {
            node: self.clone(),
            inner,
        })
    }

    /// `mrapi_mutex_get` — look up a mutex created by any node in the
    /// domain.
    pub fn mutex_get(&self, key: u32) -> MrapiResult<Mutex> {
        self.check_alive()?;
        let inner = self
            .domain_db()
            .mutexes
            .read()
            .get(&key)
            .cloned()
            .ok_or(MrapiStatus::ErrMutexInvalid)?;
        ensure(
            !inner.deleted.load(Ordering::Acquire),
            MrapiStatus::ErrMutexInvalid,
        )?;
        Ok(Mutex {
            node: self.clone(),
            inner,
        })
    }
}

impl Mutex {
    /// The registry key.
    pub fn key(&self) -> u32 {
        self.inner.key
    }

    fn check_live(&self) -> MrapiResult<()> {
        self.node.check_alive()?;
        ensure(
            !self.inner.deleted.load(Ordering::Acquire),
            MrapiStatus::ErrMutexInvalid,
        )
    }

    /// Record a fresh (depth-1) hold; called right after the owner word
    /// was claimed.
    #[inline]
    fn acquired(&self) -> MutexKey {
        let inner = &*self.inner;
        inner.depth.store(1, Ordering::Relaxed);
        inner
            .owner_node
            .store(u64::from(self.node.node_id().0) + 1, Ordering::Relaxed);
        MutexInner::bump(&inner.acquisitions);
        MutexKey::OUTERMOST
    }

    /// A re-lock by the holder: a deeper key if recursive,
    /// `MRAPI_ERR_MUTEX_LOCKED` otherwise.
    fn relock(&self) -> MrapiResult<MutexKey> {
        ensure(self.inner.recursive, MrapiStatus::ErrMutexAlreadyLocked)?;
        let depth = MutexInner::bump(&self.inner.depth);
        MutexInner::bump(&self.inner.acquisitions);
        Ok(MutexKey(depth))
    }

    /// `mrapi_mutex_lock`.  Blocks up to `timeout`
    /// ([`crate::MRAPI_TIMEOUT_INFINITE`] to wait forever) and returns the
    /// lock key for this acquisition.
    ///
    /// Re-locking while holding: allowed for recursive mutexes (a deeper
    /// key is returned), `MRAPI_ERR_MUTEX_LOCKED` otherwise.  A waiter
    /// whose mutex is deleted or retired under it fails with
    /// `MRAPI_ERR_MUTEX_INVALID`.
    pub fn lock(&self, timeout: Duration) -> MrapiResult<MutexKey> {
        self.check_live()?;
        self.node.system().fault_check(FaultSite::MutexLock)?;
        let me = token();
        match self
            .inner
            .owner
            .compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed)
        {
            Ok(_) => Ok(self.acquired()),
            Err(cur) if cur & RETIRED != 0 => Err(MrapiStatus::ErrMutexInvalid.into()),
            Err(cur) if cur & TOKEN_MASK == me => self.relock(),
            Err(_) => {
                self.inner.contended.fetch_add(1, Ordering::Relaxed);
                self.lock_contended(me, timeout)
            }
        }
    }

    #[cold]
    fn lock_contended(&self, me: u64, timeout: Duration) -> MrapiResult<MutexKey> {
        let inner = &*self.inner;
        // A retired word is found (and refused) by the claim below.
        if spin_until(LOCK_SPIN, || {
            inner.owner.load(Ordering::Relaxed) == 0 && inner.try_claim(me)
        }) {
            return Ok(self.acquired());
        }
        let deadline = finite_timeout(timeout).map(|budget| Instant::now() + budget);
        loop {
            // Registered before the `deleted` check: `delete` stores its
            // flag before it notifies, so a deletion after this check
            // still wakes us.
            let key = inner.park.prepare_wait();
            if inner.deleted.load(Ordering::Acquire) {
                inner.park.cancel_wait(key);
                return Err(MrapiStatus::ErrMutexInvalid.into());
            }
            let others = inner.park.waiters() > 1;
            match inner.claim_or_flag(me, others, true) {
                Claim::Taken => {
                    inner.park.cancel_wait(key);
                    return Ok(self.acquired());
                }
                Claim::Retired => {
                    inner.park.cancel_wait(key);
                    return Err(MrapiStatus::ErrMutexInvalid.into());
                }
                Claim::Held => {}
            }
            if !inner.park.commit_wait(key, deadline) {
                // A last claim; failing that, leave.  A wake this thread
                // absorbed must not strand the others: if any are still
                // registered, the held word is flagged for its holder.
                let others = inner.park.waiters() > 0;
                return match inner.claim_or_flag(me, others, others) {
                    Claim::Taken => Ok(self.acquired()),
                    Claim::Held => Err(MrapiStatus::Timeout.into()),
                    Claim::Retired => Err(MrapiStatus::ErrMutexInvalid.into()),
                };
            }
        }
    }

    /// `mrapi_mutex_trylock` — acquire without blocking, or
    /// `MRAPI_ERR_MUTEX_LOCKED`.
    pub fn try_lock(&self) -> MrapiResult<MutexKey> {
        self.check_live()?;
        self.node.system().fault_check(FaultSite::MutexLock)?;
        let me = token();
        match self
            .inner
            .owner
            .compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed)
        {
            Ok(_) => Ok(self.acquired()),
            Err(cur) if cur & RETIRED != 0 => Err(MrapiStatus::ErrMutexInvalid.into()),
            Err(cur) if cur & TOKEN_MASK == me && self.inner.recursive => self.relock(),
            Err(_) => Err(MrapiStatus::ErrMutexAlreadyLocked.into()),
        }
    }

    /// `mrapi_mutex_unlock`.  The presented key must be the most recent
    /// acquisition's (`MRAPI_ERR_MUTEX_KEY` otherwise); the caller must hold
    /// the lock (`MRAPI_ERR_MUTEX_NOTLOCKED`).
    pub fn unlock(&self, key: &MutexKey) -> MrapiResult<()> {
        self.check_live()?;
        // An injected unlock failure leaves the mutex held — the wedged-lock
        // scenario recovery code must handle (waiters time out and degrade).
        self.node.system().fault_check(FaultSite::MutexUnlock)?;
        let inner = &*self.inner;
        ensure(self.is_held_by_caller(), MrapiStatus::ErrMutexNotLocked)?;
        let depth = inner.depth.load(Ordering::Relaxed);
        ensure(key.0 == depth, MrapiStatus::ErrMutexKey)?;
        inner.depth.store(depth - 1, Ordering::Relaxed);
        if depth == 1 {
            inner.owner_node.store(0, Ordering::Relaxed);
            // One read-modify-write leaves the word: the token and the
            // contended flag go, the retired flag stays.
            let prev = inner.owner.fetch_and(RETIRED, Ordering::Release);
            // One parked waiter takes the freed word; a retired word frees
            // them all (a waiter that finds it retired leaves without
            // passing the wake on).
            if prev & CONTENDED != 0 && prev & RETIRED != 0 {
                inner.park.notify_all();
            } else if prev & CONTENDED != 0 {
                inner.park.notify_one();
            }
        }
        Ok(())
    }

    /// Whether the calling thread holds the mutex.
    pub fn is_held_by_caller(&self) -> bool {
        self.inner.owner.load(Ordering::Relaxed) & TOKEN_MASK == token()
    }

    /// Whether any thread holds the mutex.  Acquire: a caller that sees it
    /// free sees everything the last holder wrote under it.
    pub fn is_held(&self) -> bool {
        self.inner.owner.load(Ordering::Acquire) & TOKEN_MASK != 0
    }

    /// Retire the mutex (runtime extension, not part of the C API): from
    /// now on it grants no hold, and every `lock` or `try_lock` — parked
    /// waiters included, which this wakes — fails with
    /// `MRAPI_ERR_MUTEX_INVALID`.  One-way.  A current holder keeps its
    /// hold until it unlocks, so a caller that sees the retired mutex no
    /// longer [held](Mutex::is_held) knows no MRAPI holder is inside or
    /// ever will be again — the basis for handing the lock's duty to
    /// another mutex without a second shared word.
    pub fn retire(&self) {
        let prev = self.inner.owner.fetch_or(RETIRED, Ordering::AcqRel);
        if prev & CONTENDED != 0 {
            self.inner.park.notify_all();
        }
    }

    /// Whether [`Mutex::retire`] has run.
    pub fn is_retired(&self) -> bool {
        self.inner.owner.load(Ordering::Acquire) & RETIRED != 0
    }

    /// Retire the mutex and walk away from the caller's hold without the
    /// unlock protocol (runtime extension): the recovery for a holder
    /// whose unlocks keep failing, so the mutex is left neither held nor
    /// usable.  Drops every recursion level; consults no fault probe.
    /// `MRAPI_ERR_MUTEX_NOTLOCKED` if the caller does not hold it.
    pub fn abandon(&self) -> MrapiResult<()> {
        ensure(self.is_held_by_caller(), MrapiStatus::ErrMutexNotLocked)?;
        let inner = &*self.inner;
        inner.depth.store(0, Ordering::Relaxed);
        inner.owner_node.store(0, Ordering::Relaxed);
        let prev = inner.owner.swap(RETIRED, Ordering::AcqRel);
        if prev & CONTENDED != 0 {
            inner.park.notify_all();
        }
        Ok(())
    }

    /// Which MRAPI node currently holds the mutex (`None` when free) — the
    /// diagnostic a deadlock report wants.
    pub fn holder_node(&self) -> Option<NodeId> {
        match self.inner.owner_node.load(Ordering::Relaxed) {
            0 => None,
            id => Some(NodeId((id - 1) as u32)),
        }
    }

    /// Run `f` under the mutex (convenience; not part of the C API).
    pub fn with_lock<T>(&self, f: impl FnOnce() -> T) -> MrapiResult<T> {
        let k = self.lock(crate::MRAPI_TIMEOUT_INFINITE)?;
        let out = f();
        self.unlock(&k)?;
        Ok(out)
    }

    /// Total successful acquisitions (diagnostics; exact once the holders
    /// have synchronized with the reader, e.g. by being joined).
    pub fn acquisitions(&self) -> u64 {
        self.inner.acquisitions.load(Ordering::Relaxed)
    }

    /// Acquisitions that found the mutex held (diagnostics).
    pub fn contended(&self) -> u64 {
        self.inner.contended.load(Ordering::Relaxed)
    }

    /// `mrapi_mutex_delete` — remove from the registry; other handles'
    /// subsequent operations fail with `MRAPI_ERR_MUTEX_INVALID`, and so do
    /// threads blocked in [`Mutex::lock`] on it.
    pub fn delete(self) -> MrapiResult<()> {
        self.check_live()?;
        self.inner.deleted.store(true, Ordering::SeqCst);
        self.node
            .domain_db()
            .mutexes
            .write()
            .remove(&self.inner.key);
        self.inner.park.notify_all();
        Ok(())
    }
}

impl std::fmt::Debug for Mutex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MrapiMutex")
            .field("key", &self.inner.key)
            .field("recursive", &self.inner.recursive)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainId, MrapiSystem, NodeId, MRAPI_TIMEOUT_INFINITE};
    use std::sync::atomic::AtomicU64;

    fn node() -> Node {
        MrapiSystem::new_t4240()
            .initialize(DomainId(1), NodeId(0))
            .unwrap()
    }

    #[test]
    fn listing_4_flow() {
        // The exact sequence of the paper's gomp_mrapi_mutex_lock.
        let n = node();
        let m = n.mutex_create(1, &MutexAttributes::default()).unwrap();
        let key = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
        m.unlock(&key).unwrap();
    }

    #[test]
    fn recursion_requires_lifo_keys() {
        let n = node();
        let m = n
            .mutex_create(1, &MutexAttributes { recursive: true })
            .unwrap();
        let k1 = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
        let k2 = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
        assert_ne!(k1, k2);
        // Wrong order: presenting k1 while k2 is outstanding.
        assert_eq!(m.unlock(&k1).unwrap_err().0, MrapiStatus::ErrMutexKey);
        m.unlock(&k2).unwrap();
        m.unlock(&k1).unwrap();
        assert_eq!(m.unlock(&k1).unwrap_err().0, MrapiStatus::ErrMutexNotLocked);
    }

    #[test]
    fn non_recursive_relock_rejected() {
        let n = node();
        let m = n.mutex_create(1, &MutexAttributes::default()).unwrap();
        let _k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
        assert_eq!(
            m.lock(Duration::from_millis(1)).unwrap_err().0,
            MrapiStatus::ErrMutexAlreadyLocked
        );
    }

    #[test]
    fn unlock_without_hold_rejected() {
        let n = node();
        let m = n.mutex_create(1, &MutexAttributes::default()).unwrap();
        assert_eq!(
            m.unlock(&MutexKey(1)).unwrap_err().0,
            MrapiStatus::ErrMutexNotLocked
        );
    }

    #[test]
    fn timeout_fires_when_held_elsewhere() {
        let sys = MrapiSystem::new_t4240();
        let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
        let m = master.mutex_create(1, &MutexAttributes::default()).unwrap();
        let holder = master
            .thread_create(NodeId(1), |me| {
                let m = me.mutex_get(1).unwrap();
                let k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
                std::thread::sleep(Duration::from_millis(120));
                m.unlock(&k).unwrap();
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let err = m.lock(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err.0, MrapiStatus::Timeout);
        // Infinite wait succeeds once the holder releases.
        let k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
        m.unlock(&k).unwrap();
        holder.join().unwrap();
    }

    #[test]
    fn mutual_exclusion_under_stress() {
        let sys = MrapiSystem::new_t4240();
        let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
        let _m = master.mutex_create(1, &MutexAttributes::default()).unwrap();
        let shm = master
            .shmem_create(
                99,
                8,
                &crate::ShmemAttributes {
                    use_malloc: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let workers: Vec<_> = (0..6)
            .map(|i| {
                master
                    .thread_create(NodeId(1 + i), move |me| {
                        let m = me.mutex_get(1).unwrap();
                        let shm = me.shmem_get(99).unwrap();
                        for _ in 0..500 {
                            let k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
                            // Deliberately non-atomic read-modify-write: only
                            // the mutex makes it correct.
                            let v = shm.read_u64(0);
                            shm.write_u64(0, v + 1);
                            m.unlock(&k).unwrap();
                        }
                    })
                    .unwrap()
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(shm.read_u64(0), 3000);
    }

    #[test]
    fn try_lock_and_stats() {
        let n = node();
        let m = n.mutex_create(1, &MutexAttributes::default()).unwrap();
        let k = m.try_lock().unwrap();
        assert_eq!(
            m.try_lock().unwrap_err().0,
            MrapiStatus::ErrMutexAlreadyLocked
        );
        m.unlock(&k).unwrap();
        assert_eq!(m.acquisitions(), 1);
    }

    #[test]
    fn delete_invalidates_other_handles() {
        let n = node();
        let a = n.mutex_create(1, &MutexAttributes::default()).unwrap();
        let b = n.mutex_get(1).unwrap();
        a.delete().unwrap();
        assert_eq!(
            b.lock(MRAPI_TIMEOUT_INFINITE).unwrap_err().0,
            MrapiStatus::ErrMutexInvalid
        );
        assert_eq!(n.mutex_get(1).unwrap_err().0, MrapiStatus::ErrMutexInvalid);
        // Key is reusable after delete.
        n.mutex_create(1, &MutexAttributes::default()).unwrap();
    }

    #[test]
    fn holder_node_reports_the_locking_node() {
        let sys = MrapiSystem::new_t4240();
        let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
        let m = master.mutex_create(1, &MutexAttributes::default()).unwrap();
        assert_eq!(m.holder_node(), None);
        let w = master
            .thread_create(NodeId(9), |me| {
                let m = me.mutex_get(1).unwrap();
                let k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
                let seen = m.holder_node();
                m.unlock(&k).unwrap();
                seen
            })
            .unwrap();
        assert_eq!(w.join().unwrap(), Some(NodeId(9)));
        assert_eq!(m.holder_node(), None);
    }

    #[test]
    fn injected_lock_timeouts_are_transient() {
        use crate::fault::FaultPlan;
        use std::sync::Arc;
        // 60% injected Timeout on the lock site: a bounded retry loop must
        // still get through, and the schedule is deterministic per seed.
        let sys = MrapiSystem::new_t4240();
        let plan = Arc::new(FaultPlan::new(11).with_fail_rate(FaultSite::MutexLock, 600_000));
        let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
        let m = master.mutex_create(1, &MutexAttributes::default()).unwrap();
        sys.set_fault_probe(Some(Arc::clone(&plan) as Arc<dyn crate::fault::FaultProbe>));
        let mut succeeded = 0;
        for _ in 0..50 {
            loop {
                match m.lock(MRAPI_TIMEOUT_INFINITE) {
                    Ok(k) => {
                        m.unlock(&k).unwrap_or_else(|_| {
                            // Injected unlock failures are off (rate 0), so
                            // this cannot happen.
                            unreachable!()
                        });
                        succeeded += 1;
                        break;
                    }
                    Err(e) => assert!(FaultSite::MutexLock.legal_statuses().contains(&e.0), "{e}"),
                }
            }
        }
        assert_eq!(succeeded, 50);
        assert!(plan.injected() > 0, "rate 60% must have fired");
        sys.set_fault_probe(None);
    }

    #[test]
    fn injected_unlock_failure_leaves_mutex_wedged() {
        use crate::fault::FaultPlan;
        use std::sync::Arc;
        let sys = MrapiSystem::new_t4240();
        let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
        let m = master.mutex_create(1, &MutexAttributes::default()).unwrap();
        let k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
        sys.set_fault_probe(Some(Arc::new(FaultPlan::new(0).with_persistent(
            FaultSite::MutexUnlock,
            MrapiStatus::ErrMutexInvalid,
            0,
        ))));
        assert_eq!(m.unlock(&k).unwrap_err().0, MrapiStatus::ErrMutexInvalid);
        assert_eq!(
            m.holder_node(),
            Some(NodeId(0)),
            "still held after failed unlock"
        );
        sys.set_fault_probe(None);
        m.unlock(&k).unwrap();
        assert_eq!(m.holder_node(), None);
    }

    /// Run `f` on its own thread; fail (rather than hang) if it has not
    /// finished within `limit` — the symptom of a lost wakeup.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(limit)
            .expect("mutex test wedged: a waiter was never woken")
    }

    #[test]
    fn delete_wakes_a_blocked_waiter() {
        within(Duration::from_secs(30), || {
            let sys = MrapiSystem::new_t4240();
            let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
            let m = master.mutex_create(1, &MutexAttributes::default()).unwrap();
            let probe = master.mutex_get(1).unwrap();
            let _k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
            let (got, handle_ready) = std::sync::mpsc::channel();
            let waiter = master
                .thread_create(NodeId(1), move |me| {
                    let m = me.mutex_get(1).unwrap();
                    got.send(()).unwrap();
                    m.lock(MRAPI_TIMEOUT_INFINITE).map(|_| ())
                })
                .unwrap();
            handle_ready.recv().unwrap();
            // Registered on `park`: it re-checks `deleted` after
            // registering, and `delete` notifies after setting it.
            while probe.inner.park.waiters() == 0 {
                std::thread::yield_now();
            }
            m.delete().unwrap();
            let res = waiter.join().unwrap();
            assert_eq!(res.unwrap_err().0, MrapiStatus::ErrMutexInvalid);
            assert_eq!(probe.contended(), 1, "the waiter found the mutex held");
        });
    }

    #[test]
    fn mixed_operations_keep_exclusion_and_exact_counts() {
        const THREADS: u32 = 3;
        const ITERS: u64 = 400;
        let (count, acquired, lock_calls, timeouts, m) = within(Duration::from_secs(60), || {
            let sys = MrapiSystem::new_t4240();
            let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
            let m = master
                .mutex_create(1, &MutexAttributes { recursive: true })
                .unwrap();
            let count = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let count = Arc::clone(&count);
                    master
                        .thread_create(NodeId(1 + t), move |me| {
                            let m = me.mutex_get(1).unwrap();
                            // (acquisitions, lock() calls, timeouts)
                            let mut tally = (0u64, 0u64, 0u64);
                            let lock = |timeout: Duration, tally: &mut (u64, u64, u64)| loop {
                                tally.1 += 1;
                                match m.lock(timeout) {
                                    Ok(k) => {
                                        tally.0 += 1;
                                        return k;
                                    }
                                    Err(e) => {
                                        assert_eq!(e.0, MrapiStatus::Timeout);
                                        tally.2 += 1;
                                    }
                                }
                            };
                            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(t);
                            for i in 0..ITERS {
                                rng ^= rng << 13;
                                rng ^= rng >> 7;
                                rng ^= rng << 17;
                                let outer = match rng % 4 {
                                    0 => lock(MRAPI_TIMEOUT_INFINITE, &mut tally),
                                    1 => lock(Duration::from_micros(200), &mut tally),
                                    _ => match m.try_lock() {
                                        Ok(k) => {
                                            tally.0 += 1;
                                            k
                                        }
                                        Err(e) => {
                                            assert_eq!(e.0, MrapiStatus::ErrMutexAlreadyLocked);
                                            lock(MRAPI_TIMEOUT_INFINITE, &mut tally)
                                        }
                                    },
                                };
                                // Every other iteration nests one level and
                                // presents the keys out of order first.
                                let inner = (rng & 4 != 0).then(|| {
                                    let k = if rng & 8 != 0 {
                                        m.try_lock().unwrap()
                                    } else {
                                        m.lock(MRAPI_TIMEOUT_INFINITE).unwrap()
                                    };
                                    tally.0 += 1;
                                    assert_eq!(
                                        m.unlock(&outer).unwrap_err().0,
                                        MrapiStatus::ErrMutexKey
                                    );
                                    k
                                });
                                // Deliberately non-atomic read-modify-write:
                                // only the mutex makes it correct.
                                let v = count.load(Ordering::Relaxed);
                                if i % 16 == 0 {
                                    std::thread::yield_now();
                                }
                                count.store(v + 1, Ordering::Relaxed);
                                if let Some(k) = inner {
                                    m.unlock(&k).unwrap();
                                }
                                m.unlock(&outer).unwrap();
                            }
                            tally
                        })
                        .unwrap()
                })
                .collect();
            let (mut acquired, mut lock_calls, mut timeouts) = (0, 0, 0);
            for w in workers {
                let (a, l, t) = w.join().unwrap();
                acquired += a;
                lock_calls += l;
                timeouts += t;
            }
            (
                count.load(Ordering::Relaxed),
                acquired,
                lock_calls,
                timeouts,
                m,
            )
        });
        assert_eq!(count, u64::from(THREADS) * ITERS, "a lost update");
        assert_eq!(
            m.acquisitions(),
            acquired,
            "holder-only counter lost a bump"
        );
        // Every timed-out call found the mutex held; nested calls and
        // `try_lock` never count.
        assert!(m.contended() >= timeouts && m.contended() <= lock_calls);
        assert_eq!(m.holder_node(), None);
        // Exactness of the contention count, with a known number of
        // contended calls: three timed waits against a held mutex.
        let before = m.contended();
        let k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
        let node = m.node.clone();
        let waiters: Vec<_> = (0..3)
            .map(|i| {
                node.thread_create(NodeId(10 + i), |me| {
                    let m = me.mutex_get(1).unwrap();
                    m.lock(Duration::from_millis(2)).unwrap_err().0
                })
                .unwrap()
            })
            .collect();
        for w in waiters {
            assert_eq!(w.join().unwrap(), MrapiStatus::Timeout);
        }
        m.unlock(&k).unwrap();
        assert_eq!(m.contended(), before + 3);
        assert_eq!(m.acquisitions(), acquired + 1);
    }

    #[test]
    fn parked_waiters_are_never_lost() {
        // The holder sleeps with the lock held, far longer than the spin
        // phase, so its partner parks on nearly every acquisition; 2 x 1000
        // acquisitions are ~2000 handoffs to a parked thread.  A lost wake
        // shows as the watchdog firing, not as a hang.
        const PER_THREAD: u64 = 1000;
        let (count, contended) = within(Duration::from_secs(60), || {
            let sys = MrapiSystem::new_t4240();
            let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
            let m = master.mutex_create(1, &MutexAttributes::default()).unwrap();
            let count = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..2)
                .map(|t| {
                    let count = Arc::clone(&count);
                    master
                        .thread_create(NodeId(1 + t), move |me| {
                            let m = me.mutex_get(1).unwrap();
                            for _ in 0..PER_THREAD {
                                let k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
                                let v = count.load(Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(20));
                                count.store(v + 1, Ordering::Relaxed);
                                m.unlock(&k).unwrap();
                                // Let the woken partner take its turn.
                                std::thread::sleep(Duration::from_micros(20));
                            }
                        })
                        .unwrap()
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            (count.load(Ordering::Relaxed), m.contended())
        });
        assert_eq!(count, 2 * PER_THREAD);
        assert!(
            contended >= PER_THREAD / 2,
            "only {contended} contended acquisitions: the test no longer exercises parking"
        );
    }

    #[test]
    fn owner_word_shares_no_line_with_deleted_or_contended() {
        // 128 bytes: the adjacent-line pair a prefetcher pulls together.
        const LINE: usize = 128;
        let owner = std::mem::offset_of!(MutexInner, owner);
        let owner_lines = owner / LINE..=(owner + 7) / LINE;
        for (field, offset, size) in [
            ("deleted", std::mem::offset_of!(MutexInner, deleted), 1),
            ("contended", std::mem::offset_of!(MutexInner, contended), 8),
        ] {
            let lines = offset / LINE..=(offset + size - 1) / LINE;
            assert!(
                lines.end() < owner_lines.start() || lines.start() > owner_lines.end(),
                "`{field}` at byte {offset} shares a {LINE}-byte line with `owner` at byte {owner}"
            );
        }
    }

    #[test]
    fn owner_word_layout_keeps_tokens_out_of_the_flag_bits() {
        assert_eq!(RETIRED, 1 << 63);
        assert_eq!(CONTENDED, 1 << 62);
        assert_eq!(TOKEN_MASK, (1 << 62) - 1);
        assert_eq!(RETIRED & CONTENDED, 0);
        assert_eq!((RETIRED | CONTENDED) & TOKEN_MASK, 0);
        assert_eq!(RETIRED | CONTENDED | TOKEN_MASK, u64::MAX);
        // The largest token still fits; the next one is refused.
        let next = AtomicU64::new(TOKEN_MASK);
        assert_eq!(mint_token(&next), TOKEN_MASK);
        let refused = std::panic::catch_unwind(|| mint_token(&next));
        assert!(
            refused.is_err(),
            "a token reaching the flag bits must panic"
        );
    }

    #[test]
    fn retire_wakes_parked_waiters_and_refuses_new_holds() {
        within(Duration::from_secs(30), || {
            let sys = MrapiSystem::new_t4240();
            let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
            let m = master.mutex_create(1, &MutexAttributes::default()).unwrap();
            let probe = master.mutex_get(1).unwrap();
            let k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
            let waiters: Vec<_> = (0..2)
                .map(|i| {
                    master
                        .thread_create(NodeId(1 + i), |me| {
                            let m = me.mutex_get(1).unwrap();
                            m.lock(MRAPI_TIMEOUT_INFINITE).map(|_| ())
                        })
                        .unwrap()
                })
                .collect();
            while probe.inner.park.waiters() < 2 {
                std::thread::yield_now();
            }
            m.retire();
            // Both parked waiters leave while the holder still holds.
            for w in waiters {
                assert_eq!(
                    w.join().unwrap().unwrap_err().0,
                    MrapiStatus::ErrMutexInvalid
                );
            }
            assert!(m.is_retired() && m.is_held() && m.is_held_by_caller());
            m.unlock(&k).unwrap();
            assert!(m.is_retired(), "unlock keeps the flag");
            assert!(!m.is_held());
            assert_eq!(m.try_lock().unwrap_err().0, MrapiStatus::ErrMutexInvalid);
            assert_eq!(
                m.lock(MRAPI_TIMEOUT_INFINITE).unwrap_err().0,
                MrapiStatus::ErrMutexInvalid
            );
        });
    }

    #[test]
    fn abandon_frees_a_wedged_hold_and_retires() {
        use crate::fault::FaultPlan;
        let sys = MrapiSystem::new_t4240();
        let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
        let m = master.mutex_create(1, &MutexAttributes::default()).unwrap();
        assert_eq!(m.abandon().unwrap_err().0, MrapiStatus::ErrMutexNotLocked);
        let k = m.lock(MRAPI_TIMEOUT_INFINITE).unwrap();
        assert_eq!(k, MutexKey::OUTERMOST);
        sys.set_fault_probe(Some(Arc::new(FaultPlan::new(0).with_persistent(
            FaultSite::MutexUnlock,
            MrapiStatus::ErrMutexInvalid,
            0,
        ))));
        assert!(m.unlock(&k).is_err());
        m.abandon().unwrap();
        sys.set_fault_probe(None);
        assert!(m.is_retired());
        assert!(!m.is_held(), "the abandoned hold left the word");
        assert_eq!(m.holder_node(), None);
        assert_eq!(m.unlock(&k).unwrap_err().0, MrapiStatus::ErrMutexNotLocked);
    }

    #[test]
    fn with_lock_convenience() {
        let n = node();
        let m = n.mutex_create(1, &MutexAttributes::default()).unwrap();
        let out = m.with_lock(|| 5).unwrap();
        assert_eq!(out, 5);
        // Lock is free afterwards.
        let k = m.try_lock().unwrap();
        m.unlock(&k).unwrap();
    }
}
