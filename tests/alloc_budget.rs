//! Allocation budgets for the steady-state construct paths.
//!
//! A counting global allocator wraps `System` and counts every allocation
//! in the process — pool workers included.  After a warm-up, batches of
//! repetitions of each path must allocate exactly the pinned number of
//! times (0 for the lock and `critical` round trips): a `parallel` region
//! with a barrier and a reduction, a `lock` round trip, and a named
//! `critical` round trip, at team 2 on both backends.  A change that adds
//! an allocation to one of these paths fails here, on any host and under
//! any steal, where a timing metric would only drift.
//!
//! The binary holds this one test so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use romp::{BackendKind, ReduceOp, Runtime};

/// Allocations (`alloc`, `alloc_zeroed`, `realloc`) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// plain atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TEAM: usize = 2;
/// Repetitions per batch.
const REPS: usize = 200;
/// Counted batches per path; the fewest allocations any batch made is the
/// path's count.
const BATCHES: usize = 5;

/// Allocations one steady-state region makes today.  Not 0 yet: each
/// region still builds its team's shared state (the `TeamShared` and its
/// task rings, injectors and counters; the native backend also allocates
/// the reduction scratch that MCA reuses).  A change that reuses them
/// lowers these numbers in the same diff.
fn region_budget(kind: BackendKind) -> u64 {
    match kind {
        BackendKind::Native => 12,
        BackendKind::Mca => 10,
    }
}

/// Allocations made by `REPS` calls of `f`, after `REPS` warm-up calls:
/// the least over [`BATCHES`] batches.  A steady-state MCA region can,
/// rarely, find the previous team's reduction segment still held by a
/// pool worker that has not yet dropped its job, and allocate a segment
/// of its own; taking the least batch keeps that timing out of the count,
/// while an allocation every repetition still shows in every batch.
fn allocations(mut f: impl FnMut()) -> u64 {
    for _ in 0..REPS {
        f();
    }
    (0..BATCHES)
        .map(|_| {
            let before = ALLOCS.load(Ordering::SeqCst);
            for _ in 0..REPS {
                f();
            }
            ALLOCS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("at least one batch")
}

#[test]
fn steady_state_constructs_stay_within_their_allocation_budget() {
    for kind in BackendKind::all() {
        let rt = Runtime::with_backend(kind).expect("runtime");
        let region = allocations(|| {
            rt.parallel(TEAM, |w| {
                w.barrier();
                black_box(w.reduce_u64(1, ReduceOp::Sum));
            })
        });
        let lock = rt.new_lock();
        let lock_trip = allocations(|| lock.with(|| black_box(())));
        // Member 0 counts its criticals inside one region while member 1
        // waits at the region's end barrier.
        let critical = AtomicU64::new(u64::MAX);
        rt.parallel(TEAM, |w| {
            if w.thread_num() == 0 {
                let n = allocations(|| w.critical("alloc_budget", || black_box(())));
                critical.store(n, Ordering::Relaxed);
            }
        });
        let critical = critical.into_inner();
        assert_eq!(
            (region, lock_trip, critical),
            (REPS as u64 * region_budget(kind), 0, 0),
            "{kind:?}: allocations per {REPS} (region, lock, critical) round trips"
        );
    }
}
