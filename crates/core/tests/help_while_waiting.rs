//! A team member that waits parks instead of spinning, and a task queued
//! while a teammate sleeps wakes it.
//!
//! Every team wait — the barrier, its task tail, `taskwait`, a lapped
//! construct ring and the end-of-region join — is one help-while-waiting
//! loop on the team's eventcount, with no deadline.  These tests hold a
//! teammate for [`HOLD`] and read the waiter's own thread CPU time: a
//! waiter that yield-polls burns about as much CPU as the wait lasts, one
//! that parks burns almost none.  With no timed fallback a lost wake is a
//! hang, so each test runs under a watchdog.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mca_platform::vtime::thread_cpu_ns;
use romp::{BackendKind, CancelToken, RompError, Runtime, Worker};

/// How long a teammate is held while the member under test waits.
const HOLD: Duration = Duration::from_millis(150);

/// Run `f` on its own thread and fail — instead of hanging — if it has
/// not finished within `secs` (a lost wake-up).
fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => h.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(h.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: not done within {secs}s (lost wake-up?)")
        }
    }
}

/// The wall time and this thread's CPU time `f` took, in nanoseconds.
fn wall_and_cpu(f: impl FnOnce()) -> (u64, u64) {
    let (t0, c0) = (Instant::now(), thread_cpu_ns());
    f();
    (
        t0.elapsed().as_nanos() as u64,
        thread_cpu_ns().saturating_sub(c0),
    )
}

/// Assert that a wait of `wall` ns spanned the hold and burnt under 10 %
/// of it in CPU.
fn assert_parked(what: &str, kind: BackendKind, (wall, cpu): (u64, u64)) {
    assert!(
        wall >= HOLD.as_nanos() as u64 * 2 / 3,
        "{kind:?} {what}: the wait took {wall} ns, so it never waited for the held teammate"
    );
    assert!(
        cpu * 10 < wall,
        "{kind:?} {what}: the waiter spun, {cpu} ns of CPU over {wall} ns of wall time"
    );
}

/// A task that flags its start, then holds its member for [`HOLD`].
fn held_task(started: &Arc<AtomicBool>) -> impl FnOnce() + Send + 'static {
    let started = Arc::clone(started);
    move || {
        started.store(true, Ordering::Release);
        thread::sleep(HOLD);
    }
}

/// A runtime whose pool has already run a team-2 region.
fn warm(kind: BackendKind) -> Runtime {
    let rt = Runtime::with_backend(kind).unwrap();
    rt.parallel(2, |w| w.barrier());
    rt
}

fn wait_for(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn taskwait_parks_while_a_teammate_runs_the_last_task() {
    within(60, || {
        for kind in BackendKind::all() {
            let rt = warm(kind);
            let started = Arc::new(AtomicBool::new(false));
            let measured = Mutex::new(None);
            rt.parallel(2, |w: &Worker| {
                if w.thread_num() == 1 {
                    // Member 1 pops its own ring first, so it runs the task.
                    w.task(held_task(&started));
                    w.taskwait();
                } else {
                    wait_for(&started);
                    *measured.lock().unwrap() = Some(wall_and_cpu(|| w.taskwait()));
                }
            });
            assert_parked("taskwait", kind, measured.into_inner().unwrap().unwrap());
        }
    });
}

#[test]
fn barrier_task_tail_parks_while_a_teammate_runs_the_last_task() {
    within(60, || {
        for kind in BackendKind::all() {
            let rt = warm(kind);
            let started = Arc::new(AtomicBool::new(false));
            let measured = Mutex::new(None);
            rt.parallel(2, |w: &Worker| {
                if w.thread_num() == 1 {
                    // Waits at the barrier, takes the task queued meanwhile
                    // and is still running it when the release fires.
                    w.barrier();
                } else {
                    thread::sleep(Duration::from_millis(20));
                    w.task(held_task(&started));
                    wait_for(&started);
                    // The last arrival: fires the release, then waits in
                    // the task tail for the task its teammate runs.
                    *measured.lock().unwrap() = Some(wall_and_cpu(|| w.barrier()));
                }
            });
            assert_parked(
                "barrier task tail",
                kind,
                measured.into_inner().unwrap().unwrap(),
            );
        }
    });
}

#[test]
fn region_join_parks_while_a_member_is_held() {
    within(60, || {
        for kind in BackendKind::all() {
            let rt = warm(kind);
            let token = CancelToken::new();
            rt.set_cancel_token(Some(token.clone()));
            let started = AtomicBool::new(false);
            let (wall, cpu) = wall_and_cpu(|| {
                let out = rt.try_parallel(2, |w: &Worker| {
                    if w.thread_num() == 1 {
                        // No cancellation point: the member stays held
                        // until it returns, past its team's cancel.
                        started.store(true, Ordering::Release);
                        thread::sleep(HOLD);
                    } else {
                        wait_for(&started);
                        token.cancel();
                        // Unwinds here, straight to the end-of-region join.
                        w.barrier();
                    }
                });
                assert!(matches!(out, Err(RompError::Cancelled)), "got {out:?}");
            });
            rt.set_cancel_token(None);
            // The master's own wait for member 1 to start is sleeps too.
            assert_parked("region join", kind, (wall, cpu));
        }
    });
}

#[test]
fn task_pushed_at_a_parked_barrier_wakes_the_teammate() {
    within(60, || {
        for kind in BackendKind::all() {
            let rt = warm(kind);
            let (member1, ran_on) = (Mutex::new(None), Mutex::new(None));
            let (tx, rx) = mpsc::channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            rt.parallel(2, |w: &Worker| {
                if w.thread_num() == 1 {
                    *member1.lock().unwrap() = Some(thread::current().id());
                    w.barrier();
                    return;
                }
                // Long past member 1's spin budget: it sleeps at the barrier.
                thread::sleep(Duration::from_millis(50));
                let tx = tx.lock().unwrap().clone();
                w.task(move || {
                    let _ = tx.send(thread::current().id());
                });
                // The master reaches no scheduling point until the task has
                // run, so only the parked teammate can run it — and only a
                // notify can wake that teammate.
                let ran = rx.lock().unwrap().recv_timeout(Duration::from_secs(20));
                *ran_on.lock().unwrap() = ran.ok();
                w.barrier();
            });
            let (member1, ran_on) = (member1.into_inner().unwrap(), ran_on.into_inner().unwrap());
            assert!(
                ran_on.is_some(),
                "{kind:?}: the task queued at the barrier never ran"
            );
            assert_eq!(
                ran_on, member1,
                "{kind:?}: the task ran on the wrong member"
            );
            let stats = rt.stats();
            assert!(
                stats.parks > 0,
                "{kind:?}: member 1 never parked at the barrier"
            );
            assert_eq!(stats.park_timeouts, 0, "{kind:?}: a team wait timed out");
        }
    });
}
