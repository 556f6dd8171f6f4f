//! The dispatcher: every dispatch policy, once, as a sans-IO state
//! machine.
//!
//! The in-process server, the `romp-cluster` router and the `romp-sim`
//! world all place jobs through one [`Dispatcher`].  It holds no thread,
//! lock, socket or clock.  Its inputs are method calls — a job popped
//! ([`Dispatcher::popped`], or [`Dispatcher::pump`] for a driver that
//! cannot block), a job finished, an executor up or down, an activity
//! report, a watchdog tick.  Its outputs are the terminal transitions it
//! records through the [`ServeCore`] and the [`Cmd`]s its driver carries
//! out on the executors (start, cancel, escalate) after letting go of the
//! dispatcher ([`Dispatcher::take_cmds`]).
//!
//! The policies it owns:
//!
//! * **placement** — each executor holds at most `window` jobs; a job
//!   with an affinity key prefers the executor its [`mix64`] placement
//!   names (as for runtime shards), else the least-loaded eligible one
//!   (up, not retiring, under its window).  A full pool pops nothing;
//! * **a token fired before start** settles the job without a start;
//! * **terminal reconciliation** — an executor's `Cancelled`/`TimedOut`
//!   verdict stands (it came from the job's own token); for `Done` or
//!   `Failed` the token is re-checked ([`terminal_for`]), since it may
//!   have fired after the executor sealed its outcome;
//! * **orphans** — when an executor goes down, each of its jobs is
//!   settled if its token fired, retried elsewhere otherwise (at most
//!   [`MAX_RETRIES`] times), then failed;
//! * **cancel forwarding** — a fired token is passed to the job's
//!   executor once;
//! * **watchdog inputs** — each in-flight job's progress is its
//!   executor's last reported activity, and the escalation target is the
//!   executor running the stalled job;
//! * **drain** — done once the queue is closed and nothing is in flight
//!   or waiting.
//!
//! Every executor incarnation carries a generation: inputs from an older
//! one (a late `Done`, a second death report) are ignored.  State lives
//! in `Vec`s in dispatch order, so the same inputs produce the same
//! commands — the simulator's traces depend on it.

use std::collections::VecDeque;

use mca_platform::mix64;
use romp::CancelReason;

use crate::job::{JobOutcome, JobState};
use crate::lifecycle::terminal_for;
use crate::queue::QueuedJob;
use crate::session::ServeCore;

/// Times a job orphaned by an executor's death is retried before it is
/// failed.
pub const MAX_RETRIES: u32 = 3;

/// What the dispatcher asks of an executor; `exec` is the executor's
/// index and `gen` its incarnation.
#[derive(Debug)]
pub enum Cmd {
    /// `Start(exec, gen, job)`: run `job` (its cancel token is shared
    /// with the in-flight entry); report its end with
    /// [`Dispatcher::finished`].
    Start(usize, u64, QueuedJob),
    /// `Cancel(exec, gen, job, deadline)`: `job`'s token fired (for its
    /// deadline when `deadline`); pass it on.
    Cancel(usize, u64, u64, bool),
    /// `Escalate(exec, gen, job)`: the watchdog found `job` unresponsive
    /// to cancellation; take the escalating action against `exec`.
    Escalate(usize, u64, u64),
}

#[derive(Debug, Clone, Default)]
struct Executor {
    up: bool,
    /// Excluded from placement (a rolling restart is cycling it).
    retiring: bool,
    gen: u64,
    load: u32,
    /// Last reported activity counter; `None` until the executor
    /// reports one (its jobs are then judged by the serving runtime's).
    activity: Option<u64>,
}

#[derive(Debug)]
struct Inflight {
    exec: usize,
    gen: u64,
    job: QueuedJob,
    retries: u32,
    cancel_sent: bool,
}

/// The dispatch state machine (see the module docs).
#[derive(Debug, Default)]
pub struct Dispatcher {
    window: u32,
    execs: Vec<Executor>,
    inflight: Vec<Inflight>,
    /// Popped or orphaned jobs waiting for a window slot, with their
    /// retry counts, oldest first.
    waiting: VecDeque<(QueuedJob, u32)>,
    cmds: Vec<Cmd>,
}

/// Complete a job that will not run (again): its fired token decides the
/// terminal state, otherwise it failed with `detail`.  The zero exec
/// time keeps it out of the service-time estimates.
fn settle<C: ServeCore + ?Sized>(core: &C, job: &QueuedJob, detail: &str) {
    let (state, outcome) = terminal_for(job.cancel.reason(), JobOutcome::unrun(detail));
    core.finish_job(job.id, &job.spec.label(), state, outcome, 0);
}

impl Dispatcher {
    /// `executors` executors, all down, each holding at most `window`
    /// jobs (at least one).
    pub fn new(executors: usize, window: u32) -> Dispatcher {
        Dispatcher {
            window: window.max(1),
            execs: vec![Executor::default(); executors.max(1)],
            ..Dispatcher::default()
        }
    }

    /// Executor `exec` is up as incarnation `gen`: place waiting jobs on
    /// it.  An incarnation still up is taken down first.
    pub fn up<C: ServeCore + ?Sized>(&mut self, core: &C, exec: usize, gen: u64) {
        self.down(core, exec, self.execs[exec].gen);
        let e = &mut self.execs[exec];
        (e.up, e.gen) = (true, gen);
        self.place(core);
    }

    /// Executor `exec`, incarnation `gen`, is gone with whatever it held:
    /// settle or requeue its orphans (see the module docs) and place what
    /// can be placed.  Returns `(orphans, retried)`; a stale report
    /// returns `(0, 0)`.
    pub fn down<C: ServeCore + ?Sized>(
        &mut self,
        core: &C,
        exec: usize,
        gen: u64,
    ) -> (usize, usize) {
        let e = &mut self.execs[exec];
        if !e.up || e.gen != gen {
            return (0, 0);
        }
        *e = Executor::default();
        let (orphans, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.inflight)
            .into_iter()
            .partition(|f| f.exec == exec);
        self.inflight = kept;
        let n = orphans.len();
        let mut retried = 0;
        for f in orphans {
            if f.retries < MAX_RETRIES && !f.job.cancel.is_cancelled() {
                self.waiting.push_back((f.job, f.retries + 1));
                retried += 1;
            } else {
                settle(
                    core,
                    &f.job,
                    &format!("executor {exec} died; retries exhausted"),
                );
            }
        }
        self.place(core);
        (n, retried)
    }

    /// Stop placing jobs on executor `exec` until its next
    /// [`up`](Dispatcher::up) (a rolling restart drains it first).
    pub fn retire(&mut self, exec: usize) {
        self.execs[exec].retiring = true;
    }

    /// A job the queue handed out: place it, or hold it until a window
    /// slot frees.
    pub fn popped<C: ServeCore + ?Sized>(&mut self, core: &C, job: QueuedJob) {
        self.waiting.push_back((job, 0));
        self.place(core);
    }

    /// The non-blocking pop loop: pop and place jobs while the pool has a
    /// free window slot and the queue has work.
    pub fn pump<C: ServeCore + ?Sized>(&mut self, core: &C) {
        while let Some(job) = self.can_pop().then(|| core.state().try_pop()).flatten() {
            self.popped(core, job);
        }
    }

    /// Executor `exec`, incarnation `gen`, ended `job` in `state` after
    /// `exec_ns` of execution: reconcile the verdict with the job's
    /// token, record it, and place what the freed slot allows.  Returns
    /// `false` for a stale report (the job was already settled or retried
    /// elsewhere).
    #[allow(clippy::too_many_arguments)]
    pub fn finished<C: ServeCore + ?Sized>(
        &mut self,
        core: &C,
        exec: usize,
        gen: u64,
        job: u64,
        state: JobState,
        outcome: JobOutcome,
        exec_ns: u64,
    ) -> bool {
        let at = |f: &Inflight| f.job.id == job && f.exec == exec && f.gen == gen;
        let Some(i) = self.inflight.iter().position(at) else {
            return false;
        };
        let f = self.inflight.remove(i);
        self.execs[exec].load -= 1;
        let (state, outcome) = match state {
            JobState::Cancelled | JobState::TimedOut => (state, outcome),
            _ => terminal_for(f.job.cancel.reason(), outcome),
        };
        core.finish_job(job, &f.job.spec.label(), state, outcome, exec_ns);
        self.place(core);
        true
    }

    /// Executor `exec`, incarnation `gen`, reports its activity counter
    /// (the watchdog's progress signal for its jobs).
    pub fn activity(&mut self, exec: usize, gen: u64, counter: u64) {
        let e = &mut self.execs[exec];
        if e.up && e.gen == gen {
            e.activity = Some(counter);
        }
    }

    /// A watchdog tick, after its sweep: settle waiting jobs whose token
    /// fired, forward newly fired tokens of in-flight jobs, and escalate
    /// the sweep's stalled job against its executor.
    pub fn tick<C: ServeCore + ?Sized>(&mut self, core: &C, escalate: Option<u64>) {
        self.place(core);
        for f in self.inflight.iter_mut().filter(|f| !f.cancel_sent) {
            if let Some(reason) = f.job.cancel.reason() {
                f.cancel_sent = true;
                let deadline = reason == CancelReason::Deadline;
                self.cmds
                    .push(Cmd::Cancel(f.exec, f.gen, f.job.id, deadline));
            }
        }
        if let Some(f) = escalate.and_then(|id| self.inflight.iter().find(|f| f.job.id == id)) {
            self.cmds.push(Cmd::Escalate(f.exec, f.gen, f.job.id));
        }
    }

    /// `(job, activity)` for every in-flight job whose executor has
    /// reported activity.
    pub fn job_activity(&self) -> Vec<(u64, u64)> {
        let of = |f: &Inflight| self.execs[f.exec].activity.map(|a| (f.job.id, a));
        self.inflight.iter().filter_map(of).collect()
    }

    /// Whether a pop would be placed now: nothing waits and some
    /// executor has a free window slot.
    pub fn can_pop(&self) -> bool {
        self.waiting.is_empty() && (0..self.execs.len()).any(|i| self.eligible(i))
    }

    /// Nothing in flight and nothing waiting.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty() && self.waiting.is_empty()
    }

    /// The drain condition: the queue is closed and empty, and the
    /// dispatcher [`idle`](Dispatcher::idle).
    pub fn drained<C: ServeCore + ?Sized>(&self, core: &C) -> bool {
        let q = core.state().queue();
        q.is_closed() && q.is_empty() && self.idle()
    }

    /// Jobs in flight on executor `exec`.
    pub fn load(&self, exec: usize) -> u32 {
        self.execs[exec].load
    }

    /// Jobs in flight on every executor.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// The commands issued since the last call, in order.  Hand the
    /// emptied buffer back with [`recycle`](Dispatcher::recycle) to keep
    /// its capacity.
    pub fn take_cmds(&mut self) -> Vec<Cmd> {
        std::mem::take(&mut self.cmds)
    }

    /// Return a buffer [`take_cmds`](Dispatcher::take_cmds) handed out.
    pub fn recycle(&mut self, mut buf: Vec<Cmd>) {
        if self.cmds.is_empty() && buf.capacity() > self.cmds.capacity() {
            buf.clear();
            self.cmds = buf;
        }
    }

    fn eligible(&self, i: usize) -> bool {
        let e = &self.execs[i];
        e.up && !e.retiring && e.load < self.window
    }

    /// The placement choice (see the module docs).
    fn pick(&self, affinity: u64) -> Option<usize> {
        let n = self.execs.len();
        let pref = (mix64(affinity) % n as u64) as usize;
        if affinity != 0 && self.eligible(pref) {
            return Some(pref);
        }
        (0..n)
            .filter(|&i| self.eligible(i))
            .min_by_key(|&i| (self.execs[i].load, i))
    }

    /// Settle every waiting job whose token fired, then start waiting
    /// jobs, oldest first, while they fit.
    fn place<C: ServeCore + ?Sized>(&mut self, core: &C) {
        self.waiting.retain(|(job, _)| {
            let fired = job.cancel.is_cancelled();
            if fired {
                settle(core, job, "");
            }
            !fired
        });
        while let Some(exec) = self
            .waiting
            .front()
            .and_then(|(j, _)| self.pick(j.affinity))
        {
            let (job, retries) = self.waiting.pop_front().expect("front exists");
            let e = &mut self.execs[exec];
            e.load += 1;
            self.cmds.push(Cmd::Start(exec, e.gen, job.clone()));
            self.inflight.push(Inflight {
                exec,
                gen: e.gen,
                job,
                retries,
                cancel_sent: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use mca_platform::VirtualClock;
    use romp_epcc::Construct;
    use romp_trace::MetricsRegistry;

    use super::*;
    use crate::job::JobSpec;
    use crate::lifecycle::{Consumed, DedupConfig};
    use crate::metrics::Metrics;
    use crate::server::ServeConfig;
    use crate::state::ServeState;

    /// A serving core with no runtime: the tests play the executors.
    struct TestCore {
        state: ServeState,
        completions: RefCell<Vec<u64>>,
    }

    impl ServeCore for TestCore {
        fn state(&self) -> &ServeState {
            &self.state
        }
        fn activity(&self) -> u64 {
            0
        }
        fn on_complete(&self, job: u64) {
            self.completions.borrow_mut().push(job);
        }
        fn stats_json(&self) -> String {
            String::new()
        }
    }

    fn core() -> TestCore {
        TestCore {
            state: ServeState::new(
                VirtualClock::new(0).clock(),
                DedupConfig::default(),
                Metrics::new(&MetricsRegistry::new()),
                &ServeConfig::default(),
            ),
            completions: RefCell::new(Vec::new()),
        }
    }

    /// Admit one job with `affinity`; returns its id.
    fn admit(c: &TestCore, affinity: u64) -> u64 {
        let spec = JobSpec::Epcc {
            construct: Construct::Barrier,
            threads: 1,
            inner_reps: 1,
        };
        let st = &c.state;
        let job = st
            .table()
            .stage(spec, 0, 0, st.limits(), 0, affinity, 0)
            .expect("valid job stages");
        let id = job.id;
        st.queue().try_push(job).expect("queue has room");
        id
    }

    /// `(exec, gen, job)` of every `Start` issued since the last call.
    fn starts(d: &mut Dispatcher) -> Vec<(usize, u64, u64)> {
        d.take_cmds()
            .into_iter()
            .filter_map(|c| match c {
                Cmd::Start(exec, gen, job) => Some((exec, gen, job.id)),
                _ => None,
            })
            .collect()
    }

    fn done() -> JobOutcome {
        JobOutcome {
            ok: true,
            wall_us: 1,
            detail: "ok".into(),
        }
    }

    /// Fire a running job's token, as a `Cancel` request does.
    fn cancel(c: &TestCore, job: u64) {
        let _ = c.state.table().cancel(job);
    }

    fn one_terminal(c: &TestCore, job: u64, state: JobState) {
        assert_eq!(c.state.table().poll(job), Some(state));
        assert_eq!(c.state.table().double_terminal(), 0);
        let hits = c.completions.borrow().iter().filter(|&&j| j == job).count();
        assert_eq!(hits, 1, "job {job} completed {hits} times");
    }

    /// One executor, window 1, up as incarnation 1, with one job started.
    fn one_running() -> (TestCore, Dispatcher, u64) {
        let c = core();
        let mut d = Dispatcher::new(1, 1);
        d.up(&c, 0, 1);
        let job = admit(&c, 0);
        d.pump(&c);
        assert_eq!(starts(&mut d), vec![(0, 1, job)]);
        (c, d, job)
    }

    #[test]
    fn finished_racing_executor_down_records_one_terminal_state() {
        for finished_first in [true, false] {
            let (c, mut d, job) = one_running();
            if finished_first {
                assert!(d.finished(&c, 0, 1, job, JobState::Done, done(), 5));
                assert_eq!(d.down(&c, 0, 1), (0, 0));
            } else {
                assert_eq!(d.down(&c, 0, 1), (1, 1));
                // The dead incarnation's late `Done` is stale.
                assert!(!d.finished(&c, 0, 1, job, JobState::Done, done(), 5));
                d.up(&c, 0, 2);
                assert_eq!(starts(&mut d), vec![(0, 2, job)]);
                assert!(d.finished(&c, 0, 2, job, JobState::Done, done(), 5));
            }
            one_terminal(&c, job, JobState::Done);
            assert!(d.idle());
        }
    }

    #[test]
    fn an_orphan_is_retried_max_retries_times_then_failed() {
        let (c, mut d, job) = one_running();
        let mut launched = 1;
        for gen in 1..=u64::from(MAX_RETRIES) + 1 {
            let retried = d.down(&c, 0, gen).1;
            d.up(&c, 0, gen + 1);
            launched += starts(&mut d).len();
            assert_eq!(retried, usize::from(gen <= u64::from(MAX_RETRIES)));
        }
        assert_eq!(launched, 1 + MAX_RETRIES as usize);
        one_terminal(&c, job, JobState::Failed);
        let Consumed::Result(_, outcome) = c.state.table().consume(job) else {
            panic!("job {job} not terminal");
        };
        assert!(
            outcome.detail.contains("retries exhausted"),
            "{}",
            outcome.detail
        );
        assert!(d.idle());
    }

    #[test]
    fn a_cancelled_orphan_is_settled_not_retried() {
        let (c, mut d, job) = one_running();
        cancel(&c, job);
        assert_eq!(d.down(&c, 0, 1), (1, 0));
        d.up(&c, 0, 2);
        assert!(starts(&mut d).is_empty());
        one_terminal(&c, job, JobState::Cancelled);
    }

    #[test]
    fn a_token_fired_before_start_settles_without_start() {
        // Fired before the pop handed it over, and fired while it waited
        // behind a full window.
        for while_waiting in [false, true] {
            let c = core();
            let mut d = Dispatcher::new(1, 1);
            d.up(&c, 0, 1);
            let first = admit(&c, 0);
            let job = admit(&c, 0);
            d.pump(&c);
            assert_eq!(starts(&mut d), vec![(0, 1, first)]);
            let popped = c.state.try_pop().expect("second job pops");
            if while_waiting {
                d.popped(&c, popped);
                cancel(&c, job);
                d.tick(&c, None);
            } else {
                cancel(&c, job);
                d.popped(&c, popped);
            }
            assert!(starts(&mut d).is_empty());
            one_terminal(&c, job, JobState::Cancelled);
            assert_eq!(d.load(0), 1);
        }
    }

    #[test]
    fn a_full_window_pops_nothing() {
        let c = core();
        let mut d = Dispatcher::new(2, 2);
        d.up(&c, 0, 1);
        d.up(&c, 1, 1);
        for _ in 0..5 {
            admit(&c, 0);
        }
        d.pump(&c);
        assert_eq!(starts(&mut d).len(), 4);
        assert!(!d.can_pop());
        assert_eq!(c.state.queue().len(), 1);
        assert_eq!((d.load(0), d.load(1)), (2, 2));
        d.pump(&c);
        assert!(starts(&mut d).is_empty());
        assert_eq!(c.state.queue().len(), 1);
    }

    #[test]
    fn drain_completes_only_with_the_queue_closed_and_nothing_in_flight() {
        let (c, mut d, job) = one_running();
        assert!(!d.drained(&c), "queue open, job in flight");
        c.state.begin_drain();
        assert!(!d.drained(&c), "job in flight");
        d.finished(&c, 0, 1, job, JobState::Done, done(), 5);
        assert!(d.drained(&c));
        let (c, d) = (core(), Dispatcher::new(1, 1));
        assert!(!d.drained(&c), "queue open");
    }

    #[test]
    fn placement_prefers_affinity_then_least_loaded_eligible() {
        let c = core();
        let mut d = Dispatcher::new(3, 2);
        d.up(&c, 0, 1);
        d.up(&c, 1, 1);
        // Executor 2 stays down.
        let (a, b) = (admit(&c, 0), admit(&c, 0));
        d.pump(&c);
        assert_eq!(starts(&mut d), vec![(0, 1, a), (1, 1, b)], "least loaded");
        d.retire(0);
        d.retire(1);
        assert!(!d.can_pop(), "retiring and down executors take nothing");

        // A key keeps its executor while it has room, then falls back.
        let c = core();
        let mut d = Dispatcher::new(3, 2);
        for exec in 0..3 {
            d.up(&c, exec, 1);
        }
        let key = 0xFEED_F00D_u64;
        let pref = (mix64(key) % 3) as usize;
        for _ in 0..3 {
            admit(&c, key);
        }
        d.pump(&c);
        let placed: Vec<usize> = starts(&mut d).iter().map(|s| s.0).collect();
        assert_eq!(&placed[..2], &[pref, pref]);
        assert_ne!(placed[2], pref, "a full preferred executor falls back");
    }

    #[test]
    fn verdicts_reconcile_with_the_token() {
        let (c, mut d, job) = one_running();
        cancel(&c, job);
        // The executor sealed `Done` before it saw the token.
        d.finished(&c, 0, 1, job, JobState::Done, done(), 5);
        one_terminal(&c, job, JobState::Cancelled);
    }

    #[test]
    fn a_fired_token_is_forwarded_once_and_escalation_targets_its_executor() {
        let (c, mut d, job) = one_running();
        cancel(&c, job);
        d.tick(&c, None);
        d.tick(&c, Some(job));
        let cmds: Vec<String> = d.take_cmds().iter().map(|c| format!("{c:?}")).collect();
        assert_eq!(
            cmds,
            vec![
                format!("Cancel(0, 1, {job}, false)"),
                format!("Escalate(0, 1, {job})"),
            ]
        );
        d.activity(0, 1, 7);
        assert_eq!(d.job_activity(), vec![(job, 7)]);
    }
}
