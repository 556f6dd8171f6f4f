//! The virtual executors: the one part of dispatch `romp-sim` models.
//!
//! Which job runs where, when it is retried, which token is forwarded
//! and which job is escalated are decided by the production
//! [`Dispatcher`](romp_serve::dispatcher::Dispatcher); an executor here
//! stands for what it drives — the in-process server's runtime, or one
//! cluster worker.  It runs the jobs started on it one at a time, in
//! start order, each for a seeded duration with a seeded outcome (ok,
//! verification failure, panic, or a wedge: stuck in an abandoned MCA
//! lock wait that only escalation ends), with `mca-mrapi` fault-plan
//! probes failing lock acquisitions once a timed fault arms.  A job whose
//! token fired before its turn ends unrun, as `run_guarded` ends it; a
//! running job whose token fired unwinds within [`UNWIND_NS`].
//! Escalation breaks a wedge and poisons the executor's backend (its
//! native fallback cannot wedge).  A seeded death drops every job on the
//! executor, which the dispatcher hears as that incarnation going down
//! and the next coming up.
//!
//! Each watchdog tick an executor running a job that is not wedged
//! reports progress (the worker heartbeat's activity counter), so the
//! watchdog judges a job waiting behind a busy one by that executor.
//! Two invariants are checked here: no job starts more than
//! `1 + MAX_RETRIES` times, and no job is escalated while it waits
//! behind another.
//!
//! The executors are the world's state; this module is the world's
//! executor half.

use std::collections::VecDeque;

use mca_mrapi::{FaultProbe, FaultSite};
use romp_serve::dispatcher::{Cmd, MAX_RETRIES};
use romp_serve::lifecycle::terminal_for;
use romp_serve::session::ServeCore;
use romp_serve::{JobOutcome, JobState, QueuedJob};

use super::{Event, World};
use crate::sched::EventQueue;

/// Cooperative-cancel unwind latency: virtual ns from a cancelled
/// running job noticing the token to reaching its terminal state.
const UNWIND_NS: u64 = 200_000;

/// A job's seeded execution: how long it runs and how it ends.
#[derive(Debug, Clone, Copy)]
struct Plan {
    dur_ns: u64,
    ok: bool,
    panics: bool,
    /// Stuck in an abandoned-lock wait: never ends on its own.
    wedged: bool,
}

/// One executor: its started jobs in start order; the head one runs.
#[derive(Default)]
pub(super) struct Exec {
    gen: u64,
    runs: VecDeque<(QueuedJob, Plan)>,
    /// When the head job began.
    began_ns: u64,
    /// The head job is ending early: unrun, unwinding or escalated.
    unwinding: bool,
    /// Id of the head job's pending `Done` event.
    run: u64,
    activity: u64,
    poisoned: bool,
}

impl Exec {
    /// Incarnation `gen`, holding nothing.
    pub(super) fn new(gen: u64) -> Exec {
        Exec {
            gen,
            ..Exec::default()
        }
    }

    /// Begin the head job: it ends unrun at once if its token already
    /// fired, never if it wedges, else after its duration.
    fn begin(&mut self, exec: usize, now: u64, evq: &mut EventQueue<Event>) {
        let Some((job, plan)) = self.runs.front() else {
            return;
        };
        (self.began_ns, self.unwinding) = (now, job.cancel.is_cancelled());
        let at = match (self.unwinding, plan.wedged) {
            (true, _) => now,
            (false, true) => return,
            (false, false) => now + plan.dur_ns,
        };
        self.run += 1;
        let (gen, run) = (self.gen, self.run);
        evq.push(at, Event::Done { exec, gen, run });
    }

    /// The head job stops at its next checkpoint: it ends `UNWIND_NS`
    /// from now, whatever its plan said.
    fn unwind(&mut self, exec: usize, now: u64, evq: &mut EventQueue<Event>) {
        self.unwinding = true;
        self.run += 1;
        let (gen, run) = (self.gen, self.run);
        evq.push(now + UNWIND_NS, Event::Done { exec, gen, run });
    }

    /// The head job runs and is not wedged: it makes progress.
    fn busy(&self) -> bool {
        self.runs.front().is_some_and(|(_, p)| !p.wedged)
    }
}

impl World {
    /// Carry out the dispatcher's commands on the executors, then the
    /// usual post-interaction pass.
    pub(super) fn after_dispatch(&mut self) {
        for cmd in self.dispatcher.take_cmds() {
            match cmd {
                Cmd::Start(exec, gen, job) => self.start(exec, gen, job),
                Cmd::Cancel(..) => self.poll_tokens(),
                Cmd::Escalate(exec, gen, job) => self.escalate(exec, gen, job),
            }
        }
        self.after_core_interaction();
    }

    /// Start `job` on executor `exec`, incarnation `gen`: draw its plan
    /// (and maybe the executor's death), queue it, and begin it if the
    /// executor is free.
    fn start(&mut self, exec: usize, gen: u64, job: QueuedJob) {
        let now = self.now();
        if self.execs[exec].gen != gen {
            return;
        }
        let n = self.starts.entry(job.id).or_insert(0);
        *n += 1;
        if *n > 1 + MAX_RETRIES {
            self.violations
                .push(format!("job {} started {n} times", job.id));
        }
        let plan = self.plan(exec, job.deadline_ns.is_some());
        self.trace_line(&format!(
            "t={now} dispatch job={} exec={exec} {plan:?}",
            job.id
        ));
        if self.sc.death_pm > 0 && self.rng.gen_range(0, 1000) < self.sc.death_pm {
            let at = now + self.rng.gen_range(0, plan.dur_ns + 1);
            self.evq.push(at, Event::Death { exec, gen });
        }
        let e = &mut self.execs[exec];
        e.runs.push_back((job, plan));
        if e.runs.len() == 1 {
            e.begin(exec, now, &mut self.evq);
        }
    }

    /// Seeded execution plan: duration plus one of ok / verification
    /// failure / panic / wedge.  The fault probe turns lock acquisitions
    /// into failures once the virtual clock passes its arm time.
    fn plan(&mut self, exec: usize, has_deadline: bool) -> Plan {
        let (sc, rng) = (&self.sc, &mut self.rng);
        let dur_ns = rng.gen_range(sc.exec_ns.0, sc.exec_ns.1 + 1);
        let mrapi_fault = self
            .fault
            .as_ref()
            .is_some_and(|p| p.decide(FaultSite::MutexLock).fail.is_some());
        let roll = rng.gen_range(0, 1000);
        // Only a deadline (→ escalation) ends a wedge, and a poisoned
        // backend has fallen back to native sync, which cannot wedge.
        let wedged = has_deadline && !self.execs[exec].poisoned && roll < sc.wedge_pm;
        let failed = !wedged && (mrapi_fault || roll < sc.wedge_pm + sc.fail_pm);
        let panics = failed && rng.gen_range(0, 1000) < 300;
        let ok = !wedged && !failed;
        Plan {
            dur_ns,
            ok,
            panics,
            wedged,
        }
    }

    /// Executor `exec`'s run `run` ended: report the job to the
    /// dispatcher and begin the next.  Checks the overload invariant:
    /// with shedding on, an accepted job reaches its terminal state within
    /// the deadline-enforcement granularity — a watchdog tick to notice
    /// the deadline, one maximal execution that started just before the
    /// kill, and the cooperative unwind.
    pub(super) fn exec_done(&mut self, exec: usize, gen: u64, run: u64) {
        let now = self.now();
        let e = &mut self.execs[exec];
        if e.gen != gen || e.run != run {
            return;
        }
        let Some((job, plan)) = e.runs.pop_front() else {
            return;
        };
        let exec_ns = now - e.began_ns;
        let (token, wall_us) = (job.cancel.reason(), exec_ns / 1000);
        let (state, outcome) = if exec_ns == 0 && token.is_some() {
            self.unrun += 1;
            terminal_for(token, JobOutcome::unrun(""))
        } else if plan.panics {
            let detail = "panicked: simulated kernel fault";
            (JobState::Failed, outcome(false, wall_us, detail))
        } else {
            let detail = if plan.ok { "ok" } else { "verification failed" };
            terminal_for(token, outcome(plan.ok, wall_us, detail))
        };
        e.activity += 1;
        e.begin(exec, now, &mut self.evq);
        let sc = &self.sc;
        let grace = sc.watchdog_tick_ms * 1_000_000 + sc.exec_ns.1 + UNWIND_NS + 1_000_000;
        let late = job.deadline_ns.filter(|dl| sc.shed && now > dl + grace);
        let d = &mut self.dispatcher;
        if d.finished(&self.core, exec, gen, job.id, state, outcome, exec_ns) {
            self.trace_line(&format!("t={now} done job={} state={state:?}", job.id));
            if let Some(dl) = late {
                self.violations.push(format!(
                    "job {} finished {}ns past its deadline (grace {grace}ns)",
                    job.id,
                    now - dl
                ));
            }
        }
        self.after_dispatch();
    }

    /// Executor `exec`, incarnation `gen`, dies with its jobs and comes
    /// straight back as the next incarnation.
    pub(super) fn exec_death(&mut self, exec: usize, gen: u64) {
        if self.execs[exec].gen == gen {
            self.execs[exec] = Exec::new(gen + 1);
            self.retries += self.dispatcher.down(&self.core, exec, gen).1 as u64;
            self.dispatcher.up(&self.core, exec, gen + 1);
            self.after_dispatch();
        }
    }

    /// A running job whose token fired starts unwinding (the runtime
    /// polls the token it shares; a forwarded cancel lands here too).
    pub(super) fn poll_tokens(&mut self) {
        let now = self.now();
        for (exec, e) in self.execs.iter_mut().enumerate() {
            let fired = e.runs.front().is_some_and(|(j, _)| j.cancel.is_cancelled());
            if fired && e.busy() && !e.unwinding {
                e.unwind(exec, now, &mut self.evq);
            }
        }
    }

    /// Escalation against executor `exec`, incarnation `gen`, for `job`:
    /// poison its backend, which ends a wedge (the job unwinds).  Poisoning
    /// a healthy backend counts as a watchdog escalation.
    fn escalate(&mut self, exec: usize, gen: u64, job: u64) {
        let now = self.now();
        self.trace_line(&format!("t={now} wd escalate job={job}"));
        let e = &mut self.execs[exec];
        let Some((head, plan)) = e.runs.front_mut().filter(|_| e.gen == gen) else {
            return;
        };
        if head.id != job {
            let msg = format!("job {job} escalated while queued behind job {}", head.id);
            self.violations.push(msg);
            return;
        }
        plan.wedged = false;
        if !e.unwinding {
            e.unwind(exec, now, &mut self.evq);
        }
        if !std::mem::replace(&mut e.poisoned, true) {
            self.core.state().metrics().wd_escalations.incr();
        }
    }

    /// One heartbeat: every executor running a job that is not wedged
    /// made progress; each reports its activity counter.
    pub(super) fn heartbeat(&mut self) {
        for (exec, e) in self.execs.iter_mut().enumerate() {
            e.activity += u64::from(e.busy());
            self.dispatcher.activity(exec, e.gen, e.activity);
        }
    }
}

fn outcome(ok: bool, wall_us: u64, detail: &str) -> JobOutcome {
    JobOutcome {
        ok,
        wall_us,
        detail: detail.into(),
    }
}
