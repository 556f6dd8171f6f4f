//! Job lifecycle state machine, factored out of the reactor/dispatcher.
//!
//! [`JobTable`] owns everything about a job *except* its execution: the
//! id allocator, the per-job state record, the idempotency (dedup) map,
//! deadline/cancellation bookkeeping, and the watchdog sweep that turns
//! elapsed time into state transitions.  It is deliberately free of I/O
//! and threads so the same code runs under the production epoll server
//! (real clock, many threads) and under `romp-sim` (virtual clock, one
//! thread) — the simulator finds bugs here, and the fixes ship to prod.
//!
//! Timekeeping goes through [`mca_platform::Clock`]: a `JobTable` built
//! with `Clock::real()` reads `CLOCK_MONOTONIC`; one built from a
//! `VirtualClock` advances only when the simulation scheduler says so.
//!
//! ## Idempotency window
//!
//! The dedup map is *bounded* (PR 7): at most [`DedupConfig::cap`]
//! terminal entries are retained, and a terminal job's key is evicted
//! [`DedupConfig::ttl_ns`] after it completes even below the cap.  Keys
//! of live (queued/running) jobs are never evicted, so the map size is
//! bounded by `cap + live jobs`.  An evicted key makes a later retry of
//! the same submission look new — that is the documented trade-off for
//! a bounded-memory server, mirrored from the paper's bounded-resource
//! MRAPI design where `mrapi_resources_get` trees are fixed-size.
//!
//! ## The admission race this table fixes
//!
//! The previous implementation inserted the idempotency key *before*
//! queue admission.  A duplicate arriving in that window was answered
//! `Accepted { existing-id }`; if admission then failed (queue full)
//! the staged job and its key were deleted — leaving the duplicate
//! client holding a job id that no longer existed (`UnknownJob`
//! forever, a lost job).  `romp-sim` reproduces this with a cancel-storm
//! seed (see `crates/sim/tests/regression_idem_race.rs`).  The fix:
//! the idempotency entry records whether the job was *admitted*; duplicates of
//! a still-pending entry are answered `Rejected { retry_after_ms }`
//! (retryable — the original may yet be refused), and only admitted
//! entries short-circuit to `Accepted`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use mca_platform::Clock;
use mca_sync::Mutex;
use romp::{CancelReason, CancelToken};

use crate::job::{JobLimits, JobOutcome, JobSpec, JobState};
use crate::queue::QueuedJob;

/// Bounds on the idempotency/dedup map (satellite of PR 7).
#[derive(Debug, Clone, Copy)]
pub struct DedupConfig {
    /// Maximum number of *terminal* entries retained for dedup.
    pub cap: usize,
    /// How long a terminal, unfetched job (and its idem key) is kept.
    pub ttl_ns: u64,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            cap: 4096,
            ttl_ns: 60_000_000_000,
        }
    }
}

/// One idempotency-map entry: the job a key maps to, and whether that
/// job made it past queue admission (see module docs for why).
#[derive(Debug, Clone, Copy)]
struct IdemEntry {
    job: u64,
    admitted: bool,
}

/// Everything the server remembers about one job.
#[derive(Debug)]
struct JobEntry {
    state: JobState,
    outcome: Option<JobOutcome>,
    submitted_ns: u64,
    cancel: CancelToken,
    deadline_ns: Option<u64>,
    cancel_requested_ns: Option<u64>,
    /// The executor's activity counter at the last watchdog check.
    activity_at_check: Option<u64>,
    /// Virtual/real time since which no activity progress was seen.
    stalled_since_ns: Option<u64>,
    escalated: bool,
    idem_key: u64,
    /// When the job reached a terminal state (drives TTL eviction).
    terminal_at_ns: Option<u64>,
}

/// Why [`JobTable::stage`] refused a submission.
#[derive(Debug)]
pub enum StageRefusal {
    /// The spec failed validation against the server's limits.
    Invalid(&'static str),
    /// Idempotent duplicate of an already-admitted job: answer
    /// `Accepted` with the original id.
    IdemAdmitted(u64),
    /// Duplicate of a staged-but-not-yet-admitted submission: the
    /// original may still be refused, so the duplicate must be told to
    /// retry rather than handed an id that could evaporate.
    IdemPending,
}

/// Result of [`JobTable::consume`] (the `Fetch` path).
#[derive(Debug)]
pub enum Consumed {
    /// The job was terminal; its outcome is handed over exactly once
    /// and the entry (plus idem key) is gone.
    Result(JobState, JobOutcome),
    /// The job exists but is not terminal yet.
    NotReady(JobState),
    /// No such job.
    Unknown,
}

/// Result of [`JobTable::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// No such job.
    Unknown,
    /// The job was still queued: it is now `Cancelled` (terminal) and
    /// the dispatcher will skip it on pop.
    KilledQueued,
    /// The job was running: its token fired, state is `Cancelling`,
    /// and the watchdog is now responsible for escalation.
    Cancelling,
    /// The job was already terminal (or already cancelling); nothing
    /// changed.  Carries the observed state.
    Unchanged(JobState),
}

/// Timing facts stamped by [`JobTable::finish`], for latency metrics.
#[derive(Debug, Clone, Copy)]
pub struct FinishStamp {
    /// Submit-to-terminal wall time in (possibly virtual) ns.
    pub total_ns: u64,
    /// Cancel-request-to-terminal latency, when a cancel was involved.
    pub cancel_latency_ns: Option<u64>,
}

/// What one watchdog sweep decided (the caller applies side effects:
/// metrics, completion broadcasts, backend poisoning).
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Queued jobs killed because their deadline passed (sorted).
    pub deadline_killed: Vec<u64>,
    /// Running jobs whose deadline fired this sweep (token -> Deadline).
    pub deadline_fired_running: u64,
    /// At most one job per sweep selected for backend escalation
    /// (lowest id among stalled cancelling jobs, for determinism).
    pub escalate: Option<u64>,
    /// Dedup map size after maintenance.
    pub dedup_size: u64,
    /// Idem keys evicted this sweep (TTL + cap overflow).
    pub dedup_evicted: u64,
}

/// The job lifecycle table shared by the production server and the
/// deterministic simulator.  See the module docs.
pub struct JobTable {
    jobs: Mutex<HashMap<u64, JobEntry>>,
    idem: Mutex<HashMap<u64, IdemEntry>>,
    next_id: AtomicU64,
    clock: Clock,
    dedup: DedupConfig,
    evictions: AtomicU64,
    idem_pending_hits: AtomicU64,
    retractions: AtomicU64,
    double_terminal: AtomicU64,
}

impl JobTable {
    /// Build a table reading time from `clock`.
    pub fn new(clock: Clock, dedup: DedupConfig) -> Self {
        JobTable {
            jobs: Mutex::new(HashMap::new()),
            idem: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            clock,
            dedup,
            evictions: AtomicU64::new(0),
            idem_pending_hits: AtomicU64::new(0),
            retractions: AtomicU64::new(0),
            double_terminal: AtomicU64::new(0),
        }
    }

    /// The clock this table stamps timestamps from.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Times a staged-then-refused submission was retracted.
    pub fn retractions(&self) -> u64 {
        self.retractions.load(Ordering::Relaxed)
    }

    /// Times a duplicate hit a pending (not yet admitted) entry.
    pub fn idem_pending_hits(&self) -> u64 {
        self.idem_pending_hits.load(Ordering::Relaxed)
    }

    /// Times a terminal transition was attempted on an already-terminal
    /// job.  Invariant: must stay 0; `romp-sim` asserts it.
    pub fn double_terminal(&self) -> u64 {
        self.double_terminal.load(Ordering::Relaxed)
    }

    /// Total idem keys evicted by TTL/cap since start.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current dedup-map size.
    pub fn dedup_size(&self) -> usize {
        self.idem.lock().len()
    }

    /// Jobs currently tracked (any state, including unfetched terminal).
    pub fn len(&self) -> usize {
        self.jobs.lock().len()
    }

    /// True when no jobs are tracked.
    pub fn is_empty(&self) -> bool {
        self.jobs.lock().is_empty()
    }

    /// Jobs in a non-terminal state (queued/running/cancelling).
    pub fn live_jobs(&self) -> usize {
        self.jobs
            .lock()
            .values()
            .filter(|e| !e.state.terminal())
            .count()
    }

    /// Validate a submission and stage a [`QueuedJob`] for admission.
    ///
    /// On success the job exists in the table (state `Queued`) and, if
    /// `idem_key != 0`, the dedup map maps the key to it with
    /// `admitted = false`.  The caller MUST then either push the job
    /// into the queue and call [`confirm_admitted`](Self::confirm_admitted),
    /// or call [`retract`](Self::retract) if admission failed.
    #[allow(clippy::too_many_arguments)] // mirrors the Submit wire frame
    pub fn stage(
        &self,
        spec: JobSpec,
        deadline_ms: u32,
        default_deadline_ms: u32,
        limits: &JobLimits,
        idem_key: u64,
        affinity: u64,
        priority: u8,
    ) -> Result<QueuedJob, StageRefusal> {
        if let Err(msg) = spec.validate(limits) {
            return Err(StageRefusal::Invalid(msg));
        }
        if idem_key != 0 {
            if let Some(entry) = self.idem.lock().get(&idem_key) {
                if entry.admitted {
                    return Err(StageRefusal::IdemAdmitted(entry.job));
                }
                self.idem_pending_hits.fetch_add(1, Ordering::Relaxed);
                return Err(StageRefusal::IdemPending);
            }
        }
        let now = self.clock.now_ns();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let effective_deadline = if deadline_ms > 0 {
            deadline_ms
        } else {
            default_deadline_ms
        };
        let deadline_ns =
            (effective_deadline > 0).then(|| now + u64::from(effective_deadline) * 1_000_000);
        let cancel = CancelToken::new();
        self.jobs.lock().insert(
            id,
            JobEntry {
                state: JobState::Queued,
                outcome: None,
                submitted_ns: now,
                cancel: cancel.clone(),
                deadline_ns,
                cancel_requested_ns: None,
                activity_at_check: None,
                stalled_since_ns: None,
                escalated: false,
                idem_key,
                terminal_at_ns: None,
            },
        );
        if idem_key != 0 {
            self.idem.lock().insert(
                idem_key,
                IdemEntry {
                    job: id,
                    admitted: false,
                },
            );
        }
        Ok(QueuedJob {
            id,
            spec,
            enqueued_ns: now,
            cancel,
            deadline_ns,
            affinity,
            priority,
        })
    }

    /// Flip the staged jobs' idem entries to `admitted` after a
    /// successful queue push.  Duplicates arriving from here on are
    /// answered `Accepted` with the original id.
    pub fn confirm_admitted(&self, ids: &[u64]) {
        let keys: Vec<u64> = {
            let jobs = self.jobs.lock();
            ids.iter()
                .filter_map(|id| jobs.get(id).map(|e| e.idem_key).filter(|&k| k != 0))
                .collect()
        };
        if keys.is_empty() {
            return;
        }
        let mut idem = self.idem.lock();
        for key in keys {
            if let Some(entry) = idem.get_mut(&key) {
                entry.admitted = true;
            }
        }
    }

    /// Undo [`stage`](Self::stage) after the queue refused the job:
    /// remove the entry and (if the key still points at it) the idem
    /// mapping, so a retry is a fresh submission.
    pub fn retract(&self, id: u64) {
        let removed = self.jobs.lock().remove(&id);
        if let Some(entry) = removed {
            if entry.idem_key != 0 {
                let mut idem = self.idem.lock();
                if idem.get(&entry.idem_key).is_some_and(|e| e.job == id) {
                    idem.remove(&entry.idem_key);
                }
            }
            self.retractions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observe a job's state without consuming anything.
    pub fn poll(&self, id: u64) -> Option<JobState> {
        self.jobs.lock().get(&id).map(|e| e.state)
    }

    /// Fetch-and-forget: hand the outcome over exactly once.
    pub fn consume(&self, id: u64) -> Consumed {
        let mut jobs = self.jobs.lock();
        match jobs.get(&id) {
            None => Consumed::Unknown,
            Some(e) if !e.state.terminal() => Consumed::NotReady(e.state),
            Some(_) => {
                let entry = jobs.remove(&id).expect("checked above");
                drop(jobs);
                if entry.idem_key != 0 {
                    let mut idem = self.idem.lock();
                    if idem.get(&entry.idem_key).is_some_and(|e| e.job == id) {
                        idem.remove(&entry.idem_key);
                    }
                }
                let outcome = entry
                    .outcome
                    .unwrap_or_else(|| JobOutcome::unrun("terminal without outcome"));
                Consumed::Result(entry.state, outcome)
            }
        }
    }

    /// Request cancellation of a job (client `Cancel` or drain).  A
    /// running job's stall clock starts now; the next
    /// [`sweep`](Self::sweep) reads its executor's activity counter.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let now = self.clock.now_ns();
        let mut jobs = self.jobs.lock();
        let Some(entry) = jobs.get_mut(&id) else {
            return CancelOutcome::Unknown;
        };
        match entry.state {
            JobState::Queued => {
                entry.cancel.cancel();
                self.set_terminal(
                    entry,
                    JobState::Cancelled,
                    JobOutcome::unrun("cancelled while queued"),
                    now,
                );
                CancelOutcome::KilledQueued
            }
            JobState::Running => {
                entry.cancel.cancel();
                entry.state = JobState::Cancelling;
                entry.cancel_requested_ns = Some(now);
                entry.stalled_since_ns = Some(now);
                CancelOutcome::Cancelling
            }
            other => CancelOutcome::Unchanged(other),
        }
    }

    /// Dispatcher claim: `Queued -> Running`.  Returns false when the
    /// job was cancelled/killed while waiting (the dispatcher skips it).
    pub fn begin_run(&self, id: u64) -> bool {
        let mut jobs = self.jobs.lock();
        match jobs.get_mut(&id) {
            Some(e) if e.state == JobState::Queued => {
                e.state = JobState::Running;
                true
            }
            _ => false,
        }
    }

    /// Record a job's terminal state and outcome.  Returns timing facts
    /// for metrics, or `None` if the job vanished or was already
    /// terminal (the latter bumps the `double_terminal` invariant
    /// counter — `romp-sim` asserts it stays 0).
    pub fn finish(&self, id: u64, state: JobState, outcome: JobOutcome) -> Option<FinishStamp> {
        debug_assert!(state.terminal());
        let now = self.clock.now_ns();
        let mut jobs = self.jobs.lock();
        let entry = jobs.get_mut(&id)?;
        if !self.set_terminal(entry, state, outcome, now) {
            return None;
        }
        Some(FinishStamp {
            total_ns: now.saturating_sub(entry.submitted_ns),
            cancel_latency_ns: entry.cancel_requested_ns.map(|t| now.saturating_sub(t)),
        })
    }

    /// One watchdog pass: deadline enforcement, cancel-escalation
    /// selection, and dedup-map maintenance.  Pure decision + state
    /// transition; the caller applies side effects (completion
    /// broadcasts, metrics, backend poisoning).
    ///
    /// `activity(job)` is the progress counter of whatever runs `job`:
    /// a `Cancelling` job escalates once that counter has stayed flat
    /// for `grace_ns`.
    ///
    /// Deterministic by construction: map iteration feeds sorted
    /// collections, so the report is identical for identical state
    /// regardless of `HashMap` iteration order.
    pub fn sweep(&self, activity: impl Fn(u64) -> u64, grace_ns: u64) -> SweepReport {
        let now = self.clock.now_ns();
        let mut report = SweepReport::default();
        let mut escalate: Option<u64> = None;
        let mut expired: Vec<u64> = Vec::new();
        {
            let mut jobs = self.jobs.lock();
            for (&id, entry) in jobs.iter_mut() {
                match entry.state {
                    JobState::Queued if entry.deadline_ns.is_some_and(|d| now >= d) => {
                        entry.cancel.cancel_deadline();
                        self.set_terminal(
                            entry,
                            JobState::TimedOut,
                            JobOutcome::unrun("deadline exceeded while queued"),
                            now,
                        );
                        report.deadline_killed.push(id);
                    }
                    JobState::Running
                        if entry.deadline_ns.is_some_and(|d| now >= d)
                            && entry.cancel.cancel_deadline() =>
                    {
                        entry.state = JobState::Cancelling;
                        entry.cancel_requested_ns = Some(now);
                        entry.stalled_since_ns = Some(now);
                        entry.activity_at_check = Some(activity(id));
                        report.deadline_fired_running += 1;
                    }
                    JobState::Cancelling if !entry.escalated => {
                        let activity = activity(id);
                        // `None`: the first look since a cancel, whose
                        // stall clock runs from the cancel itself.
                        let seen = entry.activity_at_check.replace(activity);
                        if seen.is_some_and(|seen| seen != activity) {
                            // The executor made progress since we last
                            // looked: the job may yet unwind on its own.
                            entry.stalled_since_ns = Some(now);
                        } else if entry
                            .stalled_since_ns
                            .is_some_and(|t| now.saturating_sub(t) >= grace_ns)
                        {
                            escalate = Some(escalate.map_or(id, |cur| cur.min(id)));
                        }
                    }
                    _ => {}
                }
                if entry
                    .terminal_at_ns
                    .is_some_and(|t| now.saturating_sub(t) >= self.dedup.ttl_ns.max(1))
                {
                    expired.push(id);
                }
            }
            if let Some(id) = escalate {
                if let Some(e) = jobs.get_mut(&id) {
                    e.escalated = true;
                }
            }
            for &id in &expired {
                jobs.remove(&id);
            }
        }
        report.deadline_killed.sort_unstable();
        report.escalate = escalate;
        self.maintain_dedup(&mut report);
        report
    }

    /// Evict idem keys whose job is gone (TTL above, fetch, retract
    /// races) and, past the cap, the oldest-terminal keys first.
    fn maintain_dedup(&self, report: &mut SweepReport) {
        let snapshot: Vec<(u64, u64)> = self.idem.lock().iter().map(|(&k, e)| (k, e.job)).collect();
        if snapshot.is_empty() {
            return;
        }
        let mut stale: Vec<u64> = Vec::new();
        let mut terminal_backed: Vec<(u64, u64, u64)> = Vec::new(); // (terminal_at, job, key)
        {
            let jobs = self.jobs.lock();
            for &(key, job) in &snapshot {
                match jobs.get(&job) {
                    None => stale.push(key),
                    Some(e) => {
                        if let Some(t) = e.terminal_at_ns {
                            terminal_backed.push((t, job, key));
                        }
                    }
                }
            }
        }
        stale.sort_unstable();
        terminal_backed.sort_unstable();
        let mut evicted = 0u64;
        let mut evicted_jobs: Vec<u64> = Vec::new();
        {
            let mut idem = self.idem.lock();
            for key in stale {
                if idem.remove(&key).is_some() {
                    evicted += 1;
                }
            }
            let cap = self.dedup.cap.max(1);
            let mut excess = idem.len().saturating_sub(cap);
            for &(_, job, key) in &terminal_backed {
                if excess == 0 {
                    break;
                }
                if idem.remove(&key).is_some() {
                    evicted += 1;
                    excess -= 1;
                    evicted_jobs.push(job);
                }
            }
            report.dedup_size = idem.len() as u64;
        }
        if !evicted_jobs.is_empty() {
            // A cap-evicted key's terminal job record goes too: keeping
            // it would let the entry outlive its dedup purpose and
            // leak until TTL.  Fetch after eviction reports UnknownJob,
            // same as fetch after TTL.
            let mut jobs = self.jobs.lock();
            for job in evicted_jobs {
                jobs.remove(&job);
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        report.dedup_evicted = evicted;
    }

    /// Terminal transition guard; returns false (and counts) if the
    /// entry was already terminal.
    fn set_terminal(
        &self,
        entry: &mut JobEntry,
        state: JobState,
        outcome: JobOutcome,
        now_ns: u64,
    ) -> bool {
        if entry.state.terminal() {
            self.double_terminal.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        entry.state = state;
        entry.outcome = Some(outcome);
        entry.terminal_at_ns = Some(now_ns);
        true
    }
}

/// Map a finished job's cancel-token state and raw outcome to its
/// terminal state: a fired token outranks whatever the kernel returned
/// (a cancelled run's partial result must not read as success).
pub fn terminal_for(reason: Option<CancelReason>, outcome: JobOutcome) -> (JobState, JobOutcome) {
    match reason {
        Some(CancelReason::Deadline) => (
            JobState::TimedOut,
            JobOutcome {
                ok: false,
                detail: String::from("deadline exceeded"),
                ..outcome
            },
        ),
        Some(_) => (
            JobState::Cancelled,
            JobOutcome {
                ok: false,
                detail: String::from("cancelled"),
                ..outcome
            },
        ),
        None => {
            let state = if outcome.ok {
                JobState::Done
            } else {
                JobState::Failed
            };
            (state, outcome)
        }
    }
}

/// Back-pressure hint: how long a refused client should wait before
/// retrying, scaled by queue depth and the exec-time EWMA, between 10 ms
/// and 10 s.
///
/// The floor covers the cold start: before the first job completes the
/// EWMA is 0, and without a floor every early `Rejected` would tell a
/// whole arrival wave to retry in 1 ms — a synchronized stampede at the
/// exact moment the queue is provably full.
pub fn retry_after_hint(ewma_ns: u64, depth: usize) -> u32 {
    const FLOOR_MS: u64 = 10;
    let per_job_ms = ewma_ns.max(1_000_000) / 1_000_000;
    ((depth as u64 + 1) * per_job_ms).clamp(FLOOR_MS, 10_000) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_platform::VirtualClock;

    fn spec() -> JobSpec {
        JobSpec::Epcc {
            construct: romp_epcc::Construct::Barrier,
            threads: 2,
            inner_reps: 8,
        }
    }

    fn table(clock: Clock, cap: usize, ttl_ns: u64) -> JobTable {
        JobTable::new(clock, DedupConfig { cap, ttl_ns })
    }

    #[test]
    fn pending_duplicate_is_refused_and_retraction_clears_the_key() {
        let vc = VirtualClock::new(0);
        let t = table(vc.clock(), 16, 1_000_000_000);
        let limits = JobLimits::default();
        let job = t
            .stage(spec(), 0, 0, &limits, 42, 0, 0)
            .expect("first stage");
        // Duplicate while the original is staged but not admitted:
        // must NOT be handed the original's id (the id could evaporate
        // if admission fails — the exact lost-job race this PR fixes).
        match t.stage(spec(), 0, 0, &limits, 42, 0, 0) {
            Err(StageRefusal::IdemPending) => {}
            other => panic!("expected IdemPending, got {other:?}"),
        }
        assert_eq!(t.idem_pending_hits(), 1);
        // Queue refused the original: retract.  The key is free again.
        t.retract(job.id);
        assert_eq!(t.retractions(), 1);
        assert_eq!(t.dedup_size(), 0);
        let retry = t
            .stage(spec(), 0, 0, &limits, 42, 0, 0)
            .expect("retry after retract");
        assert_ne!(retry.id, job.id);
        // After admission confirms, duplicates get the original id.
        t.confirm_admitted(&[retry.id]);
        match t.stage(spec(), 0, 0, &limits, 42, 0, 0) {
            Err(StageRefusal::IdemAdmitted(id)) => assert_eq!(id, retry.id),
            other => panic!("expected IdemAdmitted, got {other:?}"),
        }
    }

    #[test]
    fn ttl_evicts_terminal_entries_and_their_keys() {
        let vc = VirtualClock::new(0);
        let t = table(vc.clock(), 16, 1_000_000);
        let limits = JobLimits::default();
        let job = t.stage(spec(), 0, 0, &limits, 7, 0, 0).expect("stage");
        t.confirm_admitted(&[job.id]);
        assert!(t.begin_run(job.id));
        t.finish(
            job.id,
            JobState::Done,
            JobOutcome {
                ok: true,
                wall_us: 1,
                detail: String::new(),
            },
        );
        // Before TTL: key still dedups, result still fetchable.
        let r0 = t.sweep(|_| 0, 1_000_000_000);
        assert_eq!(r0.dedup_evicted, 0);
        assert_eq!(t.dedup_size(), 1);
        // After TTL: both the key and the unfetched result are gone.
        vc.advance_to(2_000_000);
        let r1 = t.sweep(|_| 0, 1_000_000_000);
        assert_eq!(r1.dedup_evicted, 1);
        assert_eq!(t.dedup_size(), 0);
        assert!(matches!(t.consume(job.id), Consumed::Unknown));
        assert!(t.is_empty());
    }

    #[test]
    fn cap_evicts_oldest_terminal_first_and_never_live_jobs() {
        let vc = VirtualClock::new(0);
        let t = table(vc.clock(), 2, u64::MAX);
        let limits = JobLimits::default();
        let mut terminal_ids = Vec::new();
        for key in 1..=3u64 {
            vc.advance_to(key * 1_000); // distinct terminal_at stamps
            let job = t.stage(spec(), 0, 0, &limits, key, 0, 0).expect("stage");
            t.confirm_admitted(&[job.id]);
            assert!(t.begin_run(job.id));
            t.finish(
                job.id,
                JobState::Done,
                JobOutcome {
                    ok: true,
                    wall_us: 1,
                    detail: String::new(),
                },
            );
            terminal_ids.push(job.id);
        }
        // One live job: its key must survive any cap pressure.
        let live = t
            .stage(spec(), 0, 0, &limits, 99, 0, 0)
            .expect("stage live");
        t.confirm_admitted(&[live.id]);
        let report = t.sweep(|_| 0, 1_000_000_000);
        // 4 keys, cap 2 -> evict 2 oldest-terminal (keys 1 and 2).
        assert_eq!(report.dedup_evicted, 2);
        assert_eq!(t.dedup_size(), 2);
        assert!(matches!(t.consume(terminal_ids[0]), Consumed::Unknown));
        assert!(matches!(t.consume(terminal_ids[1]), Consumed::Unknown));
        assert!(matches!(
            t.consume(terminal_ids[2]),
            Consumed::Result(JobState::Done, _)
        ));
        assert_eq!(t.poll(live.id), Some(JobState::Queued));
        assert_eq!(t.double_terminal(), 0);
    }

    #[test]
    fn sweep_kills_queued_past_deadline_and_escalates_lowest_stalled_id() {
        let vc = VirtualClock::new(0);
        let t = table(vc.clock(), 16, u64::MAX);
        let limits = JobLimits::default();
        let queued = t
            .stage(spec(), 1, 0, &limits, 0, 0, 0)
            .expect("stage queued");
        let run_a = t.stage(spec(), 0, 0, &limits, 0, 0, 0).expect("stage a");
        let run_b = t.stage(spec(), 0, 0, &limits, 0, 0, 0).expect("stage b");
        assert!(t.begin_run(run_a.id));
        assert!(t.begin_run(run_b.id));
        assert_eq!(t.cancel(run_a.id), CancelOutcome::Cancelling);
        assert_eq!(t.cancel(run_b.id), CancelOutcome::Cancelling);
        // Deadline (1 ms) passes; activity counter unchanged at 5.
        vc.advance_to(2_000_000);
        let r = t.sweep(|_| 5, 1_000_000);
        assert_eq!(r.deadline_killed, vec![queued.id]);
        assert!(queued.cancel.is_cancelled());
        // Both cancelling jobs stalled the full grace: lowest id wins.
        assert_eq!(r.escalate, Some(run_a.id.min(run_b.id)));
        // Next sweep: the escalated job is not re-picked.
        vc.advance_to(4_000_000);
        let r2 = t.sweep(|_| 5, 1_000_000);
        assert_eq!(r2.escalate, Some(run_a.id.max(run_b.id)));
    }

    #[test]
    fn cancelled_job_is_judged_by_its_executor_from_the_first_sweep() {
        let vc = VirtualClock::new(0);
        let t = table(vc.clock(), 16, u64::MAX);
        let limits = JobLimits::default();
        let grace = 1_000_000;
        let flat = t.stage(spec(), 0, 0, &limits, 0, 0, 0).expect("stage");
        let moving = t.stage(spec(), 0, 0, &limits, 0, 0, 0).expect("stage");
        let late = t.stage(spec(), 0, 0, &limits, 0, 0, 0).expect("stage");
        for job in [&flat, &moving, &late] {
            assert!(t.begin_run(job.id));
        }
        assert_eq!(t.cancel(flat.id), CancelOutcome::Cancelling);
        assert_eq!(t.cancel(moving.id), CancelOutcome::Cancelling);
        // Each job's executor counter, far from any serving runtime's:
        // `flat` stays at 100, `moving` advances every sweep.
        let tick = std::cell::Cell::new(1_000);
        let executor = |id: u64| if id == moving.id { tick.get() } else { 100 };
        vc.advance_to(grace / 2);
        assert_eq!(t.sweep(executor, grace).escalate, None);
        // Cancel + grace: the flat job escalates at this first sweep.
        tick.set(tick.get() + 1);
        vc.advance_to(grace);
        assert_eq!(t.sweep(executor, grace).escalate, Some(flat.id));
        for step in 2..6 {
            tick.set(tick.get() + 1);
            vc.advance_to(step * grace);
            assert_eq!(t.sweep(executor, grace).escalate, None);
        }
        // A job first swept only after its grace ran out escalates then.
        assert_eq!(t.cancel(late.id), CancelOutcome::Cancelling);
        tick.set(tick.get() + 1);
        vc.advance_to(7 * grace);
        assert_eq!(t.sweep(executor, grace).escalate, Some(late.id));
    }
}
