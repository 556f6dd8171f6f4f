//! The serving state every dispatcher shares.
//!
//! [`ServeState`] is the one copy of what the production server, the
//! `romp-cluster` router and the `romp-sim` simulator all keep: the job
//! table, the admission queue, the `serve.*` metrics, the admission
//! knobs, the drain flag and the service-time estimator.  It also owns
//! the bookkeeping each of them performs around a job — the pop, the
//! terminal transition, the watchdog sweep and the stats document — so
//! the simulator exercises production's accounting, not a model of it.
//!
//! What differs between the three of them (where progress is observed,
//! how a completion reaches parked `Await`s, what the backend is) stays
//! behind the [`ServeCore`](crate::ServeCore) hooks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mca_platform::Clock;
use mca_sync::Mutex;
use romp_trace::{json_escape, MetricsRegistry};

use crate::job::{JobLimits, JobOutcome, JobState};
use crate::lifecycle::{retry_after_hint, DedupConfig, JobTable, SweepReport};
use crate::metrics::Metrics;
use crate::queue::{lane_name, JobQueue, QueuedJob, LANES};
use crate::server::ServeConfig;

/// The shared serving state (see the module docs).
pub struct ServeState {
    table: JobTable,
    queue: JobQueue,
    metrics: Metrics,
    limits: JobLimits,
    default_deadline_ms: u32,
    shed: bool,
    draining: AtomicBool,
    /// EWMA of job execution time, ns — the retry-after basis and the
    /// shed gate's fallback for never-seen classes.
    ewma_ns: AtomicU64,
    /// Per-class (`JobSpec::label`) execution-time EWMAs, ns.
    class_ewma_ns: Mutex<HashMap<String, u64>>,
}

/// One EWMA step, α = 1/8; a zero `prev` (no sample yet) is seeded by
/// the first sample.
fn smooth(prev: u64, sample: u64) -> u64 {
    if prev == 0 {
        sample
    } else {
        prev - prev / 8 + sample / 8
    }
}

impl ServeState {
    /// State on `clock` with `cfg`'s queue, limits and admission knobs,
    /// the idempotency bounds `dedup`, and `metrics` resolved from the
    /// caller's registry.
    pub fn new(clock: Clock, dedup: DedupConfig, metrics: Metrics, cfg: &ServeConfig) -> Self {
        ServeState {
            table: JobTable::new(clock, dedup),
            queue: JobQueue::new(cfg.queue_cap),
            metrics,
            limits: cfg.limits,
            default_deadline_ms: cfg.default_deadline_ms,
            shed: cfg.shed,
            draining: AtomicBool::new(false),
            ewma_ns: AtomicU64::new(0),
            class_ewma_ns: Mutex::new(HashMap::new()),
        }
    }

    /// The job lifecycle table.
    pub fn table(&self) -> &JobTable {
        &self.table
    }

    /// The bounded admission queue.
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// The serving metric instruments.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Per-job validation limits.
    pub fn limits(&self) -> &JobLimits {
        &self.limits
    }

    /// Deadline applied to jobs that do not request one (ms; 0 = none).
    pub fn default_deadline_ms(&self) -> u32 {
        self.default_deadline_ms
    }

    /// Whether admission-time deadline shedding is enabled.
    pub fn shed_enabled(&self) -> bool {
        self.shed
    }

    /// The clock requests are timestamped against.
    pub fn clock(&self) -> &Clock {
        self.table.clock()
    }

    /// Whether a drain has begun (refuse new submissions).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Begin the drain: set the flag and close the queue.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.queue.close();
    }

    /// Smoothed per-job execution time (ns) over every class.
    pub fn ewma_ns(&self) -> u64 {
        self.ewma_ns.load(Ordering::Relaxed)
    }

    /// Smoothed execution time for one job class (`JobSpec::label`),
    /// `None` until that class completes its first job.
    pub fn class_ewma_ns(&self, label: &str) -> Option<u64> {
        self.class_ewma_ns.lock().get(label).copied()
    }

    /// Fold one execution sample of class `label` into the global and
    /// the class estimate.
    pub fn note_exec(&self, label: &str, exec_ns: u64) {
        self.ewma_ns
            .store(smooth(self.ewma_ns(), exec_ns), Ordering::Relaxed);
        let mut map = self.class_ewma_ns.lock();
        match map.get_mut(label) {
            Some(prev) => *prev = smooth(*prev, exec_ns),
            None => {
                map.insert(label.to_string(), exec_ns);
            }
        }
    }

    /// The backpressure hint for a refused client (see
    /// [`retry_after_hint`]; the floor is the cold-start guard).
    pub fn retry_after_ms(&self) -> u32 {
        retry_after_hint(self.ewma_ns(), self.queue.len())
    }

    /// Jobs accepted but not yet finished.
    pub fn outstanding(&self) -> u64 {
        let m = &self.metrics;
        let done = m.completed.get() + m.failed.get() + m.cancelled.get() + m.timed_out.get();
        m.accepted.get().saturating_sub(done)
    }

    /// Refresh the per-lane depth gauges from the queue.
    pub(crate) fn set_lane_depths(&self) {
        for (gauge, d) in self
            .metrics
            .sched_depth
            .iter()
            .zip(self.queue.lane_depths())
        {
            gauge.set(d as u64);
        }
    }

    /// Claim the next job to run, blocking: pop it (recording queue wait
    /// and depth), skip it if it turned terminal while queued (cancel or
    /// queued-deadline kill — whoever killed it already completed it),
    /// and mark it `Running`.  `None` once the queue is closed and empty:
    /// the drain signal.
    pub fn pop(&self) -> Option<QueuedJob> {
        loop {
            let qjob = self.queue.pop()?;
            if self.claim(&qjob) {
                return Some(qjob);
            }
        }
    }

    /// [`ServeState::pop`] without blocking: `None` means nothing to run
    /// right now (a virtual-time event loop cannot block).
    pub fn try_pop(&self) -> Option<QueuedJob> {
        loop {
            let qjob = self.queue.try_pop()?;
            if self.claim(&qjob) {
                return Some(qjob);
            }
        }
    }

    fn claim(&self, qjob: &QueuedJob) -> bool {
        let now = self.clock().now_ns();
        self.metrics
            .lat_queue
            .record(now.saturating_sub(qjob.enqueued_ns));
        self.metrics.queue_depth.set(self.queue.len() as u64);
        self.set_lane_depths();
        self.table.begin_run(qjob.id)
    }

    /// Record a popped job's terminal state: execution latency and the
    /// estimators (skipped when `exec_ns` is 0 — a job that never ran
    /// says nothing about service time), the per-state counter, the
    /// table entry, and total/cancel latency.  The caller notifies
    /// parked `Await`s (see [`crate::ServeCore::finish_job`]).
    pub fn finish(&self, id: u64, label: &str, state: JobState, outcome: JobOutcome, exec_ns: u64) {
        let m = &self.metrics;
        if exec_ns > 0 {
            m.lat_exec.record(exec_ns);
            self.note_exec(label, exec_ns);
        }
        match state {
            JobState::Done => m.completed.incr(),
            JobState::Cancelled => m.cancelled.incr(),
            JobState::TimedOut => m.timed_out.incr(),
            _ => m.failed.incr(),
        }
        if let Some(stamp) = self.table.finish(id, state, outcome) {
            m.lat_total.record(stamp.total_ns);
            if let Some(ns) = stamp.cancel_latency_ns {
                m.wd_cancel_latency.record(ns);
            }
        }
    }

    /// One watchdog sweep over the table, with its metrics applied.
    /// Every fired deadline is an accepted job the shed gate (when on)
    /// predicted would make it, so each also counts as a deadline miss.
    /// `activity` is as for [`JobTable::sweep`].
    pub fn sweep(&self, activity: impl Fn(u64) -> u64, grace_ns: u64) -> SweepReport {
        let m = &self.metrics;
        m.wd_ticks.incr();
        let report = self.table.sweep(activity, grace_ns);
        let killed = report.deadline_killed.len() as u64;
        let fired = killed + report.deadline_fired_running;
        m.wd_deadline_fired.add(fired);
        m.sched_deadline_miss.add(fired);
        m.timed_out.add(killed);
        m.dedup_size.set(report.dedup_size);
        m.dedup_evictions.add(report.dedup_evicted);
        report
    }

    /// The stats document: counters, the `"sched"` section, an optional
    /// `"cluster"` section, and the metrics `registry` snapshot.
    pub fn stats_json(
        &self,
        backend: &str,
        degraded: bool,
        cluster: Option<String>,
        registry: &MetricsRegistry,
    ) -> String {
        let m = &self.metrics;
        let cluster = cluster
            .map(|j| format!("\"cluster\":{j},"))
            .unwrap_or_default();
        format!(
            "{{\"backend\":\"{}\",\"degraded\":{degraded},\"draining\":{},\
             \"queue_depth\":{},\"queue_cap\":{},\"outstanding\":{},\
             \"accepted\":{},\"rejected\":{},\"completed\":{},\"failed\":{},\
             \"cancelled\":{},\"timed_out\":{},{cluster}\
             \"sched\":{},\
             \"metrics\":{}}}",
            json_escape(backend),
            self.draining(),
            self.queue.len(),
            self.queue.cap(),
            self.outstanding(),
            m.accepted.get(),
            m.rejected.get(),
            m.completed.get(),
            m.failed.get(),
            m.cancelled.get(),
            m.timed_out.get(),
            self.sched_json(),
            registry.snapshot().to_json(),
        )
    }

    /// The `"sched"` section: per-lane depth/admits/sheds, deadline
    /// misses, the shed flag and the per-class EWMA table.
    fn sched_json(&self) -> String {
        let m = &self.metrics;
        let depths = self.queue.lane_depths();
        let lanes = (0..LANES)
            .map(|l| {
                format!(
                    "\"{}\":{{\"depth\":{},\"admits\":{},\"sheds\":{}}}",
                    lane_name(l),
                    depths[l],
                    m.sched_admits[l].get(),
                    m.sched_sheds[l].get()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let classes = {
            let map = self.class_ewma_ns.lock();
            let mut entries: Vec<(&String, &u64)> = map.iter().collect();
            entries.sort();
            entries
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"lanes\":{{{lanes}}},\"deadline_miss\":{},\"shed\":{},\
             \"class_ewma_ns\":{{{classes}}}}}",
            m.sched_deadline_miss.get(),
            self.shed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use mca_platform::VirtualClock;
    use romp_epcc::Construct;

    fn state(clock: Clock, registry: &MetricsRegistry) -> ServeState {
        ServeState::new(
            clock,
            DedupConfig::default(),
            Metrics::new(registry),
            &ServeConfig::default(),
        )
    }

    fn admit(s: &ServeState) -> QueuedJob {
        let spec = JobSpec::Epcc {
            construct: Construct::Barrier,
            threads: 1,
            inner_reps: 1,
        };
        let qjob = s
            .table()
            .stage(spec, 0, 0, s.limits(), 0, 0, 0)
            .expect("valid job stages");
        s.queue().try_push(qjob).expect("queue has room");
        s.try_pop().expect("admitted job pops")
    }

    fn outcome() -> JobOutcome {
        JobOutcome {
            ok: false,
            wall_us: 0,
            detail: "never ran".into(),
        }
    }

    #[test]
    fn a_job_that_never_ran_leaves_the_estimates_alone() {
        let vclock = VirtualClock::new(0);
        let registry = MetricsRegistry::new();
        let s = state(vclock.clock(), &registry);
        let ran = admit(&s);
        s.finish(ran.id, "k", JobState::Done, outcome(), 50_000_000);
        assert_eq!(s.ewma_ns(), 50_000_000);
        // Cancelled before dispatch / orphaned / shut down: exec time 0.
        let never = admit(&s);
        s.finish(never.id, "k", JobState::Cancelled, outcome(), 0);
        assert_eq!(s.ewma_ns(), 50_000_000, "a zero sample cut the EWMA");
        assert_eq!(s.class_ewma_ns("k"), Some(50_000_000));
        assert_eq!(s.metrics().lat_exec.snapshot().count, 1);
        assert_eq!(s.metrics().cancelled.get(), 1);
    }
}
