//! The admission-controlled job queue: priority lanes + EDF order.
//!
//! A bounded queue between the connection handlers (producers) and the
//! dispatcher (consumer).  Admission is a *non-blocking* `try_push`: a
//! full queue refuses immediately — the server turns the refusal into a
//! `Rejected { retry_after_ms }` response so backpressure reaches the
//! client as a retry hint instead of an ever-growing queue or a hung
//! connection.  `close()` starts the drain: producers are refused from
//! then on, while the consumer keeps popping until the queue is empty,
//! which is exactly the "no accepted job is ever dropped" guarantee.
//!
//! ## Dispatch order
//!
//! Internally the queue is **three priority lanes** (Hi / Normal /
//! Batch, selected by the submit frame's `priority` byte), each an
//! **EDF min-heap**: earliest absolute deadline first, jobs without a
//! deadline last, equal keys broken by admission order (a global
//! sequence number), so the old FIFO behavior is exactly preserved for
//! same-lane deadline-free traffic.
//!
//! Across lanes the consumer picks by **weighted credits**
//! ([`DEFAULT_LANE_WEIGHTS`], Hi:4 / Normal:2 / Batch:1): each lane
//! starts a round with credits equal to its weight, the pop takes the
//! highest-priority non-empty lane that still has credits (spending
//! one), and when every non-empty lane is out of credits the round
//! resets.  Hi traffic therefore
//! preempts the *order* but can never starve Batch: with weights
//! `[h, n, b]` a queued Batch job is dispatched within `h + n` pops
//! even under saturating Hi load.
//!
//! [`JobQueue::predicted_wait_jobs`] models that pick for admission
//! control: how many queued jobs will be served before a new arrival in
//! a given lane, accounting for the fact that a Hi job overtakes the
//! Batch backlog (a naive `depth × EWMA` estimate would shed Hi jobs
//! precisely when the lanes exist to protect them).

use std::collections::BinaryHeap;

use mca_sync::park::{EventCount, SpinBudget};
use mca_sync::Mutex;
use romp::CancelToken;

use crate::job::JobSpec;

/// Number of priority lanes (Hi / Normal / Batch).
pub const LANES: usize = 3;

/// The server's lane weights for the credit-based pick: Hi / Normal / Batch.
pub const DEFAULT_LANE_WEIGHTS: [u32; LANES] = [4, 2, 1];

/// Map a submit-frame `priority` byte to a lane index.
///
/// `0` is Normal (the wire default, so pre-priority clients keep their
/// old middle-of-the-road service), `1` is Hi, and everything else is
/// Batch — unknown higher bytes degrade to background service rather
/// than jumping the queue.
pub fn lane_of(priority: u8) -> usize {
    match priority {
        1 => 0,
        0 => 1,
        _ => 2,
    }
}

/// Human label for a lane index (metrics/JSON key suffix).
pub fn lane_name(lane: usize) -> &'static str {
    match lane {
        0 => "hi",
        1 => "normal",
        _ => "batch",
    }
}

/// One accepted job riding the queue.
///
/// Timestamps are nanoseconds on the server's [`mca_platform::Clock`] —
/// `CLOCK_MONOTONIC` in production, the virtual clock under `romp-sim` —
/// so the queue itself never reads a wall clock.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Server-assigned id.
    pub id: u64,
    /// What to run.
    pub spec: JobSpec,
    /// When admission succeeded, clock-ns (queue-wait latency basis).
    pub enqueued_ns: u64,
    /// The job's cancel token, shared with the registry entry so a
    /// `Cancel` request or the watchdog can reach the job wherever it is.
    pub cancel: CancelToken,
    /// Absolute deadline, clock-ns (admission time + requested or default
    /// budget); `None` when the job runs unbounded.
    pub deadline_ns: Option<u64>,
    /// Affinity key from the submit frame; non-zero pins the job's tasks
    /// to one runtime shard (the dispatcher arms it around execution).
    /// `0` = no preference.
    pub affinity: u64,
    /// Priority byte from the submit frame (`0` = Normal, `1` = Hi,
    /// `2+` = Batch); selects the dispatch lane via [`lane_of`].
    pub priority: u8,
}

/// Why `try_push` refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// At capacity: back off and retry.
    Full,
    /// Draining: no new work, ever.
    Closed,
}

/// What a [`JobQueue::try_push_batch`] admitted (see that method).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAdmit {
    /// How many jobs (a prefix of the batch, in order) were admitted.
    pub admitted: usize,
    /// Queue depth after the batch.
    pub depth: usize,
    /// Whether the refusals (if any) were due to the queue being closed
    /// rather than full — the caller maps those to a `Draining` error
    /// instead of a retryable `Rejected`.
    pub closed: bool,
}

/// Heap entry: EDF key (deadline-ns, `u64::MAX` when unbounded) with a
/// global admission sequence number as the FIFO tiebreak.
struct LaneEntry {
    key: u64,
    seq: u64,
    job: QueuedJob,
}

impl PartialEq for LaneEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for LaneEntry {}
impl PartialOrd for LaneEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LaneEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `BinaryHeap` is a max-heap; invert so the earliest deadline
        // (then the earliest admission) pops first.
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

struct QueueInner {
    lanes: [BinaryHeap<LaneEntry>; LANES],
    credits: [u32; LANES],
    seq: u64,
    closed: bool,
}

impl QueueInner {
    fn len(&self) -> usize {
        self.lanes.iter().map(BinaryHeap::len).sum()
    }

    fn push(&mut self, job: QueuedJob) {
        let key = job.deadline_ns.unwrap_or(u64::MAX);
        let seq = self.seq;
        self.seq += 1;
        self.lanes[lane_of(job.priority)].push(LaneEntry { key, seq, job });
    }

    /// The weighted-credit pick (see module docs).  `weights` lives on
    /// the (immutable) queue; credits are per-round state under the lock.
    fn pop(&mut self, weights: &[u32; LANES]) -> Option<QueuedJob> {
        if self.lanes.iter().all(BinaryHeap::is_empty) {
            return None;
        }
        let lane = match (0..LANES).find(|&l| self.credits[l] > 0 && !self.lanes[l].is_empty()) {
            Some(l) => l,
            None => {
                // Every non-empty lane exhausted its round: start a new one.
                self.credits = *weights;
                (0..LANES)
                    .find(|&l| !self.lanes[l].is_empty())
                    .expect("some lane is non-empty")
            }
        };
        self.credits[lane] = self.credits[lane].saturating_sub(1);
        self.lanes[lane].pop().map(|e| e.job)
    }
}

/// The bounded MPSC job queue (see module docs).
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    /// Where the consumer parks on an empty queue; a push notifies it,
    /// which costs a syscall only while it is parked.
    wake: EventCount,
    cap: usize,
    weights: [u32; LANES],
}

impl JobQueue {
    /// A queue admitting at most `cap` jobs (`cap >= 1`), with the
    /// default lane weights.
    pub fn new(cap: usize) -> Self {
        Self::with_weights(cap, DEFAULT_LANE_WEIGHTS)
    }

    /// A queue with explicit Hi/Normal/Batch lane weights (each clamped
    /// to at least 1 so no lane can be configured into starvation).
    pub fn with_weights(cap: usize, weights: [u32; LANES]) -> Self {
        let weights = weights.map(|w| w.max(1));
        JobQueue {
            inner: Mutex::new(QueueInner {
                lanes: Default::default(),
                credits: weights,
                seq: 0,
                closed: false,
            }),
            wake: EventCount::new(),
            cap: cap.max(1),
            weights,
        }
    }

    /// Capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The configured Hi/Normal/Batch lane weights.
    pub fn weights(&self) -> [u32; LANES] {
        self.weights
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Jobs currently queued, per lane (Hi / Normal / Batch).
    pub fn lane_depths(&self) -> [usize; LANES] {
        let inner = self.inner.lock();
        [
            inner.lanes[0].len(),
            inner.lanes[1].len(),
            inner.lanes[2].len(),
        ]
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many queued jobs the weighted pick will serve *before* a job
    /// that enters the lane selected by `priority` right now.
    ///
    /// All `d_L` jobs already in the arrival's own lane go first (EDF
    /// within a lane is at worst FIFO for the newcomer).  Draining those
    /// `d_L + 1` jobs takes `ceil((d_L + 1) / w_L)` credit rounds, and in
    /// each round every *other* lane `M` may serve up to `w_M` of its
    /// queued jobs — but never more than it has.  The sum is the overtake
    /// bound the admission-time shed check multiplies by the service-time
    /// EWMA.
    pub fn predicted_wait_jobs(&self, priority: u8) -> u64 {
        let inner = self.inner.lock();
        let lane = lane_of(priority);
        let d_l = inner.lanes[lane].len() as u64;
        let w_l = u64::from(self.weights[lane]);
        let rounds = (d_l + 1).div_ceil(w_l);
        let mut wait = d_l;
        for m in 0..LANES {
            if m != lane {
                let d_m = inner.lanes[m].len() as u64;
                wait += d_m.min(rounds * u64::from(self.weights[m]));
            }
        }
        wait
    }

    /// Non-blocking admission.  Returns the depth *after* the push.
    pub fn try_push(&self, job: QueuedJob) -> Result<usize, PushError> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.len() >= self.cap {
            return Err(PushError::Full);
        }
        inner.push(job);
        let depth = inner.len();
        drop(inner);
        self.wake.notify_one();
        Ok(depth)
    }

    /// Batched admission: push as large a prefix of `jobs` as fits, under
    /// **one** lock acquisition and with **one** consumer wakeup — the
    /// amortization the reactor relies on when a single poll wakeup
    /// decodes many pipelined submissions.  Admission order is preserved
    /// (each admitted job takes the next global sequence number), so
    /// per-connection FIFO still holds within a lane for deadline-free
    /// traffic.  Jobs beyond the admitted prefix are dropped here; the
    /// caller still owns their ids and unwinds its own bookkeeping.
    pub fn try_push_batch(&self, jobs: Vec<QueuedJob>) -> BatchAdmit {
        let n = jobs.len();
        let mut inner = self.inner.lock();
        if inner.closed {
            return BatchAdmit {
                admitted: 0,
                depth: inner.len(),
                closed: true,
            };
        }
        let room = self.cap.saturating_sub(inner.len());
        let admitted = n.min(room);
        for job in jobs.into_iter().take(admitted) {
            inner.push(job);
        }
        let depth = inner.len();
        drop(inner);
        if admitted > 0 {
            // One consumer (the dispatcher); it drains without re-waiting
            // while the queue is non-empty, so one wakeup covers the batch.
            self.wake.notify_one();
        }
        BatchAdmit {
            admitted,
            depth,
            closed: false,
        }
    }

    /// Consumer side: block for the next job.  `None` means the queue is
    /// closed *and* fully drained — the dispatcher's exit signal.
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut job = None;
        self.wake.wait_until(SpinBudget::NONE, None, || {
            let mut inner = self.inner.lock();
            job = inner.pop(&self.weights);
            job.is_some() || inner.closed
        });
        job
    }

    /// Non-blocking consumer pop (the simulator's dispatcher model —
    /// a virtual-time event loop cannot block in `pop`).  `None` means
    /// "empty right now", with no closed/open distinction.
    pub fn try_pop(&self) -> Option<QueuedJob> {
        self.inner.lock().pop(&self.weights)
    }

    /// Begin the drain: refuse producers, let the consumer run dry.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.wake.notify_all();
    }

    /// Whether `close()` has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use romp_epcc::Construct;
    use std::sync::Arc;

    fn job(id: u64) -> QueuedJob {
        QueuedJob {
            id,
            spec: JobSpec::Epcc {
                construct: Construct::Barrier,
                threads: 2,
                inner_reps: 1,
            },
            enqueued_ns: 0,
            cancel: CancelToken::new(),
            deadline_ns: None,
            affinity: 0,
            priority: 0,
        }
    }

    fn job_at(id: u64, priority: u8, deadline_ns: Option<u64>) -> QueuedJob {
        QueuedJob {
            priority,
            deadline_ns,
            ..job(id)
        }
    }

    #[test]
    fn admission_refuses_when_full_without_blocking() {
        let q = JobQueue::new(2);
        assert_eq!(q.try_push(job(1)), Ok(1));
        assert_eq!(q.try_push(job(2)), Ok(2));
        assert_eq!(q.try_push(job(3)).unwrap_err(), PushError::Full);
        assert_eq!(q.len(), 2, "refused push did not enqueue");
        // Draining one slot re-admits.
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.try_push(job(4)), Ok(2));
    }

    #[test]
    fn close_refuses_producers_but_drains_consumers() {
        let q = JobQueue::new(8);
        q.try_push(job(1)).unwrap();
        q.try_push(job(2)).unwrap();
        q.close();
        assert_eq!(q.try_push(job(3)).unwrap_err(), PushError::Closed);
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert!(q.pop().is_none(), "drained and closed");
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q = Arc::new(JobQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn batch_admission_takes_a_prefix_and_reports_closure() {
        let q = JobQueue::new(3);
        q.try_push(job(1)).unwrap();
        let res = q.try_push_batch(vec![job(2), job(3), job(4), job(5)]);
        assert_eq!(
            res,
            BatchAdmit {
                admitted: 2,
                depth: 3,
                closed: false
            }
        );
        // Prefix order preserved; the overflow (4, 5) never enqueued.
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert_eq!(q.pop().unwrap().id, 3);
        assert!(q.is_empty());
        q.close();
        let res = q.try_push_batch(vec![job(6)]);
        assert!(res.closed);
        assert_eq!(res.admitted, 0);
    }

    #[test]
    fn fifo_order_is_preserved_under_concurrency() {
        let q = Arc::new(JobQueue::new(1024));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        while q.try_push(job(p * 1000 + i)).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        q.close();
        let mut last_per_producer = [None::<u64>; 4];
        let mut total = 0;
        while let Some(j) = q.pop() {
            let p = (j.id / 1000) as usize;
            let seq = j.id % 1000;
            if let Some(prev) = last_per_producer[p] {
                assert!(seq > prev, "per-producer FIFO holds");
            }
            last_per_producer[p] = Some(seq);
            total += 1;
        }
        assert_eq!(total, 400);
    }

    #[test]
    fn edf_orders_by_deadline_within_a_lane() {
        let q = JobQueue::new(8);
        q.try_push(job_at(1, 0, None)).unwrap();
        q.try_push(job_at(2, 0, Some(900))).unwrap();
        q.try_push(job_at(3, 0, Some(100))).unwrap();
        q.try_push(job_at(4, 0, Some(500))).unwrap();
        // Earliest deadline first; the unbounded job last.
        assert_eq!(q.try_pop().unwrap().id, 3);
        assert_eq!(q.try_pop().unwrap().id, 4);
        assert_eq!(q.try_pop().unwrap().id, 2);
        assert_eq!(q.try_pop().unwrap().id, 1);
    }

    #[test]
    fn equal_deadlines_break_ties_in_admission_order() {
        let q = JobQueue::new(8);
        for id in 1..=5u64 {
            q.try_push(job_at(id, 0, Some(777))).unwrap();
        }
        for id in 1..=5u64 {
            assert_eq!(q.try_pop().unwrap().id, id, "FIFO tiebreak");
        }
    }

    #[test]
    fn hi_lane_overtakes_batch_backlog() {
        let q = JobQueue::new(16);
        for id in 1..=6u64 {
            q.try_push(job_at(id, 2, None)).unwrap();
        }
        q.try_push(job_at(100, 1, None)).unwrap();
        assert_eq!(q.lane_depths(), [1, 0, 6]);
        assert_eq!(q.try_pop().unwrap().id, 100, "Hi jumps the Batch backlog");
    }

    #[test]
    fn batch_is_never_starved_by_saturating_hi_load() {
        // Property: with weights [h, n, b], a queued Batch job is
        // dispatched within h + n pops even when the Hi lane is refilled
        // after every pop.  Sweep a few weight configurations.
        for weights in [[4, 2, 1], [1, 1, 1], [8, 3, 2]] {
            let q = JobQueue::with_weights(1024, weights);
            let k = (weights[0] + weights[1]) as usize;
            q.try_push(job_at(9999, 2, None)).unwrap();
            let mut next_hi = 1u64;
            for _ in 0..k {
                q.try_push(job_at(next_hi, 1, None)).unwrap();
                next_hi += 1;
            }
            let mut hi_dispatches = 0usize;
            loop {
                let j = q.try_pop().expect("queue never empty here");
                if j.id == 9999 {
                    break;
                }
                hi_dispatches += 1;
                assert!(
                    hi_dispatches <= k,
                    "batch job starved past {k} pops (weights {weights:?})"
                );
                // Keep the Hi lane saturated.
                q.try_push(job_at(next_hi, 1, None)).unwrap();
                next_hi += 1;
            }
        }
    }

    #[test]
    fn predicted_wait_accounts_for_lane_overtake() {
        let q = JobQueue::new(64);
        for id in 0..30u64 {
            q.try_push(job_at(id, 2, None)).unwrap();
        }
        // A Hi arrival into an empty Hi lane waits for at most one round
        // of other-lane credits, not the whole Batch backlog.
        let hi = q.predicted_wait_jobs(1);
        assert!(hi <= 3, "hi wait {hi} should ignore the batch backlog");
        // A Batch arrival waits behind its whole lane.
        let batch = q.predicted_wait_jobs(2);
        assert!(batch >= 30, "batch wait {batch} sees its own backlog");
        // Empty queue: nothing ahead regardless of lane.
        let empty = JobQueue::new(8);
        assert_eq!(empty.predicted_wait_jobs(0), 0);
        assert_eq!(empty.predicted_wait_jobs(1), 0);
        assert_eq!(empty.predicted_wait_jobs(2), 0);
    }

    #[test]
    fn lane_mapping_is_stable() {
        assert_eq!(lane_of(1), 0, "priority 1 = Hi");
        assert_eq!(lane_of(0), 1, "priority 0 = Normal (wire default)");
        assert_eq!(lane_of(2), 2, "priority 2 = Batch");
        assert_eq!(lane_of(255), 2, "unknown priorities degrade to Batch");
        assert_eq!(lane_name(0), "hi");
        assert_eq!(lane_name(1), "normal");
        assert_eq!(lane_name(2), "batch");
    }
}
