//! Scenario definitions, the per-run report, and the sweep driver.
//!
//! A [`Scenario`] is a bundle of world knobs; six classes cover the
//! serving stack's hazard surface:
//!
//! * **`fault_storm`** — a timed persistent `mca-mrapi` fault arms
//!   mid-run; executions fail or wedge from then on, deadlines fire,
//!   the watchdog escalates.  Invariant focus: faults degrade results,
//!   never drop accepted jobs.
//! * **`partition_heal`** — a subset of links is cut mid-load and
//!   healed later; held traffic replays in order.  Focus: retries,
//!   idempotent resubmission, and parked awaits all survive the gap.
//! * **`slow_client`** — stats hammers pipeline large responses into
//!   tiny write windows with sluggish reads.  Focus: write
//!   backpressure, deferred decoding, and fairness never wedge the
//!   service or lose responses.
//! * **`cancel_storm`** — a small queue, aggressive cancels, duplicate
//!   submit bursts and late duplicates.  Focus: the idempotency map
//!   and cancel/terminal-state machine under maximum contention (the
//!   class that reproduced the idem-claim-before-admission race).
//! * **`overload_storm`** — saturating Batch-priority load with a
//!   trickle of tight-deadline Hi jobs, admission shedding on.  Focus:
//!   the EDF/priority dispatcher and the shed gate — Hi jobs are never
//!   shed, and no accepted job misses its deadline by more than the
//!   watchdog's enforcement granularity.
//! * **`cluster_storm`** — the cluster router's dispatcher: two
//!   executors with a window of two, seeded executor deaths, heavy
//!   cancels, jobs longer than the escalation grace.  Focus: orphan
//!   retries (no job starts more than `1 + MAX_RETRIES` times, each
//!   reaches one terminal state) and the watchdog judging a job that
//!   waits behind a busy one by that executor's progress (it is never
//!   escalated).
//!
//! Every class also checks the bookkeeping the simulator shares with
//! production: each fired deadline counts as a `serve.sched.deadline_miss`
//! and every lane-depth gauge reads 0 at quiescence.
//!
//! [`run_scenario`] builds a [`World`], runs it to quiescence, and
//! distils the [`SimReport`] the sweeps and CI gate on.

use mca_sync::SmallRng;
use romp_epcc::Construct;
use romp_serve::client::{ClientProfile, Hammer};
use romp_serve::session::ServeCore;
use romp_serve::DedupConfig;
use romp_serve::{JobSpec, SubmitOptions};

use crate::core::SimCoreConfig;
use crate::net::{DuplexLink, LinkDir};
use crate::world::World;

/// One scenario class: every knob the world needs (see module docs).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario class name (sweep selector, report label).
    pub name: &'static str,
    /// Concurrent clients (client 0 is the shutdown controller).
    pub clients: usize,
    /// Jobs each non-hammer client runs to completion.
    pub jobs_per_client: u32,
    /// Admission queue capacity.
    pub queue_cap: usize,
    /// Server default deadline (ms; 0 = none).  Must be non-zero when
    /// `wedge_pm > 0`: only deadlines end wedges.
    pub default_deadline_ms: u32,
    /// Idempotency map cap.
    pub dedup_cap: usize,
    /// Unfetched-result TTL, ms.
    pub result_ttl_ms: u64,
    /// P(cancel after accept), per-mille.
    pub cancel_pm: u64,
    /// P(duplicate submit in the same payload), per-mille.
    pub dup_pm: u64,
    /// P(duplicate submit after acceptance), per-mille.
    pub late_dup_pm: u64,
    /// P(no idempotency key), per-mille.
    pub nokey_pm: u64,
    /// P(explicit per-job deadline), per-mille.
    pub explicit_deadline_pm: u64,
    /// Explicit deadline range, ms.
    pub deadline_ms: (u32, u32),
    /// P(execution wedges), per-mille (deadline-holding jobs only).
    pub wedge_pm: u64,
    /// P(execution fails), per-mille.
    pub fail_pm: u64,
    /// Modelled execution time range, virtual ns.
    pub exec_ns: (u64, u64),
    /// Per-link base one-way delay range, virtual ns.
    pub link_delay_ns: (u64, u64),
    /// Per-link delivery jitter bound, virtual ns.
    pub link_jitter_ns: u64,
    /// Client read latency range (window refill delay), virtual ns.
    pub ack_delay_ns: (u64, u64),
    /// Server per-connection write window, bytes (socket send buffer).
    pub window: usize,
    /// How many trailing clients are stats hammers.
    pub hammers: usize,
    /// Hammer: bursts per client.
    pub hammer_bursts: u32,
    /// Hammer: pipelined `Stats` frames per burst.
    pub hammer_pipeline: u32,
    /// Think time between jobs, virtual ns.
    pub think_ns: (u64, u64),
    /// Rejected-submit retries before a client gives a job up.
    pub max_retries: u32,
    /// Controller: P(shutdown right after its own jobs), per-mille.
    pub shutdown_early_pm: u64,
    /// Partition window (start_ms, heal_ms), if any.
    pub partition_ms: Option<(u64, u64)>,
    /// How many connections the partition cuts.
    pub partition_conns: usize,
    /// When the timed persistent MRAPI fault arms (virtual ms), if ever.
    pub fault_at_ms: Option<u64>,
    /// Watchdog sweep interval, virtual ms.
    pub watchdog_tick_ms: u64,
    /// Stalled-cancel grace before escalation, virtual ms.
    pub escalation_grace_ms: u64,
    /// Virtual-time budget; exceeding it is a violation.
    pub horizon_ms: u64,
    /// Enable deadline-based admission shedding (and its invariants).
    pub shed: bool,
    /// Leading non-controller clients that submit Hi-priority jobs with
    /// tight explicit deadlines; with `hi_clients > 0` every other
    /// non-hammer client submits at Batch priority.
    pub hi_clients: usize,
    /// Virtual executors behind the dispatcher (1 = the in-process
    /// server; more = a cluster of workers).
    pub executors: usize,
    /// Jobs each executor may hold at once (the dispatch window).
    pub exec_window: u32,
    /// P(the executor dies while a job it was just given runs),
    /// per-mille.
    pub death_pm: u64,
}

impl Scenario {
    fn base() -> Scenario {
        Scenario {
            name: "base",
            clients: 8,
            jobs_per_client: 8,
            queue_cap: 16,
            default_deadline_ms: 400,
            dedup_cap: 4096,
            result_ttl_ms: 60_000,
            cancel_pm: 100,
            dup_pm: 150,
            late_dup_pm: 80,
            nokey_pm: 200,
            explicit_deadline_pm: 150,
            deadline_ms: (40, 300),
            wedge_pm: 0,
            fail_pm: 60,
            exec_ns: (500_000, 12_000_000),
            link_delay_ns: (20_000, 400_000),
            link_jitter_ns: 150_000,
            ack_delay_ns: (5_000, 100_000),
            window: 64 * 1024,
            hammers: 0,
            hammer_bursts: 6,
            hammer_pipeline: 48,
            think_ns: (100_000, 3_000_000),
            max_retries: 400,
            shutdown_early_pm: 0,
            partition_ms: None,
            partition_conns: 0,
            fault_at_ms: None,
            watchdog_tick_ms: 10,
            escalation_grace_ms: 60,
            horizon_ms: 300_000,
            shed: false,
            hi_clients: 0,
            executors: 1,
            exec_window: 1,
            death_pm: 0,
        }
    }

    /// Mid-run MRAPI fault: failures and wedges, watchdog escalation.
    pub fn fault_storm() -> Scenario {
        Scenario {
            name: "fault_storm",
            wedge_pm: 60,
            fail_pm: 120,
            fault_at_ms: Some(60),
            jobs_per_client: 6,
            shutdown_early_pm: 50,
            ..Scenario::base()
        }
    }

    /// A link partition cuts half the clients mid-load, then heals.
    pub fn partition_heal() -> Scenario {
        Scenario {
            name: "partition_heal",
            partition_ms: Some((30, 110)),
            partition_conns: 4,
            cancel_pm: 60,
            ..Scenario::base()
        }
    }

    /// Stats hammers against tiny write windows with slow reads.
    pub fn slow_client() -> Scenario {
        Scenario {
            name: "slow_client",
            clients: 6,
            hammers: 3,
            window: 4 * 1024,
            ack_delay_ns: (200_000, 2_000_000),
            jobs_per_client: 5,
            hammer_bursts: 5,
            hammer_pipeline: 64,
            ..Scenario::base()
        }
    }

    /// Maximum idempotency/cancel contention on a small queue.
    pub fn cancel_storm() -> Scenario {
        Scenario {
            name: "cancel_storm",
            queue_cap: 4,
            clients: 10,
            jobs_per_client: 7,
            cancel_pm: 450,
            dup_pm: 500,
            late_dup_pm: 250,
            nokey_pm: 80,
            explicit_deadline_pm: 300,
            deadline_ms: (20, 120),
            wedge_pm: 25,
            dedup_cap: 24,
            result_ttl_ms: 30_000,
            shutdown_early_pm: 80,
            ..Scenario::base()
        }
    }

    /// Batch saturation against a trickle of tight-deadline Hi jobs,
    /// with the shed gate on.  Sized so the Batch backlog's predicted
    /// wait overruns the 100ms default deadline (sheds happen) while
    /// the Hi lane's weighted overtake keeps Hi predictions far under
    /// their 150–250ms slack (Hi sheds must be zero).
    pub fn overload_storm() -> Scenario {
        Scenario {
            name: "overload_storm",
            shed: true,
            hi_clients: 2,
            // Enough closed-loop Batch submitters that their collective
            // in-flight jobs alone outrun the 80ms default deadline —
            // the storm *must* shed to keep its promises.
            clients: 24,
            jobs_per_client: 10,
            queue_cap: 32,
            default_deadline_ms: 80,
            cancel_pm: 50,
            dup_pm: 100,
            late_dup_pm: 0,
            nokey_pm: 100,
            explicit_deadline_pm: 0,
            deadline_ms: (150, 250),
            wedge_pm: 0,
            fail_pm: 30,
            exec_ns: (4_000_000, 12_000_000),
            think_ns: (50_000, 500_000),
            ..Scenario::base()
        }
    }

    /// The cluster dispatcher: two executors holding two jobs each, so a
    /// job can wait on an executor behind a running one, with seeded
    /// executor deaths.  Jobs run longer than the escalation grace, so a
    /// job cancelled while it waits stays stalled past the grace: judged
    /// by its own executor's progress it is never escalated.
    pub fn cluster_storm() -> Scenario {
        Scenario {
            name: "cluster_storm",
            executors: 2,
            exec_window: 2,
            death_pm: 80,
            cancel_pm: 300,
            exec_ns: (5_000_000, 90_000_000),
            default_deadline_ms: 1_500,
            deadline_ms: (100, 600),
            jobs_per_client: 6,
            ..Scenario::base()
        }
    }

    /// Every scenario class, sweep order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::fault_storm(),
            Scenario::partition_heal(),
            Scenario::slow_client(),
            Scenario::cancel_storm(),
            Scenario::overload_storm(),
            Scenario::cluster_storm(),
        ]
    }

    /// Look a class up by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name == name)
    }

    /// A per-scenario seed salt (FNV-1a over the name) so the same seed
    /// explores different schedules in each class.
    pub fn salt(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The serving-core construction knobs.
    pub fn core_config(&self) -> SimCoreConfig {
        SimCoreConfig {
            queue_cap: self.queue_cap,
            default_deadline_ms: self.default_deadline_ms,
            dedup: DedupConfig {
                cap: self.dedup_cap,
                ttl_ns: self.result_ttl_ms.max(1) * 1_000_000,
            },
            shed: self.shed,
        }
    }

    /// Draw one connection's duplex link.
    pub fn link(&self, rng: &mut SmallRng) -> DuplexLink {
        let (lo, hi) = self.link_delay_ns;
        let up = rng.gen_range(lo, hi + 1);
        let down = rng.gen_range(lo, hi + 1);
        DuplexLink {
            up: LinkDir::new(up, self.link_jitter_ns),
            down: LinkDir::new(down, self.link_jitter_ns),
        }
    }

    /// Draw client `i`'s profile and read delay (ns).  Client 0 is the
    /// controller; the last `hammers` clients are stats hammers.
    pub fn profile(&self, i: usize, rng: &mut SmallRng) -> (ClientProfile, u64) {
        let hammer = i != 0 && i >= self.clients.saturating_sub(self.hammers);
        // Clients 1..=hi_clients run the Hi lane with explicit tight
        // deadlines; everyone else is Batch in a mixed-priority run,
        // Normal (the wire default) otherwise.
        let hi = !hammer && i != 0 && i <= self.hi_clients;
        let priority = match (self.hi_clients, hi) {
            (0, _) => 0,
            (_, true) => 1,
            (_, false) => 2,
        };
        let (alo, ahi) = self.ack_delay_ns;
        let ack_delay_ns = if hammer {
            ahi
        } else {
            rng.gen_range(alo, ahi + 1)
        };
        // One fixed job, keyed per client, cycling through a few shard
        // keys (0 = no preference) so the sharded submit path is
        // exercised under simulation.
        let idem_base = (i as u64 + 1) << 32;
        let job = std::sync::Arc::new(move |j: u64| {
            let spec = JobSpec::Epcc {
                construct: Construct::Barrier,
                threads: 2,
                inner_reps: 8,
            };
            let opts = SubmitOptions {
                deadline_ms: 0,
                idem_key: idem_base + j + 1,
                affinity: j % 4,
                priority,
            };
            (spec, opts)
        });
        let profile = ClientProfile {
            cancel_pm: self.cancel_pm,
            dup_pm: self.dup_pm,
            late_dup_pm: self.late_dup_pm,
            nokey_pm: if hi { 0 } else { self.nokey_pm },
            explicit_deadline_pm: if hi { 1000 } else { self.explicit_deadline_pm },
            deadline_ms: self.deadline_ms,
            think_ns: if hi {
                // The Hi trickle: an order of magnitude slower than the
                // saturating Batch flood.
                (self.think_ns.0 * 10, self.think_ns.1 * 10)
            } else {
                self.think_ns
            },
            max_retries: self.max_retries,
            // Virtual time bounds neither retries nor awaits: the
            // horizon and the end-of-run checks catch a stalled client.
            retry_for_ns: 0,
            await_for_ns: 0,
            controller: i == 0,
            shutdown_early_pm: self.shutdown_early_pm,
            hammer: hammer.then_some(Hammer {
                bursts: self.hammer_bursts,
                pipeline: self.hammer_pipeline,
            }),
            ..ClientProfile::driven(self.jobs_per_client, job)
        };
        (profile, ack_delay_ns)
    }

    /// The connections a partition cuts (never the controller's).
    pub fn partition_set(&self) -> Vec<u64> {
        (2..=self.clients as u64)
            .take(self.partition_conns)
            .collect()
    }
}

/// Counter digest of one run (from the sim's own metrics registry and
/// table — the same instruments production exports).
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// `serve.submit.accepted`.
    pub accepted: u64,
    /// `serve.submit.rejected`.
    pub rejected: u64,
    /// `serve.jobs.completed`.
    pub completed: u64,
    /// `serve.jobs.failed`.
    pub failed: u64,
    /// `serve.jobs.cancelled`.
    pub cancelled: u64,
    /// `serve.jobs.timed_out`.
    pub timed_out: u64,
    /// `serve.submit.idem_hits`.
    pub idem_hits: u64,
    /// `watchdog.escalations`.
    pub escalations: u64,
    /// `watchdog.deadline_fired`.
    pub deadline_fired: u64,
    /// `serve.dedup.evictions`.
    pub dedup_evictions: u64,
    /// Duplicates refused while the original was unadmitted (the race
    /// window the PR 7 fix closes).
    pub idem_pending_hits: u64,
    /// Stagings unwound after failed admission.
    pub retractions: u64,
    /// `serve.sched.sheds.*` total (admission-time deadline sheds).
    pub sheds: u64,
    /// Client-side `ShedDeadline` responses received.
    pub client_sheds: u64,
    /// Double-terminal transitions observed (must be 0).
    pub double_terminal: u64,
    /// Client-side `JobResult`s received.
    pub resolved: u64,
    /// Client-side `Stats` responses received.
    pub stats_seen: u64,
    /// Jobs clients gave up on after max retries.
    pub gave_up: u64,
    /// Jobs abandoned to a drain refusal.
    pub abandoned: u64,
    /// Jobs orphaned by an executor death and requeued by the dispatcher.
    pub retries: u64,
    /// Jobs whose token fired while they waited on an executor, settled
    /// there without running.
    pub unrun: u64,
    /// Events processed.
    pub events: u64,
    /// Final virtual time, ms.
    pub virtual_ms: u64,
}

impl SimStats {
    /// Fold another run's counters into this digest (for sweep totals;
    /// `virtual_ms` takes the max rather than the sum).
    pub fn accumulate(&mut self, o: &SimStats) {
        self.accepted += o.accepted;
        self.rejected += o.rejected;
        self.completed += o.completed;
        self.failed += o.failed;
        self.cancelled += o.cancelled;
        self.timed_out += o.timed_out;
        self.idem_hits += o.idem_hits;
        self.escalations += o.escalations;
        self.deadline_fired += o.deadline_fired;
        self.dedup_evictions += o.dedup_evictions;
        self.idem_pending_hits += o.idem_pending_hits;
        self.retractions += o.retractions;
        self.sheds += o.sheds;
        self.client_sheds += o.client_sheds;
        self.double_terminal += o.double_terminal;
        self.resolved += o.resolved;
        self.stats_seen += o.stats_seen;
        self.gave_up += o.gave_up;
        self.abandoned += o.abandoned;
        self.retries += o.retries;
        self.unrun += o.unrun;
        self.events += o.events;
        self.virtual_ms = self.virtual_ms.max(o.virtual_ms);
    }
}

/// The outcome of one `(scenario, seed)` run.
#[derive(Debug)]
pub struct SimReport {
    /// The seed (reproduces the run exactly).
    pub seed: u64,
    /// Scenario class name.
    pub scenario: &'static str,
    /// Invariant breaches; empty means the run passed.
    pub violations: Vec<String>,
    /// Counter digest.
    pub stats: SimStats,
    /// The event trace, when captured.
    pub trace: Option<String>,
}

impl SimReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Build, run, and digest one `(scenario, seed)` world.
pub fn run_scenario(sc: Scenario, seed: u64, capture_trace: bool) -> SimReport {
    let name = sc.name;
    let mut w = World::new(sc, seed, capture_trace);
    let (violations, trace) = w.run();
    let (retries, unrun) = w.dispatch_stats();
    let st = w.core().state();
    let m = st.metrics();
    let t = st.table();
    let stats = SimStats {
        accepted: m.accepted.get(),
        rejected: m.rejected.get(),
        completed: m.completed.get(),
        failed: m.failed.get(),
        cancelled: m.cancelled.get(),
        timed_out: m.timed_out.get(),
        idem_hits: m.idem_hits.get(),
        escalations: m.wd_escalations.get(),
        deadline_fired: m.wd_deadline_fired.get(),
        dedup_evictions: m.dedup_evictions.get(),
        idem_pending_hits: t.idem_pending_hits(),
        retractions: t.retractions(),
        sheds: m.sched_sheds.iter().map(|c| c.get()).sum(),
        client_sheds: w.clients().iter().map(|c| c.tally.sheds()).sum(),
        double_terminal: t.double_terminal(),
        resolved: w.clients().iter().map(|c| c.tally.resolved()).sum(),
        stats_seen: w.clients().iter().map(|c| c.tally.stats_seen).sum(),
        gave_up: w.clients().iter().map(|c| c.tally.gave_up).sum(),
        abandoned: w.clients().iter().map(|c| c.tally.abandoned).sum(),
        retries,
        unrun,
        events: w.events(),
        virtual_ms: w.virtual_ns() / 1_000_000,
    };
    SimReport {
        seed,
        scenario: name,
        violations,
        stats,
        trace,
    }
}
