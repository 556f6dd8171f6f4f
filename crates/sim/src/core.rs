//! The simulator's serving core: the production `ServeCore` policy over
//! virtual-clock state.
//!
//! [`SimCore`] owns the *same* [`ServeState`] the production server
//! does — job table (on the virtual clock), admission queue, `serve.*`
//! metrics resolved from a private registry, and the service-time
//! estimator — and implements [`ServeCore`], so admission, idempotency,
//! fetch/await consumption, cancel, drain, job completion and the
//! watchdog sweep run the production code paths verbatim.  Only the
//! hooks differ: the core has no runtime of its own (every job's progress
//! is its virtual executor's heartbeat), and completions are collected
//! for the event loop to deliver instead of broadcast over mailboxes.

use std::cell::RefCell;

use mca_platform::Clock;
use romp_serve::session::ServeCore;
use romp_serve::{DedupConfig, JobLimits, Metrics, ServeConfig, ServeState};
use romp_trace::MetricsRegistry;

/// Construction knobs for a [`SimCore`].
pub struct SimCoreConfig {
    /// Admission queue capacity.
    pub queue_cap: usize,
    /// Deadline for jobs that do not request one (ms; 0 = none).
    pub default_deadline_ms: u32,
    /// Idempotency map bounds.
    pub dedup: DedupConfig,
    /// Enable deadline-based admission shedding.
    pub shed: bool,
}

/// The simulated serving stack's shared state (see module docs).
pub struct SimCore {
    state: ServeState,
    registry: MetricsRegistry,
    completions: RefCell<Vec<u64>>,
}

impl SimCore {
    /// A core on `clock` (the run's virtual clock).
    pub fn new(clock: Clock, cfg: SimCoreConfig) -> Self {
        let registry = MetricsRegistry::new();
        let serve = ServeConfig {
            queue_cap: cfg.queue_cap,
            limits: JobLimits {
                allow_diag: true,
                ..JobLimits::default()
            },
            default_deadline_ms: cfg.default_deadline_ms,
            shed: cfg.shed,
            ..ServeConfig::default()
        };
        SimCore {
            state: ServeState::new(clock, cfg.dedup, Metrics::new(&registry), &serve),
            registry,
            completions: RefCell::new(Vec::new()),
        }
    }

    /// Drain the completion notifications queued by
    /// [`ServeCore::on_complete`] since the last call.
    pub fn take_completions(&self) -> Vec<u64> {
        std::mem::take(&mut *self.completions.borrow_mut())
    }
}

impl ServeCore for SimCore {
    fn state(&self) -> &ServeState {
        &self.state
    }

    /// No serving runtime: every in-flight job is judged by its
    /// executor's reported activity instead.
    fn activity(&self) -> u64 {
        0
    }

    fn on_complete(&self, job: u64) {
        self.completions.borrow_mut().push(job);
    }

    fn stats_json(&self) -> String {
        self.state.stats_json("sim", false, None, &self.registry)
    }
}
