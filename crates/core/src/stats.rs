//! Runtime statistics and profiling for the virtual-time engine.
//!
//! Two layers:
//!
//! * [`RuntimeStats`] — cheap always-on counters (regions, barrier episodes,
//!   criticals, ...) used by tests and reports;
//! * the profile accumulator — per-worker CPU nanoseconds plus
//!   synchronization episode counts, gathered only when
//!   [`crate::Config::profiling`] is on, and convertible into an
//!   [`mca_platform::vtime::RegionProfile`] for the board cost model that
//!   regenerates the paper's Figure 4.

use std::sync::atomic::{AtomicU64, Ordering};

use mca_platform::vtime::RegionProfile;

/// Always-on construct counters.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    pub(crate) regions: AtomicU64,
    pub(crate) barriers: AtomicU64,
    pub(crate) criticals: AtomicU64,
    pub(crate) singles: AtomicU64,
    pub(crate) loops: AtomicU64,
    pub(crate) tasks: AtomicU64,
    pub(crate) steals_local: AtomicU64,
    pub(crate) steals_remote: AtomicU64,
    pub(crate) parks: AtomicU64,
    pub(crate) park_timeouts: AtomicU64,
    /// Live liveness signal: bumped at construct *entry* (unlike the
    /// per-team counters above, which fold in only at region end), so an
    /// external supervisor can tell a region that is still reaching
    /// synchronization points from one wedged inside the backend.
    pub(crate) activity: AtomicU64,
}

/// A point-in-time copy of [`RuntimeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Parallel regions executed.
    pub regions: u64,
    /// Team-wide barrier episodes (implicit + explicit).
    pub barriers: u64,
    /// Critical-section entries.
    pub criticals: u64,
    /// `single` constructs executed.
    pub singles: u64,
    /// Worksharing loop instances.
    pub loops: u64,
    /// Explicit tasks run.
    pub tasks: u64,
    /// Successful task steals that stayed inside the thief's shard.
    pub steals_local: u64,
    /// Successful task steals that crossed a shard boundary (zero on an
    /// unsharded runtime, and on a sharded one whose work never ran dry
    /// locally).
    pub steals_remote: u64,
    /// Times a member slept on its team's eventcount (in a barrier,
    /// `taskwait`, a lapped construct ring or the end-of-region join).
    pub parks: u64,
    /// Of those sleeps, the ones that ended at a deadline instead of a
    /// notify.  Team waits keep no deadline, so this stays 0.
    pub park_timeouts: u64,
}

impl RuntimeStats {
    /// Copy out the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            regions: self.regions.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            criticals: self.criticals.load(Ordering::Relaxed),
            singles: self.singles.load(Ordering::Relaxed),
            loops: self.loops.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            steals_local: self.steals_local.load(Ordering::Relaxed),
            steals_remote: self.steals_remote.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            park_timeouts: self.park_timeouts.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter.
    pub fn reset(&self) {
        self.regions.store(0, Ordering::Relaxed);
        self.barriers.store(0, Ordering::Relaxed);
        self.criticals.store(0, Ordering::Relaxed);
        self.singles.store(0, Ordering::Relaxed);
        self.loops.store(0, Ordering::Relaxed);
        self.tasks.store(0, Ordering::Relaxed);
        self.steals_local.store(0, Ordering::Relaxed);
        self.steals_remote.store(0, Ordering::Relaxed);
        self.parks.store(0, Ordering::Relaxed);
        self.park_timeouts.store(0, Ordering::Relaxed);
    }
}

/// Accumulated profile across regions since the last reset.
#[derive(Debug, Default, Clone)]
pub(crate) struct ProfileAccum {
    /// Indexed by team thread number; grows to the largest team seen.
    pub per_tid_cpu_ns: Vec<u64>,
    pub barriers: u64,
    pub criticals: u64,
}

impl ProfileAccum {
    /// Fold one region's measurements in.
    pub fn merge(&mut self, cpu_ns: &[u64], barriers: u64, criticals: u64) {
        if self.per_tid_cpu_ns.len() < cpu_ns.len() {
            self.per_tid_cpu_ns.resize(cpu_ns.len(), 0);
        }
        for (slot, &ns) in self.per_tid_cpu_ns.iter_mut().zip(cpu_ns) {
            *slot += ns;
        }
        self.barriers += barriers;
        self.criticals += criticals;
    }

    /// Convert to the platform cost model's input.
    pub fn to_region_profile(&self) -> RegionProfile {
        RegionProfile {
            worker_cpu_ns: self.per_tid_cpu_ns.clone(),
            barriers: self.barriers,
            criticals: self.criticals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = RuntimeStats::default();
        s.regions.fetch_add(2, Ordering::Relaxed);
        s.barriers.fetch_add(5, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.regions, 2);
        assert_eq!(snap.barriers, 5);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn profile_merge_grows_and_sums() {
        let mut p = ProfileAccum::default();
        p.merge(&[10, 20], 1, 0);
        p.merge(&[1, 2, 3, 4], 2, 5);
        assert_eq!(p.per_tid_cpu_ns, vec![11, 22, 3, 4]);
        assert_eq!(p.barriers, 3);
        assert_eq!(p.criticals, 5);
        let rp = p.to_region_profile();
        assert_eq!(rp.num_workers(), 4);
        assert_eq!(rp.total_cpu_ns(), 40);
    }
}
