//! Mixed-load driver for `romp-serve` integration tests.
//!
//! The chaos and validation suites need to hold a serving endpoint under
//! realistic concurrent load — several clients, a mixed EPCC/NPB job
//! rotation, admission-control retries — while something else (a fault
//! plan, a drain request) happens to the server.  This module packages
//! that driver so each test does not re-implement it.

use std::net::SocketAddr;
use std::sync::Arc;

use romp_epcc::Construct;
use romp_npb::{Class, NpbKernel};
use romp_serve::client::{drive, ClientProfile, JobStream, Tally};
use romp_serve::{JobSpec, SubmitOptions};

/// Aggregate result of one [`drive_mixed_load`] run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Jobs the server accepted (admission granted).
    pub accepted: u64,
    /// Accepted jobs whose results came back with `ok == true`.
    pub completed: u64,
    /// Accepted jobs whose results came back with `ok == false`.
    pub failed: u64,
    /// Admission rejections absorbed by retry before acceptance.
    pub rejections: u64,
    /// Jobs left unsubmitted because the server began draining.
    pub drain_refusals: u64,
}

impl LoadReport {
    /// Accepted jobs that never produced a result — the quantity every
    /// serving test asserts is zero.
    pub fn lost(&self) -> u64 {
        self.accepted - self.completed - self.failed
    }
}

/// The job rotation: every EPCC construct family plus both fast NPB
/// kernels, all sized to finish in milliseconds so a load run exercises
/// queueing rather than kernel arithmetic.
pub fn mixed_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::Epcc {
            construct: Construct::Parallel,
            threads: 2,
            inner_reps: 4,
        },
        JobSpec::Epcc {
            construct: Construct::Barrier,
            threads: 2,
            inner_reps: 8,
        },
        JobSpec::Epcc {
            construct: Construct::Critical,
            threads: 2,
            inner_reps: 4,
        },
        JobSpec::Epcc {
            construct: Construct::Reduction,
            threads: 2,
            inner_reps: 4,
        },
        JobSpec::Npb {
            kernel: NpbKernel::Ep,
            class: Class::S,
            threads: 2,
        },
        JobSpec::Npb {
            kernel: NpbKernel::Is,
            class: Class::S,
            threads: 2,
        },
    ]
}

/// Job `r` of client `k`'s stream: the [`mixed_specs`] rotation, offset
/// per client so the wire sees interleaved job kinds.
fn rotation(k: usize, opts: impl Fn(u64) -> SubmitOptions + Send + Sync + 'static) -> JobStream {
    let specs = mixed_specs();
    Arc::new(move |r| (specs[(k + r as usize) % specs.len()], opts(r)))
}

/// Run `profiles` against `addr`, panicking on anything the client core
/// cannot explain — in a test, those are failures, not data.
fn drive_checked(addr: SocketAddr, profiles: Vec<ClientProfile>, seed: u64) -> Tally {
    let t = drive(addr, profiles, seed);
    assert!(
        t.violations.is_empty() && t.gave_up == 0 && t.sheds() == 0,
        "load driver: {} gave up, {} shed, violations: {:?}",
        t.gave_up,
        t.sheds(),
        t.violations
    );
    t
}

/// Drive `clients` concurrent connections, each submitting
/// `requests_per_client` jobs from the [`mixed_specs`] rotation and
/// awaiting every result.  Admission rejections are retried (jittered
/// backoff, 60 s budget); only a draining server makes the client stop,
/// counting its unsubmitted jobs as refused.
///
/// Panics on transport or protocol errors, an exhausted retry budget or
/// an accepted job with no result within 120 s.
pub fn drive_mixed_load(
    addr: SocketAddr,
    clients: usize,
    requests_per_client: usize,
) -> LoadReport {
    let jobs = u32::try_from(requests_per_client).expect("request count fits u32");
    let profiles = (0..clients)
        .map(|k| {
            let stream = rotation(k, |_| SubmitOptions::default());
            ClientProfile::driven(jobs, stream)
        })
        .collect();
    let t = drive_checked(addr, profiles, 0x10AD);
    LoadReport {
        accepted: t.accepted,
        completed: t.resolved() - t.failed(),
        failed: t.failed(),
        rejections: t.rejections,
        drain_refusals: t.abandoned,
    }
}

/// Aggregate result of one [`drive_cancel_storm`] run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StormReport {
    /// Jobs the server accepted.
    pub accepted: u64,
    /// Results with `ok == true`.
    pub completed: u64,
    /// Results reporting cancellation or a missed deadline.
    pub killed: u64,
    /// Results with `ok == false` for any other reason.
    pub failed: u64,
    /// Cancel requests issued.
    pub cancels_sent: u64,
    /// Jobs left unsubmitted because the server began draining.
    pub drain_refusals: u64,
}

impl StormReport {
    /// Accepted jobs that never produced a result — must be zero.
    pub fn lost(&self) -> u64 {
        self.accepted - self.completed - self.killed - self.failed
    }
}

/// A cancellation storm: `clients` concurrent connections each submit
/// `requests_per_client` jobs from the [`mixed_specs`] rotation with
/// idempotency keys and (one in three) a short deadline, then cancel
/// 20% of them after a random 0–800 µs — so Cancel races every
/// lifecycle state: still queued, mid-dispatch, mid-execution, already
/// complete.  Every accepted job must still reach exactly one terminal
/// outcome; the caller asserts `lost() == 0`.
pub fn drive_cancel_storm(
    addr: SocketAddr,
    clients: usize,
    requests_per_client: usize,
    seed: u64,
) -> StormReport {
    let jobs = u32::try_from(requests_per_client).expect("request count fits u32");
    let profiles = (0..clients)
        .map(|k| {
            let stream = rotation(k, move |r| SubmitOptions {
                deadline_ms: 0,
                // Unique non-zero key per (client, request).
                idem_key: ((k as u64) << 32) | (r + 1),
                // Per-client shard key: each client's jobs share a
                // home shard, so the storm exercises both pinned and
                // cross-shard scheduling.
                affinity: k as u64 + 1,
                // Rotate across all three lanes so the storm also
                // exercises weighted lane dispatch.
                priority: ((k as u64 + r) % 3) as u8,
            });
            ClientProfile {
                cancel_pm: 200,
                cancel_delay_ns: (0, 799_000),
                // One in three jobs carries a real (but generous vs.
                // job length) deadline; the rest are open.
                explicit_deadline_pm: 333,
                deadline_ms: (2_000, 9_999),
                ..ClientProfile::driven(jobs, stream)
            }
        })
        .collect();
    let t = drive_checked(addr, profiles, seed ^ (0xD00D_F00D << 1));
    StormReport {
        accepted: t.accepted,
        completed: t.resolved() - t.failed(),
        killed: t.killed,
        failed: t.failed() - t.killed,
        cancels_sent: t.cancels_sent,
        drain_refusals: t.abandoned,
    }
}
