//! The per-class service-time estimator and the admission shed gate it
//! feeds: cold start admits freely, a single sample seeds the class
//! EWMA exactly, and an unseen class falls back to the global EWMA.

use mca_platform::VirtualClock;
use romp_epcc::Construct;
use romp_serve::session::ServeCore;
use romp_serve::{DedupConfig, JobSpec, Response};
use romp_sim::{SimCore, SimCoreConfig};

fn shed_core(clock: mca_platform::Clock) -> SimCore {
    SimCore::new(
        clock,
        SimCoreConfig {
            queue_cap: 8,
            default_deadline_ms: 0,
            shed: true,
            dedup: DedupConfig {
                cap: 64,
                ttl_ns: 1_000_000_000,
            },
        },
    )
}

fn job() -> JobSpec {
    JobSpec::Epcc {
        construct: Construct::Barrier,
        threads: 2,
        inner_reps: 8,
    }
}

#[test]
fn cold_start_has_no_class_estimate_and_admits_tight_deadlines() {
    let vclock = VirtualClock::new(0);
    let core = shed_core(vclock.clock());
    assert_eq!(core.state().class_ewma_ns(&job().label()), None);
    // No samples anywhere: the predicted wait is zero, so even a 1ms
    // deadline admits — shedding must not refuse work it knows nothing
    // about.
    let staged = core.prepare_submit(job(), 1, 0, 0, 1);
    assert!(staged.is_ok(), "cold-start shed gate must admit");
}

#[test]
fn single_sample_seeds_the_class_ewma_exactly() {
    let vclock = VirtualClock::new(0);
    let core = shed_core(vclock.clock());
    core.state().note_exec("k", 40_000_000);
    assert_eq!(core.state().class_ewma_ns("k"), Some(40_000_000));
    // The second sample smooths with alpha = 1/8 (same as the global
    // EWMA): 40 - 40/8 + 8/8 = 36.
    core.state().note_exec("k", 8_000_000);
    assert_eq!(core.state().class_ewma_ns("k"), Some(36_000_000));
    // Other classes stay untouched.
    assert_eq!(core.state().class_ewma_ns("other"), None);
}

#[test]
fn unseen_class_falls_back_to_the_global_ewma() {
    let vclock = VirtualClock::new(0);
    let core = shed_core(vclock.clock());
    // Global estimate says jobs take 50ms; this class has never run.
    core.state().note_exec("warmup", 50_000_000);
    let spec = job();
    assert_eq!(core.state().class_ewma_ns(&spec.label()), None);

    // A 10ms deadline cannot fit a predicted 50ms service time.
    match core.prepare_submit(spec, 10, 0, 0, 1) {
        Err(Response::ShedDeadline { predicted_wait_ms }) => {
            assert!(
                (40..=60).contains(&predicted_wait_ms),
                "prediction reflects the global fallback: {predicted_wait_ms}ms"
            );
        }
        other => panic!("expected ShedDeadline, got {other:?}"),
    }
    // The shed is visible in the lane counter (priority 1 = Hi = lane 0).
    assert_eq!(core.state().metrics().sched_sheds[0].get(), 1);

    // Once the class has its own (fast) sample, the same deadline
    // admits: the specific estimate overrides the pessimistic global.
    core.state().note_exec(&job().label(), 2_000_000);
    let staged = core.prepare_submit(job(), 10, 0, 0, 1);
    assert!(staged.is_ok(), "class-specific estimate wins over global");
}

#[test]
fn shed_unwinds_staging_so_the_job_leaves_no_table_entry() {
    let vclock = VirtualClock::new(0);
    let core = shed_core(vclock.clock());
    core.state().note_exec("warmup", 50_000_000);
    let before = core.state().table().retractions();
    let shed = core.prepare_submit(job(), 10, 0, 0, 0);
    assert!(matches!(shed, Err(Response::ShedDeadline { .. })));
    assert_eq!(
        core.state().table().retractions(),
        before + 1,
        "a shed retracts its staged table entry"
    );
}
