//! The cluster dispatcher on virtual time: the production dispatcher
//! over two virtual executors with a window of two and seeded executor
//! deaths.  Every seed holds the invariants (no job started more than
//! `1 + MAX_RETRIES` times, one terminal state per job, no job escalated
//! while it waits behind a running one), and the sweep really exercises
//! what the class exists for.

use romp_sim::{run_scenario, Scenario, SimStats};

#[test]
fn cluster_storm_retries_orphans_and_never_escalates_a_waiting_job() {
    let mut t = SimStats::default();
    for seed in 1..=25 {
        let report = run_scenario(Scenario::cluster_storm(), seed, false);
        assert!(report.ok(), "seed {seed}: {:?}", report.violations);
        t.accumulate(&report.stats);
    }
    assert!(t.retries > 0, "no executor died with a job to retry");
    assert!(
        t.unrun > 0,
        "no job was ever cancelled while it waited behind a running one"
    );
    assert!(t.cancelled > 0 && t.completed > 0);
    assert_eq!(t.escalations, 0, "a job was escalated");
    assert_eq!(t.double_terminal, 0);
}
