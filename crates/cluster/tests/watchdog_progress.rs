//! The watchdog judges a cluster job's progress by its own worker's
//! runtime, whose activity counter rides the heartbeat.  A job cancelled
//! while it waits in the worker's MTAPI queue behind a long-running job
//! stays `Cancelling` well past the escalation grace, but its worker is
//! busy, so nothing is killed: the running job finishes, the cancelled
//! one ends `Cancelled`, and there are no restarts or retries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use romp::{Config, Runtime};
use romp_cluster::{ClusterConfig, Router};
use romp_serve::{
    Client, DiagSpec, Dispatch, JobLimits, JobSpec, JobState, ServeConfig, Server, SubmitOutcome,
};

fn spin(c: &mut Client) -> u64 {
    let spec = JobSpec::Diag {
        diag: DiagSpec::Spin { ms: 1500 },
        threads: 2,
    };
    match c.submit(&spec).unwrap() {
        SubmitOutcome::Accepted(id) => id,
        other => panic!("spin job refused: {other:?}"),
    }
}

fn wait_for(c: &mut Client, job: u64, done: impl Fn(JobState) -> bool) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let state = c.poll(job).unwrap();
        if done(state) {
            return state;
        }
        assert!(Instant::now() < deadline, "job {job} stuck in {state:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_job_cancelled_behind_a_busy_worker_is_not_escalated() {
    let router = Router::new(ClusterConfig {
        workers: 1,
        worker_bin: Some(env!("CARGO_BIN_EXE_romp-worker").into()),
        worker_threads: 2,
        ..ClusterConfig::default()
    })
    .expect("router setup");
    let rt = Runtime::with_config(Config::default().with_num_threads(2)).unwrap();
    let cfg = ServeConfig {
        limits: JobLimits {
            allow_diag: true,
            ..JobLimits::default()
        },
        ..ServeConfig::default()
    };
    let grace = Duration::from_millis(cfg.escalation_grace_ms);
    let handle = Server::start_with_dispatch(
        "127.0.0.1:0",
        cfg,
        rt,
        Arc::clone(&router) as Arc<dyn Dispatch>,
    )
    .expect("server start");
    let mut c = Client::connect(handle.addr()).unwrap();

    let first = spin(&mut c);
    let second = spin(&mut c);
    // Both are dispatched (the per-worker window is two); the worker runs
    // one job at a time, so the second waits in its MTAPI queue.
    wait_for(&mut c, first, |s| s == JobState::Running);
    wait_for(&mut c, second, |s| s == JobState::Running);
    c.cancel(second).unwrap();
    // Past the escalation grace the second is still cancelling: it has
    // not started, and only a kill would end it sooner.
    std::thread::sleep(grace * 2);
    assert_eq!(c.poll(second).unwrap(), JobState::Cancelling);

    assert_eq!(wait_for(&mut c, first, JobState::terminal), JobState::Done);
    assert_eq!(
        wait_for(&mut c, second, JobState::terminal),
        JobState::Cancelled
    );
    assert_eq!(router.restarts(), 0, "the busy worker was killed");
    assert_eq!(router.retries(), 0, "the running job was retried");

    c.shutdown().unwrap();
    let drain = handle.join();
    assert_eq!(drain.dropped, 0, "{drain:?}");
    assert_eq!((drain.completed, drain.cancelled), (1, 1), "{drain:?}");
}
