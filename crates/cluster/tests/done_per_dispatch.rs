//! Every `Dispatch` a worker receives is answered by exactly one `Done`,
//! sent from the worker's MTAPI action: a panicking job comes back
//! `Failed` with its panic message, a job cancelled mid-run comes back
//! `Cancelled`, and the drain finds nothing dropped and no rmem result
//! slot still held.

use std::sync::Arc;
use std::time::{Duration, Instant};

use romp::{Config, Runtime};
use romp_cluster::{ClusterConfig, Router};
use romp_epcc::Construct;
use romp_serve::{
    Client, DiagSpec, Dispatch, JobLimits, JobSpec, JobState, ServeConfig, Server, SubmitOutcome,
};

fn submit(c: &mut Client, spec: &JobSpec) -> u64 {
    match c.submit(spec).unwrap() {
        SubmitOutcome::Accepted(id) => id,
        other => panic!("{spec:?} refused: {other:?}"),
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

/// The number after `"key":` in a JSON document.
fn json_u64(doc: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing: {doc}"))
        + pat.len();
    let digits: String = doc[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().unwrap()
}

#[test]
fn panicked_and_cancelled_jobs_each_get_one_done() {
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
    let handle = Server::start_with_dispatch(
        "127.0.0.1:0",
        cfg,
        rt,
        Arc::clone(&router) as Arc<dyn Dispatch>,
    )
    .expect("server start");
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut fetched_bytes = 0;

    // A kernel panic inside the worker: the action catches it and sends
    // `Failed` with the message.
    let panicker = submit(
        &mut c,
        &JobSpec::Diag {
            diag: DiagSpec::Panic,
            threads: 2,
        },
    );
    assert_eq!(
        wait_for(&mut c, panicker, JobState::terminal),
        JobState::Failed
    );
    let out = c.fetch(panicker).unwrap();
    assert!(!out.ok);
    assert!(
        out.detail.starts_with("panicked:") && out.detail.contains("diag: deliberate panic"),
        "panic detail: {}",
        out.detail
    );
    fetched_bytes += out.detail.len();

    // A job cancelled while it runs on the worker.
    let spinner = submit(
        &mut c,
        &JobSpec::Diag {
            diag: DiagSpec::Spin { ms: 30_000 },
            threads: 2,
        },
    );
    wait_for(&mut c, spinner, |s| s == JobState::Running);
    std::thread::sleep(Duration::from_millis(100));
    c.cancel(spinner).unwrap();
    assert_eq!(
        wait_for(&mut c, spinner, JobState::terminal),
        JobState::Cancelled
    );
    fetched_bytes += c.fetch(spinner).unwrap().detail.len();

    // The worker still serves after both.
    let healthy = submit(
        &mut c,
        &JobSpec::Epcc {
            construct: Construct::Barrier,
            threads: 2,
            inner_reps: 2,
        },
    );
    assert_eq!(
        wait_for(&mut c, healthy, JobState::terminal),
        JobState::Done
    );
    let out = c.fetch(healthy).unwrap();
    assert!(out.ok, "{out:?}");
    fetched_bytes += out.detail.len();

    // One `Done` per job: every detail came through an rmem slot exactly
    // once, and nothing was retried or restarted.
    let stats = c.stats().unwrap();
    assert_eq!(json_u64(&stats, "dispatched"), 3, "{stats}");
    assert_eq!(json_u64(&stats, "inline_results"), 0, "{stats}");
    assert_eq!(
        json_u64(&stats, "rmem_fetched_bytes"),
        fetched_bytes as u64,
        "{stats}"
    );
    assert_eq!(router.retries(), 0);
    assert_eq!(router.restarts(), 0);

    c.shutdown().unwrap();
    let drain = handle.join();
    assert_eq!(drain.dropped, 0, "{drain:?}");
    assert_eq!(drain.rmem_leaked, 0, "{drain:?}");
    assert_eq!((drain.failed, drain.cancelled, drain.completed), (1, 1, 1));
}
