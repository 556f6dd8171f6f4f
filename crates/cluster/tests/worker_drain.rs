//! A worker told to `Exit` while a job is in flight finishes the job
//! first: its `Done` reaches the router before the channel closes, and
//! the process exits with code 0.  The test plays the router's part on
//! the wire by hand.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mca_mcapi::{McapiError, McapiStatus, WireListener};
use romp_cluster::proto::{ToRouter, ToWorker};
use romp_serve::{DiagSpec, JobSpec, JobState};

#[test]
fn exit_waits_for_the_in_flight_job_and_its_done() {
    let dir = std::env::temp_dir().join(format!("romp-worker-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("worker.sock");
    let listener = WireListener::bind(&sock).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_romp-worker"))
        .arg("--socket")
        .arg(&sock)
        .arg("--worker-id")
        .arg("0")
        .arg("--threads")
        .arg("2")
        .arg("--rmem-path")
        .arg(dir.join("worker.rmem"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn romp-worker");
    let chan = listener.accept(Duration::from_secs(10)).expect("accept");
    let hello = chan.recv_timeout(Duration::from_secs(10)).expect("hello");
    assert!(matches!(
        ToRouter::decode(&hello),
        Ok(ToRouter::Hello { worker: 0, .. })
    ));

    let spec = JobSpec::Diag {
        diag: DiagSpec::Spin { ms: 200 },
        threads: 2,
    };
    chan.send(&ToWorker::Dispatch { job: 1, spec }.encode())
        .unwrap();
    chan.send(&ToWorker::Exit.encode()).unwrap();
    let exit_sent = Instant::now();

    // Heartbeats may interleave; the `Done` must come before the close.
    let mut done = Vec::new();
    let closed = loop {
        match chan.recv_timeout(Duration::from_secs(30)) {
            Ok(pkt) => {
                if let ToRouter::Done { job, state, .. } = ToRouter::decode(&pkt).unwrap() {
                    done.push((job, state, exit_sent.elapsed()));
                }
            }
            Err(e) => break e,
        }
    };
    assert_eq!(closed, McapiError(McapiStatus::ErrChanClosed));
    assert_eq!(done.len(), 1, "one Done for the one Dispatch: {done:?}");
    assert_eq!((done[0].0, done[0].1), (1, JobState::Done));
    assert!(
        done[0].2 >= Duration::from_millis(150),
        "the job ran its course after Exit: {done:?}"
    );
    assert_eq!(child.wait().unwrap().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
