//! Soak driver: a long-running in-process server under a cancellation
//! storm, with a persistent MRAPI fault armed partway through.
//!
//! ```text
//! soak [--secs N] [--clients N] [--seed S]
//! ```
//!
//! Runs [`drive_cancel_storm`] waves against one MCA-backed server until
//! the time budget is spent, arming a persistent `MutexLock` timeout
//! fault halfway, then drains and audits the books: every accepted job
//! reached exactly one terminal state (`dropped == 0`), no storm client
//! hit a protocol error (the driver panics on any), and the server kept
//! serving after both the fault and every cancellation.  Exit status 1
//! on any violation — this is the CI `soak` job's assertion.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mca_mrapi::{FaultPlan, FaultProbe, FaultSite, MrapiStatus, MrapiSystem};
use mca_sync::cli::Spec;
use romp::{BackendKind, Config, McaBackend, McaOptions, RetryPolicy, Runtime};
use romp_serve::{Client, ServeConfig, Server};
use romp_validation::drive_cancel_storm;

const CLI: Spec = Spec {
    usage: "usage: soak [--secs N] [--clients N] [--seed S]",
    values: "--secs --clients --seed",
    switches: "",
    positionals: 0,
};

fn main() {
    let args = CLI.parse();
    let secs: u64 = args.value("--secs").unwrap_or(20);
    let clients: usize = args.value("--clients").unwrap_or(4);
    let seed: u64 = args.value("--seed").unwrap_or(0x50A4_BEEF);

    // An MCA-backed runtime whose MRAPI system we keep, so the fault can
    // be armed mid-soak; a short lock timeout keeps escalation fast.
    let sys = MrapiSystem::new_t4240();
    let be = McaBackend::with_options(
        sys.clone(),
        McaOptions {
            lock_timeout: Duration::from_millis(10),
            retry: RetryPolicy::default(),
        },
    )
    .expect("MCA backend construction");
    let rt = Runtime::with_config_and_backend(
        Config::default().with_backend(BackendKind::Mca),
        Box::new(be),
    )
    .expect("runtime construction");

    // Every job gets a deadline: jobs that carry none inherit the server
    // default, so a wedge can never outlive deadline + grace.  Without
    // this, an open-ended job that hits the persistent lock fault would
    // hang the dispatcher forever (supervision is opt-in by design).
    let cfg = ServeConfig {
        queue_cap: 128,
        default_deadline_ms: 10_000,
        ..ServeConfig::default()
    };
    let handle = Server::start("127.0.0.1:0", cfg, rt).expect("bind");
    let addr = handle.addr();
    println!("soak: {secs}s, {clients} clients, seed {seed:#x}, serving on {addr}");

    let deadline = Instant::now() + Duration::from_secs(secs);
    let arm_at = Instant::now() + Duration::from_secs(secs / 2);
    let mut armed = false;
    let mut wave = 0u64;
    let mut total_accepted = 0u64;
    let mut total_cancels = 0u64;
    while Instant::now() < deadline {
        if !armed && Instant::now() >= arm_at {
            // Halfway in: every MRAPI mutex lock times out from now on.
            // Jobs wedge on the lock, the watchdog escalates, the backend
            // falls over to native, and serving must continue.
            let plan = Arc::new(FaultPlan::new(seed).with_persistent(
                FaultSite::MutexLock,
                MrapiStatus::Timeout,
                0,
            ));
            sys.set_fault_probe(Some(plan as Arc<dyn FaultProbe>));
            armed = true;
            println!("soak: armed persistent MutexLock timeout fault");
        }
        let report = drive_cancel_storm(addr, clients, 8, seed.wrapping_add(wave));
        if report.lost() != 0 {
            eprintln!("soak: wave {wave} lost jobs: {report:?}");
            std::process::exit(1);
        }
        total_accepted += report.accepted;
        total_cancels += report.cancels_sent;
        wave += 1;
    }

    let mut c = Client::connect(addr).expect("final connect");
    let stats = c.stats().expect("stats");
    c.shutdown().expect("shutdown");
    let report = handle.join();
    println!("soak: {wave} waves, {total_accepted} jobs, {total_cancels} cancels");
    println!("{}", report.to_json());

    let mut failed = false;
    if report.dropped != 0 {
        eprintln!("soak: drain dropped {} accepted jobs", report.dropped);
        failed = true;
    }
    if !stats.contains("\"watchdog.ticks\"") {
        eprintln!("soak: watchdog metrics missing from stats");
        failed = true;
    }
    std::process::exit(if failed { 1 } else { 0 });
}
