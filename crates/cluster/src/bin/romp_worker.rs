//! The `romp-worker` binary: one cluster worker process.  Spawned and
//! supervised by the router inside `romp-serve --workers N`; not meant
//! to be launched by hand (it exits immediately without a router socket
//! to connect to).
//!
//! ```text
//! romp-worker --socket PATH --worker-id N --rmem-path PATH
//!             [--threads N] [--backend native|mca] [--heartbeat-ms N]
//! ```
//!
//! The rmem result segment always holds `proto::SLOTS` slots of
//! `proto::SLOT_BYTES` bytes; the router reads it with the same constants.

use romp::BackendKind;
use romp_cluster::{run_worker, WorkerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: romp-worker --socket PATH --worker-id N --rmem-path PATH \
         [--threads N] [--backend native|mca] [--heartbeat-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = WorkerConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |j: usize| args.get(j).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--socket" => {
                cfg.socket = need(i + 1).into();
                i += 2;
            }
            "--worker-id" => {
                cfg.worker_id = need(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--threads" => {
                cfg.threads = need(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--backend" => {
                cfg.backend = BackendKind::parse(&need(i + 1)).unwrap_or_else(|| usage());
                i += 2;
            }
            "--rmem-path" => {
                cfg.rmem_path = need(i + 1).into();
                i += 2;
            }
            "--heartbeat-ms" => {
                cfg.heartbeat_ms = need(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if cfg.socket.as_os_str().is_empty() || cfg.rmem_path.as_os_str().is_empty() {
        usage();
    }
    std::process::exit(run_worker(cfg));
}
