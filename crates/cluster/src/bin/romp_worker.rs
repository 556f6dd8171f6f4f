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

use mca_sync::cli::Spec;
use romp::BackendKind;
use romp_cluster::{run_worker, WorkerConfig};

const CLI: Spec = Spec {
    usage: "usage: romp-worker --socket PATH --worker-id N --rmem-path PATH \
            [--threads N] [--backend native|mca] [--heartbeat-ms N]",
    values: "--socket --worker-id --rmem-path --threads --backend --heartbeat-ms",
    switches: "",
    positionals: 0,
};

fn main() {
    let args = CLI.parse();
    let d = WorkerConfig::default();
    let cfg = WorkerConfig {
        socket: args.value("--socket").unwrap_or(d.socket),
        worker_id: args.value("--worker-id").unwrap_or(d.worker_id),
        rmem_path: args.value("--rmem-path").unwrap_or(d.rmem_path),
        threads: args.value("--threads").unwrap_or(d.threads),
        backend: args
            .value_with("--backend", BackendKind::parse)
            .unwrap_or(d.backend),
        heartbeat_ms: args.value("--heartbeat-ms").unwrap_or(d.heartbeat_ms),
    };
    if cfg.socket.as_os_str().is_empty() || cfg.rmem_path.as_os_str().is_empty() {
        args.fail("--socket and --rmem-path are required");
    }
    std::process::exit(run_worker(cfg));
}
