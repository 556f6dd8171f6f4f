//! The `romp-serve` server binary (single-process and cluster modes).
//!
//! ```text
//! romp-serve [--addr 127.0.0.1:7171] [--backend native|mca]
//!            [--queue-cap N] [--max-job-threads N] [--threads N]
//!            [--deadline-ms N] [--grace-ms N] [--shards N]
//!            [--allow-diag] [--shed]
//!            [--workers N] [--worker-threads N] [--worker-bin PATH]
//! ```
//!
//! Binds, prints `romp-serve listening on <addr>`, and serves until a
//! client sends `shutdown`; then drains every accepted job, quiesces the
//! pool, and prints the drain report as JSON on stdout.  Exits non-zero
//! if the drain dropped anything (it cannot, by construction — the exit
//! code is the CI assertion).
//!
//! With `--workers N` the jobs run in N supervised worker **processes**
//! (`romp-worker`) behind a [`romp_cluster::Router`]: dispatch over
//! MCAPI wire channels, results fetched zero-copy from each worker's
//! file-backed MRAPI rmem segment, heartbeat-supervised restarts, and
//! operator rolling restarts via the client `restart` request.

use std::sync::Arc;

use mca_sync::cli::Spec;
use romp::{BackendKind, Config, Runtime};
use romp_cluster::{ClusterConfig, Router};
use romp_serve::{JobLimits, ServeConfig, Server};

const CLI: Spec = Spec {
    usage: "usage: romp-serve [--addr HOST:PORT] [--backend native|mca] \
            [--queue-cap N] [--max-job-threads N] [--threads N] \
            [--deadline-ms N] [--grace-ms N] [--shards N] \
            [--allow-diag] [--shed] [--workers N] [--worker-threads N] \
            [--worker-bin PATH]",
    values: "--addr --backend --queue-cap --max-job-threads --threads --deadline-ms \
             --grace-ms --shards --workers --worker-threads --worker-bin",
    switches: "--allow-diag --shed",
    positionals: 0,
};

fn main() {
    let args = CLI.parse();
    let addr = args
        .value("--addr")
        .unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let backend = args
        .value_with("--backend", BackendKind::parse)
        .unwrap_or(BackendKind::Native);
    let queue_cap = args.value("--queue-cap").unwrap_or(64);
    let max_job_threads = args.value("--max-job-threads").unwrap_or(16);
    let num_threads: Option<usize> = args.value("--threads");
    let default_deadline_ms = args.value("--deadline-ms").unwrap_or(0);
    let escalation_grace_ms: Option<u64> = args.value("--grace-ms");
    let shards: Option<usize> = args.value("--shards");
    let allow_diag = args.switch("--allow-diag");
    let shed = args.switch("--shed");
    let workers = args.value("--workers").unwrap_or(0);
    let worker_threads: Option<usize> = args.value("--worker-threads");
    let worker_bin = args.value("--worker-bin");

    let mut cfg = Config::from_env().with_backend(backend);
    if let Some(n) = num_threads {
        cfg = cfg.with_num_threads(n);
    }
    if let Some(s) = shards {
        cfg = cfg.with_shards(s);
    }
    let rt = match Runtime::with_config(cfg) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("romp-serve: runtime construction failed: {e}");
            std::process::exit(1);
        }
    };

    let mut serve_cfg = ServeConfig {
        queue_cap,
        limits: JobLimits {
            max_threads: max_job_threads,
            allow_diag,
            ..JobLimits::default()
        },
        default_deadline_ms,
        shed,
        ..ServeConfig::default()
    };
    if let Some(grace) = escalation_grace_ms {
        serve_cfg.escalation_grace_ms = grace;
    }

    let start = if workers > 0 {
        let router = match Router::new(ClusterConfig {
            workers,
            worker_bin,
            worker_threads: worker_threads.unwrap_or(2),
            backend,
            ..ClusterConfig::default()
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("romp-serve: cluster setup failed: {e}");
                std::process::exit(1);
            }
        };
        Server::start_with_dispatch(
            &addr,
            serve_cfg,
            rt,
            router as Arc<dyn romp_serve::Dispatch>,
        )
    } else {
        Server::start(&addr, serve_cfg, rt)
    };
    let handle = match start {
        Ok(h) => h,
        Err(e) => {
            eprintln!("romp-serve: bind {addr} failed: {e}");
            std::process::exit(1);
        }
    };
    // The readiness line scripts wait for (flushed by println's newline).
    println!("romp-serve listening on {}", handle.addr());

    let report = handle.join();
    println!("{}", report.to_json());
    if report.dropped != 0 {
        eprintln!("romp-serve: drain dropped {} accepted jobs", report.dropped);
        std::process::exit(1);
    }
    if report.rmem_leaked != 0 {
        eprintln!(
            "romp-serve: {} rmem result slots leaked at drain",
            report.rmem_leaked
        );
        std::process::exit(1);
    }
}
