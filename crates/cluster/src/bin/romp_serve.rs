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

use romp::{BackendKind, Config, Runtime};
use romp_cluster::{ClusterConfig, Router};
use romp_serve::{JobLimits, ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: romp-serve [--addr HOST:PORT] [--backend native|mca] \
         [--queue-cap N] [--max-job-threads N] [--threads N] \
         [--deadline-ms N] [--grace-ms N] [--shards N] \
         [--allow-diag] [--shed] [--workers N] [--worker-threads N] \
         [--worker-bin PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut backend = BackendKind::Native;
    let mut queue_cap = 64usize;
    let mut max_job_threads = 16u8;
    let mut num_threads: Option<usize> = None;
    let mut default_deadline_ms = 0u32;
    let mut escalation_grace_ms: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut allow_diag = false;
    let mut shed = false;
    let mut workers = 0usize;
    let mut worker_threads: Option<usize> = None;
    let mut worker_bin: Option<std::path::PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |j: usize| args.get(j).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--addr" => {
                addr = need(i + 1);
                i += 2;
            }
            "--backend" => {
                backend = BackendKind::parse(&need(i + 1)).unwrap_or_else(|| usage());
                i += 2;
            }
            "--queue-cap" => {
                queue_cap = need(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--max-job-threads" => {
                max_job_threads = need(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--threads" => {
                num_threads = Some(need(i + 1).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--deadline-ms" => {
                default_deadline_ms = need(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--grace-ms" => {
                escalation_grace_ms = Some(need(i + 1).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--shards" => {
                shards = Some(need(i + 1).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--allow-diag" => {
                allow_diag = true;
                i += 1;
            }
            "--shed" => {
                shed = true;
                i += 1;
            }
            "--workers" => {
                workers = need(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--worker-threads" => {
                worker_threads = Some(need(i + 1).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--worker-bin" => {
                worker_bin = Some(need(i + 1).into());
                i += 2;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

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
