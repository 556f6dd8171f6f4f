//! Regenerate the paper's **Figure 4**: NAS benchmark execution time and
//! speedup, 1–24 threads, MCA-backed runtime vs native runtime.
//!
//! ```text
//! cargo run -p ompmca-bench --release --bin figure4 [-- --class S|W|A \
//!     --threads 1,2,4,8,12,16,20,24 --kernels EP,CG,IS,MG,FT | --quick] \
//!     [--shards N]
//! ```
//!
//! The paper ran class A on a 24-hardware-thread T4240RDB.  This host may
//! have far fewer cores, so the harness measures what is host-independent —
//! each worker's actual CPU time and the team's synchronization counts —
//! and feeds the profile through the calibrated T4240 cost model
//! (`mca-platform::vtime`) to reconstruct board execution times and speedup
//! curves.  Host wall-clock is printed alongside for transparency.
//! Default class is W to keep a full sweep tractable; pass `--class A` for
//! the paper-scale run.

use mca_platform::vtime::CostModel;
use mca_sync::cli::Spec;
use ompmca_bench::{
    figure4_point, figure4_threads, render_figure4_kernel, runtime_pair_sharded, team_size,
    Fig4Point,
};
use romp_npb::{Class, NpbKernel};

const CLI: Spec = Spec {
    usage: "usage: figure4 [--class S|W|A] [--threads 1,2,4,8,12,16,20,24] \
            [--kernels EP,CG,IS,MG,FT] [--quick] [--shards N]",
    values: "--class --threads --kernels --shards",
    switches: "--quick",
    positionals: 0,
};

fn main() {
    let args = CLI.parse();
    // `--quick` shrinks the defaults; an explicit value still wins.
    let (threads, class, kernels) = if args.switch("--quick") {
        let kernels = vec![NpbKernel::Ep, NpbKernel::Cg, NpbKernel::Is];
        (vec![1, 4, 24], Class::S, kernels)
    } else {
        (figure4_threads(), Class::W, NpbKernel::all().to_vec())
    };
    let threads = args.list_with("--threads", team_size).unwrap_or(threads);
    let class = args.value_with("--class", Class::parse).unwrap_or(class);
    let kernels = args
        .list_with("--kernels", NpbKernel::parse)
        .unwrap_or(kernels);
    let shards: Option<usize> = args.value("--shards");

    let model = CostModel::t4240rdb();
    println!(
        "== OpenMP-MCA reproduction: Figure 4 (NAS benchmarks, class {}) ==",
        class.label()
    );
    println!(
        "cost model: T4240RDB @1.8GHz, {} hw threads, SMT eff {:.2}, 1-thread BW {:.1} GB/s,",
        model.topo.num_hw_threads(),
        model.smt_efficiency,
        model.single_thread_bw / 1e9
    );
    println!(
        "DRAM BW {:.1} GB/s, barrier {:.1}+{:.1}·t ns, host→board scale {:.1}",
        model.topo.dram_bandwidth_bytes_per_s / 1e9,
        model.barrier_base_ns,
        model.barrier_per_thread_ns,
        model.host_to_board_scale
    );
    println!(
        "kernel β (memory intensity): EP {:.2}, CG {:.2}, IS {:.2}, MG {:.2}, FT {:.2}\n",
        NpbKernel::Ep.beta(),
        NpbKernel::Cg.beta(),
        NpbKernel::Is.beta(),
        NpbKernel::Mg.beta(),
        NpbKernel::Ft.beta()
    );

    let (native, mca) = runtime_pair_sharded(true, shards);
    let mut points: Vec<Fig4Point> = Vec::new();
    for &kernel in &kernels {
        for &t in &threads {
            for rt in [&native, &mca] {
                let p = figure4_point(rt, &model, kernel, class, t);
                eprintln!(
                    "  measured {} {} backend, {} threads: wall {:.2}s, board {:.3}s, verified={}",
                    kernel.name(),
                    p.backend.label(),
                    t,
                    p.wall_s,
                    p.board_s,
                    p.verified
                );
                if !p.verified {
                    eprintln!("    verification detail: {}", p.verification);
                }
                points.push(p);
            }
        }
        println!("{}", render_figure4_kernel(&points, kernel, &threads));
    }

    // Shard-isolation evidence: with every kernel's work spawned from
    // inside its own region, a sharded run should satisfy its demand
    // locally — `steals.remote` stays 0 while `steals.local` may not.
    // Report the split so per-shard runs are verified by scheduler
    // counters, not wall-clock alone (see EXPERIMENTS.md).
    for (label, rt) in [("native", &native), ("mca", &mca)] {
        let st = rt.stats();
        println!(
            "{label} backend steal split: local={} remote={} (shards={})",
            st.steals_local,
            st.steals_remote,
            shards.unwrap_or(1)
        );
    }

    let failures: Vec<_> = points.iter().filter(|p| !p.verified).collect();
    if failures.is_empty() {
        println!("all {} kernel runs verified.", points.len());
    } else {
        println!(
            "{} of {} kernel runs FAILED verification:",
            failures.len(),
            points.len()
        );
        for f in failures {
            println!(
                "  {} {} @{}: {}",
                f.kernel.name(),
                f.backend.label(),
                f.threads,
                f.verification
            );
        }
        std::process::exit(1);
    }
}
