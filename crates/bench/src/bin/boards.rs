//! Cross-platform portability run (paper §4C): the same MCA-backed binary
//! on the T4240RDB model and its predecessor P4080DS.
//!
//! ```text
//! cargo run -p ompmca-bench --release --bin boards [-- --class S|W|A]
//! ```
//!
//! The paper's central portability claim is that the MCA-based toolchain
//! carries applications across boards unchanged ("our goal is to provide a
//! software toolchain that could be used across more than one platform").
//! This harness runs each NAS kernel once per board-appropriate team size
//! on the MCA backend and models both boards' execution times and energy
//! (the e6500's cascading power management, §4A) from the same measured
//! profiles — the experiment the paper's §4C comparison sets up.

use mca_platform::power::{energy_for_profile, PowerModel};
use mca_platform::vtime::CostModel;
use mca_sync::cli::Spec;
use romp::{BackendKind, Config, Runtime};
use romp_npb::{Class, NpbKernel};

const CLI: Spec = Spec {
    usage: "usage: boards [--class S|W|A]",
    values: "--class",
    switches: "",
    positionals: 0,
};

fn main() {
    let class = CLI
        .parse()
        .value_with("--class", Class::parse)
        .unwrap_or(Class::S);

    let boards: Vec<(&str, CostModel, PowerModel, usize)> = vec![
        ("T4240RDB", CostModel::t4240rdb(), PowerModel::t4240(), 24),
        // The P4080's envelope: fewer, simpler cores; similar uncore share.
        (
            "P4080DS",
            CostModel::p4080ds(),
            PowerModel {
                active_w: 1.3,
                uncore_w: 9.0,
                ..PowerModel::t4240()
            },
            8,
        ),
    ];

    println!(
        "== §4C portability: same MCA binary, two boards (class {}) ==",
        class.label()
    );
    let rt = Runtime::with_config(
        Config::default()
            .with_backend(BackendKind::Mca)
            .with_profiling(true),
    )
    .unwrap();

    println!(
        "{:<8} {:<10} {:>8} {:>12} {:>10} {:>10} {:>8}",
        "kernel", "board", "threads", "board(s)", "joules", "avg W", "ok"
    );
    for kernel in NpbKernel::all() {
        for (name, cost, power, threads) in &boards {
            rt.reset_profile();
            let res = kernel.run(&rt, *threads, class);
            let profile = rt.take_profile();
            let board_s = cost.elapsed_ns(&profile, kernel.beta()) / 1e9;
            let energy = energy_for_profile(power, cost, &profile, kernel.beta());
            println!(
                "{:<8} {:<10} {:>8} {:>12.4} {:>10.2} {:>10.2} {:>8}",
                kernel.name(),
                name,
                threads,
                board_s,
                energy.joules,
                energy.avg_watts,
                res.verified()
            );
        }
    }
    println!("\nsame binary, same backend, both boards: the MCA layer is the portability seam.");
}
