//! Sensitivity sweep of the virtual-time cost model.
//!
//! ```text
//! cargo run -p ompmca-bench --release --bin model_sweep
//! ```
//!
//! EXPERIMENTS.md's transparency appendix: for a perfectly balanced
//! synthetic workload, print the modeled 24-thread T4240 speedup as a
//! function of the model's two calibration knobs — memory intensity β and
//! SMT efficiency — so a reader can see exactly how the Figure 4 curves
//! respond to the calibration (EP sits at β≈0; the paper's "≈15×" kernels
//! sit near β≈0.3).

use mca_platform::vtime::{CostModel, RegionProfile};
use mca_sync::cli::Spec;

const CLI: Spec = Spec {
    usage: "usage: model_sweep",
    values: "",
    switches: "",
    positionals: 0,
};

fn even(total_ns: u64, workers: usize) -> RegionProfile {
    RegionProfile {
        worker_cpu_ns: vec![total_ns / workers as u64; workers],
        barriers: 100,
        criticals: 0,
    }
}

fn main() {
    CLI.parse();
    let total = 2_000_000_000u64; // 2s of host CPU work
    println!("== cost-model sensitivity: modeled speedup at N threads (T4240) ==\n");

    println!("-- speedup vs memory intensity β (SMT eff fixed at 0.92) --");
    print!("{:>6}", "β");
    let thread_points = [4usize, 8, 12, 16, 20, 24];
    for t in thread_points {
        print!("{t:>9}");
    }
    println!();
    let model = CostModel::t4240rdb();
    for beta in [0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0] {
        let serial = model.elapsed_ns(&even(total, 1), beta);
        print!("{beta:>6.1}");
        for t in thread_points {
            let s = serial / model.elapsed_ns(&even(total, t), beta);
            print!("{s:>9.2}");
        }
        println!();
    }

    println!("\n-- speedup at 24 threads vs SMT efficiency (β fixed at 0.02, EP-like) --");
    println!("{:>8} {:>10}", "smt_eff", "speedup24");
    for eff in [0.5, 0.6, 0.7, 0.8, 0.9, 0.92, 0.95, 1.0] {
        let m = CostModel {
            smt_efficiency: eff,
            ..CostModel::t4240rdb()
        };
        let s = m.elapsed_ns(&even(total, 1), 0.02) / m.elapsed_ns(&even(total, 24), 0.02);
        println!("{eff:>8.2} {s:>10.2}");
    }

    println!("\n-- barrier cost share at 24 threads vs barriers per run (β=0.3) --");
    println!("{:>10} {:>12} {:>10}", "barriers", "elapsed(ms)", "sync %");
    for barriers in [0u64, 100, 1_000, 10_000, 100_000] {
        let prof = RegionProfile {
            worker_cpu_ns: vec![total / 24; 24],
            barriers,
            criticals: 0,
        };
        let e = model.elapsed_ns(&prof, 0.3);
        let sync = barriers as f64 * model.barrier_cost_ns(24);
        println!(
            "{barriers:>10} {:>12.2} {:>9.1}%",
            e / 1e6,
            sync / e * 100.0
        );
    }
}
