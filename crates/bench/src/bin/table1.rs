//! Regenerate the paper's **Table I**: relative EPCC overhead of the
//! MCA-backed runtime versus the native runtime.
//!
//! ```text
//! cargo run -p ompmca-bench --release --bin table1 [-- --threads 4,8,12,16,20,24 \
//!     --outer 20 --inner 256 | --quick] [--shards N] [--json PATH] [--report]
//! ```
//!
//! The paper normalises each construct's EPCC overhead on MCA-libGOMP by
//! the stock libGOMP overhead; values around 1.0 mean the MCA layer costs
//! nothing.  This harness measures both backends with the same EPCC
//! methodology and prints absolute overheads plus the ratio table.
//! `--json PATH` additionally writes the grid as machine-readable JSON
//! (the repo commits one run as `BENCH_table1.json`, the baseline later
//! sessions diff against).  `--report` prints each runtime's observability
//! summary after the grid — arm it with `ROMP_TRACE=1` to also get event
//! counts, not just runtime statistics.

use mca_sync::cli::Spec;
use ompmca_bench::{
    measure_table1_grid, render_table1, render_table1_json, runtime_pair_sharded, table1_threads,
    team_size,
};

const CLI: Spec = Spec {
    usage: "usage: table1 [--threads 4,8,12,16,20,24] [--outer N] [--inner N] [--quick] \
            [--shards N] [--json PATH] [--report]",
    values: "--threads --outer --inner --shards --json",
    switches: "--quick --report",
    positionals: 0,
};

fn main() {
    let args = CLI.parse();
    // `--quick` shrinks the defaults; an explicit value still wins.
    let (threads, outer, inner) = if args.switch("--quick") {
        (vec![2, 4], 3, 16)
    } else {
        (table1_threads(), 10, 128)
    };
    let threads = args.list_with("--threads", team_size).unwrap_or(threads);
    let outer: usize = args.value("--outer").unwrap_or(outer);
    let inner: usize = args.value("--inner").unwrap_or(inner);
    let shards: Option<usize> = args.value("--shards");
    let json_path: Option<String> = args.value("--json");
    let report = args.switch("--report");

    println!("== OpenMP-MCA reproduction: Table I (EPCC overheads) ==");
    println!(
        "host parallelism: {}; team sizes {:?}; outer={outer} inner={inner} shards={}",
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1),
        threads,
        shards.unwrap_or(1)
    );
    println!("note: team sizes above the host parallelism run oversubscribed;");
    println!("the ratio (MCA/native) is host-independent, which is what Table I reports.\n");

    let (native, mca) = runtime_pair_sharded(false, shards);
    let cells = measure_table1_grid(&native, &mca, &threads, outer, inner);

    println!("-- absolute overheads (µs per construct, EPCC methodology) --");
    println!(
        "{:<14}{:>8}  {:>12} {:>12} {:>10} {:>10}",
        "Directive", "threads", "native(µs)", "mca(µs)", "nat sd", "mca sd"
    );
    for c in &cells {
        println!(
            "{:<14}{:>8}  {:>12.3} {:>12.3} {:>10.3} {:>10.3}",
            c.construct.label(),
            c.threads,
            c.native.overhead_us,
            c.mca.overhead_us,
            c.native.sd_us,
            c.mca.sd_us
        );
    }
    println!();
    print!("{}", render_table1(&cells, &threads));
    println!(
        "\npaper's Table I row means for comparison: Parallel≈0.96, For≈1.17, Parallel for≈1.03,"
    );
    println!(
        "Barrier≈1.11, Single≈1.15, Critical≈1.01, Reduction≈1.00 (ratios ≈ 1 ⇒ no overhead)."
    );

    if let Some(path) = json_path {
        let json = render_table1_json(&cells, &threads, outer, inner, shards.unwrap_or(1));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("table1: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {path}");
    }

    if report {
        println!("\n-- native runtime observability summary --");
        print!("{}", native.run_summary().render());
        println!("\n-- mca runtime observability summary --");
        print!("{}", mca.run_summary().render());
    }
}
