//! Chaos-mode driver: the construct matrix under N seeded fault schedules.
//!
//! ```text
//! chaos [--seeds N] [--seed-base S] [--teams 1,4] [--backend both|native|mca]
//! ```
//!
//! Exit status 1 if any run violated the fault-tolerance contract
//! (panicked or completed with wrong results); typed errors and
//! MCA→native degradations are permitted outcomes and are reported.

use mca_sync::cli::Spec;
use romp::BackendKind;
use romp_validation::chaos::run_chaos;

const CLI: Spec = Spec {
    usage: "usage: chaos [--seeds N] [--seed-base S] [--teams 1,4] [--backend both|native|mca]",
    values: "--seeds --seed-base --teams --backend",
    switches: "",
    positionals: 0,
};

fn main() {
    let args = CLI.parse();
    let n_seeds: usize = args.value("--seeds").unwrap_or(8);
    let seed_base: u64 = args.value("--seed-base").unwrap_or(0xC0FFEE);
    let teams: Vec<usize> = args.list("--teams").unwrap_or_else(|| vec![1, 4]);
    let kinds = args.value_with("--backend", |s| match s {
        "both" => Some(BackendKind::all().to_vec()),
        s => BackendKind::parse(s).map(|k| vec![k]),
    });
    let kinds = kinds.unwrap_or_else(|| BackendKind::all().to_vec());

    let seeds: Vec<u64> = (0..n_seeds as u64).map(|k| seed_base + k).collect();
    println!(
        "chaos: {} seeds from {seed_base:#x}, teams {teams:?}, backends {:?}",
        seeds.len(),
        kinds.iter().map(|k| k.label()).collect::<Vec<_>>()
    );
    for &seed in &seeds {
        println!(
            "  seed {seed:#x}: {}",
            mca_mrapi::FaultPlan::from_seed(seed).describe()
        );
    }

    let mut failed = false;
    for kind in kinds {
        let report = run_chaos(kind, &seeds, &teams);
        println!("{}", report.summary());
        if !report.degraded_seeds.is_empty() {
            println!(
                "  {} seeds degraded to the fallback backend: {:?}",
                report.degraded_seeds.len(),
                report
                    .degraded_seeds
                    .iter()
                    .map(|s| format!("{s:#x}"))
                    .collect::<Vec<_>>()
            );
        }
        for (seed, summary) in &report.summaries {
            println!("  -- trace summary, seed {seed:#x} --");
            for line in summary.render().lines() {
                println!("  {line}");
            }
        }
        if !report.all_safe() {
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
