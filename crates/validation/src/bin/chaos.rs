//! Chaos-mode driver: the construct matrix under N seeded fault schedules.
//!
//! ```text
//! chaos [--seeds N] [--seed-base S] [--teams 1,4] [--backend both|native|mca]
//! ```
//!
//! Exit status 1 if any run violated the fault-tolerance contract
//! (panicked or completed with wrong results); typed errors and
//! MCA→native degradations are permitted outcomes and are reported.

use romp::BackendKind;
use romp_validation::chaos::run_chaos;

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn usage() -> ! {
    eprintln!("usage: chaos [--seeds N] [--seed-base S] [--teams 1,4] [--backend both|native|mca]");
    std::process::exit(2);
}

fn main() {
    let mut n_seeds = 8usize;
    let mut seed_base = 0xC0FFEEu64;
    let mut teams = vec![1usize, 4];
    let mut kinds = vec![BackendKind::Native, BackendKind::Mca];

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| args.get(i + 1).unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--seeds" => {
                n_seeds = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed-base" => {
                seed_base = parse_u64(need(i)).unwrap_or_else(|| usage());
                i += 2;
            }
            "--teams" => {
                teams = need(i)
                    .split(',')
                    .map(|t| t.trim().parse().ok())
                    .collect::<Option<_>>()
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--backend" => {
                kinds = match need(i).as_str() {
                    "both" => vec![BackendKind::Native, BackendKind::Mca],
                    s => vec![BackendKind::parse(s).unwrap_or_else(|| usage())],
                };
                i += 2;
            }
            _ => usage(),
        }
    }

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
