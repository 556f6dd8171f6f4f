//! simstorm — sweep deterministic-simulation seeds and gate on
//! invariants.
//!
//! ```text
//! simstorm [--scenario NAME|all] [--seeds N] [--base B]
//! simstorm --scenario NAME --seed S [--trace]
//! ```
//!
//! Sweep mode runs seeds `B..B+N` for each selected scenario class and
//! exits non-zero if any run violates an invariant, printing the
//! `(scenario, seed)` pair that reproduces it.  Single-seed mode reruns
//! one schedule, optionally dumping the full event trace.

use std::process::ExitCode;

use mca_sync::cli::Spec;
use romp_sim::{run_scenario, Scenario, SimStats};

fn main() -> ExitCode {
    let names: Vec<_> = Scenario::all().iter().map(|s| s.name).collect();
    let usage = format!(
        "usage: simstorm [--scenario NAME|all] [--seeds N] [--base B] [--seed S] [--trace]\n\
         scenarios: {}",
        names.join(", ")
    );
    let args = Spec {
        usage: &usage,
        values: "--scenario --seeds --base --seed",
        switches: "--trace",
        positionals: 0,
    }
    .parse();
    let scenarios = match args.value::<String>("--scenario").as_deref() {
        None | Some("all") => Scenario::all(),
        Some(name) => match Scenario::by_name(name) {
            Some(sc) => vec![sc],
            None => args.fail(format!("unknown scenario {name}")),
        },
    };
    let seeds: u64 = args.value("--seeds").unwrap_or(250);
    let base: u64 = args.value("--base").unwrap_or(1);
    let seed: Option<u64> = args.value("--seed");
    let trace = args.switch("--trace");
    let Some(end) = base.checked_add(seeds) else {
        args.fail("--base + --seeds overflows")
    };

    // Single-seed reproduction mode.
    if let Some(seed) = seed {
        let mut failed = false;
        for sc in scenarios {
            let name = sc.name;
            let report = run_scenario(sc, seed, trace);
            if let Some(trace) = &report.trace {
                println!("--- trace {name} seed={seed} ---");
                print!("{trace}");
                println!("--- end trace ---");
            }
            let verdict = if report.ok() { "OK" } else { "FAIL" };
            println!("{name} seed={seed}: {verdict} {:?}", report.stats);
            for v in &report.violations {
                println!("  violation: {v}");
                failed = true;
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    // Sweep mode.
    let mut any_failed = false;
    for sc in scenarios {
        let name = sc.name;
        let mut failures = 0u64;
        let mut t = SimStats::default();
        for seed in base..end {
            let report = run_scenario(sc.clone(), seed, false);
            t.accumulate(&report.stats);
            if !report.ok() {
                any_failed = true;
                failures += 1;
                if failures <= 5 {
                    println!("FAIL scenario={name} seed={seed}");
                    for v in &report.violations {
                        println!("  violation: {v}");
                    }
                    println!("  reproduce: simstorm --scenario {name} --seed {seed} --trace");
                }
            }
        }
        println!(
            "{name}: {}/{} seeds ok (accepted={} resolved={} completed={} timed_out={} \
             rejected={} sheds={} idem_hits={} escalations={} retries={} events={})",
            seeds - failures,
            seeds,
            t.accepted,
            t.resolved,
            t.completed,
            t.timed_out,
            t.rejected,
            t.sheds,
            t.idem_hits,
            t.escalations,
            t.retries,
            t.events,
        );
    }
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
