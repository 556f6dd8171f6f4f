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

use romp_sim::{run_scenario, Scenario, SimStats};

struct Args {
    scenario: String,
    seeds: u64,
    base: u64,
    seed: Option<u64>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: "all".to_string(),
        seeds: 250,
        base: 1,
        seed: None,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--scenario" => args.scenario = val("--scenario")?,
            "--seeds" => {
                args.seeds = val("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--base" => args.base = val("--base")?.parse().map_err(|e| format!("--base: {e}"))?,
            "--seed" => {
                args.seed = Some(val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--trace" => args.trace = true,
            "--help" | "-h" => {
                println!(
                    "simstorm [--scenario NAME|all] [--seeds N] [--base B] [--seed S] [--trace]\n\
                     scenarios: {}",
                    Scenario::all()
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn scenarios_for(sel: &str) -> Result<Vec<Scenario>, String> {
    if sel == "all" {
        return Ok(Scenario::all());
    }
    Scenario::by_name(sel)
        .map(|s| vec![s])
        .ok_or_else(|| format!("unknown scenario {sel}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simstorm: {e}");
            return ExitCode::from(2);
        }
    };
    let scenarios = match scenarios_for(&args.scenario) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simstorm: {e}");
            return ExitCode::from(2);
        }
    };

    // Single-seed reproduction mode.
    if let Some(seed) = args.seed {
        let mut failed = false;
        for sc in scenarios {
            let name = sc.name;
            let report = run_scenario(sc, seed, args.trace);
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
        for seed in args.base..args.base + args.seeds {
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
            args.seeds - failures,
            args.seeds,
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
