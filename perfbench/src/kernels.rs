//! `kernels`: NPB CG, MG, IS and FT at class W and EP at class S, team 2,
//! every solve verified, backends and kernels in seeded order.

use std::time::Instant;

use mca_sync::SmallRng;
use romp::{BackendKind, Config, Runtime};
use romp_npb::{Class, NpbKernel};

use crate::util::{geomean, median, peak_rss_mb, self_cpu_ns, shuffle, HostWindow, Spans};
use crate::{Report, RunCfg, TEAM};

/// The solved kernels.  EP runs at class S because one class W solve
/// takes several seconds here, which would leave too few samples.
fn kernels(tiny: bool) -> [(NpbKernel, Class); 5] {
    let w = if tiny { Class::S } else { Class::W };
    [
        (NpbKernel::Cg, w),
        (NpbKernel::Mg, w),
        (NpbKernel::Is, w),
        (NpbKernel::Ft, w),
        (NpbKernel::Ep, Class::S),
    ]
}

fn span_name(k: NpbKernel, backend: usize) -> &'static str {
    const NAMES: [[&str; 2]; 5] = [
        ["npb.ep.native", "npb.ep.mca"],
        ["npb.cg.native", "npb.cg.mca"],
        ["npb.is.native", "npb.is.mca"],
        ["npb.mg.native", "npb.mg.mca"],
        ["npb.ft.native", "npb.ft.mca"],
    ];
    NAMES[k as usize][backend]
}

pub fn run(cfg: &RunCfg, spans: &Spans) -> Report {
    let mut report = Report::default();
    let me = std::process::id();
    let ks = kernels(cfg.tiny);

    // Set-up: both runtimes and one verified warm-up solve per kernel and
    // backend (page-faults in the class-W working sets, spins up pools).
    // A single pass: at several seconds it cannot be repeated in budget.
    let t0 = Instant::now();
    let rts = [BackendKind::Native, BackendKind::Mca].map(|kind| {
        Runtime::with_config(Config::default().with_backend(kind).with_num_threads(TEAM))
            .expect("runtime construction")
    });
    for (k, class) in ks {
        for (b, rt) in rts.iter().enumerate() {
            report.attempted += 1;
            let r = k.run(rt, TEAM, class);
            if !r.verified() {
                report.fail(format!(
                    "warm-up {} on {}: {:?}",
                    k.name(),
                    ["native", "mca"][b],
                    r.verification
                ));
            }
        }
    }
    report.setup_s = t0.elapsed().as_secs_f64();

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // solve seconds [kernel][backend][traced]
    let mut solves: Vec<[[Vec<f64>; 2]; 2]> = ks.iter().map(|_| Default::default()).collect();
    // process CPU µs per untraced solve [kernel], both backends
    let mut cpu_us: Vec<Vec<f64>> = vec![Vec::new(); ks.len()];
    // construct counts of one MCA solve [kernel] = (regions, barriers)
    let mut counts = vec![(0u64, 0u64); ks.len()];
    let mut n = 0u64;
    let mut forced = cfg.inject_failure;
    let window = HostWindow::start(vec![me]);
    let deadline = Instant::now() + cfg.measure;
    'run: loop {
        let mut order: Vec<usize> = (0..ks.len()).collect();
        shuffle(&mut rng, &mut order);
        for ki in order {
            let (k, class) = ks[ki];
            let first = (rng.next_u64() & 1) as usize;
            for b in [first, 1 - first] {
                // Stop at the deadline once every list a metric needs has a
                // sample.
                let complete = solves.iter().all(|s| {
                    s.iter()
                        .all(|per| !per[0].is_empty() && (!spans.enabled() || !per[1].is_empty()))
                });
                if Instant::now() >= deadline && complete {
                    break 'run;
                }
                // The traced run alternates traced and untraced solves.
                let traced = spans.enabled() && n % 2 == 1;
                n += 1;
                let before = rts[b].stats();
                let cpu0 = self_cpu_ns();
                let r = if traced {
                    spans.span(span_name(k, b), 0, n, |_| k.run(&rts[b], TEAM, class))
                } else {
                    k.run(&rts[b], TEAM, class)
                };
                let cpu = self_cpu_ns().saturating_sub(cpu0) as f64 / 1e3;
                let after = rts[b].stats();
                if !traced {
                    cpu_us[ki].push(cpu);
                }
                if b == 1 {
                    counts[ki] = (
                        after.regions - before.regions,
                        after.barriers - before.barriers,
                    );
                }
                report.attempted += 1;
                if !r.verified() || std::mem::take(&mut forced) {
                    report.fail(format!(
                        "{} on {}: {:?}",
                        k.name(),
                        ["native", "mca"][b],
                        r.verification
                    ));
                }
                solves[ki][b][usize::from(traced)].push(r.wall_s);
            }
        }
    }
    let (steal, cpu_s, wall_s) = window.finish();
    report.host(steal, cpu_s / wall_s);

    let mut med = [vec![0.0f64; ks.len()], vec![0.0f64; ks.len()]];
    for (ki, per) in solves.iter_mut().enumerate() {
        for b in 0..2 {
            med[b][ki] = median(&mut per[b][0]);
        }
    }
    let ratios: Vec<f64> = (0..ks.len()).map(|i| med[1][i] / med[0][i]).collect();
    report.info("solve_s", geomean(&med[1]), "s");
    report.e2e("mca_over_native", geomean(&ratios), "ratio");
    // Per kernel, so the metric does not depend on where the deadline
    // cut the last round's kernel mix.
    let cpu_med: Vec<f64> = cpu_us.iter_mut().map(|xs| median(xs)).collect();
    report.e2e("cpu_us_per_op", geomean(&cpu_med), "us");
    report.e2e("peak_rss_mb", peak_rss_mb(me), "MiB");

    if spans.enabled() {
        report.layer("npb.geomean_s.native", geomean(&med[0]), "s");
        report.layer("npb.geomean_s.mca", geomean(&med[1]), "s");
        for (ki, (k, _)) in ks.iter().enumerate() {
            let name = k.name().to_ascii_lowercase();
            report.layer(&format!("npb.{name}_s.native"), med[0][ki], "s");
            report.layer(&format!("npb.{name}_s.mca"), med[1][ki], "s");
            report.layer(&format!("npb.{name}_regions"), counts[ki].0 as f64, "count");
            report.layer(
                &format!("npb.{name}_barriers"),
                counts[ki].1 as f64,
                "count",
            );
        }
        let traced: Vec<f64> = solves
            .iter_mut()
            .map(|per| median(&mut per[1][1]))
            .collect();
        report.layer(
            "trace.overhead_frac",
            geomean(&traced) / geomean(&med[1]) - 1.0,
            "ratio",
        );
    }
    report
}
