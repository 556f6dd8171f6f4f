//! `constructs`: EPCC syncbench-style loops for nine constructs at team 2,
//! a native and an MCA runtime in one process, backends interleaved
//! sample by sample.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mca_sync::SmallRng;
use romp::stats::StatsSnapshot;
use romp::{BackendKind, Config, OmpLock, ReduceOp, Runtime, Schedule};

use crate::util::{geomean, median, self_cpu_ns, shuffle, HostWindow, Spans};
use crate::{Report, RunCfg, TEAM};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum C {
    Parallel,
    For,
    ParallelFor,
    Barrier,
    Single,
    Critical,
    Lock,
    Reduction,
    Task,
}

const ALL: [C; 9] = [
    C::Parallel,
    C::For,
    C::ParallelFor,
    C::Barrier,
    C::Single,
    C::Critical,
    C::Lock,
    C::Reduction,
    C::Task,
];

impl C {
    fn name(self) -> &'static str {
        match self {
            C::Parallel => "parallel",
            C::For => "for",
            C::ParallelFor => "parallel_for",
            C::Barrier => "barrier",
            C::Single => "single",
            C::Critical => "critical",
            C::Lock => "lock",
            C::Reduction => "reduction",
            C::Task => "task",
        }
    }

    /// Executions per sample, sized so one sample takes roughly 0.3 ms:
    /// long enough to dwarf timer cost, short enough that a hypervisor
    /// stall spoils few samples.
    fn inner(self) -> u64 {
        match self {
            C::Parallel | C::ParallelFor | C::Reduction => 16,
            C::For | C::Task => 256,
            C::Barrier | C::Single | C::Critical | C::Lock => 512,
        }
    }

    /// Span name for one sample of this construct on `backend` (0 =
    /// native, 1 = MCA).
    fn span_name(self, backend: usize) -> &'static str {
        const NAMES: [[&str; 2]; 9] = [
            ["romp.parallel.native", "romp.parallel.mca"],
            ["romp.for.native", "romp.for.mca"],
            ["romp.parallel_for.native", "romp.parallel_for.mca"],
            ["romp.barrier.native", "romp.barrier.mca"],
            ["romp.single.native", "romp.single.mca"],
            ["romp.critical.native", "romp.critical.mca"],
            ["romp.lock.native", "romp.lock.mca"],
            ["romp.reduction.native", "romp.reduction.mca"],
            ["romp.task.native", "romp.task.mca"],
        ];
        NAMES[self as usize][backend]
    }
}

/// Rounds after which `peak_rss_mb` is read (about 6 s of a run): resident
/// memory grows with the work done, so it is read after a fixed amount of
/// work, not after however much the host let a run do.
const RSS_ROUNDS: u64 = 1000;

/// Length of one window of `cpu_us_per_op`: the process CPU per
/// execution is taken per window, and the median over windows reported,
/// so a burst of hypervisor steal (which leaves one member spinning for
/// its descheduled partner) spoils a few windows, not the figure.
const CPU_WINDOW: Duration = Duration::from_millis(250);

/// Set-ups per run (each about 7 ms; the median is `setup_s`): one before
/// the timed phase, the rest one every `SETUP_EVERY` rounds during it, so
/// the median reflects the host over the run, not at process start.
const SETUP_REPS: usize = 25;
const SETUP_EVERY: u64 = 100;

/// One backend's runtime plus the lock the `lock` construct uses.
struct Side {
    rt: Runtime,
    lock: OmpLock,
}

fn side(kind: BackendKind) -> Side {
    let rt = Runtime::with_config(Config::default().with_backend(kind).with_num_threads(TEAM))
        .expect("runtime construction");
    let lock = rt.new_lock();
    Side { rt, lock }
}

/// Run `inner` executions of `c` on `s`; returns (µs per execution,
/// whether the construct's own result check passed).  `skew` is added to
/// the expected reduction total (non-zero only to force a failure).
fn sample(s: &Side, c: C, inner: u64, skew: u64) -> (f64, bool) {
    let rt = &s.rt;
    let hits = AtomicU64::new(0);
    let bad = AtomicU64::new(0);
    let t0 = Instant::now();
    let expected = match c {
        C::Parallel => {
            for _ in 0..inner {
                rt.parallel(TEAM, |_| {
                    hits.fetch_add(1, Relaxed);
                });
            }
            inner * TEAM as u64
        }
        C::For => {
            rt.parallel(TEAM, |w| {
                let mut local = 0u64;
                for _ in 0..inner {
                    w.for_range(0..TEAM as u64, Schedule::Static { chunk: None }, |_| {
                        local += 1
                    });
                }
                hits.fetch_add(local, Relaxed);
            });
            inner * TEAM as u64
        }
        C::ParallelFor => {
            for _ in 0..inner {
                rt.parallel_for(
                    TEAM,
                    0..TEAM as u64,
                    Schedule::Static { chunk: None },
                    |_| {
                        hits.fetch_add(1, Relaxed);
                    },
                );
            }
            inner * TEAM as u64
        }
        C::Barrier => {
            // Every member must see all arrivals of episode i after
            // barrier i.
            rt.parallel(TEAM, |w| {
                for i in 0..inner {
                    hits.fetch_add(1, Relaxed);
                    w.barrier();
                    if hits.load(Relaxed) < (i + 1) * TEAM as u64 {
                        bad.fetch_add(1, Relaxed);
                    }
                }
            });
            inner * TEAM as u64
        }
        C::Single => {
            rt.parallel(TEAM, |w| {
                for _ in 0..inner {
                    w.single(|| hits.fetch_add(1, Relaxed));
                }
            });
            inner
        }
        C::Critical | C::Lock => {
            // A non-atomic read-modify-write: lost updates show a broken
            // mutual exclusion.
            let bump = || {
                let v = hits.load(Relaxed);
                hits.store(v + 1, Relaxed);
            };
            rt.parallel(TEAM, |w| {
                let n = TEAM as u64;
                let mine = inner / n + u64::from((w.thread_num() as u64) < inner % n);
                for _ in 0..mine {
                    if c == C::Critical {
                        w.critical("perfbench", bump);
                    } else {
                        s.lock.with(bump);
                    }
                }
            });
            inner
        }
        C::Reduction => {
            for _ in 0..inner {
                rt.parallel(TEAM, |w| {
                    let total = w.reduce_u64(w.thread_num() as u64 + 1, ReduceOp::Sum);
                    if w.is_master() {
                        hits.fetch_add(total, Relaxed);
                    }
                });
            }
            inner * (TEAM * (TEAM + 1) / 2) as u64 + skew
        }
        C::Task => {
            let done = Arc::new(AtomicU64::new(0));
            rt.parallel(TEAM, |w| {
                w.single(|| {
                    for _ in 0..inner {
                        let d = Arc::clone(&done);
                        w.task(move || {
                            d.fetch_add(1, Relaxed);
                        });
                    }
                });
            });
            hits.store(done.load(Relaxed), Relaxed);
            inner
        }
    };
    let us = t0.elapsed().as_secs_f64() * 1e6 / inner as f64;
    let ok = hits.load(Relaxed) == expected && bad.load(Relaxed) == 0;
    (us, ok)
}

pub fn run(cfg: &RunCfg, spans: &Spans) -> Report {
    let mut report = Report::default();
    let me = std::process::id();

    // Set-up: both runtimes plus one warm-up sample per construct and
    // backend.  The last one made before the timed phase is measured.
    let mut setups = Vec::new();
    let mut sides = None;
    let (before, reps) = if cfg.tiny || cfg.probe {
        (cfg.setup_reps(), cfg.setup_reps())
    } else {
        (1, SETUP_REPS)
    };
    for _ in 0..before {
        drop(sides.take());
        sides = Some(set_up(&mut setups));
    }
    let sides = sides.expect("at least one set-up");

    let stats0 = stats(&sides);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // samples[construct][backend][traced]
    let mut samples: Vec<[[Vec<f64>; 2]; 2]> = (0..ALL.len()).map(|_| Default::default()).collect();
    let mut execs = 0u64;
    let mut round = 0u64;
    let mut skew = u64::from(cfg.inject_failure);
    let mut rss = f64::NAN;
    let mut cpu_per_exec = Vec::new();
    let mut win = (Instant::now(), self_cpu_ns(), 0u64);
    let window = HostWindow::start(vec![me]);
    let deadline = Instant::now() + cfg.measure;
    while Instant::now() < deadline {
        round += 1;
        if round.is_multiple_of(SETUP_EVERY) && setups.len() < reps {
            drop(set_up(&mut setups));
        }
        if win.0.elapsed() >= CPU_WINDOW {
            let cpu = self_cpu_ns();
            cpu_per_exec.push(cpu.saturating_sub(win.1) as f64 / 1e3 / (execs - win.2) as f64);
            win = (Instant::now(), cpu, execs);
        }
        if round == RSS_ROUNDS + 1 {
            rss = crate::util::peak_rss_mb(me);
        }
        // The traced run alternates traced and untraced rounds so the
        // span cost is measured inside one run.
        let traced = spans.enabled() && round.is_multiple_of(2);
        let mut order = ALL;
        shuffle(&mut rng, &mut order);
        for c in order {
            let first = (rng.next_u64() & 1) as usize;
            for b in [first, 1 - first] {
                let inner = c.inner();
                let (us, ok) = if traced {
                    spans.span(c.span_name(b), 0, round, |_| sample(&sides[b], c, inner, 0))
                } else {
                    let s = sample(
                        &sides[b],
                        c,
                        inner,
                        if c == C::Reduction { skew } else { 0 },
                    );
                    if c == C::Reduction {
                        skew = 0;
                    }
                    s
                };
                report.attempted += 1;
                execs += inner;
                if !ok {
                    report.fail(format!(
                        "{} on {} failed its result check",
                        c.name(),
                        ["native", "mca"][b]
                    ));
                }
                samples[c as usize][b][usize::from(traced)].push(us);
            }
        }
    }
    let (steal, cpu_s, wall_s) = window.finish();
    report.host(steal, cpu_s / wall_s);
    report.setup_s = median(&mut setups);

    let mut med = [[0.0f64; 9]; 2];
    for (ci, per) in samples.iter_mut().enumerate() {
        for b in 0..2 {
            med[b][ci] = median(&mut per[b][0]);
        }
    }
    let ratios: Vec<f64> = (0..ALL.len()).map(|i| med[1][i] / med[0][i]).collect();
    report.info("construct_us", geomean(&med[1]), "us");
    report.e2e("mca_over_native", geomean(&ratios), "ratio");
    if cpu_per_exec.is_empty() {
        // A run shorter than one window (the smoke tests').
        cpu_per_exec.push(cpu_s * 1e6 / execs as f64);
    }
    report.e2e("cpu_us_per_op", median(&mut cpu_per_exec), "us");
    if rss.is_nan() {
        // A run too short to reach `RSS_ROUNDS` (the smoke tests').
        rss = crate::util::peak_rss_mb(me);
    }
    report.e2e("peak_rss_mb", rss, "MiB");

    if spans.enabled() {
        report.layer("romp.geomean_us.native", geomean(&med[0]), "us");
        report.layer("romp.geomean_us.mca", geomean(&med[1]), "us");
        for (ci, c) in ALL.iter().enumerate() {
            report.layer(&format!("romp.{}_us.native", c.name()), med[0][ci], "us");
            report.layer(&format!("romp.{}_us.mca", c.name()), med[1][ci], "us");
        }
        let traced: Vec<f64> = samples
            .iter_mut()
            .map(|per| median(&mut per[1][1]))
            .collect();
        report.layer(
            "trace.overhead_frac",
            geomean(&traced) / geomean(&med[1]) - 1.0,
            "ratio",
        );
        let stats1 = stats(&sides);
        let tasks: u64 = (0..2).map(|b| stats1[b].tasks - stats0[b].tasks).sum();
        let steals: u64 = (0..2)
            .map(|b| {
                (stats1[b].steals_local + stats1[b].steals_remote)
                    - (stats0[b].steals_local + stats0[b].steals_remote)
            })
            .sum();
        report.layer(
            "romp.steals_per_task",
            steals as f64 / tasks.max(1) as f64,
            "ratio",
        );
    }
    report
}

/// One set-up: both runtimes and one warm-up sample per construct and
/// backend; its time is pushed to `setups`.
fn set_up(setups: &mut Vec<f64>) -> [Side; 2] {
    let t0 = Instant::now();
    let pair = [side(BackendKind::Native), side(BackendKind::Mca)];
    for c in ALL {
        for s in &pair {
            sample(s, c, c.inner(), 0);
        }
    }
    setups.push(t0.elapsed().as_secs_f64());
    pair
}

fn stats(sides: &[Side; 2]) -> [StatsSnapshot; 2] {
    [sides[0].rt.stats(), sides[1].rt.stats()]
}
