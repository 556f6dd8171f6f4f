//! # romp-epcc — the EPCC OpenMP microbenchmark suite
//!
//! A port of J. Bull's EPCC synchronisation benchmark methodology (the
//! paper's ref.\[48\], used for its Table I): measure the *overhead* of each
//! OpenMP construct as the difference between
//!
//! * the time to execute a calibrated busy-work `delay` inside the
//!   construct, and
//! * the reference time to execute the same delay serially,
//!
//! both normalised per inner repetition, repeated over several outer
//! repetitions to get a mean and standard deviation.
//!
//! The constructs covered are exactly Table I's rows — `parallel`, `for`,
//! `parallel for`, `barrier`, `single`, `critical`, `reduction` — plus
//! `lock` (EPCC measures it; the paper's table omits it) as an extension.
//!
//! ```
//! use romp::{Runtime, BackendKind};
//! use romp_epcc::{Construct, EpccConfig, measure};
//!
//! let rt = Runtime::with_backend(BackendKind::Native).unwrap();
//! let cfg = EpccConfig::quick(2);
//! let m = measure(&rt, Construct::Barrier, &cfg);
//! assert!(m.test_us > 0.0);
//! ```

pub mod schedbench;
pub mod stats;

use std::hint::black_box;
use std::time::Instant;

use romp::{ReduceOp, Runtime, Schedule};

/// The constructs Table I reports (plus the EPCC `lock` row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Construct {
    /// `#pragma omp parallel`.
    Parallel,
    /// `#pragma omp for` inside an open region.
    For,
    /// Combined `#pragma omp parallel for`.
    ParallelFor,
    /// `#pragma omp barrier` inside an open region.
    Barrier,
    /// `#pragma omp single` inside an open region.
    Single,
    /// `#pragma omp critical` inside an open region.
    Critical,
    /// `#pragma omp parallel reduction(+:x)`.
    Reduction,
    /// `omp_set_lock`/`omp_unset_lock` (EPCC extension row).
    Lock,
}

impl Construct {
    /// Table I's seven rows, in the paper's order.
    pub fn table1() -> [Construct; 7] {
        [
            Construct::Parallel,
            Construct::For,
            Construct::ParallelFor,
            Construct::Barrier,
            Construct::Single,
            Construct::Critical,
            Construct::Reduction,
        ]
    }

    /// Paper row label.
    pub fn label(self) -> &'static str {
        match self {
            Construct::Parallel => "Parallel",
            Construct::For => "For",
            Construct::ParallelFor => "Parallel for",
            Construct::Barrier => "Barrier",
            Construct::Single => "Single",
            Construct::Critical => "Critical",
            Construct::Reduction => "Reduction",
            Construct::Lock => "Lock",
        }
    }
}

/// Measurement parameters (EPCC's `outerreps`/`innerreps`/`delaylength`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpccConfig {
    /// Team size under test.
    pub threads: usize,
    /// Outer repetitions: each yields one overhead sample.
    pub outer_reps: usize,
    /// Inner repetitions: constructs timed per sample.
    pub inner_reps: usize,
    /// Busy-work units inside each construct (see [`delay`]).
    pub delay_len: u64,
}

impl EpccConfig {
    /// EPCC-like defaults: 20 outer reps, calibrated ~0.1 µs delay.
    pub fn standard(threads: usize) -> Self {
        EpccConfig {
            threads,
            outer_reps: 20,
            inner_reps: 256,
            delay_len: calibrate_delay(100),
        }
    }

    /// Small configuration for tests and smoke runs.
    pub fn quick(threads: usize) -> Self {
        EpccConfig {
            threads,
            outer_reps: 3,
            inner_reps: 16,
            delay_len: 32,
        }
    }
}

/// One construct's measurement at one team size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    pub construct: Construct,
    pub threads: usize,
    /// Mean time per inner repetition of the construct, microseconds.
    pub test_us: f64,
    /// Mean serial reference time per inner repetition, microseconds.
    pub reference_us: f64,
    /// Mean overhead (`test - reference`), microseconds.
    pub overhead_us: f64,
    /// Standard deviation of the overhead samples, microseconds.
    pub sd_us: f64,
}

/// The EPCC busy-work delay: `len` dependent floating-point updates the
/// optimizer cannot remove.
#[inline]
pub fn delay(len: u64) {
    let mut a = 0.55f64;
    for _ in 0..len {
        a = black_box(a * a + 0.001);
        if a > 10.0 {
            a -= 9.0;
        }
    }
    black_box(a);
}

/// Pick a `delay_len` whose serial execution takes roughly `target_ns`.
pub fn calibrate_delay(target_ns: u64) -> u64 {
    // Time a large batch to dodge timer granularity.
    let probe = 1u64 << 16;
    let t0 = Instant::now();
    delay(probe);
    let per_unit_ns = t0.elapsed().as_nanos() as f64 / probe as f64;
    ((target_ns as f64 / per_unit_ns).round() as u64).max(1)
}

/// Serial reference: mean microseconds for one `delay(delay_len)` call,
/// measured the same way the construct tests are.
pub fn reference_time_us(cfg: &EpccConfig) -> f64 {
    let mut samples = Vec::with_capacity(cfg.outer_reps);
    for _ in 0..cfg.outer_reps {
        let t0 = Instant::now();
        for _ in 0..cfg.inner_reps {
            delay(cfg.delay_len);
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / cfg.inner_reps as f64);
    }
    stats::mean(&samples)
}

fn time_block(cfg: &EpccConfig, mut block: impl FnMut()) -> Vec<f64> {
    // One warm-up rep primes the thread pool and code caches, as EPCC does.
    block();
    let mut samples = Vec::with_capacity(cfg.outer_reps);
    for _ in 0..cfg.outer_reps {
        let t0 = Instant::now();
        block();
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / cfg.inner_reps as f64);
    }
    samples
}

/// Measure one construct's overhead on `rt` (EPCC `syncbench` logic).
pub fn measure(rt: &Runtime, construct: Construct, cfg: &EpccConfig) -> Measurement {
    let n = cfg.threads;
    let inner = cfg.inner_reps as u64;
    let len = cfg.delay_len;
    let samples = match construct {
        Construct::Parallel => time_block(cfg, || {
            for _ in 0..inner {
                rt.parallel(n, |_| delay(len));
            }
        }),
        Construct::For => time_block(cfg, || {
            rt.parallel(n, |w| {
                for _ in 0..inner {
                    w.for_range(0..n as u64, Schedule::Static { chunk: None }, |_| {
                        delay(len)
                    });
                }
            });
        }),
        Construct::ParallelFor => time_block(cfg, || {
            for _ in 0..inner {
                rt.parallel_for(n, 0..n as u64, Schedule::Static { chunk: None }, |_| {
                    delay(len)
                });
            }
        }),
        Construct::Barrier => time_block(cfg, || {
            rt.parallel(n, |w| {
                for _ in 0..inner {
                    delay(len);
                    w.barrier();
                }
            });
        }),
        Construct::Single => time_block(cfg, || {
            rt.parallel(n, |w| {
                for _ in 0..inner {
                    w.single(|| delay(len));
                }
            });
        }),
        Construct::Critical => time_block(cfg, || {
            rt.parallel(n, |w| {
                // innerreps criticals in total, split across the team.
                let mine = inner / n as u64 + u64::from((w.thread_num() as u64) < inner % n as u64);
                for _ in 0..mine {
                    w.critical("epcc", || delay(len));
                }
            });
        }),
        Construct::Lock => {
            let lock = rt.new_lock();
            time_block(cfg, || {
                rt.parallel(n, |w| {
                    let mine =
                        inner / n as u64 + u64::from((w.thread_num() as u64) < inner % n as u64);
                    for _ in 0..mine {
                        lock.with(|| delay(len));
                    }
                });
            })
        }
        Construct::Reduction => time_block(cfg, || {
            for _ in 0..inner {
                rt.parallel(n, |w| {
                    delay(len);
                    black_box(w.reduce_u64(1, ReduceOp::Sum));
                });
            }
        }),
    };
    let reference_us = reference_time_us(cfg);
    let overheads: Vec<f64> = samples.iter().map(|s| s - reference_us).collect();
    Measurement {
        construct,
        threads: n,
        test_us: stats::mean(&samples),
        reference_us,
        overhead_us: stats::mean(&overheads),
        sd_us: stats::std_dev(&overheads),
    }
}

/// Measure every Table I construct at one team size.
pub fn measure_table1(rt: &Runtime, cfg: &EpccConfig) -> Vec<Measurement> {
    Construct::table1()
        .iter()
        .map(|&c| measure(rt, c, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use romp::BackendKind;

    #[test]
    fn delay_scales_roughly_linearly() {
        let t = |len| {
            let t0 = Instant::now();
            delay(len);
            t0.elapsed().as_nanos() as f64
        };
        // Warm up, then compare 1x vs 8x.
        t(1 << 12);
        let one = t(1 << 14);
        let eight = t(1 << 17);
        assert!(
            eight > one * 3.0,
            "8x work should take clearly longer ({one} vs {eight})"
        );
    }

    #[test]
    fn calibration_hits_target_order_of_magnitude() {
        let len = calibrate_delay(1_000);
        let t0 = Instant::now();
        for _ in 0..64 {
            delay(len);
        }
        let per = t0.elapsed().as_nanos() as f64 / 64.0;
        assert!(
            per > 100.0 && per < 100_000.0,
            "calibrated delay ({len}) ran at {per} ns, wanted ~1000"
        );
    }

    #[test]
    fn reference_time_positive_and_stable() {
        let cfg = EpccConfig::quick(1);
        let r = reference_time_us(&cfg);
        assert!(r > 0.0);
    }

    #[test]
    fn all_constructs_measure_without_panic() {
        let rt = Runtime::with_backend(BackendKind::Native).unwrap();
        let cfg = EpccConfig::quick(2);
        for c in Construct::table1().into_iter().chain([Construct::Lock]) {
            let m = measure(&rt, c, &cfg);
            assert_eq!(m.construct, c);
            assert!(m.test_us > 0.0, "{c:?} produced non-positive test time");
            assert!(
                m.test_us >= m.reference_us * 0.1,
                "{c:?} wildly below reference"
            );
        }
    }

    #[test]
    fn table1_runs_on_both_backends() {
        for kind in BackendKind::all() {
            let rt = Runtime::with_backend(kind).unwrap();
            let rows = measure_table1(&rt, &EpccConfig::quick(2));
            assert_eq!(rows.len(), 7);
        }
    }

    #[test]
    fn barrier_overhead_exceeds_nothing_burner() {
        // A barrier in a 4-thread team must cost more than the pure delay.
        let rt = Runtime::with_backend(BackendKind::Native).unwrap();
        let cfg = EpccConfig {
            threads: 4,
            outer_reps: 5,
            inner_reps: 64,
            delay_len: 16,
        };
        let m = measure(&rt, Construct::Barrier, &cfg);
        assert!(
            m.test_us > m.reference_us,
            "barrier block ({}) should exceed serial reference ({})",
            m.test_us,
            m.reference_us
        );
    }

    #[test]
    fn labels_match_paper_rows() {
        let labels: Vec<&str> = Construct::table1().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Parallel",
                "For",
                "Parallel for",
                "Barrier",
                "Single",
                "Critical",
                "Reduction"
            ]
        );
    }
}
