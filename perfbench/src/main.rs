//! The repository benchmark.
//!
//! ```text
//! perfbench --workload constructs|kernels|serve|cluster --seed N
//!           --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]
//!           [--tiny] [--inject-failure]
//! ```
//!
//! Runs one workload for `--seconds` of measurement after its set-up,
//! checks every result, prints one `name value unit` line per metric and
//! then, as the last line, `{"correct","attempted","failed","metrics"}`.
//! With `--trace 0` the metrics are the end-to-end metrics, with
//! `--trace 1` the per-layer metrics (and spans are written under
//! `--out-dir`); every workload reports the same names.  Exits 1 when any
//! result check failed, 2 on a usage error.  `NOTES.md` beside this crate
//! explains each workload.

mod constructs;
mod kernels;
mod layers;
mod serve;
mod util;
mod watchdog;

use std::path::PathBuf;
use std::time::Duration;

use util::Spans;

/// Team size of every parallel region and every served job.
pub const TEAM: usize = 2;

const WORKLOADS: [&str; 4] = ["constructs", "kernels", "serve", "cluster"];

/// One run's parameters.
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub measure: Duration,
    /// Shrunk set-up and inputs, for the smoke tests.
    pub tiny: bool,
    /// Make one result check fail (exercises the failure path).
    pub inject_failure: bool,
    /// A short pass run inside another workload's traced run, only for
    /// its per-layer metrics: one set-up.
    pub probe: bool,
    pub serve_bin: Option<PathBuf>,
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// How many times set-up is repeated (its median is `setup_s`).
    pub fn setup_reps(&self) -> usize {
        if self.probe {
            1
        } else if self.tiny {
            2
        } else {
            9
        }
    }
}

/// One named metric value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload measured and checked.
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub setup_s: f64,
    pub e2e: Vec<Metric>,
    /// Workload-specific figures that are printed but are not bounded
    /// metrics of the result line (see NOTES.md).
    pub info: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub host: Vec<Metric>,
}

impl Default for Report {
    /// An empty report; `setup_s` starts as NaN so a workload that never
    /// sets it fails the finite-value check instead of reporting 0.
    fn default() -> Report {
        Report {
            attempted: 0,
            failures: Vec::new(),
            setup_s: f64::NAN,
            e2e: Vec::new(),
            info: Vec::new(),
            layers: Vec::new(),
            host: Vec::new(),
        }
    }
}

impl Report {
    /// Record a failed check (counted once per failed operation).
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            eprintln!("perfbench: FAILED: {what}");
        }
        self.failures.push(what);
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The host diagnostics every run records: hypervisor steal share of
    /// all CPU ticks, and measured processes' CPU over wall time.
    pub fn host(&mut self, steal_frac: f64, cpu_over_wall: f64) {
        for (name, value) in [
            ("host.steal_frac", steal_frac),
            ("host.cpu_over_wall", cpu_over_wall),
        ] {
            self.host.push(Metric {
                name: name.to_string(),
                value,
                unit: "ratio",
            });
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--serve-bin PATH] [--out-dir DIR] [--tiny] [--inject-failure]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (RunCfg, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 0,
        measure: Duration::ZERO,
        tiny: false,
        inject_failure: false,
        probe: false,
        serve_bin: None,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut i = 0;
    while i < args.len() {
        let val = || {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => {
                seed = Some(
                    val()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed must be an unsigned integer")),
                )
            }
            "--seconds" => {
                let s = val()
                    .parse::<f64>()
                    .unwrap_or_else(|_| usage("--seconds must be a number"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            "--serve-bin" => cfg.serve_bin = Some(PathBuf::from(val())),
            "--out-dir" => cfg.out_dir = PathBuf::from(val()),
            "--tiny" => {
                cfg.tiny = true;
                i += 1;
                continue;
            }
            "--inject-failure" => {
                cfg.inject_failure = true;
                i += 1;
                continue;
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    cfg.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        usage(&format!("unknown workload {}", cfg.workload));
    }
    cfg.seed = seed.unwrap_or_else(|| usage("--seed is required"));
    cfg.measure =
        Duration::from_secs_f64(seconds.unwrap_or_else(|| usage("--seconds is required")));
    (cfg, trace.unwrap_or_else(|| usage("--trace is required")))
}

fn json_metrics(ms: &[&Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run_workload(cfg: &RunCfg, spans: &Spans) -> Report {
    match cfg.workload.as_str() {
        "constructs" => constructs::run(cfg, spans),
        "kernels" => kernels::run(cfg, spans),
        "serve" => serve::run(cfg, spans, false),
        "cluster" => serve::run(cfg, spans, true),
        _ => unreachable!("workload validated in parse_args"),
    }
}

/// Measurement time of each probe pass in a traced run.
const PROBE: Duration = Duration::from_secs(2);

/// The rest of a traced run, so that every workload reports every
/// per-layer metric: a short traced pass of each other workload, whose
/// per-layer metrics the run's own do not already cover, then the layer
/// microbenchmarks.  Probe passes keep their own spans, so the run's span
/// file and `trace.*` metrics describe the run's own workload (and the
/// microbenchmarks) only.
fn probe_layers(cfg: &RunCfg, spans: &Spans, report: &mut Report) {
    for w in WORKLOADS.iter().filter(|&&w| w != cfg.workload) {
        let pcfg = RunCfg {
            workload: w.to_string(),
            seed: cfg.seed,
            measure: if cfg.tiny { cfg.measure } else { PROBE },
            tiny: cfg.tiny,
            inject_failure: false,
            probe: true,
            serve_bin: cfg.serve_bin.clone(),
            out_dir: cfg.out_dir.clone(),
        };
        let probe = run_workload(&pcfg, &Spans::new(true));
        report.attempted += probe.attempted;
        for f in probe.failures {
            report.fail(format!("{w} probe: {f}"));
        }
        for m in probe.layers {
            if !m.name.starts_with("trace.") && !report.layers.iter().any(|l| l.name == m.name) {
                report.layers.push(m);
            }
        }
    }
    layers::sync_and_mrapi(report, spans);
    layers::serve_path(report, spans);
    layers::cluster_path(report, spans, &cfg.out_dir.join("tmp"));
}

fn main() {
    let (cfg, trace) = parse_args();
    let spans = Spans::new(trace);
    watchdog::start(cfg.measure + Duration::from_secs(150));
    let mut report = run_workload(&cfg, &spans);
    report.e2e.insert(
        0,
        Metric {
            name: "setup_s".into(),
            value: report.setup_s,
            unit: "s",
        },
    );
    if trace {
        probe_layers(&cfg, &spans, &mut report);
        let path = cfg
            .out_dir
            .join(format!("spans-{}-{}.jsonl", cfg.workload, cfg.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => report.fail(format!("writing spans to {}: {e}", path.display())),
        }
        report.layer("trace.spans", spans.len() as f64, "count");
    }
    let failed = report.failures.len() as u64;
    let attempted = report.attempted.max(1);
    let failed_frac = Metric {
        name: "failed_frac".into(),
        value: failed as f64 / attempted as f64,
        unit: "ratio",
    };

    println!(
        "workload {} seed {} measured {:?}",
        cfg.workload, cfg.seed, cfg.measure
    );
    for m in report
        .e2e
        .iter()
        .chain([&failed_frac])
        .chain(&report.info)
        .chain(&report.host)
        .chain(&report.layers)
    {
        println!("{:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let emitted: Vec<&Metric> = if trace {
        report.layers.iter().chain(&report.host).collect()
    } else {
        report.e2e.iter().collect()
    };
    let bad: Vec<&str> = emitted
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    let correct = failed == 0 && bad.is_empty();
    if !bad.is_empty() {
        eprintln!(
            "perfbench: metrics without a finite value: {}",
            bad.join(", ")
        );
    }
    let finite: Vec<&Metric> = emitted
        .into_iter()
        .filter(|m| m.value.is_finite())
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&finite)
    );
    if !correct {
        std::process::exit(1);
    }
}
