//! # ompmca-bench — the experiment harness
//!
//! Support library for the two paper-reproduction binaries:
//!
//! * **`table1`** — EPCC construct overheads, native vs MCA backend, at the
//!   paper's team sizes (4–24), printed as absolute overheads plus the
//!   paper's *relative overhead* table (MCA ÷ native; "the smaller number
//!   indicating fewer overheads");
//! * **`figure4`** — NAS kernels on both backends across team sizes,
//!   execution time and speedup, where the board-scale numbers come from
//!   the measured per-worker CPU profiles fed through the T4240 cost model
//!   (see `mca-platform::vtime`).
//!
//! The benches under `benches/` (driven by the in-tree [`harness`]) cover
//! the ablations DESIGN.md lists (barrier algorithms, lock substitution,
//! shmem modes, node modes, task-scheduler shape, construct-ring
//! contention).

pub mod harness;

use mca_platform::vtime::CostModel;
use mca_sync::cli::FromArg;
use romp::{BackendKind, Config, Runtime};
use romp_epcc::{Construct, EpccConfig, Measurement};
use romp_npb::{Class, NpbKernel};

/// Parse one team size of a `--threads` list (1..=256).
pub fn team_size(s: &str) -> Option<usize> {
    usize::from_arg(s).filter(|n| (1..=256).contains(n))
}

/// The paper's Table I team sizes.
pub fn table1_threads() -> Vec<usize> {
    vec![4, 8, 12, 16, 20, 24]
}

/// The Figure 4 sweep (1..24, the T4240's hardware thread count).
pub fn figure4_threads() -> Vec<usize> {
    vec![1, 2, 4, 8, 12, 16, 20, 24]
}

/// A runtime pair: the baseline and the MCA-backed runtime, as in the
/// paper's libGOMP vs MCA-libGOMP comparison.  Tracing follows the
/// environment (`ROMP_TRACE`/`ROMP_TRACE_OUT`); when a trace file is
/// requested it is suffixed per backend so the pair doesn't clobber it.
pub fn runtime_pair(profiling: bool) -> (Runtime, Runtime) {
    runtime_pair_sharded(profiling, None)
}

/// [`runtime_pair`] with an explicit shard-count override (the bench
/// binaries' `--shards` flag).  `None` defers to the environment
/// (`ROMP_SHARDS`) and the runtime's topology-derived default.
pub fn runtime_pair_sharded(profiling: bool, shards: Option<usize>) -> (Runtime, Runtime) {
    let env = Config::from_env();
    let mk = |kind: BackendKind| {
        let mut cfg = Config::default()
            .with_backend(kind)
            .with_profiling(profiling)
            .with_tracing(env.trace);
        cfg.shards = shards.or(env.shards);
        cfg.trace_out = env.trace_out.as_ref().map(|p| {
            let (stem, ext) = match p.rsplit_once('.') {
                Some((s, e)) => (s, format!(".{e}")),
                None => (p.as_str(), String::new()),
            };
            format!("{stem}-{}{ext}", kind.label())
        });
        Runtime::with_config(cfg)
    };
    let native = mk(BackendKind::Native).expect("native runtime");
    let mca = mk(BackendKind::Mca).expect("mca runtime");
    (native, mca)
}

/// One Table I cell: both backends' overheads and their ratio.
#[derive(Debug, Clone, Copy)]
pub struct Table1Cell {
    pub construct: Construct,
    pub threads: usize,
    pub native: Measurement,
    pub mca: Measurement,
}

impl Table1Cell {
    /// The paper's normalised number: MCA overhead ÷ native overhead.
    /// Overheads can dip below the timer floor on fast constructs; both are
    /// clamped to 10 ns so the ratio stays meaningful.
    pub fn ratio(&self) -> f64 {
        let floor = 0.01; // µs
        self.mca.overhead_us.max(floor) / self.native.overhead_us.max(floor)
    }
}

/// Measure the full Table I grid.
pub fn measure_table1_grid(
    native: &Runtime,
    mca: &Runtime,
    threads: &[usize],
    outer: usize,
    inner: usize,
) -> Vec<Table1Cell> {
    let mut cells = Vec::new();
    for &n in threads {
        let cfg = EpccConfig {
            threads: n,
            outer_reps: outer,
            inner_reps: inner,
            delay_len: romp_epcc::calibrate_delay(100),
        };
        for c in Construct::table1() {
            let nat = romp_epcc::measure(native, c, &cfg);
            let mc = romp_epcc::measure(mca, c, &cfg);
            cells.push(Table1Cell {
                construct: c,
                threads: n,
                native: nat,
                mca: mc,
            });
        }
    }
    cells
}

/// Render the paper-style relative-overhead table.
pub fn render_table1(cells: &[Table1Cell], threads: &[usize]) -> String {
    let mut s = String::new();
    s.push_str("TABLE I: Relative overhead of MCA-libGOMP versus GNU OpenMP runtime\n");
    s.push_str("(romp MCA backend / romp native backend; smaller = fewer overheads)\n\n");
    s.push_str(&format!("{:<14}", "Directive"));
    for t in threads {
        s.push_str(&format!("{t:>8}"));
    }
    s.push('\n');
    for c in Construct::table1() {
        s.push_str(&format!("{:<14}", c.label()));
        for &t in threads {
            let cell = cells.iter().find(|x| x.construct == c && x.threads == t);
            match cell {
                Some(cell) => s.push_str(&format!("{:>8.2}", cell.ratio())),
                None => s.push_str(&format!("{:>8}", "-")),
            }
        }
        s.push('\n');
    }
    s
}

/// Render the Table I grid as a JSON document (hand-rolled — the workspace
/// carries no serde), for committing machine-readable baselines
/// (`BENCH_table1.json`) that later sessions can diff against.
pub fn render_table1_json(
    cells: &[Table1Cell],
    threads: &[usize],
    outer: usize,
    inner: usize,
    shards: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"table1\",\n");
    s.push_str("  \"unit\": \"relative overhead (mca_us / native_us)\",\n");
    s.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    ));
    s.push_str(&format!(
        "  \"threads\": [{}],\n",
        threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!("  \"outer_reps\": {outer},\n"));
    s.push_str(&format!("  \"inner_reps\": {inner},\n"));
    s.push_str(&format!("  \"shards\": {shards},\n"));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"construct\": \"{}\", \"threads\": {}, \"native_us\": {:.4}, \
             \"native_sd_us\": {:.4}, \"mca_us\": {:.4}, \"mca_sd_us\": {:.4}, \
             \"ratio\": {:.4}}}{}\n",
            c.construct.label(),
            c.threads,
            c.native.overhead_us,
            c.native.sd_us,
            c.mca.overhead_us,
            c.mca.sd_us,
            c.ratio(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One Figure 4 data point.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    pub kernel: NpbKernel,
    pub backend: BackendKind,
    pub threads: usize,
    /// Host wall-clock seconds (oversubscribed; reported for transparency).
    pub wall_s: f64,
    /// Modeled T4240 execution seconds from the measured CPU profile.
    pub board_s: f64,
    pub verified: bool,
    pub verification: String,
}

/// Run one kernel at one team size and model its board time.
pub fn figure4_point(
    rt: &Runtime,
    model: &CostModel,
    kernel: NpbKernel,
    class: Class,
    threads: usize,
) -> Fig4Point {
    rt.set_profiling(true);
    rt.reset_profile();
    let result = kernel.run(rt, threads, class);
    let profile = rt.take_profile();
    let board_s = model.elapsed_ns(&profile, kernel.beta()) / 1e9;
    Fig4Point {
        kernel,
        backend: rt.backend_kind(),
        threads,
        wall_s: result.wall_s,
        board_s,
        verified: result.verified(),
        verification: format!("{:?}", result.verification),
    }
}

/// Render one kernel's Figure 4 block (times + speedups, both backends).
pub fn render_figure4_kernel(points: &[Fig4Point], kernel: NpbKernel, threads: &[usize]) -> String {
    let find = |bk: BackendKind, t: usize| {
        points
            .iter()
            .find(|p| p.kernel == kernel && p.backend == bk && p.threads == t)
    };
    let base = |bk: BackendKind| find(bk, threads[0]).map(|p| p.board_s).unwrap_or(f64::NAN);
    let mut s = String::new();
    s.push_str(&format!(
        "{} — modeled T4240 execution time (s) and speedup vs {} thread(s)\n",
        kernel.name(),
        threads[0]
    ));
    s.push_str(&format!(
        "{:>8} {:>14} {:>9} {:>14} {:>9} {:>10}\n",
        "threads", "native(s)", "spdup", "mca(s)", "spdup", "mca/native"
    ));
    for &t in threads {
        let (n, m) = (find(BackendKind::Native, t), find(BackendKind::Mca, t));
        if let (Some(n), Some(m)) = (n, m) {
            s.push_str(&format!(
                "{:>8} {:>14.4} {:>9.2} {:>14.4} {:>9.2} {:>10.3}\n",
                t,
                n.board_s,
                base(BackendKind::Native) / n.board_s,
                m.board_s,
                base(BackendKind::Mca) / m.board_s,
                m.board_s / n.board_s,
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_parsing() {
        assert_eq!(team_size(" 4"), Some(4));
        assert_eq!(team_size("256"), Some(256));
        assert_eq!(team_size(""), None);
        assert_eq!(team_size("0"), None);
        assert_eq!(team_size("257"), None);
        assert_eq!(team_size("a"), None);
        assert_eq!(table1_threads(), vec![4, 8, 12, 16, 20, 24]);
    }

    #[test]
    fn table1_grid_smoke() {
        let (native, mca) = runtime_pair(false);
        let cells = measure_table1_grid(&native, &mca, &[2], 2, 8);
        assert_eq!(cells.len(), 7);
        let rendered = render_table1(&cells, &[2]);
        assert!(rendered.contains("Parallel"));
        assert!(rendered.contains("Reduction"));
        for c in &cells {
            assert!(c.ratio().is_finite() && c.ratio() > 0.0);
        }
        let json = render_table1_json(&cells, &[2], 2, 8, 1);
        assert!(json.contains("\"construct\": \"Parallel\""));
        assert!(json.contains("\"ratio\":"));
        assert_eq!(json.matches("{\"construct\"").count(), 7);
    }

    #[test]
    fn figure4_point_produces_model_time() {
        let (native, _) = runtime_pair(true);
        let model = CostModel::t4240rdb();
        let p = figure4_point(&native, &model, NpbKernel::Ep, Class::S, 2);
        assert!(p.verified, "{}", p.verification);
        assert!(p.board_s > 0.0);
        assert!(p.wall_s > 0.0);
    }

    #[test]
    fn figure4_rendering() {
        let pts = vec![
            Fig4Point {
                kernel: NpbKernel::Ep,
                backend: BackendKind::Native,
                threads: 1,
                wall_s: 1.0,
                board_s: 4.0,
                verified: true,
                verification: String::new(),
            },
            Fig4Point {
                kernel: NpbKernel::Ep,
                backend: BackendKind::Mca,
                threads: 1,
                wall_s: 1.0,
                board_s: 4.1,
                verified: true,
                verification: String::new(),
            },
        ];
        let s = render_figure4_kernel(&pts, NpbKernel::Ep, &[1]);
        assert!(s.contains("EP"));
        assert!(
            s.contains("1.02") || s.contains("1.03"),
            "ratio column rendered: {s}"
        );
    }
}
