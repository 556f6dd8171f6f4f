//! Standalone NAS kernel runner, in the spirit of the NPB report format.
//!
//! ```text
//! cargo run -p romp-npb --release --bin npb -- <EP|CG|IS|MG|FT> <S|W|A> <threads> [native|mca]
//! ```

use mca_sync::cli::{FromArg, Spec};
use romp::{BackendKind, Config, Runtime};
use romp_npb::{Class, NpbKernel};

const CLI: Spec = Spec {
    usage: "usage: npb <EP|CG|IS|MG|FT> <S|W|A> <threads> [native|mca]",
    values: "",
    switches: "",
    positionals: 4,
};

fn main() {
    let args = CLI.parse();
    let kernel = args.positional_with(0, NpbKernel::parse);
    let class = args.positional_with(1, Class::parse);
    let threads = args.positional_with(2, usize::from_arg);
    let backend = args.positional_with(3, BackendKind::parse);
    let (Some(kernel), Some(class), Some(threads)) = (kernel, class, threads) else {
        args.fail("kernel, class and thread count are required")
    };
    let backend = backend.unwrap_or(BackendKind::Mca);

    let rt = Runtime::with_config(Config::default().with_backend(backend)).unwrap();
    println!(
        " NAS Parallel Benchmarks (romp reproduction) — {} Benchmark",
        kernel.name()
    );
    println!(
        " Class: {}   Threads: {}   Backend: {}",
        class.label(),
        threads,
        backend.label()
    );
    let res = kernel.run(&rt, threads, class);
    println!(" Time in seconds    = {:>12.4}", res.wall_s);
    println!(" Mop/s total        = {:>12.2}", res.mops);
    println!(
        " Verification       = {}",
        if res.verified() {
            "SUCCESSFUL"
        } else {
            "FAILED"
        }
    );
    println!(" Detail             = {:?}", res.verification);
    if !res.verified() {
        std::process::exit(1);
    }
}
