//! Every `ompmca-bench` binary answers a bad command line — a flag
//! missing its value, a value that does not parse, an unknown flag —
//! with its usage line and exit status 2, never a panic, and `--help`
//! with exit status 0.  One child process at a time; no argument vector
//! here starts a measurement.

use std::process::Command;

fn rejects(bin: &str, bad: [&[&str]; 3]) {
    for args in bad {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
    let out = Command::new(bin).arg("--help").output().expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{bin} --help");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));
}

#[test]
fn bad_command_lines_exit_2_and_help_exits_0() {
    rejects(
        env!("CARGO_BIN_EXE_table1"),
        [&["--outer"], &["--threads", "0"], &["--bogus"]],
    );
    rejects(
        env!("CARGO_BIN_EXE_figure4"),
        [&["--class"], &["--kernels", "XX"], &["--bogus"]],
    );
    rejects(
        env!("CARGO_BIN_EXE_boards"),
        [&["--class"], &["--class", "Q"], &["--bogus"]],
    );
    // `model_sweep` takes no flags: any argument is unknown.
    rejects(
        env!("CARGO_BIN_EXE_model_sweep"),
        [&["--class"], &["extra"], &["--bogus"]],
    );
    rejects(
        env!("CARGO_BIN_EXE_loadgen"),
        [&["--addr"], &["--clients", "0"], &["--bogus"]],
    );
}
