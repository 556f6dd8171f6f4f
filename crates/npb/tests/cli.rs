//! `npb` answers a bad command line — a missing argument, one that does
//! not parse, an unknown flag — with its usage line and exit status 2,
//! never a panic, and `--help` with exit status 0.  One child process at
//! a time; no argument vector here runs a kernel.

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_and_help_exits_0() {
    let bin = env!("CARGO_BIN_EXE_npb");
    for args in [&["EP", "S"][..], &["XX", "S", "2"], &["--bogus"]] {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let out = Command::new(bin).arg("--help").output().expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));
}
