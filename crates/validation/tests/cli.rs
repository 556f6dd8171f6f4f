//! A bad or missing flag value makes `soak` and `chaos` print a usage
//! line and exit 2, never panic.  One child process at a time.

use std::process::Command;

#[test]
fn bad_flag_values_exit_2_without_panicking() {
    for bin in [env!("CARGO_BIN_EXE_soak"), env!("CARGO_BIN_EXE_chaos")] {
        for args in [&["--secs", "abc"][..], &["--secs"], &["--seeds", "x"]] {
            let out = Command::new(bin).args(args).output().expect("spawn");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        }
    }
}
