#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload constructs|kernels|serve|cluster \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package and the `romp-serve`/`romp-worker` binaries
(release, offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), then
runs `perfbench` with the given arguments.  Build output goes to stderr;
the last line of stdout is the run's JSON result.  A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        [
            "cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml",
            "-p", "romp-cluster", "--bin", "romp-serve", "--bin", "romp-worker",
        ],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    bindir = os.path.join(target, "release")
    exe = os.path.join(bindir, "perfbench")
    # A relative output directory keeps the cluster's Unix socket paths
    # (created under it) well inside the 108-byte limit.
    out_dir = os.path.join(target, "perfbench")
    if not os.path.relpath(out_dir).startswith(".."):
        out_dir = os.path.relpath(out_dir)
    argv = [
        exe,
        *sys.argv[1:],
        "--serve-bin", os.path.join(bindir, "romp-serve"),
        "--out-dir", out_dir,
    ]
    sys.stdout.flush()
    os.execv(exe, argv)
    return 1  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
