#!/usr/bin/env python3
"""Regenerate the serving baselines as medians over repeated runs.

Runs the `loadgen` commands EXPERIMENTS.md gives, `--repeats` times each,
against `romp-serve` built from this checkout, and writes

* BENCH_serve.json    -- `--sweep 1,4,16,64 --requests 1280 --mix mixed`,
                         closed loop and `--pipeline 4`, queue cap 256;
* BENCH_overload.json -- `romp-serve --shed --queue-cap 128`: an unloaded
                         all-Hi phase, then 32 clients at hi=10,batch=90;
* BENCH_cluster.json  -- `--workers-sweep 0,1,2,4 --clients 4
                         --requests 400 --mix mixed`.

Every numeric field of a phase is the median over the repeats; the
phase's `spread` object gives `[min, max]` for each of them.  The counts
that certify correctness are checked too: the script exits non-zero if
any run reports a protocol error, a violation (a response the client
core cannot explain) or a failed verification, a Hi job is
shed or fails under overload, or a server drain drops a job.

    python3 scripts/serve_baselines.py [--repeats 5] [--out-dir .]
"""

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "-p", "romp-cluster", "-p", "ompmca-bench"],
        cwd=ROOT,
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target"))
    return os.path.join(target, "release")


def free_addr():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % s.getsockname()[1]


def loadgen(bins, *args):
    out = subprocess.run(
        [os.path.join(bins, "loadgen"), *args, "--json"],
        check=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    return json.loads(out.stdout)


def with_server(bins, server_args, body):
    """Start romp-serve, run `body(addr)`, drain it, check the drain."""
    addr = free_addr()
    server = subprocess.Popen(
        [os.path.join(bins, "romp-serve"), "--addr", addr, *server_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        for _ in range(100):
            ping = [os.path.join(bins, "loadgen"), "--addr", addr, "--ping"]
            if subprocess.run(ping, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0:
                break
            time.sleep(0.1)
        result = body(addr)
        shutdown = [os.path.join(bins, "loadgen"), "--addr", addr, "--shutdown"]
        subprocess.run(shutdown, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        out, _ = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
    report = json.loads(out.strip().splitlines()[-1])
    if server.returncode != 0 or report["dropped"] != 0:
        sys.exit("romp-serve %s: lossy drain %s" % (" ".join(server_args), report))
    return result


def check(phases, label):
    for p in phases:
        if p["protocol_errors"] or p.get("violations") or p["failed_verification"]:
            sys.exit("%s: %s" % (label, p))


def aggregate(runs):
    """Fold the same phase list from several runs into medians + spread."""
    folded = []
    for phase_runs in zip(*runs):
        first = phase_runs[0]
        phase, spread = {}, {}
        for key, value in first.items():
            if isinstance(value, dict):
                phase[key] = aggregate([[r[key]] for r in phase_runs])[0]
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                values = [r[key] for r in phase_runs]
                if len(set(values)) == 1:
                    phase[key] = value
                else:
                    phase[key] = round(statistics.median(values), 2)
                    spread[key] = [min(values), max(values)]
            else:
                phase[key] = value
        if spread:
            phase["spread"] = spread
        folded.append(phase)
    return folded


def commit():
    rev = ["git", "describe", "--always", "--dirty"]
    return subprocess.run(rev, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout.strip()


def cpu_jiffies():
    """(steal, total) jiffies from /proc/stat; zeros where it is absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return fields[7], sum(fields[:8])


def header(doc, repeats, jiffies):
    (steal0, total0), (steal1, total1) = jiffies, cpu_jiffies()
    doc["repeats"] = repeats
    doc["commit"] = commit()
    doc["statistic"] = "median over repeats; spread = [min, max]"
    # CPU time the hypervisor gave to other guests while this file's runs
    # went on: wall-clock numbers from a contended host read slower.
    doc["host_steal_frac"] = round((steal1 - steal0) / max(1, total1 - total0), 3)
    return doc


def serve(bins, repeats):
    jiffies = cpu_jiffies()

    def run(addr):
        sweep = ["--addr", addr, "--sweep", "1,4,16,64", "--requests", "1280", "--mix", "mixed"]
        closed = loadgen(bins, *sweep)
        piped = loadgen(bins, *sweep, "--pipeline", "4")
        check(closed["phases"] + piped["phases"], "serve")
        return closed, piped

    runs = [with_server(bins, ["--queue-cap", "256"], run) for _ in range(repeats)]
    doc = runs[0][0]
    doc["phases"] = aggregate([r[0]["phases"] for r in runs])
    doc["pipelined_phases_window_4"] = aggregate([r[1]["phases"] for r in runs])
    return header(doc, repeats, jiffies)


def overload(bins, repeats):
    jiffies = cpu_jiffies()

    def run(addr):
        base = ["--addr", addr, "--hi-deadline-ms", "150"]
        unloaded = loadgen(bins, *base, "--clients", "2", "--requests", "400", "--mix", "hi=100,batch=0")
        saturated = loadgen(bins, *base, "--clients", "32", "--requests", "3200", "--mix", "hi=10,batch=90")
        check(unloaded["phases"] + saturated["phases"], "overload")
        hi = saturated["phases"][0]["classes"]["hi"]
        if hi["sheds"] or hi["failed"]:
            sys.exit("overload: Hi jobs shed or failed: %s" % hi)
        return unloaded, saturated

    runs = [with_server(bins, ["--shed", "--queue-cap", "128"], run) for _ in range(repeats)]
    unloaded = aggregate([r[0]["phases"] for r in runs])
    saturated = aggregate([r[1]["phases"] for r in runs])
    ratios = [
        r[1]["phases"][0]["classes"]["hi"]["p99_us"] / r[0]["phases"][0]["classes"]["hi"]["p99_us"] for r in runs
    ]
    doc = {
        "benchmark": "overload_loadgen",
        "host_parallelism": runs[0][0]["host_parallelism"],
        "server": "romp-serve --shed --queue-cap 128",
        "criterion": "hi p99 under Batch saturation within 2x unloaded hi p99; zero hi sheds, zero hi deadline kills",
        "hi_deadline_ms": 150,
        "unloaded": {"mix": "hi=100,batch=0", "phases": unloaded},
        "saturated": {"mix": "hi=10,batch=90", "phases": saturated},
        "hi_p99_ratio_saturated_over_unloaded": round(statistics.median(ratios), 3),
        "hi_p99_ratio_spread": [round(min(ratios), 3), round(max(ratios), 3)],
    }
    return header(doc, repeats, jiffies)


def cluster(bins, repeats):
    jiffies = cpu_jiffies()
    sweep = ["--workers-sweep", "0,1,2,4", "--clients", "4", "--requests", "400", "--mix", "mixed"]
    sweep += ["--server-bin", os.path.join(bins, "romp-serve")]
    runs = [loadgen(bins, *sweep) for _ in range(repeats)]
    for r in runs:
        check(r["phases"], "cluster")
    doc = runs[0]
    doc["phases"] = aggregate([r["phases"] for r in runs])
    return header(doc, repeats, jiffies)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out-dir", default=ROOT)
    args = ap.parse_args()
    bins = build()
    for name, fn in (("serve", serve), ("overload", overload), ("cluster", cluster)):
        doc = fn(bins, args.repeats)
        path = os.path.join(args.out_dir, "BENCH_%s.json" % name)
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print("wrote %s" % path)


if __name__ == "__main__":
    main()
