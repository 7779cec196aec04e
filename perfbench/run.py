#!/usr/bin/env python3
"""Runs one workload of the SAQL benchmark.

    python3 perfbench/run.py --workload <demo8|monitors20|replay> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the program and the benchmark first if
needed (see build.py), then runs the workload in one JVM on Spark
local[<=4]. The report lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

import build

WORKLOADS = ("demo8", "monitors20", "replay")
RUN_TIMEOUT_S = 170


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def main():
    ap = argparse.ArgumentParser(description="Runs one workload of the SAQL benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        sha = build.ensure()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = build.java_cmd(
        [f"-Dsaqlbench.commit={commit_id()}", f"-Dsaqlbench.source={sha[:16]}"],
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace])
    proc = subprocess.Popen(cmd, cwd=build.ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        print(f"run exceeded {RUN_TIMEOUT_S} s; stopped", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
