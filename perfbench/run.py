#!/usr/bin/env python3
"""Build rdms from source and run one workload of its end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload booking-search --seed 1 --seconds 10 --trace 0

Workloads: booking-search, inventory-edits, serve-audit (see perfbench/README.md);
`--workload all` runs the three in turn.
Builds the `rdms-serve` release binary and the benchmark package into
$CARGO_TARGET_DIR (default: .bench_build in the checkout), then runs the benchmark.
Its standard output ends with one JSON line: correct, attempted, failed, metrics.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("booking-search", "inventory-edits", "serve-audit")
# the run must end within 180 s; leave room for start-up and clean-up
RUN_DEADLINE_S = 170


def build(env):
    """Build the server binary (root workspace) and the benchmark package."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "rdms-serve", "--bin", "rdms-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if result.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(result["metrics"], dict)
    )


def run(workload, args, target):
    """Run one workload; print its output and return its exit code."""
    started = time.monotonic()
    cmd = [
        str(target / "release" / "rdms-perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--server-bin", str(target / "release" / "rdms-serve"),
        "--run-dir", str(ROOT / ".bench_run"),
        "--answers", str(ROOT / "perfbench" / "expected.json"),
    ]
    # own process group, so a timeout also stops the server processes the run started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, RUN_DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {workload} did not finish in time")
    lines = out.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stderr.write(out)
        sys.exit(f"perfbench: {workload} printed no result (exit code {proc.returncode})")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build(dict(os.environ, CARGO_TARGET_DIR=str(target)))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run(workload, args, target) for workload in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
