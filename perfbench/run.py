#!/usr/bin/env python3
"""Builds the benchmark from source, pins itself to one CPU and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload adhoc_join --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the repository
root) and its output to stderr. The workload then replaces this process, so it
inherits the pin before it generates any input, and the last line of standard
output is its JSON result. Traced runs write their spans to perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adhoc_join", "adhoc_lp", "serve_rw")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # a relative path resolves at the root
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"benchmark build failed with exit code {build.returncode}")

    # One CPU: the executor and the serving pool then run inline, and the
    # host's steal on the other vCPU stays out of the figures.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    binary = os.path.join(target, "release", "r2t-perfbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--out", os.path.join(HERE, "out")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
