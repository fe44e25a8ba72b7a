#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload asyncn_n32 --seed 1 --seconds 30

Run from the root of a checkout. Configures and builds the stigmergy library,
stigd and the perfbench binary from source into .bench_build/ (RelWithDebInfo,
the repository's default build type), then runs one workload. The last line
of standard output is the result JSON; build logs and the per-metric table go
to standard error. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("sliced_n192", "asyncn_n32", "serve_mix")


def build():
    """Configures once and builds incrementally; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no stigmergy sources (src/CMakeLists.txt) in "
              + ROOT, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench", "stigd"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--stigd", os.path.join(BUILD, "stigd")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
