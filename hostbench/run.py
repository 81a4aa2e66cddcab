#!/usr/bin/env python3
"""Build and run gnnmark's host-time benchmark for one workload.

    python3 hostbench/run.py --workload train-dense --seed 2021 \
        --seconds 20 --trace 0

Run from the root of a gnnmark checkout. The first run configures and
builds hostbench/ (which compiles ../src) into .bench_build/; later runs
rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The run uses 4 host
threads (GNNMARK_THREADS=4). See hostbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("train-dense", "train-small", "replay-sweep")
THREADS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: no gnnmark sources at %s/src; run from the "
                 "root of a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "hostbench",
                    "-j", THREADS], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    env = dict(os.environ, GNNMARK_THREADS=THREADS)
    sys.stdout.flush()
    result = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--reference", os.path.join(HERE, "reference_seed2021.txt")],
        env=env)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
