#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 rtlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark program with dune,
generates the workload's inputs from the seed into a temporary directory
under rtlbench/out/, then measures; a traced run also leaves its Chrome
trace there.  The last line of standard output is the JSON result; the exit
code is non-zero when the build fails or a correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = os.path.basename(HERE)
WORKLOADS = ("frontend-mesh100k", "sim-pipeline10k", "serve-mixed")
OUT = os.path.join(HERE, "out")
EXE = os.path.join(ROOT, "_build", "default", NAME, "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("rtlbench: no dune-project next to %s; run from a full checkout" % NAME)
    # Build output goes to stderr: the last stdout line is the result.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./%s/main.exe" % NAME],
        stdout=sys.stderr, stderr=sys.stderr, timeout=880,
    )
    if build.returncode != 0:
        sys.exit("rtlbench: build failed")

    os.makedirs(OUT, exist_ok=True)
    inputs = os.path.join(OUT, "inputs-%d" % os.getpid())
    os.makedirs(inputs)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--dir", inputs]
    trace_out = os.path.join(OUT, "trace-%s-%d.json" % (args.workload, args.seed))
    try:
        subprocess.run([EXE, "gen"] + common, check=True, timeout=120)
        run = subprocess.run(
            [EXE, "run", "--trace", str(args.trace), "--trace-out", trace_out] + common,
            timeout=170,
        )
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
