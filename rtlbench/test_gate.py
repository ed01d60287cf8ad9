#!/usr/bin/env python3
"""The benchmark's own test: its correctness gate must be able to fail.

    python3 rtlbench/test_gate.py

1. With ASIM_OPT_SKEW=1 (the optimizer's planted evaluation-order
   miscompile) the benchmark must report "correct": false and exit non-zero
   on both generated shapes.
2. Run in a directory that holds only BENCHMARK.json and the benchmark's
   files, it must exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = os.path.basename(HERE)


def bench(cwd, workload, env=None):
    return subprocess.run(
        ["python3", os.path.join(NAME, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def main():
    failures = []
    skew = dict(os.environ, ASIM_OPT_SKEW="1")
    for workload in ("frontend-mesh100k", "sim-pipeline10k"):
        p = bench(ROOT, workload, skew)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if p.returncode == 0 or result.get("correct") is not False:
            failures.append("%s: skewed optimizer passed the gate (exit %d)"
                            % (workload, p.returncode))
        else:
            print("ok  %s fails under ASIM_OPT_SKEW=1 (%s)" % (
                workload, next(l for l in lines if "CHECK FAILED" in l)))

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, NAME),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        p = bench(bare, "sim-pipeline10k")
        if p.returncode == 0 or p.stdout.strip():
            failures.append("bare directory: exit %d, stdout %r"
                            % (p.returncode, p.stdout[-200:]))
        else:
            print("ok  a directory without the program's sources exits %d"
                  % p.returncode)

    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
