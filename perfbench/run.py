#!/usr/bin/env python3
"""Build and run the qres end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper|durable|flash --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/ (CMake, RelWithDebInfo) into
.bench_build/perfbench, then runs qres_perfbench. Build output goes to
stderr; the benchmark's report goes to stdout and ends with one JSON line.
The exit code is the benchmark's: non-zero when any correctness check
failed. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qres_perfbench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: qres sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "qres_perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    journals = os.path.join(BUILD, "journals")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--journal-dir", journals]
    try:
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(journals, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
