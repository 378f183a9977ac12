#!/usr/bin/env python3
"""Builds and runs the mdmatch end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--quick]

Run from the repository root. The library and the benchmark are built from
source into build-perfbench/ (Release) on first use; the build log goes to
stderr, so the last line on stdout is the benchmark's JSON result. Traced
runs write their spans to build-perfbench/traces/. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, "build-perfbench")
BINARY = os.path.join(BUILD, "mdbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--quick", action="store_true",
                        help="toy-size inputs, every check on")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", traces]
    if args.quick:
        cmd.append("--quick")
    # A SIGTERM to this script ends the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
