#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds the library plus the
benchmark into .bench_build/perfbench (incremental after the first run),
runs the statistics self-test, then the benchmark itself. The last line of
stdout is the benchmark's JSON result; build output goes to stderr. Exits
non-zero, without a result line, when the sources are missing, the build or
the self-test fails, or the benchmark's output checks fail.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_stream", "hires_stream", "fleet_open")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "include/deco"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("library sources not found (%s missing)" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "deco_perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run(cmd):
    """Runs cmd to completion (killing it on timeout); returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    code, out = run([os.path.join(BUILD, "perfbench_selftest")])
    sys.stderr.write(out)
    if code != 0:
        fail("statistics self-test failed")

    code, out = run([os.path.join(BUILD, "deco_perfbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)])
    # Diagnostics (digests, host record, sample counts) precede the result.
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing (exit code %d)" % code)
    if set(json.loads(lines[-1])) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    if code != 0:
        print("perfbench: output check failed (exit code %d)" % code,
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
