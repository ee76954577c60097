#!/usr/bin/env python3
"""Build the dtpm program and the perfbench executable from source, run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet-smoke --seed 1 --seconds 30 --trace 0

Workloads: fleet-smoke, sweep-paper (both in BENCHMARK.json) and
serve-mixed (run by hand; too unsteady to gate on). --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones (and writes a Chrome trace
under .bench_out/). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Build output goes to standard
error. The build directory is $CARGO_TARGET_DIR when set, else .bench_build.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fleet-smoke", "sweep-paper", "serve-mixed")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message: str) -> "None":
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir: str) -> str:
    """Configure once, then build incrementally; returns the benchmark executable."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no dtpm source tree next to " + BENCH_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(
        ["cmake", "--build", build_dir, "-j", BUILD_JOBS, "--target", "perfbench"]
    )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    executable = build(build_dir)

    command = [
        executable,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    # Own process group, so a timeout also stops the server it spawned.
    bench_process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = bench_process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench_process.pid, signal.SIGKILL)
        bench_process.communicate()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.splitlines()
    if bench_process.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        fail("benchmark exited with %d" % bench_process.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("benchmark printed a malformed result line")
    print(stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
