#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library is compiled from src/ into
the build directory named by $CARGO_TARGET_DIR (default .bench_build),
then nocdr_perfbench runs the workload. Its last stdout line is the
result object; this script checks that the object carries exactly the
metrics BENCHMARK.json lists, and exits non-zero on a failed build, a
wrong output, a timeout or a malformed result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("cold_ladder", "warm_open", "fault_stream", "sim_saturate")
# Never used while the benchmark was tuned; later claims are confirmed on
# it as well (see README.md).
HELD_OUT_SEED = 7919031
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures once, then builds incrementally; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "2"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "nocdr_perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir, "perfbench")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("run.py: the workload did not finish in time", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode

    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    reported = {name: metric.get("unit")
                for name, metric in result.get("metrics", {}).items()}
    if reported != expected_metrics(args.trace):
        print("run.py: reported metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
