#!/usr/bin/env python3
"""Builds the rtic benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload embedded|durable|wire \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which pulls in the library from src/) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then runs the
benchmark program. --seconds defaults to BENCHMARK.json's run_seconds.
Build output goes to stderr; the program's report goes to
stdout, whose last line is the run's JSON result. The exit code is the
program's: 0 only when every verdict matched its oracle. The metric names
and units in the JSON line are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rtic sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rtic_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "rtic_perfbench")


def load_spec():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        return json.load(f)


def check_metrics(result, trace):
    spec = load_spec()
    if spec is None:
        return
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in wanted}
    actual = {name: m.get("unit") for name, m in got.items()}
    if expected != actual:
        fail("metrics differ from BENCHMARK.json: expected %s, got %s"
             % (sorted(expected.items()), sorted(actual.items())))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["embedded", "durable", "wire"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds is None:
        spec = load_spec()
        if spec is None:
            fail("--seconds not given and BENCHMARK.json not found")
        args.seconds = spec["run_seconds"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("benchmark printed nothing (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("last line is not a JSON result (exit code %d)"
             % proc.returncode)
    check_metrics(result, args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
