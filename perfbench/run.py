#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result record.

    python3 perfbench/run.py --workload mnist_select --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first run configures and builds the
harness (the library from src/ plus perfbench/src) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild only what changed. The workload runs in its own process.

The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer metrics for --trace 1. The line before it names the workload and
seed, the host fingerprint (CPU model, SIMD target, hardware threads,
build type, compiler), notes such as a late open-loop generator, and the
checks that failed. The exit status is 0 only when every output check
passed.

Two flags serve the self-tests: --scale tiny shrinks every phase, and
--inject nan_loss|corrupt_output plants a fault the checks must catch.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(root):
    """Configures (once) and builds perfbench_bin; returns the build dir."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources not found (src/CMakeLists.txt); "
             "run from the repository root")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")

    def step(cmd):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build_dir, "--target", "perfbench_bin",
          "-j", str(min(4, os.cpu_count() or 1))])
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject", choices=("nan_loss", "corrupt_output"))
    args = parser.parse_args()

    root = os.getcwd()
    spec = load_spec(root)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = build(root)
    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    cmd = [os.path.join(build_dir, "perfbench_bin"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work-dir", work_dir]
    if args.inject:
        cmd += ["--inject", args.inject]
    # Set-up, warm-up and the checks before the timed region take well
    # under a minute at the default sizes.
    run_timeout_s = 60 + 2 * args.seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=run_timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} ran past {run_timeout_s:g} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail(f"workload {args.workload} printed no result "
             f"(exit status {proc.returncode})")
    try:
        host = json.loads(lines[-2])
        raw = json.loads(lines[-1])
    except ValueError as e:
        fail(f"unparseable workload output: {e}")

    measured = raw["metrics"]
    names = [m["name"] for m in declared]
    extra = sorted(set(measured) - set(names))
    # A workload measures only the layers it exercises; a traced run prints
    # the others as 0. Every end-to-end metric must be measured.
    missing = [] if args.trace else [n for n in names if n not in measured]
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unlisted {extra}")
    metrics = {}
    for m in declared:
        value = measured.get(m["name"], 0.0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} is not a finite number: {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = bool(raw["correct"]) and proc.returncode == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "scale": args.scale,
                      "host": host["host"], "notes": host["notes"],
                      "failures": raw["failures"]}))
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
