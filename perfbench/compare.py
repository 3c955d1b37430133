#!/usr/bin/env python3
"""Compares two sets of perfbench runs, metric by metric.

    python3 perfbench/compare.py BASE CANDIDATE

Each file holds the stdout of one or more `perfbench/run.py` runs, one
after another: a context line, then a result line, per run. For every
workload, trace mode and metric it prints both medians over the runs, the
candidate's change as a share of the base median, and the base's own
spread (interquartile range over median). An end-to-end metric that got
worse by more than its bound in BENCHMARK.json is a REGRESSION; one whose
base spread is wider than its bound is reported as unresolved instead. A
run that failed its output checks (correct false, or failed operations) is
listed; a candidate with more failed runs than the base fails the
comparison, however fast it was.

Figures from different hosts say nothing about the code. When the host
fingerprints of the two files differ, the script reports the difference and
exits with status 3 without judging.

Exit status: 0 no regression, 1 regression or failed checks, 2 bad input,
3 different hosts.
"""

import argparse
import json
import os
import statistics
import sys


def read_runs(path):
    """Returns [(context, result)] for every run in `path`."""
    runs = []
    context = None
    try:
        with open(path) as f:
            for number, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as e:
                    sys.exit(f"{path}:{number}: bad JSON: {e}")
                if "host" in record:
                    context = record
                elif "metrics" in record and context is not None:
                    runs.append((context, record))
                    context = None
    except OSError as e:
        sys.exit(f"cannot read {path}: {e}")
    if not runs:
        sys.exit(f"{path}: no perfbench runs found")
    return runs


def hosts(runs):
    return {json.dumps(c["host"], sort_keys=True) for c, _ in runs}


def failed_runs(label, runs):
    """Prints and counts the runs whose output checks failed."""
    failed = [(c, r) for c, r in runs if not r["correct"] or r["failed"]]
    for context, result in failed:
        print(f"{label}: {context['workload']} seed {context['seed']} "
              f"trace={context['trace']} failed its checks "
              f"({result['failed']} of {result['attempted']} operations)")
    return len(failed)


def group(runs):
    """(workload, trace, metric) -> list of values."""
    out = {}
    for context, result in runs:
        for name, metric in result["metrics"].items():
            key = (context["workload"], context["trace"], name)
            out.setdefault(key, []).append(metric["value"])
    return out


def spread(values):
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(mid)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    args = parser.parse_args()

    base_runs = read_runs(args.base)
    cand_runs = read_runs(args.candidate)
    base_hosts, cand_hosts = hosts(base_runs), hosts(cand_runs)
    if base_hosts != cand_hosts:
        print("different hosts: not a regression comparison")
        print("  base:      " + "; ".join(sorted(base_hosts)))
        print("  candidate: " + "; ".join(sorted(cand_hosts)))
        sys.exit(3)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update({m["name"]: m["better"] for m in spec["per_layer"]})

    base, cand = group(base_runs), group(cand_runs)
    regressions = 0
    for key in sorted(set(base) & set(cand)):
        workload, trace, name = key
        b, c = statistics.median(base[key]), statistics.median(cand[key])
        change = (c - b) / abs(b) if b else 0.0
        worse = -change if better.get(name) == "higher" else change
        verdict = ""
        if name in bounds and trace == 0:
            bound = bounds[name]["bound"]
            if spread(base[key]) > bound:
                verdict = "unresolved (base spread exceeds bound)"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
        print(f"{workload:13s} trace={trace} {name:28s} base {b:12.6g} "
              f"cand {c:12.6g} change {change:+7.1%} "
              f"base spread {spread(base[key]):6.1%} {verdict}")
    if failed_runs("candidate", cand_runs) > failed_runs("base", base_runs):
        regressions += 1
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
