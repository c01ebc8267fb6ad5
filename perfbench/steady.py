#!/usr/bin/env python3
"""Measure how steady the end-to-end metrics are across seeds.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10

Runs every workload of ``BENCHMARK.json`` once per seed for seeds 1 to
``--runs``, alternating the order of the workloads from one seed to the
next, each run in a fresh process (``perfbench/run.py --trace 0``) of
``--seconds`` (default: the ``run_seconds`` of ``BENCHMARK.json``).  For
every end-to-end metric it prints the median, the quartiles and the
spread -- the distance between the quartiles as a share of the median,
from ``statistics.quantiles(values, n=4)`` -- next to the metric's bound,
and flags a spread of a third of the bound or more (exit status 1 if
any is flagged).  It also prints each workload's shares of failed
operations, which must be one value per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles by ``statistics.quantiles(n=4)``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = [workload["name"] for workload in benchmark["workloads"]]

    results = {workload: [] for workload in workloads}
    for index in range(args.runs):
        seed = index + 1
        order = workloads if index % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(workload, seed, seconds)
            results[workload].append(result)
            print(f"run {index + 1}/{args.runs} {workload} seed {seed}: "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  flush=True)

    steady = True
    for workload in workloads:
        runs = results[workload]
        shares = sorted({run["failed"] / run["attempted"] for run in runs})
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}, "
              f"all correct: {all(run['correct'] for run in runs)}")
        if len(shares) > 1 or not all(run["correct"] for run in runs):
            steady = False
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median, q1, q3, share = spread(values)
            flag = ""
            if share >= bound / 3:
                flag = "  <- spread >= bound/3"
                steady = False
            print(f"  {name:<20} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.2%} {bound:>6.2f}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
