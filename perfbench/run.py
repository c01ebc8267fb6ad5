#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload multiview_churn --seed 1 --seconds 40 --trace 0

The run repeats whole rounds of the workload (see ``workloads.py``) for
about ``--seconds``, checks every round's outputs, and prints each
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts the operations a check implicates (or all of a round
that raised); ``correct`` is false when any check other than the known
fault's (``checks.KNOWN_FAULT``) fires.

``--trace 0`` reports the end-to-end metrics, measured with nothing
wrapped.  ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones plus ``trace.overhead``
(traced ``run_s`` / untraced ``run_s`` - 1); it also writes a Chrome
trace-event file and a per-layer summary under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "joins_per_s": "joins/s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
    "streams_accepted": "fraction",
    "cdn_mbps": "Mbps",
    "join_delay_p50_s": "sim_s",
}

#: Workload-specific figures printed next to the end-to-end metrics (not
#: in the JSON line: they read 0 on the workloads without a data plane or
#: without shard workers).
EXTRA_UNITS = {
    "frames_per_s": "frames/s",
    "startup_delay_p50_s": "sim_s",
    "worker_entry_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "trace.overhead":
        return "ratio"
    if name == "stream_id.hash.per_join":
        return "calls/join"
    if ".us_" in name or name.endswith(".us_per_event"):
        return "us"
    if name.endswith(".s") or ".s_" in name:
        return "s"
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run(workload, seed: int, seconds: int, trace: bool):
    """Run whole rounds for about ``seconds``; return them.

    The run ends at the round boundary nearest the deadline: it starts
    another round only if that round, as long as the median round so
    far, would end less than half a round past the deadline.
    """
    session = workload.session(workload.name, workload.config(seed))
    rounds = []
    cycles = []
    try:
        session.prepare()
        started = time.perf_counter()
        measured = 0
        while True:
            traced = trace and measured % 2 == 1
            round_started = time.perf_counter()
            try:
                result = session.round(traced)
            except Exception:
                # An operation the program could not carry out fails the
                # whole round: the schedule cannot continue past it.
                traceback.print_exc()
                result = session.failed_round()
            rounds.append(result)
            cycles.append(time.perf_counter() - round_started)
            if result.measured:
                measured += 1
            done = [r for r in rounds if r.measured]
            enough = any(not r.traced for r in done) and (
                not trace or any(r.traced for r in done)
            )
            elapsed = time.perf_counter() - started
            # Near the deadline, stop once there is something to report --
            # or, when every round raises, once it is clear nothing will be.
            all_raised = all(r.raised for r in rounds)
            near = elapsed + statistics.median(cycles) / 2 >= seconds
            if near and (enough or all_raised or elapsed >= 3 * seconds):
                break
    finally:
        session.close()
    return rounds


def end_to_end(rounds, workload_name: str):
    """Medians of the untraced measured rounds."""
    measured = [r for r in rounds if r.measured and not r.traced]
    run_s = _median([r.run_s for r in measured])
    sample = measured[-1]
    metrics = {
        "setup_s": _median([r.setup_s for r in measured]),
        "run_s": run_s,
        "joins_per_s": _median([r.joins / r.run_s for r in measured]),
        "events_per_s": _median([r.ops / r.run_s for r in measured]),
        "peak_rss_mb": max(r.peak_rss_mb for r in measured),
        "streams_accepted": sample.simulated["streams_accepted"],
        "cdn_mbps": sample.simulated["cdn_mbps"],
        "join_delay_p50_s": sample.simulated["join_delay_p50_s"],
    }
    extras = {}
    if workload_name == "qoe_replay":
        extras = {
            "frames_per_s": _median([r.simulated["frames_sent"] / r.run_s for r in measured]),
            "startup_delay_p50_s": sample.simulated["startup_delay_p50_s"],
        }
    if workload_name == "sharded_failover":
        # The part of peak_rss_mb a worker already had at entry: the
        # coordinator's pages it inherited at fork.
        extras = {"worker_entry_rss_mb": max(r.entry_rss_mb for r in measured)}
    return metrics, extras


def per_layer(rounds):
    """Medians of the traced rounds' layer metrics, plus the overhead."""
    traced = [r for r in rounds if r.measured and r.traced]
    untraced = [r for r in rounds if r.measured and not r.traced]
    metrics = {
        name: _median([r.layers[name] for r in traced]) for name in traced[0].layers
    }
    metrics["trace.overhead"] = (
        _median([r.run_s for r in traced]) / _median([r.run_s for r in untraced]) - 1.0
    )
    return metrics


def write_trace_outputs(workload_name: str, seed: int, rounds, layers) -> None:
    from tracing import chrome_trace
    from workloads import OUT_DIR

    os.makedirs(OUT_DIR, exist_ok=True)
    last = [r for r in rounds if r.measured and r.traced][-1]
    stem = os.path.join(OUT_DIR, f"{workload_name}-seed{seed}")
    metadata = {"workload": workload_name, "seed": seed, "run_s": last.run_s}
    with open(stem + ".trace.json", "w") as handle:
        json.dump(chrome_trace(last.exports, metadata), handle)
    summary = {
        "workload": workload_name,
        "seed": seed,
        "traced_rounds": sum(1 for r in rounds if r.measured and r.traced),
        "untraced_rounds": sum(1 for r in rounds if r.measured and not r.traced),
        "metrics": {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()},
    }
    with open(stem + ".layers.json", "w") as handle:
        json.dump(summary, handle, indent=1)
    print(f"trace written to {stem}.trace.json (open in https://ui.perfetto.dev)")
    print(f"per-layer summary written to {stem}.layers.json")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.trace:
        from tracing import check_entry_points

        try:
            check_entry_points()
        except RuntimeError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
    rounds = run(workload, args.seed, args.seconds, bool(args.trace))
    measured = [r for r in rounds if r.measured]
    if not any(not r.traced for r in measured) or (
        args.trace and not any(r.traced for r in measured)
    ):
        print("perfbench: no round completed; no metrics to report", file=sys.stderr)
        return 1
    from checks import KNOWN_FAULT

    violations = [v for r in rounds for v in r.violations]
    unexpected = [v for v in violations if v.check != KNOWN_FAULT]
    for violation in (unexpected or violations)[:20]:
        print(f"VIOLATION {violation.check}: {violation.detail}", file=sys.stderr)
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {workload.name}  seed {args.seed}  rounds {len(rounds)} "
          f"({len(measured)} measured, {sum(r.traced for r in measured)} traced)")
    print(f"operations attempted {attempted}  failed {failed}  check violations {len(violations)}"
          f" ({len(violations) - len(unexpected)} of them the known fault {KNOWN_FAULT})")
    if args.trace:
        metrics = per_layer(rounds)
        units = {name: layer_unit(name) for name in metrics}
        write_trace_outputs(workload.name, args.seed, rounds, metrics)
        print(f"tracing overhead: traced run_s is {metrics['trace.overhead']:+.1%} over untraced")
    else:
        metrics, extras = end_to_end(rounds, workload.name)
        units = dict(END_TO_END)
        for name, value in extras.items():
            print(f"  {name:<40} {value:>14.6g} {EXTRA_UNITS[name]}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(json.dumps({
        # A known fault fails its operations (counted in ``failed``);
        # ``correct`` speaks of the operations that did not fail.
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
