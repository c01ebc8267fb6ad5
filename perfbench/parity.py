#!/usr/bin/env python3
"""Recompute the sharded_failover placement digests from scratch.

Usage, from the repository root::

    python3 perfbench/parity.py --seed 1

Builds the ``sharded_failover`` scenario of the seed and runs it once in
a single process (the multi-LSC instant driver), then once through the
shard-parallel engine, and prints the per-LSC placement digests of both.
Exits 0 when every LSC's digest matches, 1 otherwise.  The digests are
``repro.metrics.placement`` hashes over every subscription edge, so equal
digests mean byte-identical placement.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.experiments.runner import build_scenario, build_telecast_system  # noqa: E402
from repro.metrics.placement import per_lsc_placement_digests  # noqa: E402
from repro.parallel import run_sharded_scenario  # noqa: E402

from workloads import SHARDED_WORKERS, sharded_failover_config  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    config = sharded_failover_config(args.seed)

    scenario = build_scenario(config)
    system = build_telecast_system(scenario)
    system.run_workload(scenario.viewers, scenario.events, scenario.views, snapshot_every=100)
    single = per_lsc_placement_digests(system)

    workers = min(SHARDED_WORKERS, len(os.sched_getaffinity(0)), config.num_lscs)
    sharded = run_sharded_scenario(config, num_workers=workers).placement_digests

    same = True
    for lsc_id in sorted(set(single) | set(sharded)):
        match = single.get(lsc_id) == sharded.get(lsc_id)
        same &= match
        print(f"{lsc_id}: single {single.get(lsc_id, '-')}  sharded {sharded.get(lsc_id, '-')}"
              f"  {'equal' if match else 'DIFFERENT'}")
    print("placement parity holds" if same else "placement parity BROKEN")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
