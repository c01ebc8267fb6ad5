#!/usr/bin/env python3
"""Self-test of the output checks: each must fire on a corrupted run.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs small versions of the benchmark workloads to the end, then for
every check in ``checks.CHECKS`` corrupts a copy of a finished run in
the way that check exists to catch -- a delay pushed over ``d_max``, a
child beyond a node's out-degree, an overcommitted uplink, a phantom CDN
reservation, a layer spread of kappa + 1, unbalanced frame counters,
... -- and asserts the check reports it.  The uncorrupted runs must pass
every check, so no check passes or fails vacuously.  It also runs a
small ``join_race`` and asserts that the program's known fault
(``checks.KNOWN_FAULT``) hits exactly the probe viewers whose last event
is a departure or failure, and nothing else fires.  Exits 0 when all of
that holds, 1 otherwise.
"""

from __future__ import annotations

import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.experiments.runner import build_scenario, build_telecast_system  # noqa: E402
from repro.parallel import run_sharded_scenario  # noqa: E402
from repro.traces.workload import ViewerEvent  # noqa: E402

from checks import (  # noqa: E402
    CHECKS,
    KNOWN_FAULT,
    check_full_views,
    check_overlay,
    check_qoe,
    check_sharded,
    last_event_kinds,
)
from workloads import (  # noqa: E402
    broadcast_join_config,
    join_race_config,
    join_race_schedule,
    multiview_churn_config,
    qoe_replay_config,
    sharded_failover_config,
)


class Run:
    """A finished single-process run: everything the checks read."""

    def __init__(self, config, schedule=None) -> None:
        self.config = config
        self.scenario = build_scenario(config)
        if schedule is not None:
            self.scenario.events = schedule(self.scenario.events)
        self.system = build_telecast_system(self.scenario)
        self.events = list(self.scenario.events)
        self.metrics = self.system.run_workload(
            self.scenario.viewers,
            self.scenario.events,
            self.scenario.views,
            snapshot_every=100,
            control_plane=config.control_plane,
            heartbeat_period=config.heartbeat_period,
            control_delay_scale=config.control_delay_scale,
            data_plane=config.data_plane_config(),
        )

    def copy(self) -> "Run":
        return pickle.loads(pickle.dumps(self))

    def check(self) -> set:
        """Names of the checks that report a violation on this run."""
        violations, _ = check_overlay(self.system, last_event_kinds(self.events))
        if self.config.num_views == 1:
            violations += check_full_views(self.system, self.metrics, self.config.num_viewers)
        if self.config.data_plane != "off":
            violations += check_qoe(
                self.metrics,
                loss_rate=self.config.data_loss_rate,
                d_buff=self.config.buffer_duration,
                delta=self.config.cdn_delta,
            )
        return {violation.check for violation in violations}

    # -- what the corruptions pick --------------------------------------------

    def trees(self):
        for lsc in self.system.gsc.lscs:
            for group in lsc.groups.values():
                yield from group.trees.values()

    def sessions(self):
        for lsc in self.system.gsc.lscs:
            yield from lsc.sessions.values()

    def node_with_children(self):
        """A tree node forwarding to at least one child, with its tree."""
        for tree in self.trees():
            for node_id in tree.members():
                node = tree.node(node_id)
                if node.children:
                    return tree, node
        raise LookupError("no viewer forwards to a child")


# -- corruptions: each mutates a copy and names the check that must fire -----


def delay_over_d_max(run: Run) -> None:
    tree, node = run.node_with_children()
    node.end_to_end_delay = run.system.layer_config.d_max + 0.5


def delay_drift(run: Run) -> None:
    tree, node = run.node_with_children()
    node.end_to_end_delay += 0.01


def extra_child(run: Run) -> None:
    """Hang one more CDN-fed leaf under a node whose slots are all taken."""
    for tree in run.trees():
        leaves = [n for n in tree.root.children if not tree.node(n).children]
        for node_id in tree.members():
            node = tree.node(node_id)
            if node.children and len(node.children) >= node.out_degree:
                leaf = next(n for n in leaves if n != node_id)
                tree.root.children.remove(leaf)
                node.children.append(leaf)
                tree.node(leaf).parent_id = node_id
                return
    raise LookupError("no full node")


def overcommitted_uplink(run: Run) -> None:
    tree, node = run.node_with_children()
    session = next(s for s in run.sessions() if s.viewer_id == node.node_id)
    session.viewer.outbound_capacity_mbps = tree.stream.bandwidth_mbps * len(node.children) - 1.0


def overcommitted_downlink(run: Run) -> None:
    next(iter(run.sessions())).viewer.inbound_capacity_mbps = 1.0


def phantom_cdn_reservation(run: Run) -> None:
    tree = next(iter(run.trees()))
    run.system.cdn.allocate(tree.stream.stream_id, tree.stream.bandwidth_mbps)


def cdn_over_cap(run: Run) -> None:
    run.system.cdn.outbound_capacity_mbps = run.system.cdn.used_outbound_mbps / 2


def layer_spread_kappa_plus_one(run: Run) -> None:
    session = next(s for s in run.sessions() if len(s.subscriptions) >= 2)
    subs = list(session.subscriptions.values())
    subs[0].layer = min(sub.layer for sub in subs[1:]) + run.system.layer_config.kappa + 1


def wrong_subscription_parent(run: Run) -> None:
    session = next(iter(run.sessions()))
    next(iter(session.subscriptions.values())).parent_id = "viewer-none"


def unreachable_subtree(run: Run) -> None:
    tree, node = run.node_with_children()
    node.children.pop()


def second_home(run: Run) -> None:
    first, second = run.system.gsc.lscs[:2]
    viewer_id, session = next(iter(first.sessions.items()))
    second.sessions[viewer_id] = session


def departed_but_connected(run: Run) -> None:
    session = next(iter(run.sessions()))
    last = max(event.time for event in run.events)
    run.events.append(ViewerEvent(time=last + 1.0, kind="fail", viewer_id=session.viewer_id))


def partial_view(run: Run) -> None:
    session = next(iter(run.sessions()))
    session.subscriptions.pop(next(iter(session.subscriptions)))


def unbalanced_frames(run: Run) -> None:
    run.metrics.data_frames_lost += 1


def no_loss(run: Run) -> None:
    metrics = run.metrics
    metrics.data_frames_delivered += metrics.data_frames_lost
    metrics.data_frames_lost = 0


def skewed_playout(run: Run) -> None:
    run.metrics.qoe_playout_skews = [run.config.buffer_duration + 1.0] * 10


def early_startup(run: Run) -> None:
    run.metrics.qoe_startup_delays = list(run.metrics.qoe_startup_delays) + [run.config.cdn_delta - 1.0]


#: (check that must fire, run shape, corruption).
SINGLE_PROCESS_CASES = (
    ("delay_bound", "broadcast", delay_over_d_max),
    ("delay_recomputed", "churn", delay_drift),
    ("out_degree", "broadcast", extra_child),
    ("outbound_capacity", "churn", overcommitted_uplink),
    ("inbound_capacity", "qoe", overcommitted_downlink),
    ("cdn_usage", "broadcast", phantom_cdn_reservation),
    ("cdn_cap", "qoe", cdn_over_cap),
    ("layer_spread", "qoe", layer_spread_kappa_plus_one),
    ("subscription_edge", "churn", wrong_subscription_parent),
    ("tree_structure", "broadcast", unreachable_subtree),
    ("single_home", "churn", second_home),
    ("departed_connected", "churn", departed_but_connected),
    ("full_view", "broadcast", partial_view),
    ("frame_accounting", "qoe", unbalanced_frames),
    ("loss_band", "qoe", no_loss),
    ("playout_skew", "qoe", skewed_playout),
    ("startup_delay", "qoe", early_startup),
)


def sharded_cases():
    """Sharded checks on corrupted copies of one small sharded run."""
    config = sharded_failover_config(1, viewers=400)
    workers = min(2, len(os.sched_getaffinity(0)))
    outcome = run_sharded_scenario(config, num_workers=workers, mp_start_method="fork")
    scenario = build_scenario(config)
    failed_lsc = next(e.viewer_id for e in scenario.events if e.kind == "lsc_fail")
    context = {
        "population": len(scenario.viewers),
        "failed_viewers": sum(1 for e in scenario.events if e.kind == "fail"),
        "failed_lsc_id": failed_lsc,
        "reference_digests": dict(outcome.result.placement_digests),
    }

    def fired(result) -> set:
        return {v.check for v in check_sharded(result, **context)}

    def rejected(result):
        result.metrics.rejected_requests += 1

    def failed_lsc_serves(result):
        result.viewers_per_lsc[failed_lsc] = 3

    def one_missing(result):
        lsc_id = next(k for k, v in result.viewers_per_lsc.items() if v)
        result.viewers_per_lsc[lsc_id] -= 1

    def moved(result):
        lsc_id = next(iter(result.placement_digests))
        result.placement_digests[lsc_id] = "0" * 64

    clean = fired(outcome.result)
    cases = (
        ("sharded_acceptance", rejected),
        ("failed_lsc_empty", failed_lsc_serves),
        ("sharded_connected", one_missing),
        ("placement_parity", moved),
    )
    results = []
    for check, corrupt in cases:
        copy = pickle.loads(pickle.dumps(outcome.result))
        corrupt(copy)
        results.append((check, "sharded", corrupt.__name__, check in fired(copy)))
    return clean, results


def known_fault_case() -> bool:
    """The known fault fails exactly the racing probes of a small join_race."""
    run = Run(join_race_config(1, viewers=400), schedule=join_race_schedule)
    last_kinds = last_event_kinds(run.events)
    violations, _ = check_overlay(run.system, last_kinds)
    racing = {viewer for viewer, kind in last_kinds.items() if kind in ("depart", "fail")}
    hit = {v.viewer_id for v in violations if v.check == KNOWN_FAULT}
    other = sorted({v.check for v in violations if v.check != KNOWN_FAULT})
    ok = bool(racing) and hit == racing and not other
    print(f"join_race run: {KNOWN_FAULT} on {len(hit)} of {len(racing)} racing probe viewers"
          f"{f', other checks fired: {other}' if other else ''} -> {'as expected' if ok else 'UNEXPECTED'}")
    return ok


def main() -> int:
    runs = {
        "broadcast": Run(broadcast_join_config(1, viewers=300)),
        "churn": Run(multiview_churn_config(1, viewers=400)),
        "qoe": Run(qoe_replay_config(1, viewers=200).with_(replay_frames_per_stream=40)),
    }
    ok = True
    for shape, run in runs.items():
        clean = run.check()
        print(f"clean {shape} run: {'passes every check' if not clean else f'FAILS {sorted(clean)}'}")
        ok &= not clean
    results = []
    for check, shape, corrupt in SINGLE_PROCESS_CASES:
        copy = runs[shape].copy()
        corrupt(copy)
        results.append((check, shape, corrupt.__name__, check in copy.check()))
    sharded_clean, sharded_results = sharded_cases()
    print(f"clean sharded run: {'passes every check' if not sharded_clean else f'FAILS {sorted(sharded_clean)}'}")
    ok &= not sharded_clean
    ok &= known_fault_case()
    results += sharded_results
    for check, shape, corruption, fired in results:
        print(f"  {'fired ' if fired else 'MISSED'} {check:<20} on {shape:<9} {corruption}")
        ok &= fired
    untested = sorted(set(CHECKS) - {check for check, *_ in results})
    if untested:
        print(f"checks without a corruption: {untested}")
        ok = False
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
