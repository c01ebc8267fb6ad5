"""Output checks recomputed from a finished run's public state.

None of these call ``StreamTree.validate`` or the invariant catalog of
``repro.scenarios``: every constraint of the paper is recomputed here from
the objects a run leaves behind (trees walked from the CDN root, delays
re-derived hop by hop from the ``DelayModel``, bandwidth summed per
viewer), so a fault in the program's own bookkeeping cannot hide itself.

A check returns a list of :class:`Violation`; an empty list means the
property holds.  ``viewer_id`` names the viewer a violation implicates,
or is ``None`` when the whole run is at fault (CDN accounting, frame
counters).  ``perfbench/selftest.py`` corrupts copies of finished runs
to show that every check named in :data:`CHECKS` can fire.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.model.cdn import CDN_NODE_ID

Violation = namedtuple("Violation", "check viewer_id detail")

#: Check name -> the property it recomputes.
CHECKS: Dict[str, str] = {
    "tree_structure": "every tree member is reached exactly once from the CDN root",
    "delay_recomputed": "recorded end-to-end delay equals the hop-by-hop recomputation",
    "delay_bound": "every end-to-end delay is <= d_max",
    "out_degree": "no node has more children than its out-degree",
    "outbound_capacity": "sum of children x stream rate <= the viewer's outbound capacity",
    "inbound_capacity": "sum of accepted streams x rate <= the viewer's inbound capacity",
    "subscription_edge": "every subscription's parent is the viewer's tree parent",
    "single_home": "no viewer is connected at two LSCs",
    "cdn_usage": "CDN-fed edges x rate equals the CDN's reported usage",
    "cdn_cap": "CDN usage is <= its capacity",
    "layer_spread": "a connected viewer's layers span at most kappa",
    "departed_connected": "no viewer whose last event is a departure or failure is connected",
    "full_view": "broadcast: every join accepted with every stream of the view",
    "frame_accounting": "data plane: frames sent = delivered + lost",
    "loss_band": "data plane: realized loss within [0.5, 1.5] x the configured mean",
    "playout_skew": "data plane: >= 99% of viewers keep playout skew within d_buff",
    "startup_delay": "data plane: every startup delay >= Delta",
    "sharded_acceptance": "sharded: every stream request accepted",
    "failed_lsc_empty": "sharded: the failed LSC serves no viewer",
    "sharded_connected": "sharded: connected = population - failed viewers",
    "placement_parity": "sharded: every round places viewers exactly as the checked round",
}

#: The check of a fault the program has at this commit: under the simulated
#: control plane a departure or failure notice that overtakes the same
#: viewer's join request lands as stale, and the join then admits the
#: viewer.  The ``join_race`` workload provokes it on fixed operations, so
#: it fails the same operations every run; those count as failed and
#: leave ``correct`` true, since ``correct`` speaks of the operations
#: that did not fail.  Any other check firing makes a run incorrect.
KNOWN_FAULT = "departed_connected"

#: Absolute slack on float comparisons of delays (seconds) and bandwidth (Mbps).
_EPS = 1e-9


def last_event_kinds(events: Iterable) -> Dict[str, str]:
    """Kind of each viewer's last scheduled event, in replay order.

    Replay order is ``(time, viewer_id)`` with a stable sort, so one
    viewer's same-instant events keep their causal list order.
    """
    last: Dict[str, str] = {}
    for event in sorted(events, key=lambda e: (e.time, e.viewer_id)):
        if event.kind != "lsc_fail":
            last[event.viewer_id] = event.kind
    return last


def check_overlay(
    system, last_kinds: Optional[Dict[str, str]] = None
) -> Tuple[List[Violation], Set[str]]:
    """Recompute the paper's per-tree and per-viewer constraints.

    Returns the violations and the set of connected viewer ids.  With
    ``last_kinds`` (see :func:`last_event_kinds`) it also checks that no
    viewer whose last event was a departure or failure is connected.
    """
    layer_config = system.layer_config
    d_max = layer_config.d_max
    model = system.delay_model
    found: List[Violation] = []
    cdn_fed_mbps = 0.0
    forwarded: Dict[str, float] = {}

    for lsc in system.gsc.lscs:
        for group in lsc.groups.values():
            for stream_id, tree in group.trees.items():
                rate = tree.stream.bandwidth_mbps
                where = f"{lsc.lsc_id}/{group.view.view_id}/{stream_id}"
                root = tree.root
                cdn_fed_mbps += len(root.children) * rate
                seen: Set[str] = set()
                stack = [
                    (child_id, CDN_NODE_ID, model.cdn_end_to_end(child_id))
                    for child_id in root.children
                ]
                while stack:
                    node_id, parent_id, expected = stack.pop()
                    if node_id in seen or node_id not in tree:
                        found.append(Violation(
                            "tree_structure", node_id,
                            f"{where}: {node_id} reached twice or missing from the tree",
                        ))
                        continue
                    seen.add(node_id)
                    node = tree.node(node_id)
                    if node.parent_id != parent_id:
                        found.append(Violation(
                            "tree_structure", node_id,
                            f"{where}: parent pointer {node.parent_id} but child of {parent_id}",
                        ))
                    recorded = node.end_to_end_delay
                    if not math.isclose(recorded, expected, rel_tol=1e-12, abs_tol=_EPS):
                        found.append(Violation(
                            "delay_recomputed", node_id,
                            f"{where}: recorded delay {recorded!r} != recomputed {expected!r}",
                        ))
                    if max(recorded, expected) > d_max + _EPS:
                        found.append(Violation(
                            "delay_bound", node_id,
                            f"{where}: delay {max(recorded, expected):.6f} > d_max {d_max}",
                        ))
                    if len(node.children) > node.out_degree:
                        found.append(Violation(
                            "out_degree", node_id,
                            f"{where}: {len(node.children)} children > out-degree {node.out_degree}",
                        ))
                    forwarded[node_id] = forwarded.get(node_id, 0.0) + len(node.children) * rate
                    for child_id in node.children:
                        stack.append((child_id, node_id, expected + model.hop_delay(node_id, child_id)))
                for node_id in set(tree.members()) - seen:
                    found.append(Violation(
                        "tree_structure", node_id, f"{where}: {node_id} unreachable from the CDN root",
                    ))

    connected: Set[str] = set()
    kappa = layer_config.kappa
    for lsc in system.gsc.lscs:
        for viewer_id, session in lsc.sessions.items():
            if viewer_id in connected:
                found.append(Violation("single_home", viewer_id, f"{viewer_id} connected twice"))
            connected.add(viewer_id)
            viewer = session.viewer
            subscriptions = session.subscriptions
            inbound = sum(sub.stream.bandwidth_mbps for sub in subscriptions.values())
            if inbound > viewer.inbound_capacity_mbps + _EPS:
                found.append(Violation(
                    "inbound_capacity", viewer_id,
                    f"{viewer_id}: receives {inbound} Mbps > inbound {viewer.inbound_capacity_mbps}",
                ))
            outbound = forwarded.get(viewer_id, 0.0)
            if outbound > viewer.outbound_capacity_mbps + _EPS:
                found.append(Violation(
                    "outbound_capacity", viewer_id,
                    f"{viewer_id}: forwards {outbound} Mbps > outbound {viewer.outbound_capacity_mbps}",
                ))
            layers = [sub.layer for sub in subscriptions.values()]
            if layers and max(layers) - min(layers) > kappa:
                found.append(Violation(
                    "layer_spread", viewer_id, f"{viewer_id}: layers {sorted(layers)} span > kappa {kappa}",
                ))
            group = lsc.groups.get(session.view.view_id)
            for stream_id, sub in subscriptions.items():
                tree = group.trees.get(stream_id) if group is not None else None
                if (
                    tree is None
                    or viewer_id not in tree
                    or tree.node(viewer_id).parent_id != sub.parent_id
                    or sub.via_cdn != (sub.parent_id == CDN_NODE_ID)
                ):
                    found.append(Violation(
                        "subscription_edge", viewer_id,
                        f"{viewer_id}/{stream_id}: subscription parent {sub.parent_id} "
                        "does not match the tree",
                    ))

    cdn = system.cdn
    used = cdn.used_outbound_mbps
    if not math.isclose(cdn_fed_mbps, used, rel_tol=1e-12, abs_tol=1e-6):
        found.append(Violation(
            "cdn_usage", None, f"CDN-fed edges carry {cdn_fed_mbps} Mbps, CDN reports {used}",
        ))
    if used > cdn.outbound_capacity_mbps + 1e-6:
        found.append(Violation(
            "cdn_cap", None, f"CDN usage {used} Mbps > capacity {cdn.outbound_capacity_mbps}",
        ))
    if last_kinds is not None:
        for viewer_id, kind in last_kinds.items():
            if kind in ("depart", "fail") and viewer_id in connected:
                found.append(Violation(
                    "departed_connected", viewer_id, f"{viewer_id}: last event {kind} but connected",
                ))
    return found, connected


def check_full_views(system, metrics, population: int) -> List[Violation]:
    """Broadcast: every join accepted with every stream of its view."""
    found: List[Violation] = []
    if metrics.rejected_requests or metrics.total_accepted_streams != metrics.total_requested_streams:
        found.append(Violation(
            "full_view", None,
            f"{metrics.rejected_requests} rejected requests, "
            f"{metrics.total_accepted_streams}/{metrics.total_requested_streams} streams accepted",
        ))
    connected = 0
    for lsc in system.gsc.lscs:
        for viewer_id, session in lsc.sessions.items():
            connected += 1
            wanted = len(session.view.stream_ids)
            if len(session.subscriptions) != wanted:
                found.append(Violation(
                    "full_view", viewer_id,
                    f"{viewer_id}: {len(session.subscriptions)} of {wanted} streams",
                ))
    if connected != population:
        found.append(Violation("full_view", None, f"{connected} connected of {population} viewers"))
    return found


def check_qoe(metrics, *, loss_rate: float, d_buff: float, delta: float) -> List[Violation]:
    """Data plane: frame accounting, realized loss, playout skew, startup."""
    found: List[Violation] = []
    sent = metrics.data_frames_sent
    delivered = metrics.data_frames_delivered
    lost = metrics.data_frames_lost
    if sent == 0 or sent != delivered + lost:
        found.append(Violation(
            "frame_accounting", None, f"sent {sent} != delivered {delivered} + lost {lost}",
        ))
    realized = lost / sent if sent else 0.0
    if not (0.5 * loss_rate <= realized <= 1.5 * loss_rate):
        found.append(Violation(
            "loss_band", None, f"realized loss {realized:.4f} outside the band around {loss_rate}",
        ))
    skews = list(metrics.qoe_playout_skews)
    within = sum(1 for skew in skews if skew <= d_buff + _EPS)
    if not skews or within < 0.99 * len(skews):
        found.append(Violation(
            "playout_skew", None, f"{within} of {len(skews)} viewers keep playout skew within d_buff",
        ))
    startups = list(metrics.qoe_startup_delays)
    early = [delay for delay in startups if delay < delta - _EPS]
    if not startups or early:
        found.append(Violation(
            "startup_delay", None,
            f"{len(early)} of {len(startups)} startup delays below Delta={delta}",
        ))
    return found


def check_sharded(
    result,
    *,
    population: int,
    failed_viewers: int,
    failed_lsc_id: str,
    reference_digests: Optional[Dict[str, str]] = None,
) -> List[Violation]:
    """Sharded: acceptance, the failed LSC, connected count, placement parity."""
    found: List[Violation] = []
    metrics = result.metrics
    if metrics.rejected_requests or metrics.total_accepted_streams != metrics.total_requested_streams:
        found.append(Violation(
            "sharded_acceptance", None, f"acceptance {metrics.acceptance_ratio} != 1.0",
        ))
    if result.viewers_per_lsc.get(failed_lsc_id, 0):
        found.append(Violation(
            "failed_lsc_empty", None,
            f"{failed_lsc_id} still serves {result.viewers_per_lsc[failed_lsc_id]} viewers",
        ))
    connected = sum(result.viewers_per_lsc.values())
    if connected != population - failed_viewers:
        found.append(Violation(
            "sharded_connected", None,
            f"{connected} connected != {population} - {failed_viewers} failed",
        ))
    if reference_digests is not None and result.placement_digests != reference_digests:
        differ = sorted(
            lsc_id
            for lsc_id in set(reference_digests) | set(result.placement_digests)
            if reference_digests.get(lsc_id) != result.placement_digests.get(lsc_id)
        )
        found.append(Violation("placement_parity", None, f"placement differs at {differ}"))
    return found

