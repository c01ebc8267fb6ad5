"""Run-time span tracing of the program's layers, installed from outside.

:class:`Tracer` replaces public functions and methods of the ``repro``
modules with thin wrappers that time each call, and restores the
originals on :meth:`Tracer.uninstall`.  No file under ``src/`` changes:
the wrappers exist only while a traced round runs, so untraced rounds
execute the program exactly as shipped.

Each wrapped call is a span named after its layer (``topology.insert``,
``controllers.lsc_join``, ...).  A span's *self time* is its duration
minus the time its child spans cover; a layer's ``.s`` metric is the sum
of its spans' self times.  Three further kinds of probe exist: counters
(``ids.intern``, ``stream_id.hash``: calls counted, not timed, because
they are too small to time), a *transparent* timer (``engine.run``:
inclusive time only, so the callbacks the event engine dispatches keep
their own layers' self time) and per-call duration lists
(``controllers.lsc_join``, for percentiles and growth with tree size).

Spans are kept in memory and written out when the run ends, as a Chrome
trace-event file (``chrome_trace``) that https://ui.perfetto.dev opens.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) of every timed public entry point.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("build.scenario", "repro.experiments.runner", "build_scenario"),
    ("build.workload", "repro.traces.workload", "ViewerWorkload.viewers"),
    ("build.workload", "repro.traces.workload", "ViewerWorkload.events"),
    ("build.workload", "repro.traces.workload", "ChurnWorkload.events"),
    ("build.workload", "repro.traces.workload", "overlay_oscillation"),
    ("build.latency", "repro.net.planetlab", "generate_planetlab_matrix"),
    ("build.system", "repro.core.telecast", "TeleCastSystem.__init__"),
    ("controllers.gsc_route", "repro.core.controllers", "GlobalSessionController.lsc_for_viewer"),
    ("controllers.lsc_join", "repro.core.controllers", "LocalSessionController.join"),
    ("topology.insert", "repro.core.topology", "StreamTree.insert"),
    ("topology.remove", "repro.core.topology", "StreamTree.remove"),
    ("bandwidth.allocate", "repro.core.bandwidth", "allocate_inbound"),
    ("bandwidth.allocate", "repro.core.bandwidth", "allocate_outbound"),
    ("subscription.plan", "repro.core.subscription", "plan_view_synchronization"),
    ("routing_table.upsert", "repro.core.routing_table", "SessionRoutingTable.upsert"),
    ("latency.delay_model", "repro.net.latency", "DelayModel.propagation"),
    ("latency.delay_model", "repro.net.latency", "DelayModel.rtt"),
    ("latency.delay_model", "repro.net.latency", "DelayModel.hop_delay"),
    ("latency.delay_model", "repro.net.latency", "DelayModel.approx_hop_delays"),
    ("latency.delay_model", "repro.net.latency", "DelayModel.end_to_end_via_parent"),
    ("latency.delay_model", "repro.net.latency", "DelayModel.cdn_end_to_end"),
    ("latency.matrix", "repro.net.latency", "LatencyMatrix.delay"),
    ("latency.matrix", "repro.net.planetlab", "LazyPlanetLabMatrix.approx_delays_to"),
    ("adaptation.view_change", "repro.core.adaptation", "AdaptationManager.handle_view_change"),
    ("adaptation.refresh", "repro.core.adaptation", "AdaptationManager.refresh_layers"),
    ("adaptation.refresh", "repro.core.adaptation", "AdaptationManager.refresh_layers_from_observed"),
    ("recovery.repair", "repro.core.recovery", "RecoveryManager.handle_abrupt_departure"),
    ("transport.control", "repro.sim.transport", "ControlChannel.send"),
    ("transport.data", "repro.sim.transport", "DataChannel.transmit"),
    ("dataplane.replay", "repro.core.dataplane", "SimulatedDataPlane.run"),
    ("metrics.snapshot", "repro.core.telecast", "TeleCastSystem.take_snapshot"),
    ("metrics.summary", "repro.metrics.collectors", "SessionMetrics.summary"),
)

#: Entry points whose calls are counted only (too small to time).
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("ids.intern", "repro.net.ids", "NodeInterner.intern"),
    ("stream_id.hash", "repro.model.stream", "StreamId.__hash__"),
)

#: Entry points timed inclusively, without taking self time from their callers.
TRANSPARENT: Tuple[Tuple[str, str, str], ...] = (
    ("engine.run", "repro.sim.engine", "Simulator.run"),
)

#: Spans whose per-call inclusive durations are kept.
DURATIONS = ("controllers.lsc_join",)

#: Spans too frequent to write as individual trace events.
_NO_EVENTS = ("latency.delay_model", "latency.matrix", "routing_table.upsert", "transport.data")

#: Trace events kept per process (later spans are still counted and timed).
MAX_EVENTS = 200_000


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) of ``module:path``."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, original


def check_entry_points() -> None:
    """Raise if any traced entry point cannot be resolved in the program."""
    missing = []
    for _name, module, path in SPANS + COUNTERS + TRANSPARENT:
        try:
            _resolve(module, path)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}:{path}")
    if missing:
        raise RuntimeError(f"traced entry points not found in the program: {', '.join(missing)}")


class Tracer:
    """Span, counter and duration records of one process."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[int]] = {}  # name -> [calls, self_ns, inclusive_ns]
        self.counts: Dict[str, List[int]] = {}
        self.durations: Dict[str, List[int]] = {name: [] for name in DURATIONS}
        self.events: List[Tuple[str, int, int]] = []
        self.insert_outcomes = [0, 0]  # [displaced, via CDN]
        self._stack: List[List[int]] = []
        self._transparent_depth = [0]
        self._patches: List[Tuple[object, str, object]] = []
        for name, _module, _path in SPANS + TRANSPARENT:
            self.stats.setdefault(name, [0, 0, 0])
        for name, _module, _path in COUNTERS:
            self.counts.setdefault(name, [0])

    def reset(self) -> None:
        """Clear every record in place (installed wrappers keep working)."""
        for entry in self.stats.values():
            entry[:] = [0, 0, 0]
        for entry in self.counts.values():
            entry[0] = 0
        for samples in self.durations.values():
            samples.clear()
        self.events.clear()
        self.insert_outcomes[:] = [0, 0]
        self._stack.clear()
        self._transparent_depth[0] = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point (undone by :meth:`uninstall`).

        Raises before patching anything when the program no longer has
        one of the entry points: its layer would otherwise read 0, which
        looks like a perfect improvement.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        check_entry_points()
        for name, module, path in SPANS:
            self._patch(module, path, lambda fn, name=name: self._span(name, fn))
        for name, module, path in COUNTERS:
            self._patch(module, path, lambda fn, name=name: self._counter(name, fn))
        for name, module, path in TRANSPARENT:
            self._patch(module, path, lambda fn, name=name: self._transparent(name, fn))

    def uninstall(self) -> None:
        """Restore every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, module: str, path: str, make: Callable) -> None:
        owner, attr, original = _resolve(module, path)
        wrapper = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module-level function is also bound, under its own name or an
        # alias, in every module that imported it: patch each binding.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, binding, original))
                    setattr(loaded, binding, wrapper)

    # -- wrappers -----------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        entry = self.stats[name]
        stack = self._stack
        events = self.events
        clock = time.perf_counter_ns
        record_event = name not in _NO_EVENTS
        durations = self.durations.get(name)
        outcomes = self.insert_outcomes if name == "topology.insert" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry[0] += 1
                entry[1] += duration - frame[0]
                entry[2] += duration
                if durations is not None:
                    durations.append(duration)
                if record_event and len(events) < MAX_EVENTS:
                    events.append((name, start, duration))
            if outcomes is not None:
                if result.displaced_node_id is not None:
                    outcomes[0] += 1
                if result.via_cdn:
                    outcomes[1] += 1
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        entry = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _transparent(self, name: str, fn: Callable) -> Callable:
        entry = self.stats[name]
        depth = self._transparent_depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                entry[0] += 1
                entry[2] += clock() - start

        return wrapper

    # -- export ---------------------------------------------------------------------

    def export(self) -> dict:
        """A JSON-ready copy of every record of this process."""
        return {
            "pid": os.getpid(),
            "stats": {name: list(entry) for name, entry in self.stats.items()},
            "counts": {name: entry[0] for name, entry in self.counts.items()},
            "durations": {name: list(samples) for name, samples in self.durations.items()},
            "insert_outcomes": list(self.insert_outcomes),
            "events": [list(event) for event in self.events],
        }


def chrome_trace(exports: List[dict], metadata: Optional[dict] = None) -> dict:
    """Chrome trace-event JSON of one or more processes' exported spans."""
    trace_events = []
    for export in exports:
        pid = export["pid"]
        for name, start_ns, duration_ns in export["events"]:
            trace_events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": start_ns / 1000.0,
                "dur": duration_ns / 1000.0,
                "pid": pid,
                "tid": pid,
            })
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": export.get("label", f"pid {pid}")},
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms", "otherData": metadata or {}}


def merge_exports(exports: List[dict]) -> dict:
    """Sum several processes' span, counter and insert-outcome records
    (the work of all shard workers)."""
    merged = {"stats": {}, "counts": {}, "insert_outcomes": [0, 0]}
    for export in exports:
        for name, entry in export["stats"].items():
            total = merged["stats"].setdefault(name, [0, 0, 0])
            for index, value in enumerate(entry):
                total[index] += value
        for name, value in export["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        for index, value in enumerate(export["insert_outcomes"]):
            merged["insert_outcomes"][index] += value
    return merged
