"""The benchmark workloads and the rounds that run them.

``BENCHMARK.json`` lists ``multiview_churn``, ``qoe_replay`` and
``sharded_failover``; ``broadcast_join`` and ``join_race`` run by name
(see the README for why they are not listed).

A *round* builds one workload's scenario from its seed, replays the
whole schedule, and checks the outputs (``perfbench/checks.py``).  Every
round of a run repeats exactly the same operations, so the share of
failed operations is the same however many rounds fit in a run.  An
*operation* is one scheduled workload event: a join, view change,
departure, failure or LSC failure.  Only ``join_race`` has failing
operations: a fixed probe schedule that the program's known fault
(``checks.KNOWN_FAULT``) fails on every seed.

Seeds: one benchmark seed ``s`` derives the audience and its schedule --
``seed = s``, ``churn_seed = s + 2`` and the outage victim seed ``s + 4``,
the offsets ``repro.scenarios`` presets use for seed sweeps.  The
latency world stays fixed at ``latency_seed = 3`` (the paper config's):
it places the controllers, and so sets the median join delay and the
shard load balance, which would otherwise swing by 10-25% from seed to
seed -- wider than any bound that could catch a regression.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments import runner as experiment_runner
from repro.metrics.stats import percentile
from repro.parallel import run_sharded_scenario
from repro.traces.workload import ChurnConfig, OutageConfig, ViewerEvent

from checks import (
    Violation,
    check_full_views,
    check_overlay,
    check_qoe,
    check_sharded,
    last_event_kinds,
)
from tracing import Tracer, merge_exports

BROADCAST_VIEWERS = 3000
CHURN_VIEWERS = 2000
QOE_VIEWERS = 1000
QOE_FRAMES_PER_STREAM = 40
QOE_LOSS_RATE = 0.02
SHARDED_VIEWERS = 6000
SHARDED_WORKERS = 2
JOIN_RACE_VIEWERS = 2000
#: Every this-many-th joining viewer of ``join_race`` runs a probe pattern.
RACE_EVERY = 25
#: How long after a (re)join a probe's departure or failure is sent (s).
RACE_GAP = 1e-6
#: Where shard workers leave their reports and traced runs their traces.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


#: The latency world every seed shares.
LATENCY_SEED = 3


def derive_seeds(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Apply one benchmark seed to the RNG seeds of a config."""
    updates = {"seed": seed, "latency_seed": LATENCY_SEED, "churn_seed": seed + 2}
    if config.outage is not None:
        updates["outage"] = replace(config.outage, seed=seed + 4)
    return config.with_(**updates)


def broadcast_join_config(seed: int, viewers: int = BROADCAST_VIEWERS) -> ExperimentConfig:
    """One view for everyone, 3 LSCs, uncapped CDN, all arrive at t=0."""
    config = PAPER_CONFIG.with_scaled_population(
        viewers, num_lscs=3, num_views=1
    ).with_uncapped_cdn()
    return derive_seeds(config, seed)


def multiview_churn_config(seed: int, viewers: int = CHURN_VIEWERS) -> ExperimentConfig:
    """8 Zipf(1.0) views, capped CDN, 3 LSCs, simulated control plane.

    Arrivals spread over the first 30 s; view changes over the whole
    session; from t=40 s Poisson churn of which half are graceful
    departures and half abrupt failures.  Churn starts after the last
    arrival and departed viewers do not rejoin: a departure overtaking
    the same viewer's in-flight join leaves that viewer connected, which
    here would fail operations on some seeds and not on others.
    ``join_race`` provokes that fault, and runs rejoins, on fixed
    operations instead.
    """
    config = PAPER_CONFIG.with_scaled_population(
        viewers,
        num_lscs=3,
        control_plane="simulated",
        view_change_probability=0.3,
        session_duration=120.0,
        arrival_rate_per_second=viewers / 30.0,
        churn=ChurnConfig(
            failure_rate_per_second=viewers / 1000.0,
            graceful_fraction=0.5,
            start_time=40.0,
            duration=80.0,
        ),
    )
    return derive_seeds(config, seed)


def qoe_replay_config(seed: int, viewers: int = QOE_VIEWERS) -> ExperimentConfig:
    """~1,000 viewers, 2 LSCs, capped CDN, instant control plane, data plane
    with Gilbert-Elliott loss (2% mean, burst 3) and the observed-delay
    kappa refresh every 2 s of the 4 s replayed per stream."""
    config = PAPER_CONFIG.with_scaled_population(
        viewers,
        num_lscs=2,
        data_plane="simulated",
        data_loss_rate=QOE_LOSS_RATE,
        data_loss_model="gilbert",
        data_mean_burst_length=3.0,
        replay_frames_per_stream=QOE_FRAMES_PER_STREAM,
        data_refresh_interval=2.0,
    )
    return derive_seeds(config, seed)


def join_race_config(seed: int, viewers: int = JOIN_RACE_VIEWERS) -> ExperimentConfig:
    """The paper's 8 Zipf views, 3 LSCs, simulated control plane, arrivals
    over 30 s and no other seeded event; :func:`join_race_schedule` adds
    the probes.  The CDN is uncapped so that every join is admitted."""
    config = PAPER_CONFIG.with_scaled_population(
        viewers,
        num_lscs=3,
        control_plane="simulated",
        arrival_rate_per_second=viewers / 30.0,
        session_duration=60.0,
    ).with_uncapped_cdn()
    return derive_seeds(config, seed)


def join_race_schedule(events: List[ViewerEvent]) -> List[ViewerEvent]:
    """The seeded joins plus a probe on every ``RACE_EVERY``-th joining viewer.

    Timed from the viewer's join at ``t``, the probes cycle through:

    0. depart at ``t + RACE_GAP``: the notice overtakes the join request;
    1. fail at ``t + RACE_GAP``: the failure notice overtakes it;
    2. fail at ``t + 10``, rejoin at ``t + 20``, depart ``RACE_GAP`` later:
       the notice overtakes the rejoin request;
    3. fail at ``t + 10``, rejoin at ``t + 20``: a rejoin that stays.

    The join request travels viewer -> GSC -> LSC and a notice the one
    viewer -> LSC leg, so in patterns 0-2 the notice always lands first.
    The number of operations does not depend on the seed, and neither do
    the ones the fault fails: the viewers of patterns 0-2, who end
    connected although their last event is a departure or failure.
    """
    joins = [event for event in events if event.kind == "join"]
    probes: List[ViewerEvent] = []
    for index, join in enumerate(joins[::RACE_EVERY]):
        t, viewer_id, pattern = join.time, join.viewer_id, index % 4
        if pattern < 2:
            kind = "depart" if pattern == 0 else "fail"
            probes.append(ViewerEvent(time=t + RACE_GAP, kind=kind, viewer_id=viewer_id))
            continue
        probes.append(ViewerEvent(time=t + 10.0, kind="fail", viewer_id=viewer_id))
        probes.append(ViewerEvent(
            time=t + 20.0, kind="join", viewer_id=viewer_id, view_index=join.view_index
        ))
        if pattern == 2:
            probes.append(ViewerEvent(time=t + 20.0 + RACE_GAP, kind="depart", viewer_id=viewer_id))
    # A stable sort keeps each viewer's events in causal order.
    return sorted(list(events) + probes, key=lambda event: event.time)


def sharded_failover_config(seed: int, viewers: int = SHARDED_VIEWERS) -> ExperimentConfig:
    """The broadcast shape over 4 LSCs, arrivals spread over 60 s, and LSC-1
    crashing at t=30 s with 30% of its viewers.  The CDN stays uncapped:
    under a cap the sharded engine over-admits (see the README)."""
    config = PAPER_CONFIG.with_scaled_population(
        viewers,
        num_lscs=4,
        num_views=1,
        arrival_rate_per_second=viewers / 60.0,
        session_duration=60.0,
        outage=OutageConfig(time=30.0, lsc_index=1, viewer_fraction=0.3),
    ).with_uncapped_cdn()
    return derive_seeds(config, seed)


@dataclass
class Round:
    """What one round measured and found."""

    measured: bool
    traced: bool
    ops: int
    joins: int
    failed: int
    violations: List[Violation]
    raised: bool = False
    setup_s: float = 0.0
    run_s: float = 0.0
    peak_rss_mb: float = 0.0
    entry_rss_mb: float = 0.0
    simulated: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    exports: List[dict] = field(default_factory=list)


def _ops_by_viewer(events) -> Counter:
    return Counter(event.viewer_id for event in events)


def _failed_ops(violations: List[Violation], ops_by_viewer: Counter, total: int) -> int:
    """Operations a round's violations implicate (all, for a run-wide one)."""
    if not violations:
        return 0
    if any(v.viewer_id is None for v in violations):
        return total
    return sum(ops_by_viewer[viewer] for viewer in {v.viewer_id for v in violations})


def _lsc_join_metrics(per_process: List[List[int]]) -> Dict[str, float]:
    """Percentiles and first/last-tenth means of the LSC join durations (us)."""
    flat = [ns / 1000.0 for samples in per_process for ns in samples]
    first, last = [], []
    for samples in per_process:
        tenth = max(1, len(samples) // 10)
        if samples:
            first.append(sum(samples[:tenth]) / tenth / 1000.0)
            last.append(sum(samples[-tenth:]) / tenth / 1000.0)
    return {
        "controllers.lsc_join.us_p50": percentile(flat, 50.0) if flat else 0.0,
        "controllers.lsc_join.us_p99": percentile(flat, 99.0) if flat else 0.0,
        "controllers.lsc_join.us_first_tenth": sum(first) / len(first) if first else 0.0,
        "controllers.lsc_join.us_last_tenth": sum(last) / len(last) if last else 0.0,
    }


#: Spans reported as a ``.calls`` count and a ``.s`` self time.
_CALLS_AND_SELF = (
    "controllers.gsc_route",
    "controllers.lsc_join",
    "topology.insert",
    "topology.remove",
    "bandwidth.allocate",
    "subscription.plan",
    "routing_table.upsert",
    "latency.delay_model",
    "latency.matrix",
    "adaptation.view_change",
    "adaptation.refresh",
    "recovery.repair",
    "metrics.snapshot",
)

PARALLEL_METRICS = (
    "parallel.worker_build.s_max",
    "parallel.worker_run.s_max",
    "parallel.worker_run.s_min",
    "parallel.barrier_wait.s",
    "parallel.coordinator.s",
    "parallel.critical_path.s",
)


def layer_metrics(exports: List[dict], *, joins: int, fired: int) -> Dict[str, float]:
    """Every per-layer metric of one traced round (zero where a layer idled)."""
    merged = merge_exports(exports)
    stats, counts = merged["stats"], merged["counts"]

    def self_s(name: str) -> float:
        return stats[name][1] / 1e9

    metrics: Dict[str, float] = {
        "build.workload.s": self_s("build.workload"),
        "build.latency.s": self_s("build.latency"),
        "build.system.s": self_s("build.system"),
    }
    for name in _CALLS_AND_SELF:
        metrics[f"{name}.calls"] = stats[name][0]
        metrics[f"{name}.s"] = self_s(name)
    metrics.update(_lsc_join_metrics(
        [export["durations"]["controllers.lsc_join"] for export in exports]
    ))
    displaced, via_cdn = merged["insert_outcomes"]
    metrics["topology.insert.displaced"] = displaced
    metrics["topology.insert.cdn_fallback"] = via_cdn
    metrics["ids.intern.calls"] = counts["ids.intern"]
    metrics["stream_id.hash.per_join"] = counts["stream_id.hash"] / joins if joins else 0.0
    metrics["engine.events_fired"] = fired
    engine_us = stats["engine.run"][2] / 1000.0
    metrics["engine.us_per_event"] = engine_us / fired if fired else 0.0
    metrics["transport.control.sent"] = stats["transport.control"][0]
    metrics["transport.control.s"] = self_s("transport.control")
    metrics["transport.data.transmits"] = stats["transport.data"][0]
    metrics["transport.data.s"] = self_s("transport.data")
    metrics["dataplane.replay.s"] = self_s("dataplane.replay")
    metrics["metrics.summary.s"] = self_s("metrics.summary")
    for name in PARALLEL_METRICS:
        metrics[name] = 0.0
    return metrics


class SingleProcessSession:
    """Rounds of a workload that runs in the benchmark's own process.

    An untraced round builds the scenario ``setup_repeats`` times and
    reports the median build as its ``setup_s`` (a short build is noisy);
    the last build is the one replayed.  A traced round builds once, so
    its ``build.*`` spans are those of one build.  ``schedule``, when
    given, rewrites the built schedule (``join_race``'s probes).
    """

    def __init__(
        self,
        name: str,
        config: ExperimentConfig,
        extra_checks: Callable,
        *,
        setup_repeats: int = 1,
        schedule: Optional[Callable[[List[ViewerEvent]], List[ViewerEvent]]] = None,
    ) -> None:
        self.name = name
        self.config = config
        self.extra_checks = extra_checks
        self.setup_repeats = setup_repeats
        self.schedule = schedule
        self.tracer = Tracer()
        self.ops: Optional[int] = None
        self.joins = 0

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        self.tracer.uninstall()

    def failed_round(self) -> Round:
        """The round that raised: every operation of it failed."""
        if self.ops is None:
            raise RuntimeError("the workload's scenario could not be built")
        return Round(False, False, self.ops, self.joins, self.ops, [], raised=True)

    def round(self, traced: bool) -> Round:
        config = self.config
        gc.collect()
        try:
            if traced:
                self.tracer.reset()
                self.tracer.install()
            builds = []
            for _ in range(1 if traced else self.setup_repeats):
                scenario = system = None  # free the previous build first
                started = time.perf_counter()
                # Called through the module so the tracer's wrappers apply.
                scenario = experiment_runner.build_scenario(config)
                if self.schedule is not None:
                    scenario.events = self.schedule(scenario.events)
                system = experiment_runner.build_telecast_system(scenario)
                built = time.perf_counter()
                builds.append(built - started)
            events = scenario.events
            self.ops = len(events)
            self.joins = sum(1 for event in events if event.kind == "join")
            metrics = system.run_workload(
                scenario.viewers,
                scenario.events,
                scenario.views,
                snapshot_every=100,
                control_plane=config.control_plane,
                heartbeat_period=config.heartbeat_period,
                control_delay_scale=config.control_delay_scale,
                data_plane=config.data_plane_config(),
            )
            finished = time.perf_counter()
            summary = metrics.summary()
        finally:
            self.tracer.uninstall()
        violations, _ = check_overlay(system, last_event_kinds(events))
        violations += self.extra_checks(system, metrics, config)
        result = Round(
            measured=True,
            traced=traced,
            ops=self.ops,
            joins=self.joins,
            failed=_failed_ops(violations, _ops_by_viewer(events), self.ops),
            violations=violations,
            setup_s=statistics.median(builds),
            run_s=finished - built,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            simulated={
                "streams_accepted": metrics.acceptance_ratio,
                "cdn_mbps": system.cdn.used_outbound_mbps,
                "join_delay_p50_s": summary["join_delay_p50"],
                "frames_sent": metrics.data_frames_sent,
                "startup_delay_p50_s": summary.get("qoe_startup_delay_p50", 0.0),
            },
        )
        if traced:
            export = self.tracer.export()
            export["label"] = f"{self.name} (benchmark process)"
            result.exports = [export]
            result.layers = layer_metrics(
                result.exports, joins=self.joins, fired=system.simulator.fired
            )
        return result


def _broadcast_checks(system, metrics, config) -> List[Violation]:
    return check_full_views(system, metrics, config.num_viewers)


def _no_extra_checks(system, metrics, config) -> List[Violation]:
    return []


def _qoe_checks(system, metrics, config) -> List[Violation]:
    return check_qoe(
        metrics,
        loss_rate=config.data_loss_rate,
        d_buff=config.buffer_duration,
        delta=config.cdn_delta,
    )


def _resident_kb() -> int:
    """This process's resident set size now, in KiB."""
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * (os.sysconf("SC_PAGE_SIZE") // 1024)


def _schedule_summary(config: ExperimentConfig) -> dict:
    """What the checks of a sharded round need to know of the full schedule."""
    scenario = experiment_runner.build_scenario(config)
    events = scenario.events
    return {
        "ops": len(events),
        "joins": sum(1 for event in events if event.kind == "join"),
        "ops_by_viewer": _ops_by_viewer(events),
        "last_kinds": last_event_kinds(events),
        "population": len(scenario.viewers),
        "failed_viewers": sum(1 for event in events if event.kind == "fail"),
        "failed_lsc_id": next(e.viewer_id for e in events if e.kind == "lsc_fail"),
    }


class ShardProbe:
    """Timers and checks that run inside the shard workers.

    Installed in the benchmark process before the workers fork, so every
    worker inherits the wrappers.  Each worker writes one JSON report per
    round: when it started, when it sent ``ShardReady`` (its build is
    done), how long it waited at barriers, when it finished, its RSS at
    entry (the coordinator's pages it inherited at fork) and its peak
    RSS, its traced spans on traced rounds, and on the checked round the
    overlay violations and connected viewers of its own system.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.checked = False
        self.tracer: Optional[Tracer] = None
        self._patches: List[tuple] = []
        # Per-worker state, reset at worker entry.
        self._ready: Optional[float] = None
        self._barrier_wait = 0.0
        self._system = None

    def install(self) -> None:
        import repro.parallel.runner as runner_module
        import repro.parallel.worker as worker_module
        from repro.sim.transport import ShardQueueTransport

        probe = self
        run_worker = runner_module.run_shard_worker
        digests = worker_module.per_lsc_placement_digests
        send = ShardQueueTransport.send
        recv = ShardQueueTransport.recv

        def worker_entry(worker_index, *args, **kwargs):
            probe._worker(run_worker, worker_index, *args, **kwargs)

        def capture_digests(system):
            probe._system = system
            return digests(system)

        def timed_send(transport, message):
            if probe._ready is None:
                probe._ready = time.perf_counter()
            return send(transport, message)

        def timed_recv(transport, timeout=None):
            started = time.perf_counter()
            try:
                return recv(transport, timeout)
            finally:
                probe._barrier_wait += time.perf_counter() - started

        self._patches = [
            (runner_module, "run_shard_worker", run_worker),
            (worker_module, "per_lsc_placement_digests", digests),
            (ShardQueueTransport, "send", send),
            (ShardQueueTransport, "recv", recv),
        ]
        runner_module.run_shard_worker = worker_entry
        worker_module.per_lsc_placement_digests = capture_digests
        ShardQueueTransport.send = timed_send
        ShardQueueTransport.recv = timed_recv
        os.makedirs(self.directory, exist_ok=True)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        shutil.rmtree(self.directory, ignore_errors=True)

    def _worker(self, run_worker, worker_index, *args, **kwargs) -> None:
        started = time.perf_counter()
        entry_rss_kb = _resident_kb()
        self._ready = None
        self._barrier_wait = 0.0
        self._system = None
        if self.tracer is not None:
            self.tracer.reset()
        run_worker(worker_index, *args, **kwargs)
        ended = time.perf_counter()
        system = self._system
        report = {
            "worker": worker_index,
            "started": started,
            "ready": self._ready if self._ready is not None else ended,
            "ended": ended,
            "barrier_wait": self._barrier_wait,
            "entry_rss_kb": entry_rss_kb,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "fired": system.simulator.fired if system is not None else 0,
        }
        if self.tracer is not None:
            export = self.tracer.export()
            export["label"] = f"shard worker {worker_index}"
            report["trace"] = export
        if self.checked:
            if system is None:
                report["violations"] = [["tree_structure", None, "worker produced no system"]]
                report["connected"] = []
            else:
                violations, connected = check_overlay(system)
                report["violations"] = [list(v) for v in violations]
                report["connected"] = sorted(connected)
        path = os.path.join(self.directory, f"worker-{worker_index}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(report, handle)
        os.replace(path + ".tmp", path)

    def collect(self) -> List[dict]:
        """Read and remove every worker report of the round just run."""
        reports = []
        for entry in sorted(os.listdir(self.directory)):
            if entry.startswith("worker-") and entry.endswith(".json"):
                path = os.path.join(self.directory, entry)
                with open(path) as handle:
                    reports.append(json.load(handle))
                os.remove(path)
        return reports


class ShardedSession:
    """Rounds of ``sharded_failover`` through the shard-parallel engine.

    The first round is the checked round: its workers recompute the
    overlay constraints of their own systems after sending their results,
    so its times are not measured.  Every later round is measured
    untouched apart from the probe's timers, and must reproduce the
    checked round's per-LSC placement digests exactly.
    """

    def __init__(self, name: str, config: ExperimentConfig) -> None:
        self.name = name
        self.config = config
        self.workers = min(SHARDED_WORKERS, len(os.sched_getaffinity(0)), config.num_lscs)
        self.tracer = Tracer()
        self.probe = ShardProbe(os.path.join(OUT_DIR, f"shards-{os.getpid()}"))
        self.reference_digests: Optional[Dict[str, str]] = None

    def prepare(self) -> None:
        # The full schedule, which every shard's projection is a slice of,
        # is built in a throwaway child: the coordinator never holds a
        # built world, so the workers it forks do not inherit one.
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
            summary = pool.submit(_schedule_summary, self.config).result()
        self.ops = summary["ops"]
        self.joins = summary["joins"]
        self.ops_by_viewer = summary["ops_by_viewer"]
        self.last_kinds = summary["last_kinds"]
        self.population = summary["population"]
        self.failed_viewers = summary["failed_viewers"]
        self.failed_lsc_id = summary["failed_lsc_id"]
        self.probe.install()

    def close(self) -> None:
        self.tracer.uninstall()
        self.probe.uninstall()

    def failed_round(self) -> Round:
        """The round that raised: every operation of it failed."""
        self.probe.collect()
        return Round(False, False, self.ops, self.joins, self.ops, [], raised=True)

    def round(self, traced: bool) -> Round:
        gc.collect()
        checked = self.reference_digests is None
        self.probe.checked = checked
        self.probe.tracer = self.tracer if traced else None
        try:
            if traced:
                self.tracer.reset()
                self.tracer.install()
            started = time.perf_counter()
            outcome = run_sharded_scenario(
                self.config, num_workers=self.workers, mp_start_method="fork"
            )
            finished = time.perf_counter()
            summary = outcome.result.metrics.summary()
        finally:
            self.tracer.uninstall()
        reports = self.probe.collect()
        if len(reports) != self.workers:
            raise RuntimeError(f"{len(reports)} worker reports for {self.workers} workers")
        result = outcome.result
        violations: List[Violation] = []
        if checked:
            seen = set()
            for report in reports:
                violations += [Violation(*v) for v in report["violations"]]
                for viewer_id in report["connected"]:
                    if viewer_id in seen:
                        violations.append(Violation(
                            "single_home", viewer_id, f"{viewer_id} connected in two shards"
                        ))
                    seen.add(viewer_id)
            violations += [
                Violation("departed_connected", viewer_id, f"{viewer_id}: last event {kind} but connected")
                for viewer_id, kind in self.last_kinds.items()
                if kind in ("depart", "fail") and viewer_id in seen
            ]
            self.reference_digests = dict(result.placement_digests)
        violations += check_sharded(
            result,
            population=self.population,
            failed_viewers=self.failed_viewers,
            failed_lsc_id=self.failed_lsc_id,
            reference_digests=None if checked else self.reference_digests,
        )
        builds = [report["ready"] - report["started"] for report in reports]
        lifetimes = [report["ended"] - report["started"] for report in reports]
        wall = finished - started
        round_result = Round(
            measured=not checked,
            traced=traced,
            ops=self.ops,
            joins=self.joins,
            failed=_failed_ops(violations, self.ops_by_viewer, self.ops),
            violations=violations,
            setup_s=max(builds),
            run_s=wall,
            peak_rss_mb=max(report["maxrss_kb"] for report in reports) / 1024.0,
            entry_rss_mb=max(report["entry_rss_kb"] for report in reports) / 1024.0,
            simulated={
                "streams_accepted": result.metrics.acceptance_ratio,
                "cdn_mbps": result.cdn_outbound_mbps,
                "join_delay_p50_s": summary["join_delay_p50"],
            },
        )
        if traced:
            parent = self.tracer.export()
            parent["label"] = "coordinator (benchmark process)"
            parent["events"].append(("parallel.run_sharded_scenario", int(started * 1e9), int(wall * 1e9)))
            exports = [parent]
            for report, lifetime in zip(reports, lifetimes):
                export = report["trace"]
                export["events"].append(
                    ("parallel.worker", int(report["started"] * 1e9), int(lifetime * 1e9))
                )
                exports.append(export)
            round_result.exports = exports
            layers = layer_metrics(
                exports, joins=self.joins, fired=sum(report["fired"] for report in reports)
            )
            runs = [
                report["ended"] - report["ready"] - report["barrier_wait"] for report in reports
            ]
            layers.update({
                "parallel.worker_build.s_max": max(builds),
                "parallel.worker_run.s_max": max(runs),
                "parallel.worker_run.s_min": min(runs),
                "parallel.barrier_wait.s": max(report["barrier_wait"] for report in reports),
                "parallel.coordinator.s": wall - max(lifetimes),
                "parallel.critical_path.s": max(lifetimes),
            })
            round_result.layers = layers
        return round_result


@dataclass(frozen=True)
class Workload:
    """One named workload: its config and why the benchmark has it."""

    name: str
    why: str
    config: Callable[[int], ExperimentConfig]
    session: Callable[[str, ExperimentConfig], object]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "broadcast_join",
            "one view for all: trees grow as large as the audience, so the join path does nearly all the work",
            broadcast_join_config,
            lambda name, config: SingleProcessSession(
                name, config, _broadcast_checks, setup_repeats=5
            ),
        ),
        Workload(
            "multiview_churn",
            "8 Zipf views split the audience into small trees; engine, control transport, adaptation and recovery carry the load",
            multiview_churn_config,
            lambda name, config: SingleProcessSession(
                name, config, _no_extra_checks, setup_repeats=5
            ),
        ),
        Workload(
            "join_race",
            "joins through the simulated control plane; fixed notices that overtake their own join fail the same ops every run",
            join_race_config,
            lambda name, config: SingleProcessSession(
                name, config, _no_extra_checks, setup_repeats=5, schedule=join_race_schedule
            ),
        ),
        Workload(
            "qoe_replay",
            "per-frame data-plane events dominate; below the lazy-latency threshold, so setup builds the eager matrix",
            qoe_replay_config,
            lambda name, config: SingleProcessSession(name, config, _qoe_checks),
        ),
        Workload(
            "sharded_failover",
            "the only path through repro.parallel: worker build, the lsc_fail barrier, failover migration and merge",
            sharded_failover_config,
            ShardedSession,
        ),
    )
}
