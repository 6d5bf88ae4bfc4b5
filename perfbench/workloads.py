"""The benchmark's four workloads, each a stream of seeded sweep points.

A *point* is one seeded simulation.  Points come in *cycles* (one pass
over the workload's parameter grid); a run executes whole cycles, so the
mix of point kinds behind every percentile is the same in every run.
Every point's seed derives from the workload seed through
:func:`repro.sweep.derive_seed`.

Each point returns a :class:`Point`: its host time, the symbols it
transmitted and delivered intact, the simulated delays of its deliveries,
its achieved and model rates, the program outputs that must be identical
between passes, and the correctness-gate failures (empty when correct).

Load model: one client in a closed loop -- the next point starts when the
previous one ends, in this process (``jobs=1``, ``shards=1``).  Inside a
point, traffic is open-loop in simulated time.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.experiments.fig3
import repro.fleet.cell
import repro.fleet.runner
from repro.adversary.active.harness import DEFAULT_DELAYS, DEFAULT_RISKS, run_under_attack
from repro.adversary.active.scenarios import canonical_attack
from repro.core.channel import Channel, ChannelSet
from repro.core.planner import Requirements
from repro.core.rate import optimal_rate
from repro.experiments.fig3 import fig3_point, fig3_spec
from repro.netsim.rng import RngRegistry
from repro.netsim.trace import RateMeter
from repro.protocol.auth import AuthConfig, derive_root_key
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork, RemicssNode
from repro.sweep import SweepRunner, canonical_json, derive_seed, values
from repro.workloads.fleet import run_fleet
from repro.workloads.iperf import practical_max_rate, run_iperf
from repro.workloads.setups import lossy_setup

from spans import Patches, Tracer

_now = time.perf_counter


@dataclass
class Point:
    """What one point produced (see the module docstring)."""

    index: int
    host_s: float
    transmitted: int
    delivered: int
    delays: List[float]
    achieved_rate: float
    optimal_rate: float
    outputs: Dict[str, Any]
    errors: List[str] = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 over the point's outputs and delivery delays."""
        body = canonical_json(self.outputs) + repr(self.delays)
        return hashlib.sha256(body.encode()).hexdigest()


class Taps:
    """Value taps on the program, installed for the whole run.

    They copy out what a workload checks or measures and do no timing:
    the simulated delay of every delivery (``RemicssNode.on_deliver``
    callbacks and the fleet cell's per-delivery digest update), the
    ``run_iperf`` result behind each Figure 3 point, and each fleet cell's
    result and simulated makespan.
    """

    def __init__(self) -> None:
        self.delays: List[float] = []
        self.iperf = None
        self.cells: List[Tuple[Dict[str, Any], Dict[str, Any], float]] = []
        self._network: Optional[PointToPointNetwork] = None

    def reset(self) -> None:
        self.delays = []
        self.iperf = None
        self.cells = []

    def install(self, patches: Patches) -> None:
        taps = self

        def on_deliver(original: Callable) -> Callable:
            def register(node: RemicssNode, callback: Callable) -> None:
                def tapped(seq: int, payload: Optional[bytes], delay: float) -> None:
                    taps.delays.append(delay)
                    callback(seq, payload, delay)

                original(node, tapped)

            return register

        def iperf(original: Callable) -> Callable:
            def run(*args: Any, **kwargs: Any):
                taps.iperf = original(*args, **kwargs)
                return taps.iperf

            return run

        def digest_update(original: Callable) -> Callable:
            def update(digest, seq: int, payload: Optional[bytes], delay: float) -> None:
                taps.delays.append(delay)
                original(digest, seq, payload, delay)

            return update

        def network(original: Callable) -> Callable:
            def build(*args: Any, **kwargs: Any) -> PointToPointNetwork:
                taps._network = original(*args, **kwargs)
                return taps._network

            return build

        def run_cell(original: Callable) -> Callable:
            def run(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
                value = original(params, seed)
                taps.cells.append((params, value, taps._network.engine.now))
                taps._network = None
                return value

            return run

        patches.wrap(RemicssNode, "on_deliver", on_deliver)
        patches.wrap(repro.experiments.fig3, "run_iperf", iperf)
        patches.wrap(repro.fleet.cell, "_digest_update", digest_update)
        patches.wrap(repro.fleet.cell, "PointToPointNetwork", network)
        patches.wrap(repro.fleet.runner, "run_cell", run_cell)


def run_point(index: int, fn: Callable[[], Any], tracer: Optional[Tracer]) -> Tuple[Any, float]:
    """Run one point; returns its value and host seconds.

    Untraced, the only addition is the timer.  Traced, the point is the
    root span of trace ``index`` and its counters are closed afterwards.
    """
    if tracer is None:
        started = _now()
        value = fn()
        return value, _now() - started
    tracer.trace_id = index
    started = _now()
    value = tracer.call("workload", "point", fn)
    host_s = _now() - started
    tracer.end_point()
    return value, host_s


class Workload:
    """A named stream of points; subclasses define one cycle."""

    name = ""
    #: Points per cycle.
    cycle_points = 1
    #: Leading cycles whose points give the simulated metrics (and which
    #: the traced pass replays).
    sim_cycles = 1

    def __init__(self, taps: Taps) -> None:
        self.taps = taps

    def seed(self, wseed: int, **params: Any) -> int:
        return derive_seed(f"perfbench/{self.name}", {"seed": wseed, **params})

    def jitter(self, wseed: int, index: int, size: int) -> np.ndarray:
        """``size`` factors in [0.8, 1.2] drawn for point ``index``: the
        per-point spread of an input (a propagation delay), so that
        simulated delays do not sit on one lattice for every seed."""
        rng = np.random.default_rng(self.seed(wseed, point=index, input="jitter"))
        return rng.uniform(0.8, 1.2, size)

    def run_cycle(
        self, wseed: int, cycle: int, tracer: Optional[Tracer] = None, limit: int = 0
    ) -> List[Point]:
        """The points of one cycle (only the first ``limit`` when nonzero)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed point on a seed no measured point uses."""
        self.run_cycle(-1, 0, limit=1)


class FigureSweep(Workload):
    """Synthetic-share Figure 3 points on the Diverse setup, through
    ``SweepRunner.run(fig3_spec("diverse", ...), fig3_point)``."""

    name = "figure_sweep"
    KAPPAS = (1.0, 2.0, 3.0, 4.0, 5.0)
    MU_STEP = 0.5
    DURATION = 5.0
    WARMUP = 1.0
    cycle_points = 25
    sim_cycles = 4

    def spec(self, wseed: int, cycle: int):
        return fig3_spec(
            "diverse", kappas=self.KAPPAS, mu_step=self.MU_STEP,
            duration=self.DURATION, warmup=self.WARMUP,
            seed=self.seed(wseed, cycle=cycle),
        )

    def run_cycle(
        self, wseed: int, cycle: int, tracer: Optional[Tracer] = None, limit: int = 0
    ) -> List[Point]:
        spec = self.spec(wseed, cycle)
        points: List[Point] = []
        first = cycle * len(spec)

        def point_fn(params: Dict[str, Any], seed: int) -> Dict[str, float]:
            index = first + len(points)
            self.taps.reset()
            value, host_s = run_point(index, lambda: fig3_point(params, seed), tracer)
            points.append(self.point(index, host_s, value))
            return value

        values(SweepRunner().run(spec, point_fn))
        return points

    def warm_up(self) -> None:
        point = self.spec(-1, 0).points()[0]
        fig3_point(dict(point.params), point.seed)

    def point(self, index: int, host_s: float, value: Dict[str, float]) -> Point:
        result = self.taps.iperf
        sent = result.sender_stats["symbols_sent"]
        delivered = result.receiver_stats["symbols_delivered"]
        errors = []
        if delivered > sent:
            errors.append(f"point {index}: delivered {delivered} > transmitted {sent}")
        return Point(
            index=index,
            host_s=host_s,
            transmitted=sent,
            delivered=delivered,
            delays=self.taps.delays,
            achieved_rate=value["achieved_rate"],
            optimal_rate=value["optimal_rate"],
            outputs={
                "value": value,
                "window": [result.symbols_transmitted, result.symbols_delivered],
                "sender": result.sender_stats,
                "receiver": result.receiver_stats,
            },
            errors=errors,
        )


@dataclass
class TestbedRun:
    """What :func:`drive_testbed` observed in one run."""

    transmitted: int  # in the measurement window, as run_iperf counts
    delivered: int  # in the measurement window, as run_iperf counts
    intact: int  # deliveries equal to their offered payload (whole run)
    achieved_rate: float
    sender_stats: dict
    receiver_stats: dict
    delays: List[float]
    digest: str
    errors: List[str]


def drive_testbed(
    channels: ChannelSet,
    config: ProtocolConfig,
    offered_rate: float,
    duration: float,
    warmup: float,
    seed: int,
) -> TestbedRun:
    """``run_iperf(..., auth=True)``'s assembly, keeping every delivery.

    Builds the stack exactly as ``run_iperf`` does (same streams, same
    event order), so its counters match ``run_iperf`` on the same seed;
    in addition it remembers each accepted payload and compares every
    delivery with it byte for byte.
    """
    config = replace(config, auth=AuthConfig(root_key=derive_root_key(seed)))
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, config.symbol_size, registry, queue_limit=16)
    engine = network.engine
    node_a, node_b = network.node_pair(config, registry)

    meter = RateMeter()
    delays: List[float] = []
    originals: Dict[int, bytes] = {}
    errors: List[str] = []
    digest = hashlib.sha256()
    accepted = [0]
    intact = [0]
    transmitted_at_open = [0]

    def on_deliver(seq: int, payload: Optional[bytes], delay: float) -> None:
        meter.record(engine.now)
        delays.append(delay)
        digest.update(f"{seq}:{hashlib.sha256(payload).hexdigest()}:{delay!r}\n".encode())
        original = originals.pop(seq, None)
        if original is None or payload != original:
            errors.append(f"seq {seq}: delivered payload differs from the offered one")
        else:
            intact[0] += 1

    node_b.on_deliver(on_deliver)
    payload_rng = registry.stream("workload.payload")
    interval = 1.0 / offered_rate
    end_time = warmup + duration

    def offer() -> None:
        payload = payload_rng.bytes(config.symbol_size)
        if node_a.send(payload):
            originals[accepted[0]] = payload
            accepted[0] += 1
        if engine.now + interval < end_time:
            engine.schedule(interval, offer)

    def open_window() -> None:
        meter.start(engine.now)
        transmitted_at_open[0] = node_a.sender.stats.symbols_sent

    engine.schedule_at(0.0, offer)
    engine.schedule_at(warmup, open_window)
    engine.run_until(end_time)
    meter.stop(engine.now)
    return TestbedRun(
        transmitted=node_a.sender.stats.symbols_sent - transmitted_at_open[0],
        delivered=meter.count,
        intact=intact[0],
        achieved_rate=meter.rate(),
        sender_stats=node_a.sender.stats.as_dict(),
        receiver_stats=node_b.receiver.stats.as_dict(),
        delays=delays,
        digest=digest.hexdigest(),
        errors=errors,
    )


class TestbedAuth(Workload):
    """Real 1250-byte Shamir payloads with auth armed on the Lossy setup,
    offered at ``practical_max_rate``, per-symbol sharing path.

    Each channel gets a propagation delay of 0.1 ms, jittered per point:
    with the setup's zero delays every simulated delay is a sum of fixed
    serialisation times, and the delay p99 sits on the same value for
    almost every seed.
    """

    name = "testbed_auth"
    GRID = ((1.0, 2.0), (1.5, 2.5), (2.0, 3.0), (2.0, 4.0), (2.5, 3.5), (3.0, 4.0))
    # Short points: at practical_max_rate the source queue is critically
    # loaded, so its excursions (the delay tail) grow with run length;
    # many short points keep the pooled p99 steady across seeds.
    DURATION = 1.0
    WARMUP = 0.5
    #: Per-channel propagation delay (unit times), before the jitter.
    PROPAGATION = 0.01
    cycle_points = len(GRID)
    sim_cycles = 16

    def params(self, wseed: int, index: int, kappa: float, mu: float) -> Dict[str, Any]:
        lossy = list(lossy_setup())
        channels = ChannelSet(
            replace(channel, delay=self.PROPAGATION * float(factor))
            for channel, factor in zip(lossy, self.jitter(wseed, index, len(lossy)))
        )
        config = ProtocolConfig(kappa=kappa, mu=mu)
        return {
            "channels": channels,
            "config": config,
            "offered_rate": practical_max_rate(channels, mu, config.symbol_size),
            "duration": self.DURATION,
            "warmup": self.WARMUP,
            "seed": self.seed(wseed, point=index),
        }

    def run_cycle(
        self, wseed: int, cycle: int, tracer: Optional[Tracer] = None, limit: int = 0
    ) -> List[Point]:
        points = []
        for offset, (kappa, mu) in enumerate(self.GRID[: limit or None]):
            index = cycle * self.cycle_points + offset
            params = self.params(wseed, index, kappa, mu)
            self.taps.reset()
            run, host_s = run_point(index, lambda: drive_testbed(**params), tracer)
            points.append(Point(
                index=index,
                host_s=host_s,
                transmitted=run.sender_stats["symbols_sent"],
                delivered=run.intact,
                delays=run.delays,
                achieved_rate=run.achieved_rate,
                optimal_rate=optimal_rate(params["channels"], mu),
                outputs={
                    "digest": run.digest,
                    "window": [run.transmitted, run.delivered],
                    "sender": run.sender_stats,
                    "receiver": run.receiver_stats,
                },
                errors=[f"point {index}: {error}" for error in run.errors],
            ))
        return points

    def equivalence_errors(self, wseed: int) -> List[str]:
        """Differences between :func:`drive_testbed` and ``run_iperf`` on one seed."""
        kappa, mu = self.GRID[0]
        params = self.params(wseed, 0, kappa, mu)
        ours = drive_testbed(**params)
        theirs = run_iperf(
            params["channels"], params["config"], offered_rate=params["offered_rate"],
            duration=params["duration"], warmup=params["warmup"], seed=params["seed"],
            auth=True,
        )
        errors = []
        for name, mine, reference in (
            ("symbols_transmitted", ours.transmitted, theirs.symbols_transmitted),
            ("symbols_delivered", ours.delivered, theirs.symbols_delivered),
            ("sender_stats", ours.sender_stats, theirs.sender_stats),
            ("receiver_stats", ours.receiver_stats, theirs.receiver_stats),
        ):
            if mine != reference:
                errors.append(f"run_iperf equivalence: {name} {mine!r} != {reference!r}")
        return errors


class FleetBatched(Workload):
    """``run_fleet(synthetic=False)`` on the default batched sharing path:
    64-byte symbols, 32-flow cells, point-derived ``spec_id``.

    A cycle runs one fleet of each size in :attr:`FLOWS`.  Points of one
    size all do the same work, so with a single size the per-point
    percentiles would rank host noise; sizes a factor of two apart put
    p50 and p90 inside the 64- and 256-flow points.
    """

    name = "fleet_batched"
    FLOWS = (16, 32, 64, 128, 256)
    #: run_fleet's default per-channel propagation delay, jittered per point.
    DELAY = 0.05
    cycle_points = len(FLOWS)
    sim_cycles = 6

    def run_cycle(
        self, wseed: int, cycle: int, tracer: Optional[Tracer] = None, limit: int = 0
    ) -> List[Point]:
        return [
            self.run_fleet_point(wseed, cycle * self.cycle_points + offset, flows, tracer)
            for offset, flows in enumerate(self.FLOWS[: limit or None])
        ]

    def run_fleet_point(
        self, wseed: int, index: int, flows: int, tracer: Optional[Tracer]
    ) -> Point:
        spec_id = f"perfbench/fleet_batched/{self.seed(wseed, point=index)}"
        delay = self.DELAY * float(self.jitter(wseed, index, 1)[0])
        self.taps.reset()
        report, host_s = run_point(
            index,
            lambda: run_fleet(flows=flows, synthetic=False, delay=delay, spec_id=spec_id),
            tracer,
        )
        errors = []
        if report.kappa_floor_violations:
            errors.append(f"point {index}: {report.kappa_floor_violations} κ-floor violations")
        sent = achieved = optimum = 0.0
        for params, value, makespan in self.taps.cells:
            sent += value["sender"]["symbols_sent"]
            flows = value["flows"].values()
            delivered = sum(flow["delivered"] for flow in flows)
            if float(params["loss"]) == 0.0 and delivered != sum(f["offered"] for f in flows):
                errors.append(f"point {index}: lossless cell {params['cell']} lost symbols")
            channels = ChannelSet(
                Channel(risk=0.1, loss=float(params["loss"]), delay=float(params["delay"]),
                        rate=float(params["rate"]))
                for _ in range(int(params["channels"]))
            )
            mean_mu = sum(flow["mu"] for flow in params["flows"]) / len(params["flows"])
            achieved += delivered / makespan
            optimum += optimal_rate(channels, mean_mu)
        if report.delivered_total != report.offered_total:
            errors.append(
                f"point {index}: delivered {report.delivered_total} != "
                f"offered {report.offered_total}"
            )
        if report.delivered_total > sent:
            errors.append(f"point {index}: delivered more symbols than transmitted")
        return Point(
            index=index,
            host_s=host_s,
            transmitted=int(sent),
            delivered=report.delivered_total,
            delays=self.taps.delays,
            achieved_rate=achieved,
            optimal_rate=optimum,
            outputs={
                "fleet_digest": report.fleet_digest,
                "cells": [value for _params, value, _makespan in self.taps.cells],
            },
            errors=errors,
        )


class UnderAttack(Workload):
    """``run_under_attack`` with auth armed, cycling the five canonical
    attack scenarios at their default parameters, on the harness's default
    testbed with each channel's propagation delay jittered per point.

    The resilience layer is armed, with a risk bound that gives its
    failover an LP to re-plan with, on the three scenarios that attack
    shares only.  ``corruption_storm`` and ``replay_flood`` also corrupt
    the resilience layer's control frames, and a corrupted probe can carry
    an out-of-range channel index on which ``ResilienceManager`` raises
    ``IndexError`` (a known program defect, recorded in CHANGES.md); those
    two run without the resilience layer until it is fixed.
    ``targeted_corruption`` rewrites three of a symbol's four shares: one
    past the erasure radius m - k that auth gives, so the receiver holds
    partial symbols and NACK repair runs.
    """

    name = "under_attack"
    #: (scenario, overrides, resilience armed)
    SCENARIOS = (
        ("corruption_storm", {}, False),
        ("forged_injection", {}, True),
        ("replay_flood", {}, False),
        ("targeted_corruption", {"width": 3}, True),
        ("targeted_partition", {}, True),
    )
    KAPPA = 2.0
    MU = 4.0
    #: 80% of the testbed's R_C(µ) = 5 symbols per unit time, so shares
    #: queue and simulated delays spread.
    OFFERED_RATE = 4.0
    REQUIREMENTS = Requirements(max_risk=0.05)
    DURATION = 20.0
    WARMUP = 2.0
    ATTACK = (4.0, 16.0)
    cycle_points = len(SCENARIOS)
    sim_cycles = 8

    def run_cycle(
        self, wseed: int, cycle: int, tracer: Optional[Tracer] = None, limit: int = 0
    ) -> List[Point]:
        points = []
        for offset, (scenario, overrides, resilience) in enumerate(
            self.SCENARIOS[: limit or None]
        ):
            index = cycle * self.cycle_points + offset
            plan = canonical_attack(scenario, *self.ATTACK, **overrides)
            seed = self.seed(wseed, point=index)
            channels = ChannelSet(
                Channel(risk=risk, loss=0.0, delay=delay * float(factor), rate=4.0)
                for risk, delay, factor in zip(
                    DEFAULT_RISKS, DEFAULT_DELAYS, self.jitter(wseed, index, len(DEFAULT_RISKS))
                )
            )
            self.taps.reset()
            row, host_s = run_point(
                index,
                lambda: run_under_attack(
                    plan, kappa=self.KAPPA, mu=self.MU, offered_rate=self.OFFERED_RATE,
                    duration=self.DURATION, channels=channels,
                    warmup=self.WARMUP, seed=seed, auth=True, resilience=resilience,
                    requirements=self.REQUIREMENTS if resilience else None,
                ),
                tracer,
            )
            errors = []
            if row["wrong_payloads"]:
                errors.append(f"point {index}: {row['wrong_payloads']} wrong payloads")
            if not row["kappa_floor_held"]:
                errors.append(f"point {index}: κ floor not held")
            intact = row["delivered"] - row["wrong_payloads"]
            points.append(Point(
                index=index,
                host_s=host_s,
                transmitted=row["transmitted"],
                delivered=intact,
                delays=self.taps.delays,
                achieved_rate=intact / (self.WARMUP + self.DURATION),
                optimal_rate=optimal_rate(channels, self.MU),
                outputs=row,
                errors=errors,
            ))
        return points


WORKLOADS = {
    workload.name: workload
    for workload in (FigureSweep, TestbedAuth, FleetBatched, UnderAttack)
}
