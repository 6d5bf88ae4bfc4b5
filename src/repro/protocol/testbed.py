"""The one run assembly: the paper's two-host testbed (Sec. VI) and its parts.

``run_iperf``, ``run_echo``, ``run_trace``, ``run_under_attack`` and the
fleet's ``run_cell`` build their stacks with :meth:`Testbed.over` and only
drive traffic.  It alone knows the arming order (faults, attack, CPU
models, node pair, resilience, then observability for every part) and
that ``auth=True`` derives the root key from the run seed.  The harnesses
also share :func:`offer_at_rate` and :func:`update_digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.core.planner import Requirements
from repro.core.schedule import ShareSchedule
from repro.netsim.engine import Engine
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.netsim.host import CpuModel
from repro.netsim.rng import RngRegistry
from repro.obs.instrument import (
    Observability,
    instrument_attack,
    instrument_network,
    instrument_node,
    instrument_resilience,
)
from repro.protocol.auth import AuthConfig, derive_root_key
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork, RemicssNode
from repro.protocol.resilience import ResilienceConfig, ResilienceManager

#: Receiver CPU queue bound when a finite CPU capacity is modelled.
CPU_QUEUE_LIMIT = 64


@dataclass(frozen=True)
class Testbed:
    """Nodes A (sends forward) and B (sends reverse) over a shaped network;
    ``faults``, ``attack`` and ``resilience`` are ``None`` unless armed."""

    network: PointToPointNetwork
    registry: RngRegistry
    node_a: RemicssNode
    node_b: RemicssNode
    faults: Optional[FaultInjector] = None
    attack: Optional[Any] = None
    resilience: Optional[ResilienceManager] = None

    @classmethod
    def over(
        cls,
        network: PointToPointNetwork,
        config: ProtocolConfig,
        registry: RngRegistry,
        *,
        auth: bool = False,
        schedule: Optional[ShareSchedule] = None,
        cpu_capacity: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        attack_plan: Optional[Any] = None,
        resilience: Optional[ResilienceConfig] = None,
        requirements: Optional[Requirements] = None,
        obs: Optional[Observability] = None,
    ) -> "Testbed":
        """Arm the given parts on ``network`` (built from ``registry``).

        Args:
            config: protocol configuration of both nodes.
            auth: replace ``config.auth`` with :func:`seed_auth` (docs/AUTH.md).
            schedule: explicit share schedule (default: the dynamic sampler).
            cpu_capacity: work units per unit time of both hosts' send and
                receive paths; ``None`` means no CPU bottleneck.
            fault_plan: fault timeline (docs/FAULTS.md).
            attack_plan: active-adversary timeline (docs/ADVERSARY.md); the
                adaptive attacker ranks channels by their model risks.
            resilience: arms a ``ResilienceManager`` on A -> B
                (docs/RESILIENCE.md).
            requirements: bounds for its failover LP.
            obs: wired to every part built (docs/OBSERVABILITY.md).

        ``requirements`` without ``resilience`` raises ``ValueError``
        rather than go unused.
        """
        if requirements is not None and resilience is None:
            raise ValueError("requirements only feed the resilience failover LP; arm resilience")
        if auth:
            config = replace(config, auth=seed_auth(registry))
        engine = network.engine
        faults = network.apply_faults(fault_plan) if fault_plan is not None else None
        attack = None
        if attack_plan is not None:
            attack = network.apply_attack(attack_plan, registry)
        sender_cpu = receiver_cpu = None
        if cpu_capacity:
            sender_cpu = CpuModel(engine, cpu_capacity)
            receiver_cpu = CpuModel(engine, cpu_capacity, queue_limit=CPU_QUEUE_LIMIT)
        node_a, node_b = network.node_pair(
            config, registry, schedule=schedule,
            sender_cpu=sender_cpu, receiver_cpu=receiver_cpu,
        )
        manager = None
        if resilience is not None:
            manager = ResilienceManager(
                network, node_a, node_b, config, resilience, registry,
                requirements=requirements,
            )
        if obs is not None:
            instrument_network(obs, network)
            instrument_node(obs, node_a)
            instrument_node(obs, node_b)
            if manager is not None:
                instrument_resilience(obs, manager)
            if attack is not None:
                instrument_attack(obs, attack)
        return cls(network, registry, node_a, node_b, faults, attack, manager)

    def summaries(self) -> dict:
        """``faults``/``attack``/``resilience`` -> summary (``None`` if unarmed)."""
        parts = {"faults": self.faults, "attack": self.attack, "resilience": self.resilience}
        return {
            name: part.summary() if part is not None else None
            for name, part in parts.items()
        }


def seed_auth(registry: RngRegistry) -> AuthConfig:
    """Auth under a root key derived from the run seed, as ``auth=True`` arms
    it; for configs that need auth at construction (it relaxes a µ bound)."""
    return AuthConfig(root_key=derive_root_key(registry.root_seed))


def offer_at_rate(
    engine: Engine, rate: float, end_time: float, tick: Callable[[], None]
) -> None:
    """Call ``tick`` at times 0, 1/rate, 2/rate, ... while before ``end_time``
    (the first call is scheduled now; each call schedules the next)."""
    interval = 1.0 / rate

    def offer() -> None:
        tick()
        if engine.now + interval < end_time:
            engine.schedule(interval, offer)

    engine.schedule_at(0.0, offer)


def update_digest(
    digest: "hashlib._Hash", seq: int, payload: Optional[bytes], delay: float
) -> None:
    """Add one delivery (seq, payload SHA-256 or ``-``, delay) to a digest."""
    body = "-" if payload is None else hashlib.sha256(payload).hexdigest()
    digest.update(f"{seq}:{body}:{delay!r}\n".encode())
