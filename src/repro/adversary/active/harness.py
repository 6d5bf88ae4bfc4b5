"""The under-attack measurement harness.

One function, :func:`run_under_attack`, drives a seeded A -> B run with an
:class:`~repro.adversary.active.plan.AttackPlan` armed and returns a
JSON-safe row with everything the acceptance properties, the sweep grids,
``repro attack`` and ``bench_adversary.py`` assert on:

* **end-to-end integrity** -- every offered payload is remembered and
  every delivery compared byte-for-byte (``wrong_payloads`` counts silent
  corruption, the one outcome the robustness machinery must never allow);
* **the κ-floor audit** -- the minimum k the sender ever sampled
  (``min_k_sampled``) against ``floor(κ)``, plus the resilience layer's
  admission-pause accounting, so "the acceptance floor held or degraded
  detectably" is a checkable predicate;
* **a delivery digest** -- a SHA-256 over the ordered delivery trace,
  making byte-identical same-seed replay a one-line comparison.

Defaults are deliberately small (64-byte symbols, five zero-loss
channels with distinct risks) so a scenario runs in well under a second:
zero benign loss means every shortfall is attack-attributable, and the
distinct risks give the adaptive attacker a real ranking to exploit.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Sequence

from repro.core.channel import Channel, ChannelSet
from repro.netsim.rng import RngRegistry
from repro.netsim.trace import check_offer_window
from repro.protocol.auth import AuthConfig, derive_root_key
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.resilience import ResilienceConfig, ResilienceManager
from repro.adversary.active.plan import AttackPlan

#: Extra run time after the offer window closes so in-flight shares,
#: repair rounds and held batches drain before stats are read.
DRAIN = 12.0

#: Default testbed: five clean channels with strictly decreasing risks.
#: Zero loss/jitter isolates the adversary's contribution; the distinct
#: risks are the ranking the adaptive attacker partitions by.
DEFAULT_RISKS = (0.3, 0.25, 0.2, 0.15, 0.1)

#: Per-channel propagation delays.  Deliberately *heterogeneous* (real
#: multichannel paths differ): a symbol's shares arrive staggered, so its
#: reassembly entry stays open long enough for forged/replayed packets to
#: collide with live state instead of trivially counting as late.
DEFAULT_DELAYS = (0.05, 0.1, 0.2, 0.4, 0.8)


def default_channels() -> ChannelSet:
    """The harness's canonical five-channel attack testbed."""
    return ChannelSet(
        Channel(risk=risk, loss=0.0, delay=delay, rate=4.0)
        for risk, delay in zip(DEFAULT_RISKS, DEFAULT_DELAYS)
    )


def run_under_attack(
    plan: AttackPlan,
    kappa: float = 2.0,
    mu: float = 4.0,
    tolerance: int = 1,
    symbol_size: int = 64,
    offered_rate: float = 2.0,
    duration: float = 30.0,
    warmup: float = 2.0,
    seed: int = 7,
    resilience: bool = False,
    requirements=None,
    channels: Optional[ChannelSet] = None,
    risks: Optional[Sequence[float]] = None,
    auth: bool = False,
) -> dict:
    """Run one seeded measurement under ``plan`` and return a JSON row.

    Args:
        plan: the attack timeline (times in unit times, absolute).
        kappa: privacy threshold κ; ``floor(κ)`` is the k floor audited.
        mu: multiplicity µ (must satisfy ``floor(µ) >= floor(κ) + 2e``).
        tolerance: Byzantine tolerance e per symbol -- shares are real and
            reconstruction is robust whenever e > 0.
        symbol_size: payload bytes per symbol (small by default: attack
            scenarios measure integrity, not throughput).
        offered_rate: source symbols offered per unit time.
        duration: offer window after ``warmup``; the run itself continues
            for :data:`DRAIN` beyond the window so traffic settles.
        seed: root seed for everything (workload, protocol, attack).
        resilience: arm the resilience layer (quarantine/failover/repair)
            on the A -> B direction.
        requirements: deployment bounds handed to the failover LP; only
            meaningful with ``resilience``.
        channels: testbed override (default :func:`default_channels`).
        risks: adaptive-attacker risk ranking override (defaults to the
            channel set's own risks).
        auth: arm authenticated shares (docs/AUTH.md): every share carries
            a keyed MAC under a root key derived from ``seed``, the
            receiver drops bad-tag shares before reassembly, and robust
            decoding runs in erasure mode -- forged or corrupted shares
            are detected unconditionally, not just when inconsistent.

    Returns:
        A flat JSON-safe dict; see the property suite
        (tests/test_attack_properties.py) for the invariants it carries.
    """
    check_offer_window(offered_rate, duration, warmup)
    if channels is None:
        channels = default_channels()
    registry = RngRegistry(seed)
    config = ProtocolConfig(
        kappa=kappa,
        mu=mu,
        symbol_size=symbol_size,
        share_synthetic=False,
        byzantine_tolerance=tolerance,
        auth=AuthConfig(root_key=derive_root_key(seed)) if auth else None,
    )
    network = PointToPointNetwork(channels, symbol_size, registry)
    engine = network.engine
    attacker = network.apply_attack(plan, registry, risks=risks)
    node_a, node_b = network.node_pair(config, registry)
    manager = None
    if resilience:
        manager = ResilienceManager(
            network, node_a, node_b, config, ResilienceConfig(), registry,
            requirements=requirements,
        )

    # Remember every accepted payload by its (acceptance-order) sequence
    # number; compare each delivery byte-for-byte against it.
    originals = {}
    accepted = {"count": 0}
    delivered = {"count": 0}
    wrong = {"count": 0}
    digest = hashlib.sha256()

    def on_deliver(seq: int, payload: Optional[bytes], delay: float) -> None:
        delivered["count"] += 1
        body = hashlib.sha256(payload).hexdigest() if payload is not None else "none"
        digest.update(f"{seq}:{body}:{delay!r}\n".encode())
        original = originals.get(seq)
        if original is None or payload != original:
            wrong["count"] += 1

    node_b.on_deliver(on_deliver)

    payload_rng = registry.stream("workload.payload")
    interval = 1.0 / offered_rate
    end_time = warmup + duration

    def offer() -> None:
        payload = payload_rng.bytes(symbol_size)
        if node_a.send(payload):
            originals[accepted["count"]] = payload
            accepted["count"] += 1
        if engine.now + interval < end_time:
            engine.schedule(interval, offer)

    engine.schedule_at(0.0, offer)
    # run_until, never run(): the attack campaigns self-reschedule and an
    # open-ended run would chase forge/replay ticks forever.
    engine.run_until(end_time + DRAIN)

    sender_stats = node_a.sender.stats
    receiver = node_b.receiver
    picks = sorted(node_a.sender.schedule_picks.items())
    min_k = min((k for (k, _m), _count in picks), default=None)
    k_floor = math.floor(kappa)
    row = {
        "transmitted": sender_stats.symbols_sent,
        "delivered": delivered["count"],
        "wrong_payloads": wrong["count"],
        "delivery_ratio": (
            delivered["count"] / sender_stats.symbols_sent
            if sender_stats.symbols_sent
            else 0.0
        ),
        "min_k_sampled": min_k,
        "kappa_floor": k_floor,
        "kappa_floor_held": min_k is None or min_k >= k_floor,
        "auth_armed": auth,
        "admission_paused_drops": sender_stats.admission_paused_drops,
        "sender": sender_stats.as_dict(),
        "receiver": receiver.stats.as_dict(),
        "corrupt_by_channel": {
            str(channel): count
            for channel, count in sorted(receiver.corrupt_by_channel.items())
        },
        "auth_fail_by_channel": {
            str(channel): count
            for channel, count in sorted(receiver.auth_fail_by_channel.items())
        },
        "attack": attacker.summary(),
        "resilience": manager.summary() if manager is not None else None,
        "digest": digest.hexdigest(),
    }
    return row
