"""An iperf-style unidirectional UDP benchmark over the protocol.

Mirrors how the paper measures rate and loss: offer datagrams at a fixed
rate for a fixed time, let the system warm up, then report the achieved
delivery rate and the fraction of transmitted datagrams lost over the
measurement window (Sec. VI-A and VI-B).

Offered load above capacity is shed at the sender's source queue, exactly
like an over-offered UDP socket; source drops are reported separately and
do *not* count as network loss (iperf's loss figure is receiver-side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.channel import ChannelSet
from repro.core.planner import Requirements
from repro.core.schedule import ShareSchedule
from repro.netsim.faults import FaultPlan
from repro.netsim.rng import RngRegistry
from repro.netsim.trace import DelayStats, RateMeter, check_offer_window
from repro.obs.instrument import Observability
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.resilience import ResilienceConfig
from repro.protocol.testbed import Testbed, offer_at_rate
from repro.workloads.setups import delay_to_ms, rate_to_mbps


@dataclass(frozen=True)
class IperfResult:
    """Outcome of one iperf-style run.

    Attributes:
        achieved_rate: delivered source symbols per unit time.
        offered_rate: offered source symbols per unit time.
        loss_fraction: 1 - delivered/transmitted over the window (network
            loss; excludes sender-side source-queue drops).
        symbols_transmitted: symbols the protocol actually sent in-window.
        symbols_delivered: symbols reconstructed in-window.
        source_drops: symbols shed at the source queue (whole run).
        sender_stats: raw sender counters (whole run).
        receiver_stats: raw receiver counters (whole run).
        delay_stats: one-way source-to-reconstruction delay over the
            measurement window (unit times).
        fault_summary: applied fault-event summary when a fault plan was
            injected, else ``None``.
        resilience_summary: resilience-layer summary (quarantines,
            failovers, repair counters, transitions) when the layer was
            enabled, else ``None``.
    """

    achieved_rate: float
    offered_rate: float
    loss_fraction: float
    symbols_transmitted: int
    symbols_delivered: int
    source_drops: int
    sender_stats: dict
    receiver_stats: dict
    delay_stats: DelayStats = field(default_factory=DelayStats)
    fault_summary: Optional[dict] = None
    resilience_summary: Optional[dict] = None

    @property
    def achieved_mbps(self) -> float:
        """Achieved rate on the paper's Mbps axis."""
        return rate_to_mbps(self.achieved_rate)

    @property
    def loss_percent(self) -> float:
        return 100.0 * self.loss_fraction

    @property
    def mean_delay_ms(self) -> float:
        """Mean one-way delay on the paper's ms axis (0 if nothing delivered)."""
        return delay_to_ms(self.delay_stats.mean) if self.delay_stats.count else 0.0


def practical_max_rate(channels: ChannelSet, mu: float, symbol_size: int) -> float:
    """The protocol's achievable symbol rate: R_C less the header overhead.

    The paper's loss/delay experiments offer traffic "at the rate measured
    in the previous experiment" -- i.e. at the protocol's *achievable*
    rate, not the raw channel optimum.  Every share carries a fixed header,
    so the achievable symbol rate is R_C scaled by payload/packet size;
    offering above this only grows queues and distorts loss accounting.
    """
    from repro.core.rate import optimal_rate
    from repro.protocol.wire import HEADER_SIZE

    return optimal_rate(channels, mu) * symbol_size / (symbol_size + HEADER_SIZE)


def run_iperf(
    channels: ChannelSet,
    config: ProtocolConfig,
    offered_rate: float,
    duration: float = 50.0,
    warmup: float = 5.0,
    seed: int = 1,
    schedule: Optional[ShareSchedule] = None,
    cpu_capacity: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    obs: Optional[Observability] = None,
    resilience: Optional[ResilienceConfig] = None,
    requirements: Optional[Requirements] = None,
    auth: bool = False,
) -> IperfResult:
    """Run one iperf-style measurement and return its results.

    Args:
        channels: the channel set (its loss/delay/rate shape the links).
        config: protocol configuration (use ``share_synthetic=True`` for
            pure rate/loss runs; they need no real share payloads).
        offered_rate: source symbols offered per unit time.
        duration: measurement window length (unit times).
        warmup: time before the window opens (queues fill, rates settle).
        seed: root seed for all randomness in the run.
        schedule, cpu_capacity, fault_plan, obs, resilience, requirements,
        auth: the testbed parts, armed by
            :meth:`~repro.protocol.testbed.Testbed.over` (links queue 16
            packets).  With ``obs`` the caller snapshots ``obs.registry``
            after the run; without ``requirements`` the resilience
            failover masks the dynamic selector instead of re-planning.

    Raises:
        ValueError: an offer window that cannot be run, or
            ``requirements`` without ``resilience``.
    """
    check_offer_window(offered_rate, duration, warmup)
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, config.symbol_size, registry)
    testbed = Testbed.over(
        network, config, registry,
        auth=auth, schedule=schedule, cpu_capacity=cpu_capacity,
        fault_plan=fault_plan, resilience=resilience,
        requirements=requirements, obs=obs,
    )
    engine = network.engine
    node_a, node_b = testbed.node_a, testbed.node_b

    meter = RateMeter()
    delays = DelayStats()
    window = {"open": False, "sent_before": 0}

    def on_deliver(seq, payload, delay):
        meter.record(engine.now)
        if window["open"]:
            delays.record(delay)

    node_b.on_deliver(on_deliver)

    payload_rng = registry.stream("workload.payload")
    end_time = warmup + duration

    def offer() -> None:
        node_a.send(None if config.share_synthetic else payload_rng.bytes(config.symbol_size))

    offer_at_rate(engine, offered_rate, end_time, offer)

    def open_window() -> None:
        meter.start(engine.now)
        window.update(open=True, sent_before=node_a.sender.stats.symbols_sent)

    engine.schedule_at(warmup, open_window)
    engine.run_until(end_time)
    meter.stop(engine.now)

    transmitted = node_a.sender.stats.symbols_sent - window["sent_before"]
    delivered = meter.count
    loss_fraction = 1.0 - delivered / transmitted if transmitted else 0.0
    summaries = testbed.summaries()
    return IperfResult(
        achieved_rate=meter.rate(),
        offered_rate=offered_rate,
        loss_fraction=max(0.0, loss_fraction),
        symbols_transmitted=transmitted,
        symbols_delivered=delivered,
        source_drops=node_a.sender.stats.source_drops,
        sender_stats=node_a.sender.stats.as_dict(),
        receiver_stats=node_b.receiver.stats.as_dict(),
        delay_stats=delays,
        fault_summary=summaries["faults"],
        resilience_summary=summaries["resilience"],
    )
