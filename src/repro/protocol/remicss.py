"""The ReMICSS protocol node and the point-to-point testbed wiring.

:class:`RemicssNode` assembles the send and receive paths over a set of
channel ports.  :class:`PointToPointNetwork` builds the simulated analogue
of the paper's testbed: two hosts joined by one duplex link per model
channel, each shaped to the channel's (l, d, r), with the model's channel
indices carried through so measured and predicted vectors line up.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.core.channel import ChannelSet
from repro.core.schedule import ShareSchedule
from repro.netsim.engine import Engine
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.netsim.host import CpuModel
from repro.netsim.link import DuplexChannel
from repro.netsim.ports import ChannelPort
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.receiver import ReassemblyBuffer
from repro.protocol.scheduler import (
    DynamicParameterSampler,
    ExplicitScheduler,
    ParameterSampler,
)
from repro.protocol.sender import ShareSender

#: Delivery callback signature: (seq, payload-or-None, one-way delay).
DeliverCallback = Callable[[int, Optional[bytes], float], None]


def _per_channel(value: Union[float, Sequence[float]], n: int, label: str) -> List[float]:
    """Broadcast a scalar (or validate a per-channel sequence) to n values."""
    if isinstance(value, (int, float)):
        return [float(value)] * n
    values = [float(v) for v in value]
    if len(values) != n:
        raise ValueError(f"{label} needs one value per channel ({n}), got {len(values)}")
    return values


class RemicssNode:
    """One endpoint of the ReMICSS protocol.

    A node owns a :class:`~repro.protocol.sender.ShareSender` over its
    outbound ports and a :class:`~repro.protocol.receiver.ReassemblyBuffer`
    fed by its inbound ports.  Sending and receiving are independent, so a
    pair of nodes supports full-duplex traffic (needed by the echo/delay
    experiment).

    Args:
        engine: the simulation engine.
        ports_out: outbound channel ports, in channel-index order.
        ports_in: inbound channel ports, in channel-index order.
        config: protocol tunables.
        rng_registry: named random streams ("<name>.pad" for share
            material, "<name>.sched" for parameter sampling).
        schedule: when given, the node uses an explicit schedule drawn
            from it; otherwise the dynamic (κ, µ) sampler from config.
        sender_cpu: optional finite CPU on the send path.
        receiver_cpu: optional finite CPU on the receive path.
        name: label used for rng stream names and traces.
    """

    def __init__(
        self,
        engine: Engine,
        ports_out: Sequence[ChannelPort],
        ports_in: Sequence[ChannelPort],
        config: ProtocolConfig,
        rng_registry: RngRegistry,
        schedule: Optional[ShareSchedule] = None,
        sender_cpu: Optional[CpuModel] = None,
        receiver_cpu: Optional[CpuModel] = None,
        name: str = "node",
    ):
        self.engine = engine
        self.config = config
        self.name = name
        self.sampler: ParameterSampler
        if schedule is not None:
            self.sampler = ExplicitScheduler(schedule, rng_registry.stream(f"{name}.sched"))
        else:
            self.sampler = DynamicParameterSampler(
                config.kappa, config.mu, rng_registry.stream(f"{name}.sched")
            )
        self.sender = ShareSender(
            engine,
            ports_out,
            self.sampler,
            config,
            rng_registry.stream(f"{name}.pad"),
            cpu=sender_cpu,
        )
        self._deliver_callbacks: List[DeliverCallback] = []
        self.receiver = ReassemblyBuffer(
            engine,
            config.scheme,
            timeout=config.reassembly_timeout,
            limit=config.reassembly_limit,
            on_deliver=self._dispatch_delivery,
            synthetic=config.share_synthetic,
            cpu=receiver_cpu,
            share_cost=config.cpu_share_cost,
            reconstruct_cost_per_k=config.cpu_reconstruct_cost_per_k,
            byzantine_tolerance=config.byzantine_tolerance,
            # Both directions of a pair derive the same per-flow keys from
            # config.auth's root key, so A's tags verify at B and back.
            authenticator=self.sender.authenticator,
        )
        for port in ports_in:
            port.on_receive(self.receiver.handle_datagram)

    # Application plaintext enters the protocol here (docs/TAINT.md).
    def send(self, payload: Optional[bytes] = None) -> bool:  # taint: source=payload
        """Offer one source symbol; False if dropped at the source queue."""
        return self.sender.offer(payload)

    def on_deliver(self, callback: DeliverCallback) -> None:
        """Register a callback for reconstructed symbols."""
        self._deliver_callbacks.append(callback)

    def _dispatch_delivery(self, seq: int, payload: Optional[bytes], delay: float) -> None:
        for callback in self._deliver_callbacks:
            callback(seq, payload, delay)


class PointToPointNetwork:
    """Two hosts joined by one shaped duplex channel per model channel.

    The link byte rate is ``rate * symbol_size``: a channel rated at r
    symbols per unit time carries exactly r payload-sized datagrams per
    unit time, matching how the paper measures per-channel rate with iperf
    before computing optimal values.  Share packets are slightly larger
    (header overhead), which is part of the protocol's real-world gap from
    optimal.

    Args:
        channels: the model channel set (risk is not used here; loss,
            delay and rate shape the links).
        symbol_size: the protocol's symbol payload size in bytes.
        rng_registry: random streams for per-link loss draws.
        queue_limit: per-link queue capacity in packets.
        jitter: netem-style delay variation, a scalar applied to every
            channel or one value per channel.
        corruption: per-delivery tamper probability (the Byzantine channel
            of the PSMT threat model), scalar or per channel.
    """

    def __init__(
        self,
        channels: ChannelSet,
        symbol_size: int,
        rng_registry: RngRegistry,
        queue_limit: int = 16,
        jitter: Union[float, Sequence[float]] = 0.0,
        corruption: Union[float, Sequence[float]] = 0.0,
    ):
        self.engine = Engine()
        self.channels = channels
        self.symbol_size = symbol_size
        jitters = _per_channel(jitter, channels.n, "jitter")
        corruptions = _per_channel(corruption, channels.n, "corruption")
        self.duplex: List[DuplexChannel] = []
        for i, channel in enumerate(channels):
            self.duplex.append(
                DuplexChannel(
                    self.engine,
                    byte_rate=channel.rate * symbol_size,
                    loss=channel.loss,
                    delay=channel.delay,
                    forward_rng=rng_registry.stream(f"link{i}.fwd.loss"),
                    reverse_rng=rng_registry.stream(f"link{i}.rev.loss"),
                    queue_limit=queue_limit,
                    jitter=jitters[i],
                    corruption=corruptions[i],
                    name=channel.name or f"ch{i}",
                )
            )
        self.fault_injector: Optional[FaultInjector] = None
        # Host A sends on forward links and receives on reverse links.
        self.ports_a_out = [ChannelPort(i, d.forward) for i, d in enumerate(self.duplex)]
        self.ports_b_in = self.ports_a_out  # same objects: B registers receive callbacks
        self.ports_b_out = [ChannelPort(i, d.reverse) for i, d in enumerate(self.duplex)]
        self.ports_a_in = self.ports_b_out

    def apply_faults(self, plan: FaultPlan) -> FaultInjector:
        """Arm a fault plan against this network's channels.

        Returns the armed :class:`~repro.netsim.faults.FaultInjector`
        (also kept as :attr:`fault_injector`) so callers can inspect its
        log after the run.
        """
        injector = FaultInjector(self.engine, self.duplex, plan)
        injector.arm()
        self.fault_injector = injector
        return injector

    def apply_attack(self, plan, registry: RngRegistry, risks: Optional[Sequence[float]] = None):
        """Arm an active-adversary attack plan against this network.

        ``risks`` defaults to the model channel risks -- exactly the
        ranking the adaptive attacker is assumed to know.  Returns the
        armed :class:`~repro.adversary.active.engine.AttackInjector`.
        Imported lazily so the protocol layer has no hard dependency on
        the adversary package.
        """
        from repro.adversary.active.engine import AttackInjector

        if risks is None:
            risks = [channel.risk for channel in self.channels]
        injector = AttackInjector(self.engine, self.duplex, plan, registry, risks=risks)
        injector.arm()
        return injector

    def node_pair(
        self,
        config: ProtocolConfig,
        rng_registry: RngRegistry,
        schedule: Optional[ShareSchedule] = None,
        sender_cpu: Optional[CpuModel] = None,
        receiver_cpu: Optional[CpuModel] = None,
    ) -> "tuple[RemicssNode, RemicssNode]":
        """Build the (A, B) node pair over this network.

        A sends on the forward direction, B on the reverse; the same
        config is applied to both (the experiments only ever need
        symmetric configurations).
        """
        node_a = RemicssNode(
            self.engine,
            ports_out=self.ports_a_out,
            ports_in=self.ports_a_in,
            config=config,
            rng_registry=rng_registry,
            schedule=schedule,
            sender_cpu=sender_cpu,
            receiver_cpu=receiver_cpu,
            name="nodeA",
        )
        node_b = RemicssNode(
            self.engine,
            ports_out=self.ports_b_out,
            ports_in=self.ports_b_in,
            config=config,
            rng_registry=rng_registry,
            schedule=schedule,
            sender_cpu=sender_cpu,
            receiver_cpu=receiver_cpu,
            name="nodeB",
        )
        return node_a, node_b
