"""The paper's custom echo tool for measuring packet delay (Sec. VI-B).

iperf does not report per-datagram delay, so the paper builds a small
client/server pair: the client sends timestamped datagrams at a specified
rate, the server echoes each one back, and the client halves the measured
round-trip time (channel delays are applied in both directions, so RTT/2
is the one-way delay).  This module reproduces that tool over two protocol
nodes: timestamps ride in the symbol payload, so the measurement exercises
the full share/reconstruct path in both directions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.core.channel import ChannelSet
from repro.core.schedule import ShareSchedule
from repro.netsim.rng import RngRegistry
from repro.netsim.trace import DelayStats, check_offer_window
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.workloads.setups import delay_to_ms

_TIMESTAMP = struct.Struct(">d")


@dataclass(frozen=True)
class EchoResult:
    """Outcome of one echo run.

    Attributes:
        mean_delay: mean one-way delay (RTT/2) in unit times, over echoes
            completing inside the measurement window.
        min_delay: smallest observed one-way delay.
        max_delay: largest observed one-way delay.
        echoes: number of completed round trips measured.
        sent: datagrams the client offered during the whole run.
    """

    mean_delay: float
    min_delay: float
    max_delay: float
    echoes: int
    sent: int

    @property
    def mean_delay_ms(self) -> float:
        """Mean one-way delay on the paper's millisecond axis."""
        return delay_to_ms(self.mean_delay)


def run_echo(
    channels: ChannelSet,
    config: ProtocolConfig,
    offered_rate: float,
    duration: float = 30.0,
    warmup: float = 5.0,
    seed: int = 1,
    schedule: Optional[ShareSchedule] = None,
    queue_limit: int = 16,
) -> EchoResult:
    """Run the echo client/server pair and report mean one-way delay.

    Requires real payloads (the timestamp rides in the symbol), so
    ``config.share_synthetic`` must be False.
    """
    if config.share_synthetic:
        raise ValueError("echo needs real payloads; disable share_synthetic")
    check_offer_window(offered_rate, duration, warmup)
    registry = RngRegistry(seed)
    network = PointToPointNetwork(
        channels, config.symbol_size, registry, queue_limit=queue_limit
    )
    engine = network.engine
    client, server = network.node_pair(config, registry, schedule=schedule)

    stats = DelayStats()
    sent = {"count": 0}
    window = {"open": False}

    def on_server_deliver(seq: int, payload: Optional[bytes], delay: float) -> None:
        del seq, delay
        server.send(payload)  # echo the datagram back unchanged

    def on_client_deliver(seq: int, payload: Optional[bytes], delay: float) -> None:
        del seq, delay
        if not window["open"]:
            return
        (sent_at,) = _TIMESTAMP.unpack_from(payload)
        stats.record((engine.now - sent_at) / 2.0)

    server.on_deliver(on_server_deliver)
    client.on_deliver(on_client_deliver)

    interval = 1.0 / offered_rate
    end_time = warmup + duration
    padding = b"\0" * (config.symbol_size - _TIMESTAMP.size)

    def offer() -> None:
        payload = _TIMESTAMP.pack(engine.now) + padding
        if client.send(payload):
            sent["count"] += 1
        if engine.now + interval < end_time:
            engine.schedule(interval, offer)

    engine.schedule_at(0.0, offer)
    engine.schedule_at(warmup, lambda: window.__setitem__("open", True))
    # Let late echoes drain a little so the tail of the window is counted.
    engine.run_until(end_time + warmup)

    if stats.count == 0:
        raise RuntimeError("no echoes completed; offered rate may exceed capacity")
    return EchoResult(
        mean_delay=stats.mean,
        min_delay=stats.minimum,
        max_delay=stats.maximum,
        echoes=stats.count,
        sent=sent["count"],
    )
