"""The MICSS baseline and the DIBS interception shim."""

import pytest

from repro.core.channel import ChannelSet
from repro.netsim.engine import Engine
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.dibs import DibsInterceptor
from repro.protocol.micss import MicssNode
from repro.protocol.remicss import PointToPointNetwork


def micss_pair(losses, symbol_size=100, seed=1, delays=None, rates=None):
    n = len(losses)
    channels = ChannelSet.from_vectors(
        risks=[0.0] * n,
        losses=losses,
        delays=delays or [0.01] * n,
        rates=rates or [100.0] * n,
    )
    registry = RngRegistry(seed)
    network = PointToPointNetwork(channels, symbol_size, registry)
    node_a = MicssNode(
        network.engine, network.ports_a_out, network.ports_a_in,
        symbol_size, registry, name="micssA",
    )
    node_b = MicssNode(
        network.engine, network.ports_b_out, network.ports_b_in,
        symbol_size, registry, name="micssB",
    )
    return network, node_a, node_b


class TestMicssReliability:
    def test_lossless_delivery(self):
        network, a, b = micss_pair([0.0] * 3)
        got = {}
        b.on_deliver(lambda seq, payload, delay: got.__setitem__(seq, payload))
        payloads = [bytes([i]) * 100 for i in range(10)]
        for p in payloads:
            a.send(p)
        network.engine.run_until(50.0)
        assert [got[i] for i in range(10)] == payloads
        assert a.stats.retransmissions == 0

    def test_delivers_despite_loss_via_retransmission(self):
        network, a, b = micss_pair([0.2, 0.1, 0.3], seed=3)
        got = {}
        b.on_deliver(lambda seq, payload, delay: got.__setitem__(seq, payload))
        payloads = [bytes([i]) * 100 for i in range(20)]
        for p in payloads:
            a.send(p)
        network.engine.run_until(500.0)
        assert len(got) == 20
        assert all(got[i] == payloads[i] for i in range(20))
        assert a.stats.retransmissions > 0

    def test_source_queue_bound(self):
        network, a, b = micss_pair([0.0] * 2, seed=4)
        a.source_queue_limit = 4
        a.window = 1
        results = [a.send(bytes(100)) for _ in range(20)]
        assert not all(results)
        assert a.stats.source_drops > 0

    def test_rto_scales_with_channel(self):
        network, a, b = micss_pair([0.0] * 2, delays=[0.001, 1.0])
        assert a.channel_rto(1) > a.channel_rto(0)

    def test_uses_every_channel_per_symbol(self):
        network, a, b = micss_pair([0.0] * 4)
        b.on_deliver(lambda *args: None)
        for _ in range(5):
            a.send(bytes(100))
        network.engine.run_until(10.0)
        assert a.stats.shares_sent == 20  # 5 symbols x 4 channels


class TestDibs:
    def _pair(self, seed=1, losses=None):
        channels = ChannelSet.from_vectors(
            risks=[0.0] * 3,
            losses=losses or [0.0] * 3,
            delays=[0.01] * 3,
            rates=[100.0] * 3,
        )
        registry = RngRegistry(seed)
        network = PointToPointNetwork(channels, 100, registry)
        config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=100)
        node_a, node_b = network.node_pair(config, registry)
        return network, node_a, node_b

    def test_datagram_roundtrip(self):
        network, a, b = self._pair()
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        messages = [b"short", b"x" * 250, b"tail"]
        for message in messages:
            tx.intercept(message)
        tx.flush()
        network.engine.run_until(20.0)
        assert received == messages

    def test_datagram_larger_than_symbol(self):
        network, a, b = self._pair()
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        big = bytes(range(256)) * 4  # 1024 bytes over 100-byte symbols
        tx.intercept(big)
        tx.flush()
        network.engine.run_until(20.0)
        assert received == [big]

    def test_multiple_datagrams_in_one_symbol(self):
        network, a, b = self._pair()
        received = []
        DibsInterceptor(b, on_datagram=received.append)
        tx = DibsInterceptor(a)
        small = [b"a", b"bb", b"ccc"]
        for message in small:
            tx.intercept(message)
        tx.flush()
        network.engine.run_until(20.0)
        assert received == small
        assert tx.datagrams_sent == 3

    def test_counters(self):
        network, a, b = self._pair()
        rx_shim = DibsInterceptor(b)
        tx = DibsInterceptor(a)
        tx.intercept(b"hello")
        tx.flush()
        network.engine.run_until(20.0)
        assert rx_shim.datagrams_delivered == 1


class _Loopback:
    """A node stand-in for the shim: it records sent symbols, and a test
    hands symbols to the registered delivery callback itself."""

    def __init__(self, symbol_size=32, reassembly_timeout=1.0):
        self.engine = Engine()
        self.config = ProtocolConfig(
            kappa=1.0, mu=1.0, symbol_size=symbol_size,
            reassembly_timeout=reassembly_timeout,
        )
        self.sent = []
        self.deliver = None

    def send(self, payload):
        self.sent.append(payload)

    def on_deliver(self, callback):
        self.deliver = callback


class TestDibsLoss:
    # Payloads that read as frame headers (length 1 at any 4-byte
    # alignment), so a reader that resumed mid-frame would emit bogus
    # datagrams instead of waiting for the next frame start.
    MESSAGES = [(b"\0\0\0\x01" * 18)[:size] for size in (5, 40, 3, 70, 12, 9, 50, 1, 30)]

    def tunnel(self):
        tx_node, rx_node = _Loopback(), _Loopback()
        tx = DibsInterceptor(tx_node)
        received = []
        rx = DibsInterceptor(rx_node, on_datagram=received.append)
        for message in self.MESSAGES:
            tx.intercept(message)
        tx.flush()
        return tx, tx_node.sent, rx, rx_node, received

    def untouched_by(self, lost, chunk):
        """The messages whose frames lie wholly outside symbol ``lost``."""
        kept, start = [], 0
        for message in self.MESSAGES:
            end = start + 4 + len(message)
            if end <= lost * chunk or start >= (lost + 1) * chunk:
                kept.append(message)
            start = end
        return kept

    @pytest.mark.parametrize("lost", [0, 2, 3, 5])
    def test_stale_gap_is_given_up_and_the_next_frame_found(self, lost):
        tx, symbols, rx, rx_node, received = self.tunnel()
        for seq, symbol in enumerate(symbols):
            if seq != lost:
                rx_node.deliver(seq, symbol, 0.0)
        # Nothing arrives after the last symbol; only the gap timer can
        # release what waits behind the lost one.
        rx_node.engine.run_until(0.99)
        assert received == self.untouched_by(lost, tx.chunk_size)[: len(received)]
        rx_node.engine.run_until(1.0)
        assert received == self.untouched_by(lost, tx.chunk_size)
        assert rx.datagrams_corrupted == 1

    def test_late_symbol_of_an_abandoned_gap_is_ignored(self):
        tx, symbols, rx, rx_node, received = self.tunnel()
        for seq, symbol in enumerate(symbols):
            if seq != 2:
                rx_node.deliver(seq, symbol, 0.0)
        rx_node.engine.run_until(2.0)
        before = list(received)
        rx_node.deliver(2, symbols[2], 0.0)
        rx_node.engine.run_until(4.0)
        assert received == before

    def test_lossless_stream_needs_no_timer(self):
        _tx, symbols, rx, rx_node, received = self.tunnel()
        for seq in [1, 0] + list(range(2, len(symbols))):  # one reordering
            rx_node.deliver(seq, symbols[seq], 0.0)
        rx_node.engine.run()
        assert received == self.MESSAGES
        assert rx.datagrams_corrupted == 0

    def test_symbol_too_small_for_the_pointer(self):
        with pytest.raises(ValueError, match="symbol_size"):
            DibsInterceptor(_Loopback(symbol_size=2))
