"""The reassembly buffer: completion, eviction, late shares, memory bound."""

import copy

import numpy as np
import pytest

from repro.core.channel import Channel, ChannelSet
from repro.netsim.engine import Engine
from repro.netsim.host import CpuModel
from repro.netsim.packet import Datagram
from repro.netsim.rng import RngRegistry
from repro.protocol.config import ProtocolConfig
from repro.protocol.receiver import ReassemblyBuffer, ReceiverStats
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.sender import SenderStats
from repro.protocol.wire import encode_share
from repro.sharing.shamir import ShamirScheme

scheme = ShamirScheme()


def make_buffer(engine, deliveries, timeout=5.0, limit=16, synthetic=False, cpu=None):
    return ReassemblyBuffer(
        engine,
        scheme,
        timeout=timeout,
        limit=limit,
        on_deliver=lambda seq, payload, delay: deliveries.append((seq, payload, delay)),
        synthetic=synthetic,
        cpu=cpu,
    )


def share_datagrams(seq, secret, k, m, seed=0, sent_at=0.0):
    rng = np.random.default_rng(seed)
    packets = []
    for share in scheme.split(secret, k, m, rng):
        packet = encode_share(seq, share, scheme.name)
        packets.append(
            Datagram(size=len(packet), payload=packet, meta={"symbol_sent_at": sent_at})
        )
    return packets


class TestCompletion:
    def test_delivers_at_k_shares(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"hello", 2, 4)
        buf.handle_datagram(datagrams[0])
        assert deliveries == []
        buf.handle_datagram(datagrams[1])
        assert deliveries[0][0] == 1
        assert deliveries[0][1] == b"hello"

    def test_delay_measured_from_symbol_send(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"hi", 1, 1, sent_at=0.0)
        engine.schedule_at(2.5, buf.handle_datagram, datagrams[0])
        engine.run()
        assert deliveries[0][2] == pytest.approx(2.5)

    def test_late_share_counted_and_ignored(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"abc", 2, 3)
        for dg in datagrams:
            buf.handle_datagram(dg)
        assert len(deliveries) == 1
        assert buf.stats.late_shares == 1

    def test_duplicate_share_ignored(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        datagrams = share_datagrams(1, b"abc", 2, 3)
        buf.handle_datagram(datagrams[0])
        buf.handle_datagram(datagrams[0])
        assert buf.stats.duplicate_shares == 1
        assert deliveries == []

    def test_interleaved_symbols(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        a = share_datagrams(1, b"symbol-a", 2, 2, seed=1)
        b = share_datagrams(2, b"symbol-b", 2, 2, seed=2)
        buf.handle_datagram(a[0])
        buf.handle_datagram(b[0])
        buf.handle_datagram(b[1])
        buf.handle_datagram(a[1])
        assert [d[0] for d in deliveries] == [2, 1]
        assert [d[1] for d in deliveries] == [b"symbol-b", b"symbol-a"]

    def test_decode_error_counted(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries)
        buf.handle_datagram(Datagram(size=10, payload=b"garbage!!!"))
        assert buf.stats.decode_errors == 1


class TestEviction:
    def test_timeout_evicts_incomplete(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, timeout=2.0)
        datagrams = share_datagrams(1, b"gone", 2, 3)
        buf.handle_datagram(datagrams[0])
        engine.run_until(3.0)
        assert buf.pending == 0
        assert buf.stats.evicted_symbols == 1
        # A share arriving after eviction re-opens an entry (it cannot be
        # distinguished from a new symbol), so it is not counted late.
        buf.handle_datagram(datagrams[1])
        assert buf.pending == 1

    def test_completion_cancels_eviction(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, timeout=2.0)
        for dg in share_datagrams(1, b"done", 2, 2):
            buf.handle_datagram(dg)
        engine.run_until(5.0)
        assert buf.stats.evicted_symbols == 0
        assert len(deliveries) == 1

    def test_memory_bound_evicts_oldest(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, limit=2)
        for seq in (1, 2, 3):
            buf.handle_datagram(share_datagrams(seq, b"x", 2, 2, seed=seq)[0])
        assert buf.pending == 2
        assert buf.stats.evicted_symbols == 1
        # Symbol 1 (the oldest) was evicted; completing 2 and 3 works.
        buf.handle_datagram(share_datagrams(2, b"x", 2, 2, seed=2)[1])
        buf.handle_datagram(share_datagrams(3, b"x", 2, 2, seed=3)[1])
        assert [d[0] for d in deliveries] == [2, 3]

    def test_capacity_eviction_remembers_closed_seq(self):
        """Regression: a capacity eviction is a deliberate close, so a
        straggler for the evicted symbol must count as late instead of
        re-opening an entry that can never complete (which would evict
        yet another live symbol at the memory bound)."""
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, limit=2)
        datagrams = {
            seq: share_datagrams(seq, b"x", 2, 3, seed=seq) for seq in (1, 2, 3)
        }
        for seq in (1, 2, 3):
            buf.handle_datagram(datagrams[seq][0])
        assert buf.stats.evicted_symbols == 1  # seq 1 fell off the front
        late_before = buf.stats.late_shares
        buf.handle_datagram(datagrams[1][1])
        assert buf.stats.late_shares == late_before + 1
        assert buf.pending == 2  # no fresh entry, nothing else evicted
        assert buf.stats.evicted_symbols == 1
        # The live symbols still complete normally.
        buf.handle_datagram(datagrams[2][1])
        buf.handle_datagram(datagrams[3][1])
        assert [d[0] for d in deliveries] == [2, 3]

    def test_repair_policy_extends_timeout_once(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, timeout=2.0)
        grants = []

        def policy(entry):
            if entry.repair_rounds >= 1:
                return None  # budget spent: let the eviction proceed
            entry.repair_rounds += 1
            grants.append(entry.seq)
            return 1.5

        buf.repair_policy = policy
        datagrams = share_datagrams(1, b"fixed", 2, 3)
        buf.handle_datagram(datagrams[0])
        engine.run_until(2.5)  # past the base timeout, inside the extension
        assert grants == [1]
        assert buf.stats.repair_extensions == 1
        assert buf.stats.evicted_symbols == 0
        assert buf.pending == 1
        engine.schedule_at(3.0, buf.handle_datagram, datagrams[1])
        engine.run_until(10.0)
        assert [d[0] for d in deliveries] == [1]
        assert buf.stats.repair_recovered == 1

    def test_repair_policy_exhausted_evicts(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, timeout=2.0)
        buf.repair_policy = lambda entry: None
        buf.handle_datagram(share_datagrams(1, b"gone", 2, 3)[0])
        engine.run_until(3.0)
        assert buf.stats.repair_extensions == 0
        assert buf.stats.evicted_symbols == 1
        assert buf.pending == 0


class TestSyntheticMode:
    def test_counts_headers_without_payload(self):
        engine = Engine()
        deliveries = []
        buf = make_buffer(engine, deliveries, synthetic=True)
        for index in (1, 2):
            buf.handle_datagram(
                Datagram(size=100, meta={"seq": 9, "index": index, "k": 2, "m": 3,
                                         "symbol_sent_at": 0.0})
            )
        assert deliveries[0][0] == 9
        assert deliveries[0][1] is None


class TestCpuIntegration:
    def test_finite_cpu_delays_delivery(self):
        engine = Engine()
        deliveries = []
        cpu = CpuModel(engine, capacity=1.0)
        buf = make_buffer(engine, deliveries, cpu=cpu)
        buf.share_cost = 1.0
        buf.reconstruct_cost_per_k = 1.0
        for dg in share_datagrams(1, b"slow", 1, 1):
            buf.handle_datagram(dg)
        assert deliveries == []  # CPU still working
        engine.run()
        # 1 unit share processing + 1 unit reconstruction.
        assert len(deliveries) == 1
        assert engine.now == pytest.approx(2.0)

    def test_saturated_cpu_rejects_shares(self):
        engine = Engine()
        deliveries = []
        cpu = CpuModel(engine, capacity=0.1, queue_limit=1)
        buf = make_buffer(engine, deliveries, cpu=cpu)
        for seq in range(10):
            buf.handle_datagram(share_datagrams(seq, b"x", 1, 1, seed=seq)[0])
        assert buf.stats.cpu_rejected_shares > 0


def build_session():
    """A seeded A -> B pair over three slow lossless channels; returns
    (registry, config, network, node_a, node_b) before any traffic."""
    channels = ChannelSet(
        Channel(risk=0.1, loss=0.0, delay=0.02, rate=4.0) for _ in range(3)
    )
    registry = RngRegistry(5)
    config = ProtocolConfig(kappa=2.0, mu=2.0, symbol_size=64)
    network = PointToPointNetwork(
        channels, config.symbol_size, registry, queue_limit=2
    )
    node_a, node_b = network.node_pair(config, registry)
    return registry, config, network, node_a, node_b


def send_and_run(registry, config, network, node_a, node_b, symbols):
    payload_rng = registry.stream("test.payload")
    for _ in range(symbols):
        assert node_a.send(payload_rng.bytes(config.symbol_size))
    network.engine.run()
    assert node_b.receiver.stats.symbols_delivered == symbols


def run_stats(symbols):
    """One seeded A -> B run of real payloads; returns the sender and
    receiver stat dicts."""
    registry, config, network, node_a, node_b = build_session()
    send_and_run(registry, config, network, node_a, node_b, symbols)
    return node_a.sender.stats.as_dict(), node_b.receiver.stats.as_dict()


class TestStatsJsonShape:
    """Single-flow callers see the exact historical JSON: no ``flows``
    key appears until a nonzero flow actually carries traffic."""

    HISTORICAL_SENDER_KEYS = {
        "symbols_offered", "symbols_sent", "source_drops", "shares_sent",
        "share_send_failures", "readiness_stalls", "admission_paused_drops",
        "auth_tagged_shares",
    }

    def test_sender_stats_flow0_shape_unchanged(self):
        stats = SenderStats()
        stats.count(0, "symbols_offered")
        stats.count(0, "symbols_sent")
        data = stats.as_dict()
        assert "flows" not in data
        assert set(data) == self.HISTORICAL_SENDER_KEYS

    def test_receiver_stats_flow0_shape_unchanged(self):
        stats = ReceiverStats()
        stats.count(0, "shares_received")
        stats.count(0, "symbols_delivered")
        data = stats.as_dict()
        assert "flows" not in data

    def test_flows_block_appears_only_with_nonzero_flows(self):
        stats = SenderStats()
        stats.count(0, "symbols_offered")
        stats.count(3, "symbols_offered")
        data = stats.as_dict()
        assert data["symbols_offered"] == 2  # totals span all flows
        assert set(data["flows"]) == {"3"}
        assert data["flows"]["3"]["symbols_offered"] == 1

    def test_single_flow_simulation_keeps_historical_shape(self):
        """End to end: a flow-0-only run serialises with no flows block in
        either direction, so existing reports and baselines are stable."""
        sender_dict, receiver_dict = run_stats(symbols=4)
        assert "flows" not in sender_dict
        assert "flows" not in receiver_dict


class TestSingleSharingPath:
    """The protocol shares one symbol per split at transmit time and
    reconstructs one symbol per call as its k-th share arrives; the
    batch APIs of the scheme stay off the protocol path."""

    SYMBOLS = 12

    @staticmethod
    def forbid_batch_apis(scheme):
        def refuse(*args, **kwargs):
            raise AssertionError("batch sharing API reached the protocol path")

        scheme.split_many = refuse
        scheme.reconstruct_many = refuse

    def test_sender_splits_each_symbol_once_at_transmit(self):
        registry, config, network, node_a, node_b = build_session()
        scheme = config.scheme
        self.forbid_batch_apis(scheme)
        splits = []
        inner_split = scheme.split

        def recording_split(secret, k, m, rng):
            replay_rng = copy.deepcopy(rng)
            shares = inner_split(secret, k, m, rng)
            splits.append((secret, k, m, replay_rng, shares))
            return shares

        scheme.split = recording_split
        transmitted = []
        node_a.sender.on_transmit = (
            lambda flow, seq, k, m, offered_at, shares: transmitted.append(shares)
        )
        send_and_run(registry, config, network, node_a, node_b, self.SYMBOLS)
        assert len(splits) == self.SYMBOLS
        assert node_a.sender.stats.symbols_sent == self.SYMBOLS
        assert transmitted == [shares for *_, shares in splits]

    def test_sender_shares_match_split_many_of_one(self):
        """Each transmitted share set is bit-identical to
        ``split_many([payload])`` drawn from the same rng state, so the
        single path reproduces what the batch API would have sent."""
        registry, config, network, node_a, node_b = build_session()
        scheme = config.scheme
        splits = []
        inner_split = scheme.split

        def recording_split(secret, k, m, rng):
            replay_rng = copy.deepcopy(rng)
            shares = inner_split(secret, k, m, rng)
            splits.append((secret, k, m, replay_rng, shares))
            return shares

        scheme.split = recording_split
        send_and_run(registry, config, network, node_a, node_b, self.SYMBOLS)
        del scheme.split
        assert len(splits) == self.SYMBOLS
        for secret, k, m, replay_rng, shares in splits:
            assert scheme.split_many([secret], k, m, replay_rng) == [shares]

    def test_receiver_reconstructs_each_symbol_at_k_shares(self):
        registry, config, network, node_a, node_b = build_session()
        scheme = config.scheme
        self.forbid_batch_apis(scheme)
        group_sizes = []
        inner_reconstruct = scheme.reconstruct

        def counting_reconstruct(shares):
            group_sizes.append(len(shares))
            return inner_reconstruct(shares)

        scheme.reconstruct = counting_reconstruct
        send_and_run(registry, config, network, node_a, node_b, self.SYMBOLS)
        # κ = µ = 2: every symbol is (2, 2), reconstructed once from 2 shares.
        assert group_sizes == [2] * self.SYMBOLS
        assert node_b.receiver.stats.reconstruction_errors == 0


class TestRemovedBatchKnobs:
    @pytest.mark.parametrize("knob", ["sender_batch_limit", "batch_reconstruct"])
    def test_protocol_config_rejects_removed_knob(self, knob):
        with pytest.raises(TypeError):
            ProtocolConfig(kappa=2.0, mu=2.0, symbol_size=64, **{knob: 1})
