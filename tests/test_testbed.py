"""The one run assembly: :class:`repro.protocol.testbed.Testbed`.

Two groups of tests:

* **golden pins** -- SHA-256 fingerprints of same-seed outputs of every
  harness that builds a testbed (``run_iperf`` with faults, resilience
  and observability; ``run_echo``; ``run_trace``; one authenticated fleet
  cell).  They were recorded before the harnesses shared an assembly and
  must never change: a different digest means a harness now builds, arms
  or drives its stack differently.  ``TRACE`` was re-recorded once, when
  the DIBS reader learned to give up on stale gaps (its streaming run
  went from 0 to 92 of 96 datagrams; web and messaging are unchanged).
* **stall-path pins** -- the sender's counters, per-channel share counts
  and (k, m) picks for runs whose head symbol stalls on readiness: a
  Figure 3 point (headroom ordering), a Figure 5 point (fixed ordering)
  and a detector-only resilience run whose quarantine re-masks the
  selector and re-samples the head.  They pin when a stalled sender
  re-evaluates, which is what edge-triggered readiness must preserve.
* **the assembly itself** -- every part composed at once, the wiring of
  the observability series, and argument checks.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.adversary.active.harness import default_channels, run_under_attack
from repro.adversary.active.plan import AttackPlan
from repro.adversary.active.scenarios import canonical_attack
from repro.core.planner import Requirements
from repro.experiments.fig3 import fig3_point
from repro.experiments.fig5 import fig5_point
from repro.fleet.cell import run_cell
from repro.fleet.spec import synthesize_fleet
from repro.netsim.engine import Engine
from repro.netsim.faults import canonical_plan
from repro.netsim.rng import RngRegistry
from repro.obs import Observability
from repro.protocol.auth import derive_root_key
from repro.protocol.config import ProtocolConfig
from repro.protocol.remicss import PointToPointNetwork
from repro.protocol.resilience import ResilienceConfig
from repro.protocol.sender import ShareSender
from repro.protocol.testbed import offer_at_rate, update_digest
# Imported by module: a bare ``Testbed`` name would be collected as a test class.
import repro.protocol.testbed as assembly
from repro.workloads.echo import run_echo
from repro.workloads.iperf import run_iperf
from repro.workloads.setups import diverse_setup, lossy_setup
from repro.workloads.setups import testbed_fault_plan as fault_plan_for
from repro.workloads.traces import run_trace


#: Golden same-seed fingerprints (see the module docstring).
IPERF_OUTPUTS = "31204d943392d850ce2c7c9fb9ada969f7952221defa9259a91584cf0ce5d673"
IPERF_METRICS = "e1a3cd954afbcc71d9a69080a466b77ee9906707dd158ce15e0e92fc871e3b96"
IPERF_TRACE = "83a44d2776341cb77204df8b6d677786131cf0b0e87d7654c1ab64df4657eee4"
ECHO = "e376fadedeb6b934b1e25f5d32a14bf2d81ce868a0e7aa2996b9fe0ecc79092c"
TRACE = "533f353f25b672775c0c12b7049761bad8338da1f9ee44e17605d37b3b65e524"
FLEET_CELL = "50c606c12ba55408723c4659a78ec5a8cb395614449e9e592cc7bee8feda9c53"
STALL_FIG3 = "b27fc73ada54c81360bcd31c0c3ff86d2a390a8070e247514bc2f3481f500839"
STALL_FIG5_FIXED = "1b9b72bd90dc17e25af9c45c6b07db52968eb98d01790016a558dcd8a2223d4c"
STALL_QUARANTINE = "ac4349c6850efb641f6ccbf47331077812628c5faf5cf22cf7128c648c44d672"


def fingerprint(value) -> str:
    """SHA-256 over the canonical JSON of ``value``."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def metrics_fingerprint(snapshot) -> str:
    """Fingerprint of a metrics snapshot.

    Engine dispatch counts are labelled by the handler's qualified name;
    only its last component (``offer``, ``_deliver``) is kept, so moving
    a handler between modules does not count as a change in behaviour.
    """
    samples = []
    for sample in snapshot:
        labels = dict(sample["labels"])
        if "handler" in labels:
            labels["handler"] = labels["handler"].rsplit(".", 1)[-1]
        samples.append({**sample, "labels": labels})
    return fingerprint(samples)


class TestGoldenPins:
    def test_iperf_with_faults_resilience_and_obs(self):
        obs = Observability.create(tracing=True)
        result = run_iperf(
            diverse_setup(),
            ProtocolConfig(kappa=2.0, mu=2.0, share_synthetic=True),
            offered_rate=100.0,
            duration=8.0,
            warmup=2.0,
            seed=5,
            fault_plan=fault_plan_for("partition_heal", 40.0, 80.0, channel=4),
            resilience=ResilienceConfig(),
            requirements=Requirements(max_risk=0.02),
            obs=obs,
        )
        delays = result.delay_stats
        outputs = {
            "achieved_rate": result.achieved_rate,
            "loss_fraction": result.loss_fraction,
            "window": [result.symbols_transmitted, result.symbols_delivered],
            "source_drops": result.source_drops,
            "sender": result.sender_stats,
            "receiver": result.receiver_stats,
            "delays": [delays.count, delays.mean, delays.minimum, delays.maximum],
            "faults": result.fault_summary,
            "resilience": result.resilience_summary,
        }
        assert fingerprint(outputs) == IPERF_OUTPUTS
        assert metrics_fingerprint(obs.snapshot()) == IPERF_METRICS
        assert fingerprint([asdict(event) for event in obs.tracer.events]) == IPERF_TRACE

    def test_echo(self):
        result = run_echo(
            lossy_setup(), ProtocolConfig(kappa=2.0, mu=3.0),
            offered_rate=40.0, duration=6.0, warmup=1.0, seed=3,
        )
        assert fingerprint(asdict(result)) == ECHO

    def test_trace(self):
        outputs = {
            kind: asdict(run_trace(
                lossy_setup(), ProtocolConfig(kappa=2.0, mu=2.0),
                kind=kind, duration=6.0, seed=4, drain=5.0,
            ))
            for kind in ("web", "streaming", "messaging")
        }
        assert fingerprint(outputs) == TRACE

    def test_fleet_cell_with_auth(self):
        fleet = synthesize_fleet(8, rate=4.0, symbols=6)
        params = {
            "cell": 0,
            "flows": [flow.as_dict() for flow in fleet.flows],
            "tenants": [tenant.as_dict() for tenant in fleet.tenants],
            "channels": 4,
            "loss": 0.05,
            "delay": 0.05,
            "rate": 64.0,
            "symbol_size": 64,
            "synthetic": False,
            "quantum": 1.0,
            "queue_limit": 64,
            "auth": True,
        }
        assert fingerprint(run_cell(params, 12345)) == FLEET_CELL


@pytest.fixture
def senders(monkeypatch):
    """Every :class:`ShareSender` built while the test runs, in order."""
    built = []
    original = ShareSender.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ShareSender, "__init__", init)
    return built


def sender_fingerprint(sender) -> str:
    return fingerprint({
        "stats": sender.stats.as_dict(),
        "shares_per_channel": sender.shares_per_channel,
        "schedule_picks": sorted([k, m, n] for (k, m), n in sender.schedule_picks.items()),
    })


class TestStallPathPins:
    def test_fig3_point_headroom(self, senders):
        fig3_point(
            {"setup": "diverse", "kappa": 2.0, "mu": 2.5, "duration": 3.0, "warmup": 1.0}, 7
        )
        assert senders[0].stats.readiness_stalls > 0
        assert sender_fingerprint(senders[0]) == STALL_FIG3

    def test_fig5_point_fixed_ordering(self, senders):
        fig5_point(
            {
                "kappa": 3.0, "mu": 3.8, "duration": 3.0, "warmup": 1.0,
                "selector_ordering": "fixed",
            },
            2,
        )
        assert senders[0].stats.readiness_stalls > 0
        assert sender_fingerprint(senders[0]) == STALL_FIG5_FIXED

    def test_detector_only_quarantine(self, senders):
        result = run_iperf(
            diverse_setup(),
            ProtocolConfig(kappa=2.0, mu=2.0, share_synthetic=True),
            offered_rate=100.0,
            duration=8.0,
            warmup=2.0,
            seed=5,
            fault_plan=fault_plan_for("partition_heal", 40.0, 80.0, channel=4),
            resilience=ResilienceConfig(failover=False),
        )
        assert result.resilience_summary["quarantines"] == 1
        assert result.resilience_summary["failovers"] == 0
        assert sender_fingerprint(senders[0]) == STALL_QUARANTINE


# -- the assembly itself ------------------------------------------------------

#: ResilienceStats field -> exported series (docs/RESILIENCE.md).
RESILIENCE_SERIES = {
    "quarantines": "sim_resilience_quarantines_total",
    "reinstatements": "sim_resilience_reinstatements_total",
    "failovers": "sim_resilience_failovers_total",
    "restores": "sim_resilience_restores_total",
    "degraded_entries": "sim_resilience_degraded_total",
    "probes_sent": "sim_resilience_probes_sent_total",
    "probe_acks_sent": "sim_resilience_probe_acks_sent_total",
    "probe_acks_received": "sim_resilience_probe_acks_received_total",
    "nacks_sent": "sim_repair_nacks_total",
    "nacks_received": "sim_repair_nacks_received_total",
    "repair_shares_sent": "sim_repair_shares_sent_total",
    "repair_shares_dropped": "sim_repair_shares_dropped_total",
    "control_decode_errors": "sim_resilience_control_decode_errors_total",
}

STATE_ORDINALS = {"healthy": 0, "suspect": 1, "quarantined": 2, "probing": 3}


def composed_run(seed=3):
    """Faults, an attack, resilience, auth and obs on one testbed, driven
    at a fixed rate; returns (testbed, obs, delivery digest)."""
    registry = RngRegistry(seed)
    config = ProtocolConfig(kappa=2.0, mu=4.0, symbol_size=64, byzantine_tolerance=1)
    network = PointToPointNetwork(default_channels(), config.symbol_size, registry)
    obs = Observability.create()
    testbed = assembly.Testbed.over(
        network, config, registry,
        auth=True,
        fault_plan=canonical_plan("partition_heal", 3.0, 9.0, channel=4),
        attack_plan=canonical_attack("corruption_storm", 4.0, 14.0),
        resilience=ResilienceConfig(),
        obs=obs,
    )
    digest = hashlib.sha256()
    testbed.node_b.on_deliver(
        lambda seq, payload, delay: update_digest(digest, seq, payload, delay)
    )
    payloads = registry.stream("workload.payload")
    offer_at_rate(
        network.engine, 3.0, 16.0, lambda: testbed.node_a.send(payloads.bytes(64))
    )
    network.engine.run_until(26.0)
    return testbed, obs, digest.hexdigest()


def series(snapshot, name, **labels):
    """The value of one exported series."""
    (value,) = [
        sample["value"]
        for sample in snapshot
        if sample["name"] == name and sample["labels"] == labels
    ]
    return value


class TestComposedAssembly:
    @pytest.fixture(scope="class")
    def run(self):
        return composed_run()

    def test_every_part_is_armed(self, run):
        testbed, _obs, _digest = run
        summaries = testbed.summaries()
        assert summaries["faults"]["by_action"] == {"partition": 1, "heal": 1}
        assert summaries["attack"]["stats"]["shares_corrupted"] > 0
        assert summaries["resilience"]["quarantines"] > 0
        assert summaries["resilience"]["nacks_received"] > 0
        assert testbed.node_b.receiver.stats.auth_failed_shares > 0
        assert testbed.node_b.receiver.stats.symbols_delivered > 0

    def test_attack_series_equal_the_attack_summary(self, run):
        testbed, obs, _digest = run
        snapshot = obs.snapshot()
        summary = testbed.attack.summary()
        for field, value in summary["stats"].items():
            assert series(snapshot, f"adv_{field}_total") == value, field
        for action, count in summary["by_action"].items():
            assert series(snapshot, "adv_events_applied_total", action=action) == count
        assert series(snapshot, "adv_plan_events") == len(testbed.attack.plan)

    def test_resilience_series_equal_the_resilience_summary(self, run):
        testbed, obs, _digest = run
        snapshot = obs.snapshot()
        summary = testbed.resilience.summary()
        for field, name in RESILIENCE_SERIES.items():
            assert series(snapshot, name) == summary[field], field
        for channel, state in enumerate(summary["channel_states"]):
            assert series(
                snapshot, "sim_resilience_channel_state", channel=str(channel)
            ) == STATE_ORDINALS[state]

    def test_network_nodes_and_faults_are_wired(self, run):
        testbed, obs, _digest = run
        snapshot = obs.snapshot()
        for action, count in testbed.faults.summary()["by_action"].items():
            assert series(snapshot, "sim_fault_events_total", action=action) == count
        for node in (testbed.node_a, testbed.node_b):
            assert series(
                snapshot, "sim_sender_symbols_sent_total", node=node.name
            ) == node.sender.stats.symbols_sent
        assert series(snapshot, "sim_engine_events_processed_total") == (
            testbed.network.engine.events_processed
        )

    def test_same_seed_replay_is_byte_identical(self, run):
        _testbed, obs, digest = run
        _again, obs_again, digest_again = composed_run()
        assert digest_again == digest
        assert json.dumps(obs_again.snapshot(), sort_keys=True) == json.dumps(
            obs.snapshot(), sort_keys=True
        )
        assert composed_run(seed=4)[2] != digest


def bare_testbed(seed=1, **parts):
    registry = RngRegistry(seed)
    config = ProtocolConfig(kappa=2.0, mu=3.0, symbol_size=64)
    network = PointToPointNetwork(default_channels(), config.symbol_size, registry)
    return assembly.Testbed.over(network, config, registry, **parts)


class TestAssemblyChecks:
    def test_unarmed_parts_summarise_as_none(self):
        testbed = bare_testbed()
        assert testbed.summaries() == {"faults": None, "attack": None, "resilience": None}

    def test_auth_root_key_derives_from_the_run_seed(self):
        testbed = bare_testbed(seed=11, auth=True)
        for node in (testbed.node_a, testbed.node_b):
            assert node.config.auth.root_key == derive_root_key(11)

    def test_requirements_without_resilience_are_rejected(self):
        with pytest.raises(ValueError, match="requirements"):
            bare_testbed(requirements=Requirements(max_risk=0.1))

    def test_run_iperf_rejects_requirements_without_resilience(self):
        with pytest.raises(ValueError, match="requirements"):
            run_iperf(
                diverse_setup(), ProtocolConfig(share_synthetic=True),
                offered_rate=10.0, duration=1.0, warmup=0.0,
                requirements=Requirements(max_risk=0.02),
            )

    def test_run_under_attack_rejects_requirements_without_resilience(self):
        with pytest.raises(ValueError, match="requirements"):
            run_under_attack(
                AttackPlan(), duration=1.0, requirements=Requirements(max_risk=0.05)
            )


class TestOfferAtRate:
    def test_ticks_at_fixed_intervals_before_the_end(self):
        engine = Engine()
        ticks = []
        offer_at_rate(engine, 2.0, 3.0, lambda: ticks.append(engine.now))
        engine.run()
        assert ticks == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]

    def test_first_offer_is_scheduled_at_once(self):
        # Same-time events run in scheduling order: the offer at 0.0 comes
        # before anything scheduled at 0.0 after it.
        engine = Engine()
        order = []
        offer_at_rate(engine, 1.0, 0.5, lambda: order.append("offer"))
        engine.schedule_at(0.0, lambda: order.append("later"))
        engine.run()
        assert order == ["offer", "later"]


def test_update_digest_line():
    digest = hashlib.sha256()
    update_digest(digest, 3, b"abc", 0.25)
    update_digest(digest, 4, None, 0.5)
    body = hashlib.sha256(b"abc").hexdigest()
    expected = hashlib.sha256(f"3:{body}:0.25\n4:-:0.5\n".encode()).hexdigest()
    assert digest.hexdigest() == expected
