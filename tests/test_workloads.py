"""Setups, unit conversions, and the iperf/echo workload tools."""

import math

import numpy as np
import pytest

from repro.adversary.active.harness import run_under_attack
from repro.adversary.active.plan import AttackPlan
from repro.core.rate import optimal_rate
from repro.protocol.config import ProtocolConfig
from repro.workloads.echo import run_echo
from repro.workloads.iperf import run_iperf
from repro.workloads.setups import (
    MS_PER_UNIT,
    SYMBOL_SIZE,
    delay_to_ms,
    delayed_setup,
    diverse_setup,
    identical_setup,
    lossy_setup,
    mbps_to_rate,
    ms_to_delay,
    rate_to_mbps,
)


class TestUnits:
    def test_mbps_rate_identity(self):
        # With 1250-byte symbols and 10 ms units, X Mbps = X symbols/unit.
        assert mbps_to_rate(100.0) == pytest.approx(100.0)
        assert rate_to_mbps(100.0) == pytest.approx(100.0)

    def test_roundtrip(self):
        for mbps in (5.0, 62.5, 800.0):
            assert rate_to_mbps(mbps_to_rate(mbps)) == pytest.approx(mbps)

    def test_delay_conversion(self):
        assert ms_to_delay(MS_PER_UNIT) == pytest.approx(1.0)
        assert delay_to_ms(ms_to_delay(12.5)) == pytest.approx(12.5)

    def test_symbol_is_ten_kilobits(self):
        assert SYMBOL_SIZE * 8 == 10_000


class TestSetups:
    def test_identical(self):
        channels = identical_setup(100.0)
        assert channels.n == 5
        np.testing.assert_allclose(channels.rates, [100.0] * 5)
        np.testing.assert_allclose(channels.losses, [0.0] * 5)

    def test_identical_custom(self):
        channels = identical_setup(250.0, n=3)
        assert channels.n == 3
        assert channels.total_rate == pytest.approx(750.0)

    def test_identical_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            identical_setup(0.0)

    def test_diverse_rates(self):
        channels = diverse_setup()
        np.testing.assert_allclose(channels.rates, [5, 20, 60, 65, 100])

    def test_lossy_percentages(self):
        channels = lossy_setup()
        np.testing.assert_allclose(channels.losses, [0.01, 0.005, 0.01, 0.02, 0.03])

    def test_delayed_milliseconds(self):
        channels = delayed_setup()
        np.testing.assert_allclose(
            channels.delays, [0.25, 0.025, 1.25, 0.5, 0.05]
        )

    def test_risk_override(self):
        channels = diverse_setup(risks=[0.1, 0.2, 0.3, 0.4, 0.5])
        np.testing.assert_allclose(channels.risks, [0.1, 0.2, 0.3, 0.4, 0.5])


class TestIperf:
    def test_rate_within_header_overhead_of_optimal(self):
        channels = identical_setup(100.0)
        config = ProtocolConfig(kappa=1.0, mu=1.0, share_synthetic=True)
        result = run_iperf(channels, config, offered_rate=800.0, duration=10.0, warmup=2.0)
        optimum = optimal_rate(channels, 1.0)
        assert 0.95 * optimum < result.achieved_rate <= optimum
        assert result.achieved_mbps == pytest.approx(rate_to_mbps(result.achieved_rate))

    def test_below_capacity_no_loss(self):
        channels = identical_setup(100.0)
        config = ProtocolConfig(kappa=2.0, mu=2.0, share_synthetic=True)
        result = run_iperf(channels, config, offered_rate=100.0, duration=10.0, warmup=2.0)
        assert result.achieved_rate == pytest.approx(100.0, rel=0.03)
        # Up to one symbol of window-edge skew is tolerated.
        assert result.loss_fraction <= 1.0 / result.symbols_transmitted + 1e-12
        assert result.source_drops == 0

    def test_lossy_channels_produce_loss(self):
        from repro.workloads.iperf import practical_max_rate

        channels = lossy_setup()
        config = ProtocolConfig(kappa=1.0, mu=1.0, share_synthetic=True)
        result = run_iperf(
            channels, config,
            offered_rate=practical_max_rate(channels, 1.0, config.symbol_size),
            duration=20.0, warmup=5.0,
        )
        # kappa = mu = 1: symbol loss is the usage-weighted channel loss.
        usage = channels.rates / channels.total_rate
        expected = float((usage * channels.losses).sum())
        assert result.loss_fraction == pytest.approx(expected, abs=0.01)

    def test_redundancy_eliminates_loss(self):
        channels = lossy_setup()
        config = ProtocolConfig(kappa=1.0, mu=5.0, share_synthetic=True)
        result = run_iperf(
            channels, config, offered_rate=optimal_rate(channels, 5.0),
            duration=20.0, warmup=2.0,
        )
        # l(1, C) = prod l_i ~ 3e-9: effectively zero.
        assert result.loss_fraction < 0.01

    def test_real_payload_mode(self):
        channels = identical_setup(50.0)
        config = ProtocolConfig(kappa=2.0, mu=3.0)
        result = run_iperf(channels, config, offered_rate=30.0, duration=5.0, warmup=1.0)
        assert result.symbols_delivered > 0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            run_iperf(identical_setup(10.0), ProtocolConfig(), offered_rate=0.0)

    def test_auth_mode_delivers_and_counts_tags(self):
        channels = identical_setup(50.0)
        config = ProtocolConfig(kappa=2.0, mu=3.0)
        result = run_iperf(
            channels, config, offered_rate=30.0, duration=5.0, warmup=1.0, auth=True
        )
        assert result.symbols_delivered > 0
        assert result.sender_stats["auth_tagged_shares"] > 0
        assert result.receiver_stats["auth_verified_shares"] > 0
        assert result.receiver_stats["auth_failed_shares"] == 0  # no adversary

    def test_auth_accepts_explicit_root_key(self):
        channels = identical_setup(50.0)
        config = ProtocolConfig(kappa=2.0, mu=3.0)
        result = run_iperf(
            channels, config, offered_rate=30.0, duration=5.0, warmup=1.0,
            auth=b"an out-of-band 16B+",
        )
        assert result.symbols_delivered > 0
        assert result.receiver_stats["auth_verified_shares"] > 0

    def test_auth_rejects_synthetic_shares(self):
        config = ProtocolConfig(kappa=2.0, mu=3.0, share_synthetic=True)
        with pytest.raises(ValueError):
            run_iperf(
                identical_setup(10.0), config, offered_rate=5.0, duration=2.0,
                auth=True,
            )

    def test_deterministic_given_seed(self):
        channels = lossy_setup()
        config = ProtocolConfig(kappa=2.0, mu=3.0, share_synthetic=True)
        a = run_iperf(channels, config, offered_rate=50.0, duration=5.0, warmup=1.0, seed=9)
        b = run_iperf(channels, config, offered_rate=50.0, duration=5.0, warmup=1.0, seed=9)
        assert a.achieved_rate == b.achieved_rate
        assert a.loss_fraction == b.loss_fraction


class TestOfferWindowValidation:
    """Constant-rate workloads reject inputs that cannot define an offer
    window before building an engine: ``offered_rate=inf`` would
    reschedule at t=0 forever, a NaN window never opens or closes."""

    BAD = [
        ("offered_rate", 0.0),
        ("offered_rate", -1.0),
        ("offered_rate", math.inf),
        ("offered_rate", math.nan),
        ("warmup", -1.0),
        ("warmup", math.nan),
        ("warmup", math.inf),
        ("duration", 0.0),
        ("duration", -1.0),
        ("duration", math.nan),
        ("duration", math.inf),
    ]

    @staticmethod
    def workloads():
        channels = identical_setup(10.0)
        return {
            "iperf": lambda **kw: run_iperf(
                channels, ProtocolConfig(share_synthetic=True), **kw
            ),
            "echo": lambda **kw: run_echo(channels, ProtocolConfig(), **kw),
            "under_attack": lambda **kw: run_under_attack(AttackPlan(), **kw),
        }

    @pytest.mark.parametrize("workload", ["iperf", "echo", "under_attack"])
    @pytest.mark.parametrize("argument,value", BAD)
    def test_rejects_with_the_argument_named(self, workload, argument, value):
        window = {"offered_rate": 2.0, "duration": 5.0, "warmup": 1.0}
        window[argument] = value
        with pytest.raises(ValueError, match=f"^{argument} must be finite"):
            self.workloads()[workload](**window)

    def test_zero_warmup_is_allowed(self):
        result = run_iperf(
            identical_setup(10.0), ProtocolConfig(share_synthetic=True),
            offered_rate=5.0, duration=2.0, warmup=0.0,
        )
        assert result.symbols_delivered > 0


class TestEcho:
    def test_lossless_low_rate_delay_matches_model(self):
        channels = delayed_setup()
        config = ProtocolConfig(kappa=1.0, mu=5.0)
        # Far below capacity: queueing is negligible, so the one-way delay
        # approaches the model's D(p) for the broadcast schedule, plus
        # serialisation time.
        result = run_echo(channels, config, offered_rate=1.0, duration=20.0, warmup=2.0)
        from repro.core.optimal import min_delay

        model_delay = min_delay(channels)[0]
        assert result.mean_delay >= model_delay
        assert result.mean_delay == pytest.approx(model_delay, abs=0.5)

    def test_rejects_synthetic(self):
        config = ProtocolConfig(share_synthetic=True)
        with pytest.raises(ValueError):
            run_echo(identical_setup(10.0), config, offered_rate=1.0)

    def test_higher_kappa_increases_delay(self):
        channels = delayed_setup()
        delays = {}
        for kappa in (1.0, 5.0):
            config = ProtocolConfig(kappa=kappa, mu=5.0)
            result = run_echo(channels, config, offered_rate=1.0, duration=15.0, warmup=2.0)
            delays[kappa] = result.mean_delay
        # kappa=5 waits for the slowest share (12.5 ms channel).
        assert delays[5.0] > delays[1.0]
