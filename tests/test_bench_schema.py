"""Schema and invariants of the committed ``BENCH_micro.json`` trend file.

The micro benchmark (``benchmarks/bench_micro.py --json``) commits its
scalar-vs-batch throughput table at the repo root so the batch pipeline's
advantage is visible PR-to-PR and gated in CI (``--check``).  A trend file
nobody validates rots silently, so this suite pins:

* the schema (names, types, positivity) the CI gate parses,
* internal consistency (the recorded speedup is batch/scalar),
* the headline acceptance bar: the committed Shamir 3-of-5 split speedup
  is at least the 10x the vectorized rewrite promised, and
* the gate logic itself (regressions detected, self-comparison clean),
* the ``engine`` block: its exact work counts are those a live run of the
  fixed Figure 3 point produces, and any drift fails the gate while the
  events/s trend does not.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_micro.json"

EXPECTED_SCHEMES = {"shamir_3of5", "ramp_L2_3of5", "xor_5of5"}
EXPECTED_OPS = {"split", "reconstruct"}
EXPECTED_FIELDS = {"scalar_mbps", "batch_mbps", "speedup"}
EXPECTED_ENGINE_COUNTS = {"events", "schedules", "selects", "writable_polls"}


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_micro", ROOT / "benchmarks" / "bench_micro.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trend() -> dict:
    assert BENCH_JSON.exists(), "BENCH_micro.json must be committed at the repo root"
    return json.loads(BENCH_JSON.read_text())


class TestSchema:
    def test_header(self, trend):
        assert trend["schema"] == "bench-micro/1"
        assert isinstance(trend["payload_bytes"], int) and trend["payload_bytes"] == 1280
        assert isinstance(trend["repeats"], int) and trend["repeats"] >= 1

    def test_scheme_coverage(self, trend):
        assert set(trend["schemes"]) == EXPECTED_SCHEMES

    def test_entry_shape_and_positivity(self, trend):
        for scheme, ops in trend["schemes"].items():
            assert set(ops) == EXPECTED_OPS, scheme
            for op, row in ops.items():
                assert set(row) == EXPECTED_FIELDS, (scheme, op)
                for field, value in row.items():
                    assert isinstance(value, (int, float)), (scheme, op, field)
                    assert value > 0, (scheme, op, field)

    def test_speedup_is_batch_over_scalar(self, trend):
        for scheme, ops in trend["schemes"].items():
            for op, row in ops.items():
                derived = row["batch_mbps"] / row["scalar_mbps"]
                # The file stores round(_, 2)/round(_, 3) values; allow the
                # rounding slack but nothing more.
                assert math.isclose(row["speedup"], derived, rel_tol=0.02), (scheme, op)

    def test_shamir_split_meets_10x_bar(self, trend):
        # The acceptance bar of the vectorized rewrite: batch split of the
        # 1280-byte SYMBOL payload at >= 10x the scalar oracle.
        assert trend["schemes"]["shamir_3of5"]["split"]["speedup"] >= 10.0


class TestRegressionGate:
    def test_self_comparison_is_clean(self, trend):
        bench = _load_bench_module()
        assert bench.check_against_baseline(trend, trend) == []

    def test_speedup_regression_detected(self, trend):
        bench = _load_bench_module()
        regressed = json.loads(json.dumps(trend))
        row = regressed["schemes"]["ramp_L2_3of5"]["reconstruct"]
        row["speedup"] = trend["schemes"]["ramp_L2_3of5"]["reconstruct"]["speedup"] * 0.5
        failures = bench.check_against_baseline(regressed, trend)
        assert any("ramp_L2_3of5.reconstruct" in f for f in failures)

    def test_10x_floor_enforced_even_if_baseline_regresses_too(self, trend):
        # Committing a bad baseline must not silence the absolute floor.
        bench = _load_bench_module()
        slowed = json.loads(json.dumps(trend))
        slowed["schemes"]["shamir_3of5"]["split"]["speedup"] = 6.0
        failures = bench.check_against_baseline(slowed, slowed)
        assert any(">= 10x" in f for f in failures)

    def test_within_tolerance_passes(self, trend):
        bench = _load_bench_module()
        wobbled = json.loads(json.dumps(trend))
        for ops in wobbled["schemes"].values():
            for row in ops.values():
                row["speedup"] = row["speedup"] * 0.9  # inside the 20% band
        assert bench.check_against_baseline(wobbled, trend) == []


class TestEngineBlock:
    def test_shape(self, trend):
        engine = trend["engine"]
        assert set(engine) == EXPECTED_ENGINE_COUNTS | {"point", "seed", "events_per_s"}
        for key in EXPECTED_ENGINE_COUNTS:
            assert isinstance(engine[key], int) and engine[key] > 0, key
        assert engine["events_per_s"] > 0
        # Every dispatched event was scheduled; some were cancelled first.
        assert engine["schedules"] >= engine["events"]

    def test_committed_counts_match_a_live_run(self, trend):
        bench = _load_bench_module()
        engine = trend["engine"]
        assert engine["point"] == bench.ENGINE_POINT
        assert engine["seed"] == bench.ENGINE_SEED
        assert bench.count_engine_work() == {key: engine[key] for key in EXPECTED_ENGINE_COUNTS}

    def test_count_drift_detected(self, trend):
        bench = _load_bench_module()
        for key in EXPECTED_ENGINE_COUNTS:
            drifted = json.loads(json.dumps(trend))
            drifted["engine"][key] -= 1
            failures = bench.check_against_baseline(drifted, trend)
            assert any(f"engine.{key}" in f for f in failures), key

    def test_events_per_s_is_a_trend_not_a_gate(self, trend):
        bench = _load_bench_module()
        slowed = json.loads(json.dumps(trend))
        slowed["engine"]["events_per_s"] = trend["engine"]["events_per_s"] / 100
        assert bench.check_against_baseline(slowed, trend) == []
