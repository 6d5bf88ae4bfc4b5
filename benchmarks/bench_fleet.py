"""Fleet-scale benchmark: throughput, memory-per-flow, parity gates.

Measures the fleet executor (docs/FLEET.md) at >= 1024 concurrent flows
and verifies its structural guarantee, **shard parity**: the merged
report's delivery fingerprint is byte-identical for ``shards=1`` and
``shards=2``.

``--check BENCH_fleet.json`` gates CI: shard parity must hold exactly, delivery must stay complete, and memory-per-flow may not grow
more than 1/CHECK_TOLERANCE over the committed baseline (a ratio, so the
gate is machine-independent).  Throughput (flows/sec) is recorded as a
trend only -- absolute speed is machine-dependent.

Usage:
    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]
        [--json PATH] [--check BASELINE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

from repro.workloads.fleet import run_fleet

#: Ratio floor for gated metrics (matches bench_micro).
CHECK_TOLERANCE = 0.8


def run_fleet_bench(flows: int = 1024, quick: bool = False) -> dict:
    """Measure the fleet executor; returns the JSON-able result document.

    ``quick`` shrinks only the parity re-runs: the scale measurement
    always uses the full ``flows`` count, because memory-per-flow mixes a
    fixed overhead with a linear term and is only comparable against the
    committed baseline at the same fleet size.
    """
    symbols = 4

    # Scale run (serial, so tracemalloc sees every allocation).
    tracemalloc.start()
    started = time.perf_counter()
    report = run_fleet(flows=flows, shards=1, symbols_per_flow=symbols)
    wall = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Shard parity on a smaller fleet (two full executions).
    parity_flows = 64 if quick else 128
    serial = run_fleet(flows=parity_flows, shards=1, spec_id="fleet/parity")
    sharded = run_fleet(flows=parity_flows, shards=2, spec_id="fleet/parity")

    return {
        "schema": "bench-fleet/1",
        "flows": flows,
        "symbols_per_flow": symbols,
        "delivered_fraction": report.delivered_total / (flows * symbols),
        "flows_per_sec": flows / wall,
        "memory_per_flow_kib": peak / flows / 1024.0,
        "peak_mib": peak / 1024.0 / 1024.0,
        "shard_parity": serial.fleet_digest == sharded.fleet_digest,
    }


def check_against_baseline(results: dict, baseline: dict) -> "list[str]":
    """Parity + ratio regression gates; returns failure messages."""
    failures = []
    if not results["shard_parity"]:
        failures.append("shard_parity: sharded report diverged from the serial run")
    if results["delivered_fraction"] < 1.0:
        failures.append(
            f"delivered_fraction: {results['delivered_fraction']:.4f} < 1.0 "
            "(lossless fleet must deliver every symbol)"
        )
    ceiling = baseline["memory_per_flow_kib"] / CHECK_TOLERANCE
    if results["memory_per_flow_kib"] > ceiling:
        failures.append(
            f"memory_per_flow_kib: {results['memory_per_flow_kib']:.1f} KiB "
            f"exceeds {1 / CHECK_TOLERANCE:.0%} of the committed "
            f"{baseline['memory_per_flow_kib']:.1f} KiB"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", help="write results as JSON to PATH")
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed BENCH_fleet.json; exit 1 on regression",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller fleet (CI smoke settings)"
    )
    parser.add_argument("--flows", type=int, default=1024, help="fleet size")
    args = parser.parse_args()

    results = run_fleet_bench(flows=args.flows, quick=args.quick)
    print(
        f"fleet bench: flows={results['flows']} "
        f"flows_per_sec={results['flows_per_sec']:.1f} "
        f"memory_per_flow={results['memory_per_flow_kib']:.1f} KiB "
        f"(peak {results['peak_mib']:.1f} MiB)"
    )
    print(
        f"shard_parity={results['shard_parity']} "
        f"delivered_fraction={results['delivered_fraction']:.4f}"
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_against_baseline(results, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            raise SystemExit(1)
        print("fleet bench check: ok")


if __name__ == "__main__":
    main()
