"""The repository's benchmark: one command, four workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` is the timed pass.  It measures set-up time in fresh child
processes (the median of several), runs one untimed warm-up point, then
runs whole cycles of points for at least ``--seconds`` (and at least
:data:`MIN_POINTS` points) with only a per-point timer added, and prints
every end-to-end metric.

``--trace 1`` is the traced pass.  It runs the workload's simulated-metric
points twice -- untraced, then with span wrappers on every layer -- and
prints every per-layer metric.  It also runs the self-checks: pass parity
(identical simulated metrics, delivery digests and program counters in
both passes), exact counters (a second traced run of the first cycle
repeats every per-layer count) and, on ``testbed_auth``, equivalence
with ``run_iperf``.  Spans of the traced pass are written to
``.perfbench_out/``.

Every point passes its workload's correctness gate or the run fails.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when everything was correct.  The benchmark needs the program's
sources under ``src/``; without them it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Fewest points a timed pass runs, so that p90 has ten points beyond it.
MIN_POINTS = 100

#: Fresh processes whose set-up times give ``setup_s`` (their median).
SETUP_PROBES = 5

#: Simulator unit time in ms (the testbed convention of repro.workloads.setups).
MS_PER_UNIT = 10.0

END_TO_END_UNITS = {
    "symbols_per_s": "1/s",
    "point_s_p50": "s",
    "point_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "delivered_fraction": "ratio",
    "sim_rate_ratio": "ratio",
    "sim_delay_ms_p50": "ms",
    "sim_delay_ms_p99": "ms",
}


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99), linear between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def sim_metrics(points) -> Dict[str, float]:
    """The simulated metrics over ``points`` (deterministic per seed)."""
    delays = [delay * MS_PER_UNIT for point in points for delay in point.delays]
    return {
        "delivered_fraction": sum(p.delivered for p in points)
        / sum(p.transmitted for p in points),
        "sim_rate_ratio": sum(p.achieved_rate for p in points)
        / sum(p.optimal_rate for p in points),
        "sim_delay_ms_p50": percentile(delays, 50),
        "sim_delay_ms_p99": percentile(delays, 99),
    }


def run_cycles(workload, wseed: int, cycles: int, tracer=None) -> List[Any]:
    points = []
    for cycle in range(cycles):
        points.extend(workload.run_cycle(wseed, cycle, tracer))
    return points


def gate_errors(points) -> List[str]:
    return [error for point in points for error in point.errors]


def operations(points) -> Dict[str, int]:
    """One operation is one point; it fails when its correctness gate fails.

    Symbols the simulated channels lose are the modelled behaviour, not a
    failure of the program, so they show in ``delivered_fraction`` instead.
    """
    return {"attempted": len(points), "failed": sum(1 for point in points if point.errors)}


def measure_setup(workload: str, seed: int) -> List[float]:
    """Set-up seconds of fresh processes: start to end of the warm-up point."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - started)
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
    return samples


def timed_pass(workload, wseed: int, seconds: float, setup: List[float]) -> Dict[str, Any]:
    workload.warm_up()
    points = []
    cycle = 0
    started = time.perf_counter()
    while True:
        batch = workload.run_cycle(wseed, cycle)
        if cycle >= workload.sim_cycles:
            # Only the leading cycles feed the simulated metrics; dropping
            # later outputs keeps peak RSS a property of the program.
            for point in batch:
                point.outputs, point.delays = {}, []
        points.extend(batch)
        cycle += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(points) >= MIN_POINTS and cycle >= workload.sim_cycles:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host = [point.host_s for point in points]
    metrics = {
        "symbols_per_s": sum(point.delivered for point in points) / elapsed,
        "point_s_p50": percentile(host, 50),
        "point_s_p90": percentile(host, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_rss_mib,
    }
    sim_points = workload.sim_cycles * workload.cycle_points
    metrics.update(sim_metrics(points[:sim_points]))
    print(
        f"{workload.name}: timed pass {len(points)} points in {cycle} cycles, "
        f"{elapsed:.3f} s; percentiles over {len(host)} points; simulated metrics over "
        f"the first {sim_points} points; set-up samples {[round(sample, 3) for sample in setup]}; "
        f"{sum(p.delivered for p in points)} of {sum(p.transmitted for p in points)} "
        f"transmitted symbols delivered"
    )
    return {
        "errors": gate_errors(points),
        **operations(points),
        "metrics": {name: metrics[name] for name in END_TO_END_UNITS},
        "units": END_TO_END_UNITS,
    }


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as out:
        for trace, span, parent, name, start, end in tracer.spans:
            out.write(json.dumps({
                "trace": trace, "span": span, "parent": parent, "name": name,
                "start": start, "end": end,
            }) + "\n")
    return path


def traced_pass(workload, wseed: int) -> Dict[str, Any]:
    import layers
    from spans import Patches, Tracer

    workload.warm_up()
    cycles = workload.sim_cycles

    started = time.perf_counter()
    reference = run_cycles(workload, wseed, cycles)
    untraced_s = time.perf_counter() - started

    def traced_run(count: int):
        tracer = Tracer(extras=layers.point_extras)
        patches = Patches()
        layers.install(tracer, patches)
        try:
            began = time.perf_counter()
            points = run_cycles(workload, wseed, count, tracer)
            return tracer, points, time.perf_counter() - began
        finally:
            patches.restore()

    tracer, traced, traced_s = traced_run(cycles)
    errors = gate_errors(reference) + gate_errors(traced)

    # Pass parity: the traced pass computed exactly what the untraced did.
    if sim_metrics(reference) != sim_metrics(traced):
        errors.append(
            f"pass parity: simulated metrics differ: {sim_metrics(reference)} "
            f"vs {sim_metrics(traced)}"
        )
    for ours, theirs in zip(reference, traced):
        if ours.digest() != theirs.digest():
            errors.append(f"pass parity: point {ours.index} outputs differ between passes")
    if len(reference) != len(traced):
        errors.append("pass parity: point counts differ between passes")

    # Exact counters: a second traced run repeats every count of cycle 0.
    again, _points, _seconds = traced_run(1)
    for index, (first, second) in enumerate(zip(tracer.point_counts, again.point_counts)):
        if first != second:
            changed = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
            errors.append(f"exact counters: point {index} differs in {changed}")

    if hasattr(workload, "equivalence_errors"):
        errors.extend(workload.equivalence_errors(wseed))

    metrics = layers.layer_metrics(tracer, sum(point.host_s for point in traced))
    spans_path = write_spans(tracer, workload.name, wseed)
    print(
        f"{workload.name}: traced pass over {len(traced)} points; untraced {untraced_s:.3f} s, "
        f"traced {traced_s:.3f} s, tracing overhead {traced_s - untraced_s:.3f} s; "
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
    )
    return {
        "errors": errors,
        **operations(traced),
        "metrics": metrics,
        "units": layers.LAYER_UNITS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One client, one thread: idle BLAS worker threads would only contend
    # for the host's few cores.  Set before numpy loads; set-up probes
    # inherit it.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")

    if args.setup_probe:
        from workloads import WORKLOADS, Taps
        from spans import Patches

        taps = Taps()
        taps.install(Patches())
        WORKLOADS[args.workload](taps).warm_up()
        print("ready", flush=True)
        return 0

    known = ("figure_sweep", "testbed_auth", "fleet_batched", "under_attack")
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; expected one of {known}",
              file=sys.stderr)
        return 2

    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else []

    from workloads import WORKLOADS, Taps
    from spans import Patches

    taps = Taps()
    patches = Patches()
    taps.install(patches)
    workload = WORKLOADS[args.workload](taps)
    try:
        if args.trace == 0:
            result = timed_pass(workload, args.seed, args.seconds, setup)
        else:
            result = traced_pass(workload, args.seed)
    finally:
        patches.restore()

    for error in result["errors"][:20]:
        print(f"FAILED: {error}")
    correct = not result["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
