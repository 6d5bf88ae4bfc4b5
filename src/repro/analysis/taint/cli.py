"""Command-line front end for the secret-taint analysis.

Reached three ways, all sharing :class:`repro.analysis.framework.AnalysisCli`:

* ``repro-model taint ...`` (the installed console script),
* ``python -m repro.cli taint ...``,
* ``python -m repro.analysis.taint ...``.

Exit status mirrors the determinism linter exactly: 0 when the tree is
clean (after suppressions and the baseline), 1 when live findings
remain, 2 on usage errors -- CI gates on the exit code alone.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.framework import AnalysisCli
from repro.analysis.taint.engine import TaintEngine
from repro.analysis.taint.policy import default_policy

__all__ = ["TAINT", "main"]


def _print_catalogue() -> None:
    policy = default_policy()
    print("sinks:")
    for rule_id, description in policy.sink_catalogue():
        print(f"  {rule_id:18s} {description}")
    print("sources:")
    for sp in policy.source_params:
        scope = ", ".join(sp.includes) if sp.includes else "everywhere"
        print(f"  param {', '.join(sp.names)}  [scope: {scope}]")
    for sc in policy.source_calls:
        names = ", ".join(sc.qualnames + sc.methods)
        print(f"  call {names}  [{sc.label}]")
    print("sanitizers:")
    for sanitizer in policy.sanitizers:
        names = ", ".join(
            sanitizer.qualnames
            + tuple(f"{p}*" for p in sanitizer.prefixes)
            + tuple(f".{m}()" for m in sanitizer.methods)
        )
        print(f"  {names}")


TAINT = AnalysisCli(
    engine=TaintEngine,
    description="secret-flow (source/sink/sanitizer) static analysis "
    "for the repro tree (see docs/TAINT.md)",
    verb="analyze",
    # Unlike the linter, the default scope is the shipped package only:
    # tests and benchmarks legitimately print and persist secret-adjacent
    # fixtures.
    default_paths=("src",),
    default_baseline="taint-baseline.json",
    catalogue_flag="--list-sinks",
    catalogue_help="print the source/sink/sanitizer catalogue and exit",
    print_catalogue=_print_catalogue,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return TAINT.main(argv)
