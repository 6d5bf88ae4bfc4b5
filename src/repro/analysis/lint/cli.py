"""Command-line front end for the determinism linter.

Reached three ways, all sharing :class:`repro.analysis.framework.AnalysisCli`:

* ``repro-model lint ...`` (the installed console script),
* ``python -m repro.cli lint ...``,
* ``python -m repro.analysis.lint ...``.

Exit status: 0 when the tree is clean (after suppressions and the
baseline), 1 when live findings remain, 2 on usage errors -- so CI can
gate on the exit code alone.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.framework import AnalysisCli
from repro.analysis.lint.checks import default_rules
from repro.analysis.lint.engine import LintEngine

__all__ = ["LINT", "main"]


def _print_catalogue() -> None:
    for rule in default_rules():
        scope = ", ".join(rule.includes) if rule.includes else "everywhere"
        print(f"{rule.rule_id:22s} {rule.description}  [scope: {scope}]")


LINT = AnalysisCli(
    engine=LintEngine,
    description="AST-based determinism linter for the repro tree (see docs/LINTING.md)",
    verb="lint",
    default_paths=("src", "tests", "benchmarks"),
    default_baseline="lint-baseline.json",
    catalogue_flag="--list-rules",
    catalogue_help="print the rule catalogue and exit",
    print_catalogue=_print_catalogue,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return LINT.main(argv)
