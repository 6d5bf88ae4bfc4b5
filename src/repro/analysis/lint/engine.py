"""The single-pass lint engine.

One ``ast.parse`` and one tree walk per file, however many rules are
registered: the engine builds a ``node type -> interested rules``
dispatch table per file and feeds every node to exactly the rules that
declared that type.  Suppressions and the baseline are applied
afterwards, so a report always accounts for every raw finding
(``findings`` + ``suppressed`` + ``baselined`` partitions the raw set).

The mechanical substrate -- deterministic discovery, the per-file front
end, the run finish, the report dataclass, obs counters -- lives in
:mod:`repro.analysis.framework`, shared with the secret-taint analysis;
this module keeps only the lint-specific rule dispatch.  Two runs over
the same tree produce byte-identical reports (pinned by
``tests/test_lint_regression.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding
from repro.analysis.framework import (
    PARSE_ERROR,
    AnalysisEngine,
    AnalysisReport,
    collect_aliases,
    split_suppressed,
)
from repro.analysis.lint.checks import default_rules
from repro.analysis.lint.rules import FileContext, Rule

__all__ = ["LintEngine", "LintReport", "lint_paths", "PARSE_ERROR"]


class LintReport(AnalysisReport):
    """The outcome of one lint run (the shared report shape).

    ``findings`` are the live (non-suppressed, non-baselined) hazards;
    ``ok`` is the CI gate.
    """


class LintEngine(AnalysisEngine):
    """Walks files once and dispatches AST nodes to the registered rules.

    Args:
        rules: rule instances to run; defaults to the full catalogue
            with repo-default scoping (:func:`repro.analysis.lint.checks.default_rules`).
        baseline, obs: see :class:`~repro.analysis.framework.AnalysisEngine`
            (counters are prefixed ``lint_``).
    """

    tool = "lint"
    report_type = LintReport

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        baseline: Optional[Baseline] = None,
        obs=None,
    ):
        super().__init__(baseline=baseline, obs=obs)
        self.rules: List[Rule] = list(rules) if rules is not None else default_rules()

    def rule_ids(self) -> List[str]:
        return [rule.rule_id for rule in self.rules]

    def lint_source(self, relpath: str, source: str) -> Tuple[List[Finding], List[Finding]]:
        """Lint one file's source text.

        Returns ``(raw_findings, suppressed)`` -- baseline handling is
        run-level, not file-level.
        """
        tree, suppressions, findings = self.parse(relpath, source)
        applicable = [rule for rule in self.rules if rule.applies_to(relpath)]
        if tree is not None and applicable:
            context = FileContext(
                relpath=relpath,
                source_lines=source.splitlines(),
                aliases=collect_aliases(tree),
                suppressions=suppressions,
            )
            dispatch: Dict[Type[ast.AST], List[Rule]] = {}
            for rule in applicable:
                for node_type in rule.node_types:
                    dispatch.setdefault(node_type, []).append(rule)
            for node in ast.walk(tree):
                for rule in dispatch.get(type(node), ()):
                    findings.extend(rule.visit(node, context))
        findings.sort()
        return split_suppressed(findings, suppressions)

    def analyze_sources(
        self, files: Sequence[Tuple[str, str]], root: str = ""
    ) -> LintReport:
        """Lint ``(relpath, source)`` pairs (filesystem-free entry point)."""
        per_file = [self.lint_source(relpath, source) for relpath, source in files]
        return self.finish(root, len(files), per_file)


def lint_paths(
    root: str,
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
    obs=None,
) -> LintReport:
    """Convenience wrapper: build an engine and run it once."""
    return LintEngine(rules=rules, baseline=baseline, obs=obs).run(root, list(paths))
