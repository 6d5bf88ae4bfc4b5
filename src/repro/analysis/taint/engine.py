"""The whole-program taint engine.

Runs in three stages over the discovered tree:

1. **Parse** every file once (shared framework: sorted discovery,
   ``# taint:`` directive parsing, ``parse-error`` findings for broken
   files).
2. **Summary fixpoint**: repeat summary-only module passes until no
   function summary or attribute-taint entry changes (bounded by
   ``max_passes``); this is what lets taint introduced in
   ``protocol.dibs`` surface at a sink reached through ``sender`` ->
   ``netsim`` -> ``obs`` call chains.
3. **Collection**: one final pass emits findings, which then flow
   through the exact suppression/baseline/report pipeline the
   determinism linter uses -- same JSON schema, same exit-code
   contract, ``taint_*`` obs counters instead of ``lint_*``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.framework import (
    AnalysisEngine,
    AnalysisReport,
    Baseline,
    Finding,
    FileSuppressions,
    collect_aliases,
    split_suppressed,
)
from repro.analysis.taint.policy import TaintPolicy, default_policy
from repro.analysis.taint.propagation import ModuleAnalyzer, ModuleInfo, module_name
from repro.analysis.taint.summaries import SummaryTable

__all__ = ["TaintEngine", "TaintReport", "taint_paths", "ANNOTATION_KINDS"]

#: The ``# taint:`` annotation directive keywords (see docs/TAINT.md).
ANNOTATION_KINDS = ("source", "sink", "declassified")


class TaintReport(AnalysisReport):
    """The outcome of one taint run (the shared report shape)."""


class TaintEngine(AnalysisEngine):
    """Source/sink/sanitizer dataflow analysis over a file tree.

    Args:
        policy: the source/sink/sanitizer catalogue; defaults to the
            repository threat model (:func:`default_policy`).
        baseline: grandfathered findings (``taint-baseline.json`` ships
            empty; the mechanism exists for future policy additions).
        obs: see :class:`~repro.analysis.framework.AnalysisEngine`
            (counters are prefixed ``taint_``).
        max_passes: cross-module summary fixpoint bound.
    """

    tool = "taint"
    annotation_kinds = ANNOTATION_KINDS
    report_type = TaintReport

    def __init__(
        self,
        policy: Optional[TaintPolicy] = None,
        baseline: Optional[Baseline] = None,
        obs=None,
        max_passes: int = 5,
    ):
        super().__init__(baseline=baseline, obs=obs)
        self.policy = policy if policy is not None else default_policy()
        self.max_passes = max_passes

    def rule_ids(self) -> List[str]:
        return self.policy.rule_ids()

    def analyze_sources(
        self, files: Sequence[Tuple[str, str]], root: str = ""
    ) -> TaintReport:
        """Analyze ``(relpath, source)`` pairs (filesystem-free entry point)."""
        modules: List[ModuleInfo] = []
        per_file: Dict[str, Tuple[List[Finding], FileSuppressions]] = {}
        for relpath, source in files:
            tree, suppressions, findings = self.parse(relpath, source)
            per_file[relpath] = (findings, suppressions)
            if tree is not None:
                modules.append(
                    ModuleInfo(
                        relpath=relpath,
                        module=module_name(relpath),
                        tree=tree,
                        aliases=collect_aliases(tree),
                        suppressions=suppressions,
                    )
                )

        table = SummaryTable()
        for _ in range(self.max_passes):
            before = table.fingerprint()
            for info in modules:
                ModuleAnalyzer(info, self.policy, table, collect=False).run()
            if table.fingerprint() == before:
                break

        for info in modules:
            found = ModuleAnalyzer(info, self.policy, table, collect=True).run()
            per_file[info.relpath][0].extend(found)

        splits = [
            split_suppressed(sorted(findings), suppressions)
            for _relpath, (findings, suppressions) in sorted(per_file.items())
        ]
        return self.finish(root, len(files), splits)


def taint_paths(
    root: str,
    paths: Iterable[str],
    policy: Optional[TaintPolicy] = None,
    baseline: Optional[Baseline] = None,
    obs=None,
) -> TaintReport:
    """Convenience wrapper: build an engine and run it once."""
    return TaintEngine(policy=policy, baseline=baseline, obs=obs).run(root, list(paths))
