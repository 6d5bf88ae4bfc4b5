"""Shared static-analysis framework.

The determinism linter (:mod:`repro.analysis.lint`) and the secret-taint
analysis (:mod:`repro.analysis.taint`) are different *policies* over the
same mechanical substrate, and this module is its only home:

* **the per-file front end** -- ``# tool:`` directive parsing, the
  ``bad-directive`` findings, one ``ast.parse`` and the ``parse-error``
  finding (:meth:`AnalysisEngine.parse`);
* **the run** -- deterministic discovery, reading sources, then the run
  finish: a sorted findings list partitioned into live / suppressed /
  baselined and rule-hit counters through :mod:`repro.obs`
  (:meth:`AnalysisEngine.run`, :meth:`AnalysisEngine.finish`);
* **the command line** -- one argument set and one discover -> baseline
  -> engine -> update-baseline -> print -> metrics -> exit-code flow
  (:class:`AnalysisCli`), so both tools share the JSON report schema and
  the exit-code contract (pinned by ``tests/test_lint_regression.py``).

An engine subclass supplies only its rule ids and its analysis over the
parsed files.  The primitive types -- :class:`~repro.analysis.findings.Finding`,
:class:`~repro.analysis.baseline.Baseline`, the suppression parser and the
import-alias resolver -- are re-exported here so analysis packages have
a single import surface.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding
from repro.analysis.resolve import collect_aliases, qualified_name
from repro.analysis.suppressions import (
    BAD_DIRECTIVE,
    FileSuppressions,
    parse_suppressions,
)

__all__ = [
    "AnalysisCli",
    "AnalysisEngine",
    "AnalysisReport",
    "BAD_DIRECTIVE",
    "Baseline",
    "FileSuppressions",
    "Finding",
    "PARSE_ERROR",
    "SKIP_DIRS",
    "collect_aliases",
    "discover",
    "emit_counters",
    "parse_suppressions",
    "print_report",
    "qualified_name",
    "split_suppressed",
]

#: Rule id under which unparseable files are reported (shared by tools
#: so a broken file fails every gate identically).
PARSE_ERROR = "parse-error"

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".pytest_cache"})


@dataclass
class AnalysisReport:
    """The outcome of one analysis run.

    ``findings`` are the live (non-suppressed, non-baselined) hazards;
    ``ok`` is the CI gate.  ``findings`` + ``suppressed`` + ``baselined``
    partitions the raw finding set, so a report always accounts for
    every hazard the analysis saw.
    """

    root: str
    files_scanned: int = 0
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def rule_counts(self) -> Dict[str, int]:
        """Live findings per rule id, sorted by rule id."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        """The ``--format json`` schema (documented in docs/LINTING.md)."""
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "counts": self.rule_counts(),
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": len(self.suppressed),
            "baselined": len(self.baselined),
        }

    def summary(self) -> str:
        """One-line human summary for the end of text output."""
        return (
            f"{len(self.findings)} finding(s) "
            f"({len(self.suppressed)} suppressed, {len(self.baselined)} baselined) "
            f"in {self.files_scanned} file(s)"
        )


def discover(root: str, paths: Sequence[str], label: str = "lint") -> List[str]:
    """Resolve files/directories to a sorted list of ``.py`` files.

    Directories are walked with sorted listings (an analysis must not
    itself depend on filesystem order); ``__pycache__`` and VCS/tool
    cache directories are skipped.  Paths are returned relative to
    ``root`` with forward slashes.  ``label`` names the tool in the
    missing-path error message.
    """
    found: List[str] = []
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(absolute):
            found.append(os.path.relpath(absolute, root))
            continue
        if not os.path.isdir(absolute):
            raise FileNotFoundError(f"{label} path does not exist: {path!r}")
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(dict.fromkeys(p.replace(os.sep, "/") for p in found))


def split_suppressed(
    findings: Sequence[Finding], suppressions: FileSuppressions
) -> Tuple[List[Finding], List[Finding]]:
    """Partition one file's raw findings into ``(live, suppressed)``."""
    live = [f for f in findings if not suppressions.is_suppressed(f.rule, f.line)]
    dead = [f for f in findings if suppressions.is_suppressed(f.rule, f.line)]
    return live, dead


def emit_counters(report: AnalysisReport, obs, prefix: str) -> None:
    """Rule-hit counters through repro.obs (no-op without obs).

    Emits ``{prefix}_files_scanned_total``,
    ``{prefix}_findings_total{rule=...}``,
    ``{prefix}_suppressed_total{rule=...}`` and
    ``{prefix}_baselined_total``.
    """
    if obs is None:
        return
    registry = obs.registry
    registry.counter(f"{prefix}_files_scanned_total").inc(report.files_scanned)
    for rule_id, count in report.rule_counts().items():
        registry.counter(f"{prefix}_findings_total", rule=rule_id).inc(count)
    suppressed_counts: Dict[str, int] = {}
    for finding in report.suppressed:
        suppressed_counts[finding.rule] = suppressed_counts.get(finding.rule, 0) + 1
    for rule_id, count in sorted(suppressed_counts.items()):
        registry.counter(f"{prefix}_suppressed_total", rule=rule_id).inc(count)
    registry.counter(f"{prefix}_baselined_total").inc(len(report.baselined))


def print_report(report: AnalysisReport, fmt: str) -> None:
    """Write a report to stdout in the shared text or JSON form."""
    if fmt == "json":
        json.dump(report.to_dict(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for finding in report.findings:
            print(finding.render())
        print(report.summary())


class AnalysisEngine:
    """Base class of the analysers: the per-file front end and the run.

    A subclass sets :attr:`tool` (directive prefix, discovery label and
    obs counter prefix), :attr:`report_type` and, when it reads annotation
    directives, :attr:`annotation_kinds`; it implements :meth:`rule_ids`
    and :meth:`analyze_sources`, which ends in :meth:`finish`.

    Args:
        baseline: grandfathered findings; absorbed findings are reported
            separately and do not fail the run.
        obs: optional :class:`repro.obs.Observability`; when given, the
            run emits ``{tool}_files_scanned_total``,
            ``{tool}_findings_total{rule=...}``,
            ``{tool}_suppressed_total{rule=...}`` and
            ``{tool}_baselined_total`` counters.
    """

    tool: str = ""
    annotation_kinds: Tuple[str, ...] = ()
    report_type = AnalysisReport

    def __init__(self, baseline: Optional[Baseline] = None, obs=None):
        self.baseline = baseline
        self.obs = obs

    def rule_ids(self) -> List[str]:
        """The rule ids this engine can report (directives may name them)."""
        raise NotImplementedError

    @classmethod
    def discover(cls, root: str, paths: Sequence[str]) -> List[str]:
        """Resolve files/directories under ``root`` to sorted ``.py`` relpaths."""
        return discover(root, paths, label=cls.tool)

    def parse(
        self, relpath: str, source: str
    ) -> Tuple[Optional[ast.Module], FileSuppressions, List[Finding]]:
        """The per-file front end: ``(tree | None, suppressions, findings)``.

        ``findings`` holds the ``bad-directive`` findings and, when the
        file does not parse (``tree`` is ``None``), the ``parse-error``
        finding.
        """
        suppressions = parse_suppressions(
            source.splitlines(),
            self.rule_ids() + [PARSE_ERROR],
            tool=self.tool,
            annotation_kinds=self.annotation_kinds,
        )
        findings = [
            Finding(file=relpath, line=line, column=column, rule=BAD_DIRECTIVE, message=message)
            for line, column, message in suppressions.bad_directives
        ]
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    file=relpath,
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    rule=PARSE_ERROR,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            return None, suppressions, findings
        return tree, suppressions, findings

    def analyze_sources(
        self, files: Sequence[Tuple[str, str]], root: str = ""
    ) -> AnalysisReport:
        """Analyze ``(relpath, source)`` pairs (filesystem-free entry point)."""
        raise NotImplementedError

    def run(self, root: str, paths: Sequence[str]) -> AnalysisReport:
        """Analyze every ``.py`` file under ``paths`` (relative to ``root``)."""
        files: List[Tuple[str, str]] = []
        for relpath in self.discover(root, paths):
            with open(os.path.join(root, relpath), encoding="utf-8") as handle:
                files.append((relpath, handle.read()))
        return self.analyze_sources(files, root=root)

    def finish(
        self,
        root: str,
        files_scanned: int,
        per_file: Sequence[Tuple[List[Finding], List[Finding]]],
    ) -> AnalysisReport:
        """The run finish over per-file ``(live, suppressed)`` splits.

        Sorts the live findings, partitions them by the baseline and
        emits the obs counters.
        """
        report = self.report_type(root=root, files_scanned=files_scanned)
        raw: List[Finding] = []
        for live, suppressed in per_file:
            raw.extend(live)
            report.suppressed.extend(suppressed)
        raw.sort()
        if self.baseline is not None:
            report.findings, report.baselined = self.baseline.partition(raw)
        else:
            report.findings = raw
        emit_counters(report, self.obs, self.tool)
        return report


@dataclass(frozen=True)
class AnalysisCli:
    """One analyser's command line; the tools differ only in these fields.

    Reached three ways per tool: ``repro-model <tool>`` (the installed
    console script), ``python -m repro.cli <tool>`` and
    ``python -m repro.analysis.<tool>``.  Exit status: 0 when the tree is
    clean (after suppressions and the baseline), 1 when live findings
    remain, 2 on usage errors -- a missing path, an unreadable or
    malformed baseline, an unwritable ``--metrics-out`` -- so CI can gate
    on the exit code alone.

    Attributes:
        engine: the :class:`AnalysisEngine` subclass to run.
        description: the ``python -m`` parser description.
        verb: what the positional paths are for, in their help text.
        default_paths: targets relative to the root when none are given
            (missing ones are skipped).
        default_baseline: baseline file name, relative to the root.
        catalogue_flag: the flag that prints the catalogue and exits.
        catalogue_help: that flag's help text.
        print_catalogue: writes the catalogue to stdout.
    """

    engine: Type[AnalysisEngine]
    description: str
    verb: str
    default_paths: Tuple[str, ...]
    default_baseline: str
    catalogue_flag: str
    catalogue_help: str
    print_catalogue: Callable[[], None]

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        """Attach the tool's options to ``parser`` (shared with repro.cli)."""
        tool = self.engine.tool
        parser.add_argument(
            "paths",
            nargs="*",
            help=f"files/directories to {self.verb} (default: {' '.join(self.default_paths)})",
        )
        parser.add_argument(
            "--root",
            default=".",
            help="repository root paths are resolved against (default: cwd)",
        )
        parser.add_argument(
            "--format",
            choices=["text", "json"],
            default="text",
            help="report format (text: file:line:col lines; json: stable schema)",
        )
        parser.add_argument(
            "--baseline",
            metavar="PATH",
            help=f"baseline file of grandfathered findings (default: "
            f"{self.default_baseline} next to --root when present)",
        )
        parser.add_argument(
            "--no-baseline",
            action="store_true",
            help="ignore any baseline file (report every finding)",
        )
        parser.add_argument(
            "--update-baseline",
            action="store_true",
            help="write the current findings to the baseline file and exit 0",
        )
        parser.add_argument(
            self.catalogue_flag,
            dest="catalogue",
            action="store_true",
            help=self.catalogue_help,
        )
        parser.add_argument(
            "--metrics-out",
            metavar="PATH",
            help=f"also emit the {tool} rule-hit counters through repro.obs to "
            "this path (format inferred from the suffix; see docs/OBSERVABILITY.md)",
        )

    def run_cli(self, args: argparse.Namespace) -> int:
        """Execute a parsed invocation; returns the process exit code."""
        if args.catalogue:
            self.print_catalogue()
            return 0
        try:
            return self._run(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    def _run(self, args: argparse.Namespace) -> int:
        root = os.path.abspath(args.root)
        paths = list(args.paths)
        if not paths:
            paths = [p for p in self.default_paths if os.path.exists(os.path.join(root, p))]
            if not paths:
                raise ValueError(f"no default {self.engine.tool} paths exist under {root}")

        baseline_path = args.baseline or os.path.join(root, self.default_baseline)
        baseline: Optional[Baseline] = None
        if not args.no_baseline and not args.update_baseline and os.path.exists(baseline_path):
            baseline = Baseline.load(baseline_path)

        obs = None
        if args.metrics_out:
            from repro.obs import Observability

            obs = Observability.create()

        report = self.engine(baseline=baseline, obs=obs).run(root, paths)

        if args.update_baseline:
            Baseline.from_findings(report.findings).write(baseline_path)
            print(f"baseline: {len(report.findings)} finding(s) -> {baseline_path}")
            return 0

        print_report(report, args.format)

        if obs is not None:
            from repro.obs import write_metrics

            write_metrics(args.metrics_out, obs.registry.snapshot())

        return 0 if report.ok else 1

    def main(self, argv: Optional[Sequence[str]] = None) -> int:
        """The ``python -m repro.analysis.<tool>`` entry point."""
        parser = argparse.ArgumentParser(
            prog=f"repro-{self.engine.tool}", description=self.description
        )
        self.add_arguments(parser)
        return self.run_cli(parser.parse_args(argv))
