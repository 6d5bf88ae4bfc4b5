"""Determinism linter: static enforcement of reproducibility invariants.

Every result this reproduction publishes -- the Fig. 3-7 comparisons
against the closed-form optima, the fault-injection chaos tests, the
sweep cache's content-addressed hits -- rests on one invariant: a
``(seed, config)`` pair produces byte-identical output.  The dynamic
same-seed trace tests check that invariant *after* a hazard lands; this
package proves a class of hazards absent at lint time, in the spirit of
the paper's own methodology (guarantees derived statically from the
model rather than observed empirically).

The subsystem is a small AST-based static-analysis framework:

* :mod:`repro.analysis.findings` -- the :class:`Finding` record (file, line,
  column, rule id, message) with a stable JSON round-trip.
* :mod:`repro.analysis.lint.rules` -- the :class:`Rule` base class.
* :mod:`repro.analysis.resolve` -- import-alias collection and dotted-name
  resolution (``np.random.seed`` -> ``numpy.random.seed``).
* :mod:`repro.analysis.lint.checks` -- the rule registry and the
  determinism rule catalogue (``wall-clock``, ``unseeded-rng``,
  ``unordered-iteration``, ``env-read``, ``mutable-default``,
  ``float-eq``).
* :mod:`repro.analysis.suppressions` -- ``# lint: disable=<rule>`` (per
  line) and ``# lint: file-disable=<rule>`` (per file) directives.
* :mod:`repro.analysis.baseline` -- a JSON baseline of grandfathered
  findings (ships empty; see docs/LINTING.md).
* :mod:`repro.analysis.lint.engine` -- the single-pass visitor that
  walks the tree once per file and dispatches every node to the
  interested rules.
* :mod:`repro.analysis.framework` -- the per-file front end, the run
  finish and the command line, shared with the taint analysis.
* :mod:`repro.analysis.lint.cli` -- the ``repro-model lint`` defaults.

The linter is itself deterministic: files are discovered in sorted
order, nodes are visited in AST order and findings are reported sorted
by ``(file, line, column, rule)``, so two runs over the same tree emit
byte-identical output.  CI gates on ``repro-model lint`` exiting zero
(see ``.github/workflows/ci.yml`` and docs/LINTING.md).
"""

from repro.analysis.lint.checks import default_rules, register
from repro.analysis.lint.engine import LintEngine, LintReport, lint_paths
from repro.analysis.lint.rules import Rule

__all__ = [
    "LintEngine",
    "LintReport",
    "Rule",
    "default_rules",
    "lint_paths",
    "register",
]
