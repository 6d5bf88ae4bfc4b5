"""JSON baseline of grandfathered findings.

A baseline lets the linter be adopted on a tree that is not yet clean:
existing findings are recorded once and stop failing the build, while
*new* findings still do.  This repository's baseline
(``lint-baseline.json``) ships **empty** -- every finding on the seed
tree was fixed or suppressed with a justification -- so the mechanism
exists for future rule additions, not as a debt register.

Matching is by :meth:`Finding.identity` -- ``(file, rule, message)``
with an occurrence count -- deliberately excluding line numbers so
unrelated edits do not churn the baseline.  The file is sorted-key,
sorted-entry JSON: regenerating it on an unchanged tree is a no-op.
"""

from __future__ import annotations

import collections
import json
from typing import Dict, Iterable, List, Tuple

from repro.analysis.findings import Finding

__all__ = ["Baseline"]

_VERSION = 1


class Baseline:
    """An occurrence-counted set of grandfathered finding identities."""

    def __init__(self, counts: "Dict[Tuple[str, str, str], int] | None" = None):
        self.counts: Dict[Tuple[str, str, str], int] = dict(counts or {})

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        counts = collections.Counter(finding.identity() for finding in findings)
        return cls(dict(counts))

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read a baseline file; raises ``ValueError`` naming ``path`` on
        malformed JSON or a bad schema."""
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"baseline {path!r}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict) or data.get("version") != _VERSION:
            raise ValueError(
                f"baseline {path!r}: expected an object with version={_VERSION}"
            )
        entries = data.get("findings")
        if not isinstance(entries, list):
            raise ValueError(f"baseline {path!r}: 'findings' must be a list")
        counts: Dict[Tuple[str, str, str], int] = {}
        for entry in entries:
            try:
                key = (str(entry["file"]), str(entry["rule"]), str(entry["message"]))
                count = int(entry.get("count", 1))
            except (TypeError, KeyError, ValueError) as exc:
                raise ValueError(f"baseline {path!r}: malformed entry {entry!r}") from exc
            if count < 1:
                raise ValueError(f"baseline {path!r}: count must be >= 1 in {entry!r}")
            counts[key] = counts.get(key, 0) + count
        return cls(counts)

    def write(self, path: str) -> None:
        """Write the canonical (sorted, stable) JSON form."""
        entries = [
            {"file": file, "rule": rule, "message": message, "count": count}
            for (file, rule, message), count in sorted(self.counts.items())
        ]
        with open(path, "w") as handle:
            json.dump({"version": _VERSION, "findings": entries}, handle, indent=1, sort_keys=True)
            handle.write("\n")

    def partition(
        self, findings: Iterable[Finding]
    ) -> "Tuple[List[Finding], List[Finding]]":
        """Split findings into ``(new, baselined)``.

        Each baseline entry absorbs up to ``count`` occurrences of its
        identity; the first findings in report order are absorbed first
        (report order is deterministic, so the split is too).
        """
        remaining = dict(self.counts)
        new: List[Finding] = []
        baselined: List[Finding] = []
        for finding in findings:
            key = finding.identity()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                baselined.append(finding)
            else:
                new.append(finding)
        return new, baselined

    def __len__(self) -> int:
        return sum(self.counts.values())
