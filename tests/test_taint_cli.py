"""End-to-end tests for the ``repro-model taint`` command line.

Mirrors tests/test_lint_cli.py: temporary trees with planted leaks for
the exit-code/format/baseline contract, plus the live-tree meta-test --
the shipped repository must analyze clean with an *empty* baseline, so
every secret flow in ``src/repro`` is either sanitized, declassified
with a justification, or genuinely absent.  Both analysers share one
command line (:class:`repro.analysis.framework.AnalysisCli`), so the
entry-point and baseline-path tests run for the linter too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.lint.cli import main as lint_main
from repro.analysis.taint import TaintEngine, taint_paths
from repro.analysis.taint.cli import main as taint_main
from repro.cli import main as repro_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LEAKY = """\
def deliver(secret):
    print(secret)
"""

CLEAN = """\
def deliver(count):
    return count + 1
"""


#: A wall-clock read: a determinism-lint finding, clean for taint.
CLOCK = "import time\nt = time.time()\n"

MAINS = {"lint": lint_main, "taint": taint_main}


def run_python(*args):
    """Run ``python <args>`` against this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def build_tree(tmp_path, files):
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


@pytest.fixture
def leaky_tree(tmp_path):
    return build_tree(
        tmp_path,
        {
            "src/repro/demo/leaky.py": LEAKY,
            "src/repro/demo/clean.py": CLEAN,
        },
    )


@pytest.fixture
def hazard_tree(leaky_tree):
    """One finding for each tool: a secret print and a wall-clock read."""
    return build_tree(leaky_tree, {"src/repro/demo/clock.py": CLOCK})


@pytest.fixture
def clean_tree(tmp_path):
    return build_tree(tmp_path, {"src/repro/demo/clean.py": CLEAN})


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        assert taint_main(["--root", str(clean_tree), "src"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_leaky_tree_exits_one(self, leaky_tree, capsys):
        assert taint_main(["--root", str(leaky_tree), "src"]) == 1
        out = capsys.readouterr().out
        assert "taint-print" in out
        assert "src/repro/demo/leaky.py:2:4:" in out

    def test_missing_path_exits_two(self, clean_tree, capsys):
        assert taint_main(["--root", str(clean_tree), "nonexistent"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_default_paths_cover_src(self, leaky_tree):
        # No positional paths: defaults to src/ under the root.
        assert taint_main(["--root", str(leaky_tree)]) == 1


class TestJsonFormat:
    def test_schema(self, leaky_tree, capsys):
        assert taint_main(["--root", str(leaky_tree), "--format", "json", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_scanned"] == 2
        assert payload["counts"] == {"taint-print": 1}
        (finding,) = payload["findings"]
        assert finding["file"] == "src/repro/demo/leaky.py"
        assert finding["rule"] == "taint-print"
        assert sorted(finding) == ["column", "file", "line", "message", "rule"]

    def test_same_schema_as_lint(self, leaky_tree, capsys):
        """The shared framework keeps lint and taint JSON key-compatible."""
        taint_main(["--root", str(leaky_tree), "--format", "json", "src"])
        taint_payload = json.loads(capsys.readouterr().out)
        lint_main(["--root", str(leaky_tree), "--format", "json", "src"])
        lint_payload = json.loads(capsys.readouterr().out)
        assert sorted(taint_payload) == sorted(lint_payload)


class TestBaseline:
    def test_update_then_gate(self, leaky_tree, capsys):
        assert taint_main(["--root", str(leaky_tree), "--update-baseline", "src"]) == 0
        assert (leaky_tree / "taint-baseline.json").exists()
        capsys.readouterr()
        # Grandfathered finding no longer fails the gate...
        assert taint_main(["--root", str(leaky_tree), "src"]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # ...but --no-baseline still sees it.
        assert taint_main(["--root", str(leaky_tree), "--no-baseline", "src"]) == 1

    def test_new_finding_fails_despite_baseline(self, leaky_tree, capsys):
        taint_main(["--root", str(leaky_tree), "--update-baseline", "src"])
        (leaky_tree / "src/repro/demo/clean.py").write_text(
            "def deliver(secret):\n    return str(secret)\n"
        )
        capsys.readouterr()
        assert taint_main(["--root", str(leaky_tree), "src"]) == 1
        assert "taint-format" in capsys.readouterr().out

    @pytest.mark.parametrize("tool", sorted(MAINS))
    def test_explicit_baseline_path(self, tool, hazard_tree, tmp_path, capsys):
        main = MAINS[tool]
        assert main(["--root", str(hazard_tree), "src"]) == 1
        custom = tmp_path / "custom-baseline.json"
        main(
            ["--root", str(hazard_tree), "--update-baseline", "--baseline", str(custom), "src"]
        )
        assert custom.exists()
        capsys.readouterr()
        assert (
            main(["--root", str(hazard_tree), "--baseline", str(custom), "src"]) == 0
        )


class TestBadBaseline:
    """A broken baseline is a usage error (exit 2), never "findings
    remain" (exit 1), under every entry point of both tools."""

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            '{"version": 1, "findings": [{"file": "src/a.py", "message": "m"}]}',
        ],
        ids=["malformed-json", "entry-without-rule"],
    )
    @pytest.mark.parametrize(
        "entry",
        [("-m", "repro.analysis.{tool}"), ("-m", "repro.cli", "{tool}")],
        ids=["module", "repro-model"],
    )
    @pytest.mark.parametrize("tool", sorted(MAINS))
    def test_exit_two_naming_the_file(self, tool, entry, content, clean_tree):
        bad = clean_tree / "bad-baseline.json"
        bad.write_text(content)
        command = [part.format(tool=tool) for part in entry]
        proc = run_python(
            *command, "--root", str(clean_tree), "--baseline", str(bad), "src"
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: "), proc.stderr
        assert str(bad) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestCatalogue:
    def test_list_sinks(self, capsys):
        assert taint_main(["--list-sinks"]) == 0
        out = capsys.readouterr().out
        assert "sinks:" in out
        assert "sources:" in out
        assert "sanitizers:" in out
        for rule in (
            "taint-print",
            "taint-log",
            "taint-trace",
            "taint-metrics",
            "taint-persist",
            "taint-format",
        ):
            assert rule in out


class TestMetrics:
    def test_metrics_out_exports_taint_counters(self, leaky_tree, tmp_path, capsys):
        metrics = tmp_path / "taint.jsonl"
        assert (
            taint_main(["--root", str(leaky_tree), "--metrics-out", str(metrics), "src"])
            == 1
        )
        names = {
            json.loads(line)["name"] for line in metrics.read_text().splitlines()
        }
        assert "taint_files_scanned_total" in names
        assert "taint_findings_total" in names
        assert not any(name.startswith("lint_") for name in names)


class TestReproCli:
    def test_taint_subcommand(self, leaky_tree, capsys):
        assert repro_main(["taint", "--root", str(leaky_tree), "src"]) == 1
        assert "taint-print" in capsys.readouterr().out

    @pytest.mark.parametrize("tool", sorted(MAINS))
    def test_module_entry_point(self, tool, clean_tree):
        proc = run_python(
            "-m", f"repro.analysis.{tool}", "--root", str(clean_tree), "src"
        )
        assert proc.returncode == 0, proc.stderr


class TestLiveTree:
    """The repository's own sources must be taint-clean -- the satellite
    acceptance criterion (`live-tree-taints-clean`)."""

    def test_shipped_baseline_is_empty(self):
        path = os.path.join(REPO_ROOT, "taint-baseline.json")
        assert os.path.exists(path)
        payload = json.loads(open(path).read())
        assert payload == {"findings": [], "version": 1}

    def test_src_tree_is_clean(self):
        report = taint_paths(REPO_ROOT, ["src"])
        assert report.findings == [], [f.render() for f in report.findings]
        assert report.ok
        assert report.files_scanned > 100

    def test_cli_on_live_tree_exits_zero(self, capsys):
        assert taint_main(["--root", REPO_ROOT]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_live_tree_fixpoint_is_stable(self):
        """A second engine run over the same sources reports identically
        (determinism: sorted discovery + bounded fixpoint)."""
        files = []
        for relpath in TaintEngine.discover(REPO_ROOT, ["src/repro/sharing"]):
            with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as handle:
                files.append((relpath, handle.read()))
        first = TaintEngine().analyze_sources(files)
        second = TaintEngine().analyze_sources(files)
        assert first.findings == second.findings
        assert first.to_dict() == second.to_dict()
