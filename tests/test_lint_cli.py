"""CLI surface of the determinism linter, plus the live-tree meta-test."""

import json
import os

import pytest

from repro.cli import main as repro_main
from repro.analysis.baseline import Baseline
from repro.analysis.lint import lint_paths
from repro.analysis.lint.cli import main as lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HAZARD = "import time\nt = time.time()\n"
CLEAN = "def f(x):\n    return x + 1\n"


@pytest.fixture
def tree(tmp_path):
    target = tmp_path / "src" / "repro" / "netsim"
    target.mkdir(parents=True)
    (target / "bad.py").write_text(HAZARD)
    (target / "good.py").write_text(CLEAN)
    return tmp_path


class TestLintCli:
    def test_exit_one_on_findings_text(self, tree, capsys):
        assert lint_main(["--root", str(tree), "src"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/netsim/bad.py:2" in out
        assert "wall-clock" in out
        assert "1 finding(s)" in out

    def test_exit_zero_on_clean_tree(self, tree, capsys):
        (tree / "src" / "repro" / "netsim" / "bad.py").write_text(CLEAN)
        assert lint_main(["--root", str(tree), "src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format(self, tree, capsys):
        assert lint_main(["--root", str(tree), "--format", "json", "src"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["counts"] == {"wall-clock": 1}
        assert data["findings"][0]["file"] == "src/repro/netsim/bad.py"

    def test_update_then_gate_on_baseline(self, tree, capsys):
        assert lint_main(["--root", str(tree), "--update-baseline", "src"]) == 0
        baseline_path = tree / "lint-baseline.json"
        assert len(Baseline.load(str(baseline_path))) == 1
        # The default baseline next to --root is picked up automatically...
        assert lint_main(["--root", str(tree), "src"]) == 0
        capsys.readouterr()
        # ...and --no-baseline reports the grandfathered finding again.
        assert lint_main(["--root", str(tree), "--no-baseline", "src"]) == 1

    def test_repro_cli_lint_subcommand(self, tree, capsys):
        assert repro_main(["lint", "--root", str(tree), "src"]) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "wall-clock",
            "unseeded-rng",
            "unordered-iteration",
            "env-read",
            "mutable-default",
            "float-eq",
        ):
            assert rule_id in out

    def test_metrics_out(self, tree, tmp_path, capsys):
        metrics = tmp_path / "lint-metrics.jsonl"
        assert lint_main(["--root", str(tree), "--metrics-out", str(metrics), "src"]) == 1
        names = {json.loads(line)["name"] for line in metrics.read_text().splitlines()}
        assert "lint_files_scanned_total" in names
        assert "lint_findings_total" in names

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        assert lint_main(["--root", str(tmp_path), "nope"]) == 2


class TestLiveTree:
    """The acceptance gate: this repository lints clean, baseline empty."""

    PATHS = ("src", "tests", "benchmarks")

    def test_shipped_baseline_is_empty(self):
        baseline = Baseline.load(os.path.join(REPO_ROOT, "lint-baseline.json"))
        assert len(baseline) == 0

    def test_tree_lints_clean(self):
        report = lint_paths(REPO_ROOT, [p for p in self.PATHS])
        assert report.ok, "\n".join(f.render() for f in report.findings)
        # The four wall-time reporting sites in experiments/runner.py, the
        # fingerprint override in sweep/cache.py and the documented
        # exact-zero sentinels are suppressed, not silently exempted.
        assert len(report.suppressed) >= 8

    def test_cli_exits_zero_on_repo(self, capsys):
        assert lint_main(["--root", REPO_ROOT]) == 0
