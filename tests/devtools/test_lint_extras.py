"""Tests for the lint satellites: baseline, cache, SARIF, project CLI.

The SARIF renderer is pinned to a committed golden file so accidental
schema drift (GitHub code scanning rejects malformed documents) fails
loudly; the baseline and cache are exercised end-to-end through both the
library API and the CLI.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.devtools.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.devtools.cache import LintCache
from repro.devtools.engine import LintFileError, lint_paths
from repro.devtools.lint import main
from repro.devtools.rules import Finding
from repro.devtools.sarif import render_sarif

FIXTURES = Path(__file__).parent / "fixtures"
PROJECTS = FIXTURES / "projects"
GOLDEN = FIXTURES / "sarif_golden.json"


def _f(rule="RPL001", path="src/m.py", line=3, col=1, message="bad thing"):
    return Finding(rule=rule, path=path, line=line, col=col, message=message)


class TestFingerprint:
    def test_line_number_independent(self):
        assert fingerprint(_f(line=3)) == fingerprint(_f(line=300))

    def test_sensitive_to_rule_path_message(self):
        base = fingerprint(_f())
        assert fingerprint(_f(rule="RPL002")) != base
        assert fingerprint(_f(path="src/other.py")) != base
        assert fingerprint(_f(message="different")) != base

    def test_short_stable_hex(self):
        fp = fingerprint(_f())
        assert len(fp) == 16
        int(fp, 16)  # parses as hex


class TestBaselineRoundTrip:
    def test_write_load_apply(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [_f(line=1), _f(line=9), _f(rule="RPL004", message="x")]
        write_baseline(path, findings)
        baseline = load_baseline(path)
        # Two identical-message findings share one fingerprint, count 2.
        assert sorted(baseline.values()) == [1, 2]
        fresh, suppressed = apply_baseline(findings, baseline)
        assert fresh == [] and suppressed == 3

    def test_overflow_beyond_count_is_new(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [_f(line=1)])
        baseline = load_baseline(path)
        fresh, suppressed = apply_baseline(
            [_f(line=1), _f(line=2)], baseline
        )
        assert suppressed == 1
        assert len(fresh) == 1

    def test_new_rule_not_suppressed(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [_f()])
        fresh, _ = apply_baseline(
            [_f(), _f(rule="RPL009", message="race")], load_baseline(path)
        )
        assert [f.rule for f in fresh] == ["RPL009"]

    def test_invalid_file_raises(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{}")
        with pytest.raises(LintFileError, match="not a reprolint baseline"):
            load_baseline(bad)
        bad.write_text("not json")
        with pytest.raises(LintFileError, match="invalid baseline JSON"):
            load_baseline(bad)


class TestBaselineCli:
    def test_update_then_clean_then_regression(self, tmp_path, capsys):
        pkg = tmp_path / "rpl009_bad"
        shutil.copytree(PROJECTS / "rpl009_bad", pkg)
        baseline = tmp_path / "baseline.json"
        args = [
            "--project",
            str(pkg),
            "--select",
            "RPL009",
            "--no-cache",
            "--baseline",
            str(baseline),
        ]
        # Freeze the existing debt.
        assert main([*args, "--update-baseline"]) == 0
        assert "2 finding(s)" in capsys.readouterr().out
        # Baselined findings no longer fail the build.
        assert main(args) == 0
        assert "(2 baselined)" in capsys.readouterr().out
        # A new violation still does (same message fingerprint, so it
        # overflows the baselined count rather than matching it).
        state = pkg / "state.py"
        state.write_text(
            state.read_text().replace(
                '_REGISTRY["last"] = "get"',
                '_REGISTRY["last"] = "get"\n'
                '        _REGISTRY["extra"] = "get"',
            )
        )
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "RPL009" in out and "(2 baselined)" in out

    def test_no_baseline_flag_ignores_file(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        args = [
            "--project",
            str(PROJECTS / "rpl009_bad"),
            "--select",
            "RPL009",
            "--no-cache",
            "--baseline",
            str(baseline),
        ]
        assert main([*args, "--update-baseline"]) == 0
        capsys.readouterr()
        assert main([*args, "--no-baseline"]) == 1


class TestCache:
    def test_hit_returns_same_findings(self, tmp_path):
        cache = LintCache(tmp_path / "cache")
        first, _ = lint_paths([FIXTURES / "rpl001_bad.py"], cache=cache)
        assert cache.hits == 0 and cache.misses >= 1
        second, _ = lint_paths([FIXTURES / "rpl001_bad.py"], cache=cache)
        assert cache.hits >= 1
        assert second == first

    def test_content_change_invalidates(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import numpy as np\nx = np.random.rand()\n")
        cache = LintCache(tmp_path / "cache")
        first, _ = lint_paths([target], cache=cache)
        assert len(first) == 1
        target.write_text("x = 1\n")
        second, _ = lint_paths([target], cache=cache)
        assert second == []

    def test_rule_selection_part_of_key(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import numpy as np\nx = np.random.rand()\n")
        cache = LintCache(tmp_path / "cache")
        with_rule, _ = lint_paths([target], select=["RPL001"], cache=cache)
        without, _ = lint_paths([target], select=["RPL004"], cache=cache)
        assert len(with_rule) == 1 and without == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = LintCache(tmp_path / "cache")
        source = "import numpy as np\nx = np.random.rand()\n"
        target = tmp_path / "mod.py"
        target.write_text(source)
        lint_paths([target], cache=cache)
        [entry] = list((tmp_path / "cache").rglob("*.json"))
        entry.write_text("garbage")
        findings, _ = lint_paths([target], cache=cache)
        assert len(findings) == 1

    def test_cli_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cachedir"
        args = [
            "--cache-dir",
            str(cache_dir),
            str(FIXTURES / "rpl001_bad.py"),
        ]
        assert main(args) == 1
        assert cache_dir.exists()
        capsys.readouterr()
        assert main(args) == 1  # second run served from cache

    def test_cli_no_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cachedir"
        args = [
            "--no-cache",
            "--cache-dir",
            str(cache_dir),
            str(FIXTURES / "rpl001_clean.py"),
        ]
        assert main(args) == 0
        assert not cache_dir.exists()


class TestSarif:
    def test_golden_file(self):
        findings = [
            Finding(
                "RPL001",
                "src/repro/demo.py",
                12,
                5,
                "global-state RNG call np.random.rand(); create an "
                "explicitly-seeded np.random.default_rng(seed) and thread "
                "it through instead",
            ),
            Finding(
                "RPL009",
                "src/repro/service/demo.py",
                40,
                9,
                "unguarded write to module global repro.service.demo._STATE "
                "in repro.service.demo.worker; the state is reachable from "
                "2 thread roots (main, repro.service.demo.worker) — hold "
                "the guarding lock or make every call path lock-held",
            ),
        ]
        assert render_sarif(findings) == GOLDEN.read_text()

    def test_document_shape(self):
        doc = json.loads(render_sarif([_f()]))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        (result,) = run["results"]
        assert result["ruleId"] == "RPL001"
        assert result["ruleIndex"] == 0
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/m.py"
        assert location["region"] == {"startLine": 3, "startColumn": 1}

    def test_rules_array_restricted_to_used_ids(self):
        doc = json.loads(
            render_sarif([_f(rule="RPL004", message="print call")])
        )
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["RPL004"]

    def test_empty_findings_valid(self):
        doc = json.loads(render_sarif([]))
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["rules"] == []

    def test_cli_sarif_output(self, capsys):
        code = main(
            ["--format", "sarif", "--no-cache", str(FIXTURES / "rpl001_bad.py")]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["runs"][0]["results"]) == 3


class TestProjectCli:
    def test_project_mode_runs_graph_rules(self, capsys):
        code = main(
            [
                "--project",
                str(PROJECTS / "rpl010_bad"),
                "--select",
                "RPL010",
                "--no-cache",
                "--no-baseline",
            ]
        )
        assert code == 1
        assert "RPL010" in capsys.readouterr().out

    def test_project_rule_ids_listed(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPL009", "RPL010", "RPL011"):
            assert rule_id in out
        assert "--project" in out

    def test_project_rule_without_project_flag_errors(self, capsys):
        code = main(
            ["--select", "RPL009", "--no-cache", str(FIXTURES / "rpl001_bad.py")]
        )
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unknown_rule_in_project_mode(self, capsys):
        code = main(
            [
                "--project",
                "--select",
                "RPL999",
                "--no-cache",
                str(PROJECTS / "rpl009_clean"),
            ]
        )
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err
