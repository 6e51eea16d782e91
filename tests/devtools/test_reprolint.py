"""Self-tests for reprolint: rules, suppressions, CLI and self-lint.

Each rule is exercised against a violating and a clean fixture under
``tests/devtools/fixtures/``; the CLI contract (exit codes, text/JSON
output) and the suppression-comment grammar are covered separately.  The
final test self-lints ``src/repro`` — the gate CI enforces.
"""

import json
import re
from pathlib import Path

import pytest

from repro.devtools import (
    ALL_RULES,
    Finding,
    get_rule,
    iter_rules,
    lint_paths,
    lint_source,
)
from repro.devtools.lint import main
from repro.devtools.rules import Rule, register
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

#: rule id -> (violating fixture, clean fixture, expected finding count).
RULE_FIXTURES = {
    "RPL001": ("rpl001_bad.py", "rpl001_clean.py", 3),
    "RPL002": ("rpl002_bad.py", "rpl002_clean.py", 2),
    "RPL003": ("rpl003_bad.py", "rpl003_clean.py", 2),
    "RPL004": ("rpl004_bad.py", "rpl004_clean.py", 1),
    "RPL005": ("stats/rpl005_bad.py", "stats/rpl005_clean.py", 2),
    "RPL006": ("rpl006_bad.py", "rpl006_clean.py", 2),
    "RPL007": ("service/rpl007_bad.py", "service/rpl007_clean.py", 3),
    "RPL008": ("rpl008_bad.py", "rpl008_clean.py", 5),
    "RPL012": ("rpl012_bad.py", "rpl012_clean.py", 5),
    "RPL014": ("mechanisms/rpl014_bad.py", "mechanisms/rpl014_clean.py", 4),
}


class TestRegistry:
    def test_catalogue_matches_fixtures(self):
        assert set(ALL_RULES) == set(RULE_FIXTURES)

    def test_iter_rules_sorted_and_described(self):
        rules = list(iter_rules())
        assert [r.rule_id for r in rules] == sorted(ALL_RULES)
        for rule in rules:
            assert rule.name and rule.summary

    def test_get_rule_unknown(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("RPL999")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):

            @register
            class Duplicate(Rule):
                rule_id = "RPL001"

    def test_missing_id_rejected(self):
        with pytest.raises(ConfigurationError, match="no rule_id"):

            @register
            class Nameless(Rule):
                pass


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_violating_fixture_flagged(self, rule_id):
        bad, _clean, expected = RULE_FIXTURES[rule_id]
        findings, n_files = lint_paths([FIXTURES / bad])
        assert n_files == 1
        assert [f.rule for f in findings] == [rule_id] * expected

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_clean_fixture_passes(self, rule_id):
        _bad, clean, _expected = RULE_FIXTURES[rule_id]
        findings, n_files = lint_paths([FIXTURES / clean])
        assert n_files == 1
        assert findings == []

    def test_render_format(self):
        findings, _ = lint_paths([FIXTURES / "rpl003_bad.py"])
        for finding in findings:
            assert re.fullmatch(
                r".*rpl003_bad\.py:\d+:\d+: RPL003 .+", finding.render()
            )

    def test_select_narrows_rules(self):
        source = (FIXTURES / "rpl003_bad.py").read_text()
        only_print = lint_source(source, rules=[get_rule("RPL004")])
        assert only_print == []
        only_errors = lint_source(source, rules=[get_rule("RPL003")])
        assert len(only_errors) == 2


class TestRuleEdges:
    def test_rpl001_exempts_test_modules(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert lint_source(source, path="test_foo.py") == []
        assert len(lint_source(source, path="foo.py")) == 1

    def test_rpl001_default_rng_none_literal(self):
        findings = lint_source("from numpy.random import default_rng\nr = default_rng(None)\n")
        assert [f.rule for f in findings] == ["RPL001"]

    def test_rpl002_exempts_units_module(self):
        source = "def f(t):\n    return t + 273.15\n"
        assert lint_source(source, path="units.py") == []
        assert len(lint_source(source, path="model.py")) == 1

    def test_rpl002_integer_offset(self):
        findings = lint_source("def f(t):\n    return t - 273\n")
        assert [f.rule for f in findings] == ["RPL002"]

    def test_rpl004_exempts_cli(self):
        source = "print('hello')\n"
        assert lint_source(source, path="cli.py") == []
        assert len(lint_source(source, path="report.py")) == 1

    def test_rpl005_transcendental_only_in_stats(self):
        source = "import numpy as np\ndef f(x):\n    return np.exp(x)\n"
        assert lint_source(source, path=Path("pkg/other.py")) == []
        findings = lint_source(source, path=Path("stats/kernel.py"))
        assert [f.rule for f in findings] == ["RPL005"]

    def test_rpl006_only_worker_functions(self):
        source = (
            "import numpy as np\n"
            "def helper():\n"
            "    return np.random.default_rng(3)\n"
        )
        assert lint_source(source) == []
        worker = source.replace("helper", "run_chunk")
        assert [f.rule for f in lint_source(worker)] == ["RPL006"]

    def test_rpl006_seed_parameter_exempts(self):
        source = (
            "import numpy as np\n"
            "def run_shard(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert lint_source(source) == []

    def test_rpl007_only_in_service_package(self):
        source = "import time\ndef poll():\n    time.sleep(0.1)\n"
        assert lint_source(source, path=Path("exec/runner.py")) == []
        findings = lint_source(source, path=Path("service/jobs.py"))
        assert [f.rule for f in findings] == ["RPL007"]

    def test_rpl007_catches_aliased_from_import(self):
        source = (
            "from time import sleep as pause\n"
            "def poll():\n"
            "    pause(0.1)\n"
        )
        findings = lint_source(source, path=Path("service/app.py"))
        assert [f.rule for f in findings] == ["RPL007"]

    def test_rpl007_exempts_service_tests(self):
        source = "import time\ndef wait():\n    time.sleep(0.1)\n"
        assert lint_source(source, path=Path("service/test_app.py")) == []

    def test_rpl008_bare_span_call_flagged(self):
        source = (
            "from repro.obs.trace import span\n"
            "def f(stage):\n"
            "    with span(f'stage.{stage}'):\n"
            "        pass\n"
        )
        assert [f.rule for f in lint_source(source)] == ["RPL008"]

    def test_rpl008_literal_dict_lookup_allowed(self):
        source = (
            "from repro.obs import metrics\n"
            "TABLE = {'a': 'service.errors.a'}\n"
            "def f(code):\n"
            "    metrics.inc(TABLE.get(code, 'service.errors.other'))\n"
        )
        assert lint_source(source) == []

    def test_rpl008_exempts_tests(self):
        source = (
            "from repro.obs import metrics\n"
            "def f(name):\n"
            "    metrics.inc(f'dyn.{name}')\n"
        )
        assert lint_source(source, path="test_metrics.py") == []
        assert len(lint_source(source, path="metrics_use.py")) == 1

    def test_rpl008_uppercase_literal_flagged(self):
        source = (
            "from repro.obs import metrics\n"
            "metrics.gauge('Queue.Depth', 1)\n"
        )
        assert [f.rule for f in lint_source(source)] == ["RPL008"]

    def test_rpl005_guard_satisfies(self):
        source = (
            "import numpy as np\n"
            "def f(x):\n"
            "    if not np.all(np.isfinite(x)):\n"
            "        return np.nan\n"
            "    return np.exp(x)\n"
        )
        assert lint_source(source, path=Path("stats/kernel.py")) == []


class TestSuppressions:
    def test_suppressed_fixture_is_clean(self):
        findings, _ = lint_paths([FIXTURES / "suppressed.py"])
        assert findings == []

    def test_stripping_comments_restores_findings(self):
        source = (FIXTURES / "suppressed.py").read_text()
        stripped = "\n".join(
            line.split("#")[0].rstrip() for line in source.splitlines()
        )
        rules = {f.rule for f in lint_source(stripped)}
        assert rules == {
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL006",
        }

    def test_suppression_is_line_scoped(self):
        source = (
            "import numpy as np\n"
            "a = np.random.rand(2)  # reprolint: disable=RPL001\n"
            "b = np.random.rand(2)\n"
        )
        findings = lint_source(source)
        assert [f.line for f in findings] == [3]

    def test_wrong_rule_id_does_not_suppress(self):
        source = "import numpy as np\nx = np.random.rand(2)  # reprolint: disable=RPL004\n"
        assert len(lint_source(source)) == 1

    def test_multi_rule_list_suppresses_each_listed_rule(self):
        source = (
            "import numpy as np\n"
            "def f(t):\n"
            "    return np.random.rand() + t + 273.15"
            "  # reprolint: disable=RPL001,RPL002\n"
        )
        assert lint_source(source) == []

    def test_multi_rule_list_tolerates_spaces(self):
        source = (
            "import numpy as np\n"
            "def f(t):\n"
            "    return np.random.rand() + t + 273.15"
            "  # reprolint: disable=RPL001 , RPL002\n"
        )
        assert lint_source(source) == []

    def test_multi_rule_list_leaves_unlisted_rules(self):
        source = (
            "import numpy as np\n"
            "def f(t):\n"
            "    return np.random.rand() + t + 273.15"
            "  # reprolint: disable=RPL001,RPL004\n"
        )
        assert [f.rule for f in lint_source(source)] == ["RPL002"]

    def test_disable_file_silences_listed_rule_everywhere(self):
        source = (
            "# reprolint: disable-file=RPL001\n"
            "import numpy as np\n"
            "a = np.random.rand(2)\n"
            "b = np.random.rand(2)\n"
        )
        assert lint_source(source) == []

    def test_disable_file_position_does_not_matter(self):
        source = (
            "import numpy as np\n"
            "a = np.random.rand(2)\n"
            "# reprolint: disable-file=RPL001\n"
            "b = np.random.rand(2)\n"
        )
        assert lint_source(source) == []

    def test_disable_file_multi_rule_list(self):
        source = (
            "# reprolint: disable-file=RPL001, RPL002\n"
            "import numpy as np\n"
            "def f(t):\n"
            "    return np.random.rand() + t + 273.15\n"
        )
        assert lint_source(source) == []

    def test_disable_file_only_silences_listed_rules(self):
        source = (
            "# reprolint: disable-file=RPL004\n"
            "import numpy as np\n"
            "a = np.random.rand(2)\n"
        )
        assert [f.rule for f in lint_source(source)] == ["RPL001"]

    def test_disable_file_all_sentinel(self):
        source = (
            "# reprolint: disable-file=ALL\n"
            "import numpy as np\n"
            "a = np.random.rand(2)\n"
            "print(a)\n"
        )
        assert lint_source(source) == []


class TestCli:
    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES / "rpl001_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "3 finding(s)" in out

    def test_clean_exit_zero(self, capsys):
        assert main([str(FIXTURES / "rpl001_clean.py")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_report_only_exit_zero(self, capsys):
        assert main(["--report-only", str(FIXTURES / "rpl001_bad.py")]) == 0
        assert "RPL001" in capsys.readouterr().out

    def test_no_paths_exit_two(self, capsys):
        assert main([]) == 2
        assert "no paths" in capsys.readouterr().err

    def test_missing_path_exit_two(self, capsys):
        assert main(["does/not/exist.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exit_two(self, capsys):
        assert main(["--select", "RPL999", str(FIXTURES)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_syntax_error_exit_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main([str(broken)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULES:
            assert rule_id in out

    def test_select_filters_cli(self, capsys):
        code = main(["--select", "RPL004", str(FIXTURES / "rpl001_bad.py")])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_module_alias_exposes_main(self):
        from repro.devtools import __main__ as module

        assert module.main is main


class TestJsonOutput:
    def test_round_trip(self, capsys):
        code = main(["--format", "json", str(FIXTURES / "rpl001_bad.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "reprolint"
        assert payload["checked_files"] == 1
        assert payload["counts"] == {"RPL001": 3}
        findings = [Finding(**raw) for raw in payload["findings"]]
        assert sum(payload["counts"].values()) == len(findings)
        for raw, finding in zip(payload["findings"], findings, strict=True):
            assert finding.as_dict() == raw
            assert finding.rule == "RPL001"

    def test_clean_json(self, capsys):
        assert main(["--format", "json", str(FIXTURES / "rpl004_clean.py")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {}
        assert payload["findings"] == []


class TestSelfLint:
    def test_src_repro_is_clean(self):
        findings, n_files = lint_paths([SRC_REPRO])
        assert n_files > 50
        assert findings == []

    def test_src_repro_project_mode_clean_against_baseline(self, monkeypatch):
        # The CI gate: whole-project analysis (per-file + call-graph
        # rules) must be clean modulo the committed findings baseline.
        # Run from the repo root so finding paths match the baseline keys.
        from repro.devtools import lint_project
        from repro.devtools.baseline import apply_baseline, load_baseline

        repo_root = SRC_REPRO.parents[1]
        monkeypatch.chdir(repo_root)
        findings, n_files = lint_project([Path("src/repro")])
        assert n_files > 50
        baseline_path = repo_root / ".reprolint-baseline.json"
        assert baseline_path.exists(), "commit .reprolint-baseline.json"
        fresh, _ = apply_baseline(findings, load_baseline(baseline_path))
        assert fresh == []
