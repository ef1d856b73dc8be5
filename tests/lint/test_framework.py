"""Framework mechanics: pragmas, selection, report encodings, exit codes.

These tests exercise the checker *machinery* on tiny in-memory
modules; the per-rule semantics live in ``test_rules.py`` and the
live-tree gate in ``test_live_tree.py``.
"""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    JSON_VERSION,
    default_rule_ids,
    lint_paths,
    lint_source,
    registered_rules,
    rule_catalog,
    scan_pragmas,
)

#: A one-liner that trips ``wallclock-hygiene`` wherever it appears.
VIOLATION = "import time\nstamp = time.time()\n"


class TestRegistry:
    def test_at_least_five_rules_registered(self):
        assert len(registered_rules()) >= 5

    def test_ids_are_stable_kebab_case(self):
        for rule_id in registered_rules():
            assert rule_id == rule_id.lower()
            assert " " not in rule_id and "_" not in rule_id

    def test_catalog_matches_registry(self):
        assert [rule_id for rule_id, _ in rule_catalog()] == default_rule_ids()
        assert all(summary for _, summary in rule_catalog())

    def test_unknown_selection_raises(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            lint_source("x = 1\n", "src/repro/fake.py", select=["no-such-rule"])

    def test_selection_dedupes_and_keeps_order(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        report = lint_paths(
            [str(tmp_path)],
            select=["wallclock-hygiene", "broad-except", "wallclock-hygiene"],
        )
        assert report.rules == ["wallclock-hygiene", "broad-except"]

    def test_rule_catalog_doc_has_one_heading_per_rule(self):
        doc = Path(__file__).parents[2] / "docs" / "LINT_RULES.md"
        headings = re.findall(
            r"^### `([^`]+)`", doc.read_text(encoding="utf-8"), re.M
        )
        assert sorted(headings) == default_rule_ids()


class TestPragmas:
    def test_scan_finds_rules_and_reason(self):
        src = "x = 1  # repro-lint: disable=rule-a,rule-b -- because\n"
        (pragma,) = scan_pragmas(src)
        assert pragma.rules == ("rule-a", "rule-b")
        assert pragma.reason == "because"
        assert pragma.line == 1

    def test_pragma_text_in_string_literal_is_ignored(self):
        src = 's = "# repro-lint: disable=wallclock-hygiene"\n'
        assert scan_pragmas(src) == []
        assert lint_source(src, "src/repro/fake.py") == []

    def test_pragma_suppresses_same_line_finding(self):
        src = (
            "import time\n"
            "stamp = time.time()  # repro-lint: disable=wallclock-hygiene -- test\n"
        )
        assert lint_source(src, "src/repro/fake.py") == []

    def test_pragma_does_not_leak_to_other_lines(self):
        src = (
            "import time\n"
            "a = time.time()  # repro-lint: disable=wallclock-hygiene -- test\n"
            "b = time.time()\n"
        )
        findings = lint_source(src, "src/repro/fake.py")
        assert [f.line for f in findings] == [3]

    def test_stale_pragma_is_a_finding(self):
        src = "x = 1  # repro-lint: disable=wallclock-hygiene\n"
        (finding,) = lint_source(src, "src/repro/fake.py")
        assert finding.rule == "unused-suppression"
        assert "stale" in finding.message

    def test_unknown_rule_pragma_is_a_finding(self):
        src = "x = 1  # repro-lint: disable=not-a-rule\n"
        (finding,) = lint_source(src, "src/repro/fake.py")
        assert finding.rule == "unused-suppression"
        assert "not-a-rule" in finding.message

    def test_unused_suppression_is_not_suppressible(self):
        src = (
            "x = 1  "
            "# repro-lint: disable=not-a-rule,unused-suppression\n"
        )
        findings = lint_source(src, "src/repro/fake.py")
        assert findings  # both entries report, neither silences the other
        assert all(f.rule == "unused-suppression" for f in findings)

    def test_crlf_sources_parse_and_suppress(self):
        src = (
            "import time\r\n"
            "stamp = time.time()  "
            "# repro-lint: disable=wallclock-hygiene -- test\r\n"
        )
        (pragma,) = scan_pragmas(src)
        assert pragma.line == 2
        assert lint_source(src, "src/repro/fake.py") == []

    def test_pragma_anchors_to_the_statement_line_not_the_close(self):
        """Findings anchor where the expression starts; a pragma on
        the closing paren of a multi-line call suppresses nothing (and
        is itself reported stale)."""
        src = (
            "import time\n"
            "stamp = time.time(\n"
            ")  # repro-lint: disable=wallclock-hygiene -- wrong line\n"
        )
        findings = lint_source(src, "src/repro/fake.py")
        assert {f.rule for f in findings} == {
            "wallclock-hygiene",
            "unused-suppression",
        }
        on_first = (
            "import time\n"
            "stamp = time.time(  "
            "# repro-lint: disable=wallclock-hygiene -- anchor line\n"
            ")\n"
        )
        assert lint_source(on_first, "src/repro/fake.py") == []

    def test_comma_list_may_carry_spaces(self):
        src = (
            "import time\n"
            "a = time.time()  "
            "# repro-lint: disable=broad-except , wallclock-hygiene -- test\n"
        )
        findings = lint_source(src, "src/repro/fake.py")
        # wallclock suppressed; the broad-except entry is stale here.
        assert [f.rule for f in findings] == ["unused-suppression"]

    def test_only_the_first_disable_clause_in_a_comment_parses(self):
        """One pragma per line is the grammar; a second ``disable=``
        clause is reason text, so the comma list is the only way to
        name several rules."""
        src = (
            "import time\n"
            "a = time.time()  # repro-lint: disable=broad-except -- r "
            "# repro-lint: disable=wallclock-hygiene\n"
        )
        findings = lint_source(src, "src/repro/fake.py")
        assert any(f.rule == "wallclock-hygiene" for f in findings)

    def test_unknown_rule_pragma_reported_in_project_mode(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "mod.py").write_text(
            "x = 1  # repro-lint: disable=not-a-rule\n", encoding="utf-8"
        )
        report = lint_paths([str(tmp_path)], project=True)
        (finding,) = report.findings
        assert finding.rule == "unused-suppression"
        assert "not-a-rule" in finding.message

    def test_rule_filtered_run_ignores_other_rules_pragmas(self):
        """A --rule run must not call another rule's live pragma stale."""
        src = (
            "import time\n"
            "a = time.time()  # repro-lint: disable=wallclock-hygiene -- test\n"
        )
        findings = lint_source(src, "src/repro/fake.py", select=["broad-except"])
        assert findings == []


class TestReport:
    def test_parse_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        report = lint_paths([str(bad)])
        assert not report.ok and report.exit_code == 1
        assert report.findings[0].rule == "parse-error"

    def test_missing_path_raises(self):
        with pytest.raises(ValueError, match="does not exist"):
            lint_paths(["no/such/path"])

    def test_json_document_shape(self, tmp_path):
        target = tmp_path / "src" / "repro" / "fake.py"
        target.parent.mkdir(parents=True)
        target.write_text(VIOLATION, encoding="utf-8")
        report = lint_paths([str(tmp_path)])
        doc = json.loads(report.to_json())
        assert doc["version"] == JSON_VERSION
        assert doc["files_checked"] == 1
        assert doc["ok"] is False
        assert doc["counts"] == {"wallclock-hygiene": 1}
        assert doc["project"] is None  # per-file run: no analysis stats
        (entry,) = doc["findings"]
        assert set(entry) == {"rule", "path", "line", "col", "message", "scope"}
        assert entry["scope"] == "file"

    def test_project_run_document_carries_stats_and_scope(self, tmp_path):
        target = tmp_path / "pkg" / "mod.py"
        target.parent.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("", encoding="utf-8")
        target.write_text("def f():\n    pass\n", encoding="utf-8")
        report = lint_paths([str(tmp_path)], project=True)
        doc = json.loads(report.to_json())
        assert doc["version"] == JSON_VERSION
        stats = doc["project"]
        assert stats["modules"] == 2 and stats["functions"] == 1
        assert set(stats) >= {
            "modules",
            "functions",
            "classes",
            "call_edges",
            "ref_edges",
            "build_seconds",
            "check_seconds",
        }

    def test_empty_directory_raises(self, tmp_path):
        """Zero discovered files must be exit 2, not a silent pass —
        a typo'd CI path would otherwise disable the gate."""
        with pytest.raises(ValueError, match="no Python files found"):
            lint_paths([str(tmp_path)])

    def test_project_rule_selection_requires_project_mode(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="project-scoped"):
            lint_paths([str(tmp_path)], select=["seed-flow"])

    def test_github_format_escapes_and_annotates(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text(VIOLATION, encoding="utf-8")
        report = lint_paths([str(target)])
        rendered = report.render_github()
        first = rendered.splitlines()[0]
        assert first.startswith("::error file=")
        assert f"file={target}".replace(":", "%3A") in first or (
            f"file={target}" in first
        )
        assert ",line=2,col=9," in first
        assert "title=repro-lint wallclock-hygiene" in first
        assert "::error" not in rendered.splitlines()[-1]  # human summary

    def test_human_render_mentions_totals(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        report = lint_paths([str(clean)])
        assert report.ok
        assert "1 file clean" in report.render_human()


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION, encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 1
        assert "wallclock-hygiene" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", "--rule", "no-such-rule", str(tmp_path)]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/here"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path)]) == 2
        assert "no Python files found" in capsys.readouterr().err

    def test_project_rule_without_project_flag_exits_two(
        self, tmp_path, capsys
    ):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", "--rule", "seed-flow", str(tmp_path)]) == 2
        assert "--project" in capsys.readouterr().err

    def test_project_flag_runs_whole_program_rules(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "backend.py").write_text(
            "import numpy as np\n"
            "class Backend:\n"
            "    def count_accepted(self, root):\n"
            "        return np.random.default_rng(7)\n",
            encoding="utf-8",
        )
        assert main(["lint", "--project", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "seed-flow" in out
        assert "project graph:" in out

    def test_github_format_emits_workflow_annotations(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION, encoding="utf-8")
        assert main(["lint", "--format", "github", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "title=repro-lint wallclock-hygiene" in out

    def test_json_flag_emits_versioned_document(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", "--json", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == JSON_VERSION and doc["ok"] is True

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in default_rule_ids():
            assert rule_id in out
