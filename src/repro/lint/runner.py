"""Run the rules over files and trees; assemble a :class:`LintReport`.

The runner owns everything rule modules should not care about: file
discovery, parsing (each file exactly once, shared by the per-file
rules and the whole-program pass), pragma application, rule selection,
and the output encodings (human lines, GitHub workflow annotations,
and the versioned JSON document CI archives).  Exit-code policy
(stable, part of the public contract):

* ``0`` — every checked file parsed and no finding survived pragmas;
* ``1`` — at least one finding (including ``parse-error`` and
  ``unused-suppression``);
* ``2`` — the *invocation* was unusable: unknown rule name, a path
  that does not exist, or paths under which no Python file was found
  (zero files silently reading as a pass is how a typo'd CI path
  disables the gate).  The CLI maps ``ValueError`` from here to 2.

Project mode (``lint_paths(..., project=True)``) additionally builds
the :class:`repro.lint.project.ProjectModel` over the parsed modules
and runs the selected project rules.  Project findings join
the per-file findings *before* pragma application, so one pragma
grammar serves both scopes and staleness detection stays exact.
"""

from __future__ import annotations

import ast
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .framework import (
    PARSE_ERROR,
    Finding,
    ModuleContext,
    Rule,
    registered_rules,
    resolve_rules,
)
from .pragmas import apply_pragmas, scan_pragmas
from .project import build_project

#: JSON schema version for the ``--json`` document; bump on breaking
#: shape changes so CI consumers can pin.  v2 added the per-finding
#: ``scope`` field (``file`` | ``project``) and the top-level
#: ``project`` object (analysis stats, ``null`` outside project mode).
JSON_VERSION = 2


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    rules: List[str] = field(default_factory=list)
    files_checked: int = 0
    #: Project-analysis stats (module/function/edge counts, wall
    #: times); ``None`` when the run was per-file only.
    project: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": JSON_VERSION,
            "rules": list(self.rules),
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts_by_rule(),
            "ok": self.ok,
            "project": self.project,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def _summary(self) -> str:
        noun = "file" if self.files_checked == 1 else "files"
        if self.ok:
            return (
                f"repro lint: {self.files_checked} {noun} clean "
                f"({len(self.rules)} rules)"
            )
        return (
            f"repro lint: {len(self.findings)} finding(s) in "
            f"{self.files_checked} {noun} ({len(self.rules)} rules)"
        )

    def render_human(self) -> str:
        lines = [f.render() for f in self.findings]
        if self.project is not None:
            lines.append(
                "repro lint: project graph: "
                f"{self.project['modules']} modules, "
                f"{self.project['functions']} functions, "
                f"{self.project['call_edges']} call edges "
                f"(+{self.project['ref_edges']} refs), "
                f"built in {self.project['build_seconds']:.3f}s, "
                f"checked in {self.project['check_seconds']:.3f}s"
            )
        lines.append(self._summary())
        return "\n".join(lines)

    def render_github(self) -> str:
        """GitHub Actions workflow annotations, one per finding.

        ``::error file=...,line=...,col=...,title=...::message`` lines
        surface inline on the PR diff; the human summary line follows
        so the job log stays readable on its own.
        """
        lines = [_github_annotation(f) for f in self.findings]
        lines.append(self._summary())
        return "\n".join(lines)


def _github_escape_property(value: str) -> str:
    """Escape a ``key=value`` property per the workflow-command grammar."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _github_escape_data(value: str) -> str:
    """Escape the message part (after ``::``) of a workflow command."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _github_annotation(finding: Finding) -> str:
    properties = ",".join(
        (
            f"file={_github_escape_property(finding.path)}",
            f"line={finding.line}",
            f"col={finding.col}",
            f"title={_github_escape_property(f'repro-lint {finding.rule}')}",
        )
    )
    return f"::error {properties}::{_github_escape_data(finding.message)}"


def _sort_key(finding: Finding):
    return (finding.path, finding.line, finding.col, finding.rule)


def _lint_sources(
    sources: Dict[str, str], rules: List[Rule], project: bool
) -> Tuple[List[Finding], Optional[Dict[str, Any]]]:
    """Parse each module once, run *rules*, apply each file's pragmas.

    The one module-lint path behind :func:`lint_source` and
    :func:`lint_paths`.  A module that does not parse yields a
    ``parse-error`` finding and joins no analysis.  With *project*, the
    parsed modules also feed the whole-program model and its rules;
    their findings join the file findings *before* pragmas apply, so
    one pragma grammar serves both scopes.  Returns the surviving
    findings and the project stats (``None`` without *project*).
    """
    findings: List[Finding] = []
    raw: Dict[str, List[Finding]] = {}
    modules: List[ModuleContext] = []
    for path, source in sources.items():
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule=PARSE_ERROR,
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1 if exc.offset else 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        module = ModuleContext(path, Path(path).as_posix(), tree, source)
        modules.append(module)
        raw[path] = [
            finding
            for rule in rules
            if rule.scope == "file"
            for finding in rule.check(module)
        ]
    stats = None
    if project:
        model = build_project(modules)
        check_start = time.perf_counter()
        for rule in rules:
            if rule.scope == "project":
                for finding in rule.check_project(model):
                    raw[finding.path].append(finding)
        stats = dict(model.stats)
        stats["check_seconds"] = round(time.perf_counter() - check_start, 6)
    known = set(registered_rules())
    active = {rule.id for rule in rules}
    for module in modules:
        findings.extend(
            apply_pragmas(
                module.path,
                sorted(raw[module.path], key=_sort_key),
                scan_pragmas(module.source),
                known_rules=known,
                active_rules=active,
            )
        )
    return sorted(findings, key=_sort_key), stats


def lint_source(
    source: str, path: str, select: Optional[List[str]] = None
) -> List[Finding]:
    """Lint one in-memory module; the unit tests' front door.

    *path* is used for display and allowlist matching only — nothing
    is read from disk.  Per-file rules only: a single module is not a
    project, so project-scoped rules are filtered out rather than run
    against a one-file graph that would under-approximate everything.
    """
    rules = [rule for rule in resolve_rules(select) if rule.scope == "file"]
    return _lint_sources({path: source}, rules, project=False)[0]


def discover_files(paths: Iterable[str]) -> List[Path]:
    """``*.py`` files under the given files/directories, sorted.

    Missing paths raise ``ValueError`` (exit code 2 at the CLI): a
    typo'd path silently checking zero files would read as a pass.
    """
    files: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(p)
        else:
            raise ValueError(f"lint path does not exist: {entry}")
    seen = set()
    unique: List[Path] = []
    for f in files:
        key = f.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def lint_paths(
    paths: Iterable[str],
    select: Optional[List[str]] = None,
    project: bool = False,
) -> LintReport:
    """Lint every ``*.py`` file under *paths*; the CLI/CI entry point.

    *select* names the rules to run (``None`` = every registered rule).
    With ``project=True`` the parsed modules additionally feed the
    whole-program pass (:mod:`repro.lint.project`) and the selected
    project rules run over the resulting model.  Without it, project
    rules are skipped — unless *select* names one explicitly, which is
    an invocation error (the selection would otherwise silently check
    nothing).
    """
    path_list = [str(p) for p in paths]
    rules = resolve_rules(select)  # ValueError on unknown selections
    file_rules = [rule for rule in rules if rule.scope == "file"]
    project_rules = [rule for rule in rules if rule.scope == "project"]
    if not project:
        if select is not None and project_rules:
            names = ", ".join(rule.id for rule in project_rules)
            raise ValueError(
                f"rule(s) {names} are project-scoped; run with --project"
            )
        project_rules = []
    files = discover_files(path_list)
    if not files:
        raise ValueError(
            "no Python files found under: " + ", ".join(path_list)
        )
    report = LintReport(
        rules=[rule.id for rule in file_rules + project_rules],
        files_checked=len(files),
    )
    sources: Dict[str, str] = {}
    unreadable: List[Finding] = []
    for file_path in files:
        try:
            sources[str(file_path)] = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            # An unreadable file is unlintable, which must fail the
            # gate (like a parse failure), not shrink its coverage.
            unreadable.append(
                Finding(
                    rule=PARSE_ERROR,
                    path=str(file_path),
                    line=1,
                    col=1,
                    message=f"file cannot be read: {exc}",
                )
            )
    findings, report.project = _lint_sources(
        sources, file_rules + project_rules, project
    )
    report.findings = sorted(unreadable + findings, key=_sort_key)
    return report
