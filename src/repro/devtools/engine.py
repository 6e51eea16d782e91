"""reprolint engine: file discovery, suppressions, rule dispatch.

The engine parses each Python file once, builds a :class:`LintContext`,
runs every selected rule over it, and filters out findings covered by a
``# reprolint: disable=RPL001[,RPL002]`` comment on the finding's line
(``disable=ALL`` silences every rule for that line).  A
``# reprolint: disable-file=RPL004`` comment anywhere in a file silences
the listed rules for the whole file.

Two entry points: :func:`lint_paths` runs the per-file rules over files
and directories (optionally through a content-hash
:class:`~repro.devtools.cache.LintCache`); :func:`lint_project` indexes a
package with :func:`repro.devtools.graph.build_index` and additionally
runs the registered whole-project rules (RPL009+) over the call graph.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.devtools.rules import (
    Finding,
    ProjectRule,
    Rule,
    get_project_rule,
    get_rule,
    iter_project_rules,
    iter_rules,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.devtools.cache import LintCache

__all__ = [
    "LintContext",
    "LintFileError",
    "lint_paths",
    "lint_project",
    "lint_source",
    "resolve_all_rules",
]

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable(-file)?="
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


class LintFileError(ConfigurationError):
    """A file could not be read or parsed (reported with exit code 2)."""


@dataclass(frozen=True)
class LintContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    #: ``{line: {"RPL001", ...}}``; the sentinel ``"ALL"`` disables all rules.
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: rules disabled for the entire file via ``disable-file=``.
    file_suppressions: set[str] = field(default_factory=set)

    @property
    def filename(self) -> str:
        return self.path.name

    @property
    def is_test(self) -> bool:
        """Pytest test modules are exempt from discipline rules.

        Only ``test_*.py``/``*_test.py`` count: conftest and fixture
        helpers feed deterministic tests and stay under the full rules.
        """
        name = self.filename
        return name.startswith("test_") or name.endswith("_test.py")

    @property
    def in_stats(self) -> bool:
        """True inside the numerical kernels package ``repro/stats``."""
        return "stats" in self.path.parts

    @property
    def in_service(self) -> bool:
        """True inside the HTTP service package ``repro/service``."""
        return "service" in self.path.parts

    @property
    def in_mechanisms(self) -> bool:
        """True inside the failure-mechanism package ``repro/mechanisms``."""
        return "mechanisms" in self.path.parts

    def is_suppressed(self, finding: Finding) -> bool:
        if (
            "ALL" in self.file_suppressions
            or finding.rule in self.file_suppressions
        ):
            return True
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        return "ALL" in rules or finding.rule in rules


def _extract_suppressions(
    source: str,
) -> tuple[dict[int, set[str]], set[str]]:
    """``(line -> rule ids, file-level rule ids)`` from reprolint comments.

    ``disable=`` scopes to the comment's line; ``disable-file=`` scopes to
    the whole file regardless of where the comment sits.  One comment can
    carry several comma-separated rule ids.
    """
    suppressions: dict[int, set[str]] = {}
    file_suppressions: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:
        comments = [
            (lineno, line)
            for lineno, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        ]
    for lineno, text in comments:
        for match in _SUPPRESS_RE.finditer(text):
            rules = {
                part.strip().upper() for part in match.group(2).split(",")
            }
            if match.group(1):
                file_suppressions.update(rules)
            else:
                suppressions.setdefault(lineno, set()).update(rules)
    return suppressions, file_suppressions


def build_context(path: Path, source: str, display_path: str | None = None) -> LintContext:
    """Parse ``source`` into a :class:`LintContext` for ``path``."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintFileError(f"{path}: syntax error: {exc.msg} (line {exc.lineno})") from exc
    line_suppressions, file_suppressions = _extract_suppressions(source)
    return LintContext(
        path=path,
        display_path=display_path if display_path is not None else str(path),
        source=source,
        tree=tree,
        suppressions=line_suppressions,
        file_suppressions=file_suppressions,
    )


def resolve_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Rule instances for ``select`` ids, or the full registry when None."""
    if select is None:
        return list(iter_rules())
    rules = []
    for rule_id in select:
        try:
            rules.append(get_rule(rule_id.strip().upper()))
        except KeyError as exc:
            raise ConfigurationError(str(exc)) from exc
    return rules


def resolve_all_rules(
    select: Iterable[str] | None = None,
) -> tuple[list[Rule], list[ProjectRule]]:
    """Split a selection into per-file and project rules (project mode).

    With ``select=None`` both registries run in full.  Each selected id
    must exist in one of the two registries; unknown ids raise
    :class:`~repro.errors.ConfigurationError`.
    """
    # Project rules register on import of the analyzer module.
    import repro.devtools.concurrency  # noqa: F401

    if select is None:
        return list(iter_rules()), list(iter_project_rules())
    file_rules: list[Rule] = []
    project_rules: list[ProjectRule] = []
    for raw in select:
        rule_id = raw.strip().upper()
        try:
            file_rules.append(get_rule(rule_id))
            continue
        except KeyError:
            pass
        try:
            project_rules.append(get_project_rule(rule_id))
        except KeyError:
            known = sorted(
                {r.rule_id for r in iter_rules()}
                | {r.rule_id for r in iter_project_rules()}
            )
            raise ConfigurationError(
                f"unknown rule {rule_id!r} (known: {', '.join(known)})"
            ) from None
    return file_rules, project_rules


def lint_source(
    source: str,
    path: Path | str = "<string>",
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint one source string; returns unsuppressed findings, sorted."""
    ctx = build_context(Path(path), source)
    active = list(rules) if rules is not None else list(iter_rules())
    findings = [
        finding
        for rule in active
        for finding in rule.check(ctx)
        if not ctx.is_suppressed(finding)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[Path] = set()
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.exists():
            candidates = [path]
        else:
            raise LintFileError(f"{path}: no such file or directory")
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def _lint_one_file(
    source: str,
    file_path: Path,
    rules: list[Rule],
    cache: LintCache | None,
) -> list[Finding]:
    """Per-file rules over one source, through the cache when given."""
    if cache is not None:
        key = cache.key(source, str(file_path), rules)
        cached = cache.get(key)
        if cached is not None:
            return cached
        findings = lint_source(source, file_path, rules)
        cache.put(key, findings)
        return findings
    return lint_source(source, file_path, rules)


def lint_paths(
    paths: Sequence[Path | str],
    select: Iterable[str] | None = None,
    cache: LintCache | None = None,
) -> tuple[list[Finding], int]:
    """Lint files and directories.

    Returns ``(findings, n_files_checked)``.  Unreadable or syntactically
    invalid files raise :class:`LintFileError`.  With ``cache``, per-file
    results are reused by content hash.
    """
    rules = resolve_rules(select)
    findings: list[Finding] = []
    files = list(iter_python_files([Path(p) for p in paths]))
    for file_path in files:
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintFileError(f"{file_path}: cannot read: {exc}") from exc
        findings.extend(_lint_one_file(source, file_path, rules, cache))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, len(files)


def lint_project(
    roots: Sequence[Path | str],
    select: Iterable[str] | None = None,
    cache: LintCache | None = None,
) -> tuple[list[Finding], int]:
    """Whole-project mode: per-file rules plus call-graph rules.

    Each entry in ``roots`` must be a package directory (e.g.
    ``src/repro``).  The package is indexed once
    (:func:`repro.devtools.graph.build_index`); per-file rules run over
    every module (through ``cache`` when given), then each registered
    :class:`~repro.devtools.rules.ProjectRule` runs over the index.
    Line- and file-scoped suppression comments apply to project findings
    exactly as they do to per-file ones.
    """
    from repro.devtools.graph import build_index

    file_rules, project_rules = resolve_all_rules(select)
    findings: list[Finding] = []
    n_files = 0
    for root in roots:
        index = build_index(Path(root))
        contexts: dict[str, LintContext] = {}
        for module in index.modules.values():
            ctx = build_context(module.path, module.source)
            contexts[str(module.path)] = ctx
            n_files += 1
            for finding in _lint_one_file(
                module.source, module.path, file_rules, cache
            ):
                if not ctx.is_suppressed(finding):
                    findings.append(finding)
        for project_rule in project_rules:
            for finding in project_rule.check(index):
                ctx_for_file = contexts.get(finding.path)
                if ctx_for_file is not None and ctx_for_file.is_suppressed(
                    finding
                ):
                    continue
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, n_files
