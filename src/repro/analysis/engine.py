"""The visitor-based lint pass engine.

Structure mirrors a compiler middle-end: the engine parses every Python
file under a root into a :class:`ProjectIndex` (phase 1), then runs each
registered :class:`LintPass` — an ``ast.NodeVisitor`` — over the files
its scope covers (phase 2).  Cross-file checks (e.g. ``__slots__``
coverage needs every class definition in the project) read the index
instead of re-walking the tree.

Suppression is explicit and local: a finding is dropped when the
flagged line — or the line immediately above it — carries a
``# lint: <token>`` pragma naming the pass's pragma token (or the
catch-all ``off``).  There is no global disable: every unsuppressed
finding fails the lint.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Type

from .findings import Finding, finalize_findings

#: Matches every ``# lint: tok1, tok2`` pragma comment on a line.
_PRAGMA_RE = re.compile(r"#\s*lint:\s*([a-zA-Z0-9_,\- ]+)")


def parse_pragmas(line: str) -> frozenset[str]:
    """Pragma tokens on one source line (empty when none)."""
    tokens: set[str] = set()
    for match in _PRAGMA_RE.finditer(line):
        for token in match.group(1).split(","):
            token = token.strip()
            if token:
                tokens.add(token)
    return frozenset(tokens)


@dataclass
class SourceFile:
    """One parsed Python file under the lint root."""

    path: Path                # absolute
    relpath: str              # posix path relative to the lint root
    text: str
    tree: ast.Module
    lines: list[str]
    #: line number (1-based) -> pragma tokens present on that line.
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        lines = text.splitlines()
        pragmas = {}
        for number, line in enumerate(lines, start=1):
            if "lint:" in line:
                tokens = parse_pragmas(line)
                if tokens:
                    pragmas[number] = tokens
        relpath = path.relative_to(root).as_posix()
        return cls(path, relpath, text, tree, lines, pragmas)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def suppressed(self, line: int, pragma: str) -> bool:
        """True if ``line`` (or the line above) carries the pragma."""
        for candidate in (line, line - 1):
            tokens = self.pragmas.get(candidate)
            if tokens and (pragma in tokens or "off" in tokens):
                return True
        return False


@dataclass
class ClassInfo:
    """Project-wide summary of one class definition."""

    name: str
    relpath: str
    node: ast.ClassDef
    has_slots: bool
    bases: tuple[str, ...]

    @property
    def line(self) -> int:
        return self.node.lineno


class ProjectIndex:
    """Phase-1 artifact: every file parsed, every class indexed."""

    def __init__(self, files: list[SourceFile]) -> None:
        self.files = files
        # Class name -> definitions (duplicates across modules possible).
        self.classes: dict[str, list[ClassInfo]] = {}
        for source in files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    self._index_class(source, node)

    def _index_class(self, source: SourceFile, node: ast.ClassDef) -> None:
        has_slots = any(
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets)
            for stmt in node.body)
        bases = tuple(
            base.id if isinstance(base, ast.Name)
            else ast.unparse(base)
            for base in node.bases)
        info = ClassInfo(node.name, source.relpath, node, has_slots, bases)
        self.classes.setdefault(node.name, []).append(info)

    def lookup_class(self, name: str) -> list[ClassInfo]:
        return self.classes.get(name, [])

    def class_defines_slots(self, name: str, seen: Optional[set] = None) -> bool:
        """True if any definition of ``name`` (or its named bases) has
        ``__slots__``.  A slotted base is accepted because subclasses in
        this codebase follow the all-slots convention."""
        if seen is None:
            seen = set()
        if name in seen:
            return False
        seen.add(name)
        for info in self.lookup_class(name):
            if info.has_slots:
                return True
            for base in info.bases:
                if self.class_defines_slots(base, seen):
                    return True
        return False


class LintPass(ast.NodeVisitor):
    """Base class for all lint passes.

    Subclasses set the class attributes, implement ``visit_*`` methods,
    and call :meth:`report` on violations.  One pass instance is created
    per (pass, file) pair; cross-file state lives in the shared
    :class:`ProjectIndex`.
    """

    #: Rule family id; individual findings use ``rule`` or
    #: ``rule + "/" + suffix`` via :meth:`report`.
    rule: str = ""
    title: str = ""
    description: str = ""
    #: ``# lint: <pragma>`` token that silences this pass on a line.
    pragma: str = ""
    severity: str = "error"

    def __init__(self, source: SourceFile, project: ProjectIndex) -> None:
        self.source = source
        self.project = project
        self.findings: list[Finding] = []

    # -- scoping --------------------------------------------------------
    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        """Whether this pass runs on ``relpath`` (lint-root relative)."""
        return True

    # -- reporting ------------------------------------------------------
    def report(self, node: ast.AST, message: str,
               suffix: str = "", severity: Optional[str] = None) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.pragma and self.source.suppressed(line, self.pragma):
            return
        rule = f"{self.rule}/{suffix}" if suffix else self.rule
        self.findings.append(Finding(
            rule=rule,
            path=self.source.relpath,
            line=line,
            col=col,
            message=message,
            severity=severity or self.severity,
            snippet=self.source.line_text(line).strip(),
        ))

    def run(self) -> list[Finding]:
        self.visit(self.source.tree)
        return self.findings


#: Global registry filled by the ``@register_pass`` decorator.
PASS_REGISTRY: list[Type[LintPass]] = []


def register_pass(cls: Type[LintPass]) -> Type[LintPass]:
    if not cls.rule:
        raise ValueError(f"{cls.__name__} must set a rule id")
    if any(existing.rule == cls.rule for existing in PASS_REGISTRY):
        raise ValueError(f"duplicate lint pass rule {cls.rule!r}")
    PASS_REGISTRY.append(cls)
    return cls


def all_passes() -> list[Type[LintPass]]:
    """Every registered pass (importing the passes package as needed)."""
    from . import passes  # noqa: F401  (import populates the registry)

    return list(PASS_REGISTRY)


class Engine:
    """Runs lint passes over a directory tree of Python sources."""

    def __init__(self, root: Path,
                 passes: Optional[Iterable[Type[LintPass]]] = None,
                 respect_scope: bool = True) -> None:
        self.root = Path(root)
        self.passes = list(passes) if passes is not None else all_passes()
        #: Tests set False to run a pass on fixture files that live
        #: outside the directory layout its ``applies_to`` expects.
        self.respect_scope = respect_scope
        self.errors: list[Finding] = []   # parse failures, as findings

    # ------------------------------------------------------------------
    def collect_files(self) -> list[SourceFile]:
        sources: list[SourceFile] = []
        for path in sorted(self.root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            try:
                sources.append(SourceFile.parse(path, self.root))
            except SyntaxError as exc:
                self.errors.append(Finding(
                    rule="engine/parse-error",
                    path=path.relative_to(self.root).as_posix(),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                ))
        return sources

    def run(self) -> list[Finding]:
        """Lint the tree; returns finalized (sorted, fingerprinted)
        findings, including parse errors."""
        files = self.collect_files()
        project = ProjectIndex(files)
        findings: list[Finding] = list(self.errors)
        for source in files:
            for pass_cls in self.passes:
                if not self.respect_scope \
                        or pass_cls.applies_to(source.relpath):
                    findings.extend(pass_cls(source, project).run())
        return finalize_findings(findings)


def default_lint_root() -> Path:
    """The ``repro`` package directory (what ``repro-g5 lint`` checks)."""
    return Path(__file__).resolve().parent.parent


def run_lint(root: Optional[Path] = None,
             passes: Optional[Iterable[Type[LintPass]]] = None,
             respect_scope: bool = True) -> list[Finding]:
    """Convenience wrapper: lint ``root`` (default: the repro package)."""
    engine = Engine(root or default_lint_root(), passes=passes,
                    respect_scope=respect_scope)
    return engine.run()
