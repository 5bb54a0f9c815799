"""The runner behind the simulator-invariant rules.

:func:`lint` parses every Python file under a root, indexes every class
definition (``__slots__`` coverage needs the whole project's classes),
then runs each rule — an ``ast.NodeVisitor`` — over the files its scope
covers.  There is no suppression: a finding is a failing assertion.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source line."""

    rule: str                 # e.g. "determinism/wall-clock"
    path: str                 # lint-root-relative posix path
    line: int                 # 1-based
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class SourceFile:
    """One parsed Python file under the lint root."""

    relpath: str              # posix path relative to the lint root
    tree: ast.Module


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: where it is, its bases, its ``__slots__``."""

    relpath: str
    line: int
    has_slots: bool
    bases: tuple[str, ...]


class ProjectIndex:
    """Every class definition of the project, by name."""

    def __init__(self, files: list[SourceFile]) -> None:
        # Class name -> definitions (duplicates across modules possible).
        self.classes: dict[str, list[ClassInfo]] = {}
        for source in files:
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                has_slots = any(
                    isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in stmt.targets)
                    for stmt in node.body)
                bases = tuple(
                    base.id if isinstance(base, ast.Name)
                    else ast.unparse(base)
                    for base in node.bases)
                self.classes.setdefault(node.name, []).append(ClassInfo(
                    source.relpath, node.lineno, has_slots, bases))

    def lookup_class(self, name: str) -> list[ClassInfo]:
        return self.classes.get(name, [])

    def class_defines_slots(self, name: str, seen=None) -> bool:
        """True if any definition of ``name`` (or its named bases) has
        ``__slots__``.  A slotted base is accepted because subclasses in
        this codebase follow the all-slots convention."""
        if seen is None:
            seen = set()
        if name in seen:
            return False
        seen.add(name)
        return any(info.has_slots
                   or any(self.class_defines_slots(base, seen)
                          for base in info.bases)
                   for info in self.lookup_class(name))


class LintPass(ast.NodeVisitor):
    """Base class of the rules: one instance per (rule, file) pair.

    Subclasses set ``rule``, scope themselves with :meth:`applies_to`,
    and call :meth:`report` from their ``visit_*`` methods.
    """

    #: Rule family id; findings use ``rule`` or ``rule + "/" + suffix``.
    rule: str = ""

    def __init__(self, source: SourceFile, project: ProjectIndex) -> None:
        self.source = source
        self.project = project
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        """Whether this rule runs on ``relpath`` (lint-root relative)."""
        return True

    def report(self, node: ast.AST, message: str, suffix: str = "") -> None:
        rule = f"{self.rule}/{suffix}" if suffix else self.rule
        self.findings.append(Finding(rule, self.source.relpath,
                                     getattr(node, "lineno", 1), message))


def lint(root: Path) -> list[Finding]:
    """Every finding of the four rules under ``root``, in file order.
    A file that does not parse raises :class:`SyntaxError`."""
    from .determinism import DeterminismPass
    from .eventsafety import EventSafetyPass
    from .slotscov import SlotsCoveragePass
    from .statsconf import StatsConformancePass

    files = [SourceFile(path.relative_to(root).as_posix(),
                        ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path)))
             for path in sorted(Path(root).rglob("*.py"))
             if "__pycache__" not in path.parts]
    project = ProjectIndex(files)
    findings: list[Finding] = []
    for source in files:
        for rule in (DeterminismPass, EventSafetyPass, SlotsCoveragePass,
                     StatsConformancePass):
            if rule.applies_to(source.relpath):
                checker = rule(source, project)
                checker.visit(source.tree)
                findings.extend(checker.findings)
    return findings
