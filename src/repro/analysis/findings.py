"""Lint findings: what a pass reports and how findings are identified.

A :class:`Finding` pins one rule violation to a file location.  Findings
carry a *fingerprint* — a content hash of the rule, file, and offending
source line (plus an occurrence index for repeated identical lines) —
that stays stable when unrelated edits shift line numbers, so a report
consumer can track one finding across refactors that merely move code
around.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

#: Finding severities, in increasing order of importance.
SEVERITIES = ("note", "warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str                 # e.g. "determinism/wall-clock"
    path: str                 # lint-root-relative posix path
    line: int                 # 1-based
    col: int                  # 0-based (ast convention)
    message: str
    severity: str = "error"
    snippet: str = ""         # stripped source line, for reports
    #: Disambiguates identical (rule, path, snippet) triples; the Nth
    #: occurrence (top to bottom) keeps fingerprint N across edits.
    occurrence: int = 0

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}")

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity of the finding."""
        payload = "\0".join([self.rule, self.path, self.snippet.strip(),
                             str(self.occurrence)])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def render(self) -> str:
        """One-line human-readable form (``path:line:col: rule message``)."""
        location = f"{self.path}:{self.line}:{self.col + 1}"
        return f"{location}: {self.severity} [{self.rule}] {self.message}"


def finalize_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Sort findings and assign occurrence indices for fingerprints.

    Findings sharing (rule, path, snippet) are numbered top to bottom so
    each gets a distinct, order-stable fingerprint.
    """
    ordered = sorted(findings, key=Finding.sort_key)
    seen: dict[tuple[str, str, str], int] = {}
    out: list[Finding] = []
    for finding in ordered:
        key = (finding.rule, finding.path, finding.snippet.strip())
        index = seen.get(key, 0)
        seen[key] = index + 1
        if index != finding.occurrence:
            finding = Finding(finding.rule, finding.path, finding.line,
                              finding.col, finding.message,
                              finding.severity, finding.snippet, index)
        out.append(finding)
    return out


@dataclass
class RuleInfo:
    """Metadata describing one lint rule family (one pass)."""

    rule: str
    title: str
    description: str
    pragma: str = ""          # `# lint: <pragma>` suppression token
    default_severity: str = "error"
    findings: list[Finding] = field(default_factory=list)
