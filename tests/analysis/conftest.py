"""Shared fixtures for the static-analysis tests.

The fixture tree under ``fixtures/`` mirrors the lint scopes (``g5/``,
``serve/`` and the rest, plus the out-of-scope ``tools/``);
one engine run over it is shared by every per-pass test.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import Engine

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def fixture_findings():
    """All findings from one engine run over the fixture tree."""
    return Engine(FIXTURES).run()


def rule_findings(findings, rule, path=None):
    """Findings whose rule is ``rule`` or ``rule/<suffix>``."""
    hits = [f for f in findings
            if f.rule == rule or f.rule.startswith(rule + "/")]
    if path is not None:
        hits = [f for f in hits if f.path == path]
    return hits
