"""The simulator-invariant rules: fixtures, and the shipped tree.

Every rule is exercised against a dedicated fixture pair under
``fixtures/``, whose layout mirrors the rule scopes (``g5/``,
``serve/`` and the rest, plus the out-of-scope ``tools/``); the
fires-test pins the exact rule suffixes so a rule that silently stops
detecting one defect shape fails here.  ``test_repo_lints_clean`` runs
the same rules over ``src/repro``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro

from .determinism import _SERVE_WALL_CLOCK_OK, DeterminismPass
from .engine import lint

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def fixture_findings():
    """All findings from one run over the fixture tree."""
    return lint(FIXTURES)


def rule_findings(findings, rule, path=None):
    """Findings whose rule is ``rule`` or ``rule/<suffix>``."""
    hits = [f for f in findings
            if f.rule == rule or f.rule.startswith(rule + "/")]
    if path is not None:
        hits = [f for f in hits if f.path == path]
    return hits


def _suffixes(findings):
    return sorted(f.rule.split("/", 1)[1] for f in findings)


# -- determinism --------------------------------------------------------
def test_determinism_fires(fixture_findings):
    hits = rule_findings(fixture_findings, "determinism",
                         path="g5/det_fires.py")
    assert _suffixes(hits) == ["entropy", "set-iteration", "set-iteration",
                               "unseeded-random", "unseeded-random",
                               "wall-clock", "wall-clock"]


def test_determinism_quiet(fixture_findings):
    assert rule_findings(fixture_findings, "determinism",
                         path="g5/det_quiet.py") == []


def test_determinism_covers_serve(fixture_findings):
    hits = rule_findings(fixture_findings, "determinism",
                         path="serve/srv_fires.py")
    assert _suffixes(hits) == ["entropy", "set-iteration", "wall-clock"]


def test_determinism_serve_clock_exemption(fixture_findings):
    # The timing module may read the wall clock (and nothing else).
    assert rule_findings(fixture_findings, "determinism",
                         path="serve/clock.py") == []


def test_determinism_covers_sample(fixture_findings):
    hits = rule_findings(fixture_findings, "determinism",
                         path="sample/smp_fires.py")
    assert _suffixes(hits) == ["set-iteration", "unseeded-random",
                               "wall-clock"]


def test_determinism_sample_quiet(fixture_findings):
    # Seeded RNGs and sorted() iteration are the sanctioned idioms.
    assert rule_findings(fixture_findings, "determinism",
                         path="sample/smp_quiet.py") == []


def test_determinism_covers_fleet(fixture_findings):
    hits = rule_findings(fixture_findings, "determinism",
                         path="fleet/flt_fires.py")
    assert _suffixes(hits) == ["set-iteration", "unseeded-random",
                               "wall-clock"]


def test_determinism_fleet_quiet(fixture_findings):
    # serve/clock.py time, hash-derived jitter, sorted() iteration.
    assert rule_findings(fixture_findings, "determinism",
                         path="fleet/flt_quiet.py") == []


def test_determinism_fleet_has_no_wall_clock_exemption():
    """Unlike serve/, no fleet module may read the wall clock itself.

    Every coordinator/worker timing decision (heartbeats, sweeps, job
    timeouts, retry pacing) flows through ``serve/clock.py``, so the
    whole fleet can run on a test-controlled clock.
    """
    assert DeterminismPass.applies_to("fleet/coordinator.py")
    assert DeterminismPass.applies_to("fleet/worker.py")
    assert not any(exempt.startswith("fleet/")
                   for exempt in _SERVE_WALL_CLOCK_OK)


def test_determinism_scope_includes_sample_parallel():
    """The window planner/merger is in scope with no exemptions.

    Its purity is what makes the parallel fan-out byte-identical to the
    sequential path; the wall-clock timing for window execution lives in
    ``exec/windows.py``, which stays out of simulation-core scope.
    """
    assert DeterminismPass.applies_to("sample/parallel.py")
    assert not DeterminismPass.applies_to("exec/windows.py")
    assert not any(exempt.startswith("sample/")
                   for exempt in _SERVE_WALL_CLOCK_OK)


# -- event safety -------------------------------------------------------
def test_event_safety_fires(fixture_findings):
    hits = rule_findings(fixture_findings, "event-safety",
                         path="g5/event_fires.py")
    assert _suffixes(hits) == ["mutation-after-enqueue",
                               "mutation-after-enqueue",
                               "negative-delay", "past-tick",
                               "possibly-negative-delay"]


def test_event_safety_quiet(fixture_findings):
    assert rule_findings(fixture_findings, "event-safety",
                         path="g5/event_quiet.py") == []


# -- slots coverage -----------------------------------------------------
def test_slots_coverage_fires(fixture_findings):
    hits = rule_findings(fixture_findings, "slots-coverage",
                         path="g5/slots_fires.py")
    assert len(hits) == 1
    assert "Churn" in hits[0].message


def test_slots_coverage_quiet(fixture_findings):
    # Slotted bases, raise sites and cold functions must all stay quiet.
    assert rule_findings(fixture_findings, "slots-coverage",
                         path="g5/slots_quiet.py") == []


# -- stats conformance --------------------------------------------------
def test_stats_conformance_fires(fixture_findings):
    hits = rule_findings(fixture_findings, "stats-conformance",
                         path="g5/stats_fires.py")
    assert _suffixes(hits) == ["orphan-stat", "write-only-stat"]


def test_stats_conformance_quiet(fixture_findings):
    assert rule_findings(fixture_findings, "stats-conformance",
                         path="g5/stats_quiet.py") == []


# -- scoping ------------------------------------------------------------
def test_out_of_scope_files_produce_nothing(fixture_findings):
    assert [f for f in fixture_findings
            if f.path.startswith("tools/")] == []


def test_fixture_tree_total(fixture_findings):
    # The per-rule expectations above are exhaustive: no rule may emit
    # findings beyond the ones pinned there.
    # determinism(g5) + event + slots + stats
    # + determinism(serve) + determinism(sample) + determinism(fleet)
    assert len(fixture_findings) == 7 + 5 + 1 + 2 + 3 + 3 + 3


def test_violation_is_pinned_to_its_line(tmp_path):
    (tmp_path / "g5").mkdir()
    (tmp_path / "g5" / "mod.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8")
    (finding,) = lint(tmp_path)
    assert (finding.rule, finding.path, finding.line) == (
        "determinism/wall-clock", "g5/mod.py", 5)
    assert str(finding).startswith(
        "g5/mod.py:5: [determinism/wall-clock] wall-clock read time.time()")


def test_unparsable_file_raises(tmp_path):
    (tmp_path / "g5").mkdir()
    (tmp_path / "g5" / "broken.py").write_text("def nope(:\n",
                                               encoding="utf-8")
    with pytest.raises(SyntaxError):
        lint(tmp_path)


# -- the shipped tree ---------------------------------------------------
def test_repo_lints_clean():
    findings = lint(Path(repro.__file__).parent)
    assert findings == [], "\n".join(map(str, findings))
