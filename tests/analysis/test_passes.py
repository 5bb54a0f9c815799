"""Per-pass positive ("fires") and negative ("stays quiet") tests.

Every pass is exercised against a dedicated fixture pair under
``fixtures/``; the fires-test pins the exact rule suffixes so a pass
that silently stops detecting one defect shape fails here.
"""

from __future__ import annotations

from .conftest import rule_findings


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
    from repro.analysis.passes.determinism import (_SERVE_WALL_CLOCK_OK,
                                                   DeterminismPass)

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
    from pathlib import Path

    import repro
    from repro.analysis.passes.determinism import DeterminismPass

    assert DeterminismPass.applies_to("sample/parallel.py")
    assert not DeterminismPass.applies_to("exec/windows.py")
    source = (Path(repro.__file__).parent / "sample"
              / "parallel.py").read_text()
    assert "no-determinism" not in source


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
    # Slotted bases, raise sites, cold functions, and pragma'd calls
    # must all stay quiet.
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


def test_fixture_tree_total():
    # The per-pass expectations above are exhaustive: no pass may emit
    # findings beyond the ones pinned there.
    from .conftest import FIXTURES
    from repro.analysis import Engine

    findings = Engine(FIXTURES).run()
    # determinism(g5) + event + slots + stats
    # + determinism(serve) + determinism(sample) + determinism(fleet)
    assert len(findings) == 7 + 5 + 1 + 2 + 3 + 3 + 3
