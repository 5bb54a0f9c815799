"""Golden-output tests: the JSON report is byte-stable.

The golden file under ``golden/`` pins the exact serialized form of a
fixed findings list; any accidental format change (key renames, order
instability, fingerprint scheme drift) fails the comparison.
"""

from __future__ import annotations

import json

from repro.analysis import render_json, render_text
from repro.analysis.findings import Finding, finalize_findings

from .conftest import GOLDEN


def _fixed_findings():
    return finalize_findings([
        Finding(rule="determinism/wall-clock", path="g5/clock.py",
                line=12, col=11,
                message="wall-clock read time.time() in simulation-core "
                        "code; results must not depend on host time",
                snippet="started = time.time()"),
        Finding(rule="stats-conformance/write-only-stat",
                path="g5/mem/dram.py", line=40, col=8,
                message="stats.scalar(...) return value is discarded; "
                        "the stat is dumped but can never be updated — "
                        "bind it to an attribute",
                snippet='stats.scalar("numReads", "read bursts")'),
    ])


def _check_golden(name, text):
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    assert text + "\n" == golden, (
        f"{name} drifted; regenerate with "
        "`python tests/analysis/regen_golden.py` if intentional")


def test_text_report():
    text = render_text(_fixed_findings())
    lines = text.splitlines()
    assert lines[0] == ("g5/clock.py:12:12: error "
                        "[determinism/wall-clock] wall-clock read "
                        "time.time() in simulation-core code; results "
                        "must not depend on host time")
    assert lines[-1] == "2 findings"


def test_golden_json():
    _check_golden("lint.json", render_json(_fixed_findings()))


def test_json_summary_counts():
    payload = json.loads(render_json(_fixed_findings()))
    assert payload["summary"]["total"] == 2
    assert payload["summary"]["by_rule"] == {
        "determinism/wall-clock": 1,
        "stats-conformance/write-only-stat": 1}
