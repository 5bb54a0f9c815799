"""Golden-output tests: JSON and SARIF reports are byte-stable.

The golden files under ``golden/`` pin the exact serialized form of a
fixed findings list; any accidental format change (key renames, order
instability, fingerprint scheme drift) fails the comparison.
"""

from __future__ import annotations

import json

from repro.analysis import all_passes, render_json, render_sarif, render_text
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
    text = render_text(_fixed_findings(), baselined=1)
    lines = text.splitlines()
    assert lines[0] == ("g5/clock.py:12:12: error "
                        "[determinism/wall-clock] wall-clock read "
                        "time.time() in simulation-core code; results "
                        "must not depend on host time")
    assert lines[-1] == "2 findings (1 baselined finding suppressed)"


def test_golden_json():
    _check_golden("lint.json", render_json(_fixed_findings(), baselined=1))


def test_golden_sarif():
    _check_golden("lint.sarif", render_sarif(_fixed_findings(),
                                             passes=all_passes()))


def test_sarif_is_valid_shape():
    log = json.loads(render_sarif(_fixed_findings(), passes=all_passes()))
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-g5-lint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert rule_ids == {"determinism", "event-safety", "figreq", "race",
                        "slots-coverage", "stats-conformance"}
    results = run["results"]
    assert len(results) == 2
    for result in results:
        assert result["partialFingerprints"]["reproLintFingerprint/v1"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1


def test_json_summary_counts():
    payload = json.loads(render_json(_fixed_findings(), baselined=3))
    assert payload["summary"]["total"] == 2
    assert payload["summary"]["baselined"] == 3
    assert payload["summary"]["by_rule"] == {
        "determinism/wall-clock": 1,
        "stats-conformance/write-only-stat": 1}
