"""Engine-level behaviour: pragmas, fingerprints, scoping, parse errors."""

from __future__ import annotations

import pytest

from repro.analysis import Engine, LintPass, run_lint
from repro.analysis.engine import PASS_REGISTRY, parse_pragmas, register_pass
from repro.analysis.findings import Finding, finalize_findings

_DET_VIOLATION = "import time\n\n\ndef stamp():\n    return time.time()\n"


def _write(tmp_path, relpath, text):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_pragmas():
    assert parse_pragmas("x = 1  # lint: no-slots") == {"no-slots"}
    assert parse_pragmas("# lint: no-slots, no-determinism") == {
        "no-slots", "no-determinism"}
    assert parse_pragmas("x = 1  # regular comment") == frozenset()


def test_pragma_on_line_suppresses(tmp_path):
    _write(tmp_path, "g5/mod.py",
           "import time\n\n\ndef stamp():\n"
           "    return time.time()  # lint: no-determinism\n")
    assert Engine(tmp_path).run() == []


def test_pragma_on_previous_line_suppresses(tmp_path):
    _write(tmp_path, "g5/mod.py",
           "import time\n\n\ndef stamp():\n"
           "    # lint: no-determinism\n    return time.time()\n")
    assert Engine(tmp_path).run() == []


def test_catch_all_off_pragma_suppresses(tmp_path):
    _write(tmp_path, "g5/mod.py",
           "import time\n\n\ndef stamp():\n"
           "    return time.time()  # lint: off\n")
    assert Engine(tmp_path).run() == []


def test_unsuppressed_violation_fires(tmp_path):
    _write(tmp_path, "g5/mod.py", _DET_VIOLATION)
    findings = Engine(tmp_path).run()
    assert [f.rule for f in findings] == ["determinism/wall-clock"]
    assert findings[0].path == "g5/mod.py"
    assert findings[0].line == 5


def test_fingerprint_survives_line_shift(tmp_path):
    _write(tmp_path, "g5/mod.py", _DET_VIOLATION)
    before = Engine(tmp_path).run()[0].fingerprint
    # Push the violation down 20 lines; the fingerprint must not move.
    _write(tmp_path, "g5/mod.py", "# padding\n" * 20 + _DET_VIOLATION)
    after = Engine(tmp_path).run()
    assert [f.fingerprint for f in after] == [before]
    assert after[0].line == 25


def test_duplicate_lines_get_distinct_fingerprints():
    twin = dict(rule="r", path="p.py", col=0, message="m",
                snippet="x = bad()")
    findings = finalize_findings([Finding(line=3, **twin),
                                  Finding(line=9, **twin)])
    assert findings[0].occurrence == 0 and findings[1].occurrence == 1
    assert findings[0].fingerprint != findings[1].fingerprint


def test_parse_error_is_reported(tmp_path):
    _write(tmp_path, "g5/broken.py", "def nope(:\n")
    findings = Engine(tmp_path).run()
    assert [f.rule for f in findings] == ["engine/parse-error"]


def test_respect_scope_flag(tmp_path):
    # Out of every pass's scope: silent under default scoping, caught
    # when scoping is disabled (as the fixture tests do implicitly).
    from repro.analysis.passes.determinism import DeterminismPass

    _write(tmp_path, "tools/mod.py", _DET_VIOLATION)
    assert Engine(tmp_path).run() == []
    unscoped = Engine(tmp_path, passes=[DeterminismPass],
                      respect_scope=False).run()
    assert [f.rule for f in unscoped] == ["determinism/wall-clock"]


def test_register_pass_rejects_duplicate_rules():
    class Duplicate(LintPass):
        rule = "determinism"

    with pytest.raises(ValueError):
        register_pass(Duplicate)
    assert Duplicate not in PASS_REGISTRY


def test_repo_lints_clean():
    """The shipped tree must stay lint-clean."""
    assert run_lint() == []
