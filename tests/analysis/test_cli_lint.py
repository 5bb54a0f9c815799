"""`repro-g5 lint` subcommand: exit codes, formats, baseline flow."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

from .conftest import FIXTURES


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    """Run with an isolated cwd so no repo baseline is picked up."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_lint_list_passes(capsys):
    assert main(["lint", "--list-passes"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        "determinism", "event-safety", "figreq", "race",
        "slots-coverage", "stats-conformance"]


def test_lint_fixture_tree_fails(in_tmp, capsys):
    assert main(["lint", "--path", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "[determinism/wall-clock]" in out


def test_lint_json_format(in_tmp, capsys):
    assert main(["lint", "--path", str(FIXTURES), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["total"] == 41
    assert payload["summary"]["baselined"] == 0


def test_lint_sarif_format_and_output_file(in_tmp, capsys):
    target = in_tmp / "report.sarif"
    assert main(["lint", "--path", str(FIXTURES), "--format", "sarif",
                 "--output", str(target)]) == 1
    log = json.loads(target.read_text(encoding="utf-8"))
    assert log["runs"][0]["tool"]["driver"]["name"] == "repro-g5-lint"
    assert len(log["runs"][0]["results"]) == 41


def test_update_baseline_then_clean(in_tmp, capsys):
    assert main(["lint", "--path", str(FIXTURES),
                 "--update-baseline"]) == 0
    baseline = in_tmp / "lint-baseline.json"
    assert baseline.is_file()
    assert len(json.loads(baseline.read_text())["findings"]) == 41
    # With everything grandfathered the same tree now lints clean...
    assert main(["lint", "--path", str(FIXTURES)]) == 0
    out = capsys.readouterr().out
    assert "(41 baselined findings suppressed)" in out
    # ...and --no-baseline restores the raw failure.
    assert main(["lint", "--path", str(FIXTURES), "--no-baseline"]) == 1


def test_stale_baseline_entries_are_reported(in_tmp, capsys):
    baseline = in_tmp / "lint-baseline.json"
    baseline.write_text(json.dumps({
        "version": 1,
        "findings": [{"fingerprint": "0" * 24,
                      "justification": "long fixed"}],
    }), encoding="utf-8")
    assert main(["lint"]) == 0
    assert "stale baseline" in capsys.readouterr().err


def test_malformed_baseline_exits_two(in_tmp, capsys):
    (in_tmp / "lint-baseline.json").write_text("{", encoding="utf-8")
    assert main(["lint"]) == 2
    assert "error" in capsys.readouterr().err


def test_lint_guest_text(capsys):
    assert main(["lint", "--guest", "sieve"]) == 0
    out = capsys.readouterr().out
    assert "guest workload : sieve" in out
    assert "decoder total  : yes" in out


def test_lint_guest_json_dynamic(capsys):
    assert main(["lint", "--guest", "sieve", "--format", "json",
                 "--dynamic"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dynamic"]["agrees"]
    assert report["dynamic"]["static_blocks"] == \
        report["dynamic"]["dynamic_blocks"]


def test_lint_guest_totality_failure_exits_one(monkeypatch, capsys):
    from repro.g5.isa import instructions as inst_mod
    from repro.g5.isa.instructions import Opcode

    monkeypatch.delitem(inst_mod._EXECUTORS, Opcode.MUL)
    assert main(["lint", "--guest", "sieve"]) == 1
    assert "decoder totality" in capsys.readouterr().err
