"""`repro-g5 lint` subcommand: exit codes and formats."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

from .conftest import FIXTURES


def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_lint_list_passes(capsys):
    assert main(["lint", "--list-passes"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        "determinism", "event-safety", "slots-coverage",
        "stats-conformance"]


def test_lint_fixture_tree_fails(capsys):
    assert main(["lint", "--path", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "[determinism/wall-clock]" in out


def test_lint_json_format(capsys):
    assert main(["lint", "--path", str(FIXTURES), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["total"] == 24


@pytest.mark.parametrize("target", ["missing-dir", "README.md"])
def test_lint_path_must_be_a_directory(tmp_path, capsys, target):
    # A mistyped --path must not lint nothing and pass.
    (tmp_path / "README.md").write_text("not a package\n", encoding="utf-8")
    assert main(["lint", "--path", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert "is not a directory" in captured.err
    assert "0 findings" not in captured.out


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
