"""`repro-g5 guest` subcommand: the static report, formats, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.workloads.registry import WORKLOADS


def test_guest_text(capsys):
    assert main(["guest", "sieve"]) == 0
    out = capsys.readouterr().out
    assert "guest workload : sieve" in out
    assert "decoder total  : yes" in out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_guest_json_dynamic(capsys, workload):
    assert main(["guest", workload, "--json", "--dynamic"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dynamic"]["agrees"]
    if workload == "sieve":
        assert report["dynamic"]["static_blocks"] == \
            report["dynamic"]["dynamic_blocks"]


def test_guest_totality_failure_exits_one(monkeypatch, capsys):
    from repro.g5.isa import instructions as inst_mod
    from repro.g5.isa.instructions import Opcode

    monkeypatch.delitem(inst_mod._EXECUTORS, Opcode.MUL)
    assert main(["guest", "sieve"]) == 1
    assert "decoder totality" in capsys.readouterr().err
