"""Every figure declares exactly the jobs its ``run`` reads.

A campaign resolves a figure's declaration (``required_g5()`` plus
``required_replays(runner)``) in pooled batches before ``run``; a job
``run`` reads but nobody declared would silently replay in the parent,
serially, and a declared job ``run`` never reads is wasted work.  So,
per figure: after prefetching the declaration, ``run`` adds no memo key
and moves no engine counter, and the jobs it reads are exactly the
declared replays (the declared g5 runs, for figures that replay none).
"""

from __future__ import annotations

import copy
import inspect
from dataclasses import fields

import pytest

from repro.exec import ReplayJob
from repro.experiments import FIGURES
from repro.experiments.runner import ExperimentRunner

#: ``run`` arguments per figure: fig1's full sweep is the smoke test's.
ARGS = {"fig1": {"workloads": ["sieve"], "cpu_models": ["atomic"]},
        "fig12": {"platforms": ["Intel_Xeon", "M1_Pro"]}}


class ReadLog(dict):
    """A memo that remembers every job read from it."""

    def __init__(self, memo: dict) -> None:
        super().__init__(memo)
        self.read: set = set()

    def __getitem__(self, job):
        self.read.add(job)
        return super().__getitem__(job)


def counters(stats) -> dict:
    return {field.name: copy.copy(getattr(stats, field.name))
            for field in fields(stats) if field.name != "_lock"}


def check_declaration(fid: str) -> None:
    module, args = FIGURES[fid], ARGS.get(fid, {})
    runner = ExperimentRunner(scale="test", max_records=5000,
                              spec_records=4000)
    runner.prefetch_figures([module], **args)
    memo = runner.engine.memo = ReadLog(runner.engine.memo)
    declared, before = set(memo), counters(runner.engine.stats)

    module.run(runner, **args)

    assert set(memo) == declared, "run resolved an undeclared job"
    assert counters(runner.engine.stats) == before
    replays = {job for job in declared if isinstance(job, ReplayJob)}
    assert memo.read == (replays or declared)
    if replays:
        assert declared - replays == {job.source for job in replays
                                      if job.kind == "host"}


@pytest.mark.parametrize("fid", sorted(FIGURES))
def test_prefetching_the_declaration_leaves_run_nothing_to_resolve(fid):
    check_declaration(fid)


def keywords(function, skip: int = 0) -> set:
    return set(list(inspect.signature(function).parameters)[skip:])


@pytest.mark.parametrize("fid", sorted(FIGURES))
def test_the_declaration_accepts_every_run_keyword(fid):
    """``figure_jobs(modules, **args)`` passes ``run``'s keywords to
    both declarations, so each must accept all of them."""
    module = FIGURES[fid]
    wanted = keywords(module.run, skip=1)
    assert wanted <= keywords(module.required_g5)
    if hasattr(module, "required_replays"):
        assert wanted <= keywords(module.required_replays, skip=1)


def test_a_replay_missing_from_the_declaration_is_caught(monkeypatch):
    module = FIGURES["fig14"]
    declare = module.required_replays
    monkeypatch.setattr(module, "required_replays",
                        lambda runner, **args: declare(runner, **args)[:-1])
    with pytest.raises(AssertionError):
        check_declaration("fig14")
