"""Host replays resolve through the runner's one memo and the engine.

Fig. 14's FireSim sweep used to bypass both; these tests pin that it is
now memoised and disk-cached like every other replay, that going
through the runner changed none of its numbers, that a replay's g5
dependency is satisfied from the memo rather than the disk, and that
replays run in pool children byte-identical to inline ones.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.core.report import Figure
from repro.exec import ResultCache, pool
from repro.exec.pool import G5Job
from repro.experiments import FIGURES
from repro.experiments.common import GEM5_CONFIGS
from repro.experiments.runner import ExperimentRunner
from repro.host.cpu import HostCPU, profile_g5_run
from repro.host.firesim import (FIG14_CONFIGS, FIRESIM_CLUSTER_SCALE,
                                config_label, platform_for)

FIG14 = FIGURES["fig14"]


@pytest.fixture
def replay_calls(monkeypatch):
    """The platforms replayed in this process while the test runs: one
    per member of every ``HostCPU.replay_walk``, the path every replay
    job takes, alone or with others."""
    calls = []
    real = HostCPU.replay_walk

    def counting(cpus, *args, **kwargs):
        calls.extend(cpu.platform.name for cpu in cpus)
        return real(cpus, *args, **kwargs)

    monkeypatch.setattr(HostCPU, "replay_walk", staticmethod(counting))
    return calls


def sweep_results(runner: ExperimentRunner) -> list:
    return [runner.host_result("sieve", cpu_model, platform_for(config),
                               cluster_scale=FIRESIM_CLUSTER_SCALE,
                               truncate=False)
            for cpu_model in FIG14.CPU_MODELS for config in FIG14_CONFIGS]


def test_fig14_sweep_is_disk_cached_across_runners(tmp_path, replay_calls):
    cache = ResultCache(tmp_path)
    cold_runner = ExperimentRunner(scale="test", max_records=5000,
                                   cache=cache)
    cold_text = FIG14.run(cold_runner).render()
    assert len(replay_calls) == 21
    cold = sweep_results(cold_runner)             # memo: no new replays
    assert len(replay_calls) == 21
    assert cold_runner.cache_stats()["host_replays"] == 21
    assert cold_runner.cache_stats()["host_disk_hits"] == 0

    warm_runner = ExperimentRunner(scale="test", max_records=5000,
                                   cache=cache)
    assert FIG14.run(warm_runner).render() == cold_text
    assert len(replay_calls) == 21                # nothing replayed warm
    stats = warm_runner.cache_stats()
    assert stats["host_replays"] == stats["host_disk_hits"] == 21
    assert stats["g5_executed"] == stats["g5_disk_hits"] == 0
    for warm_result, cold_result in zip(sweep_results(warm_runner), cold):
        assert pickle.dumps(warm_result, protocol=4) \
            == pickle.dumps(cold_result, protocol=4)


@pytest.mark.parametrize("max_records", [None, 2000])
def test_fig14_text_equals_the_direct_sweep(max_records):
    """Going through jobs changed no number: the figure is what replaying
    the same recorder on each geometry directly gives, untruncated."""
    runner = ExperimentRunner(scale="test", max_records=max_records)
    figure = FIG14.run(runner)

    expected = Figure(figure.figure_id, figure.caption)
    for cpu_model in FIG14.CPU_MODELS:
        recorder = runner.g5_result("sieve", cpu_model).recorder
        times = [profile_g5_run(recorder, platform_for(config),
                                cluster_scale=FIRESIM_CLUSTER_SCALE
                                ).time_seconds for config in FIG14_CONFIGS]
        expected.add_series(
            cpu_model.upper(), [config_label(c) for c in FIG14_CONFIGS],
            [times[0] / time - 1.0 for time in times])
    assert figure.render() == expected.render()


def pooled_campaign(cache: ResultCache, jobs: int):
    """Figs 2 and 14 cold: SPEC, truncated host and whole-trace cells."""
    runner = ExperimentRunner(scale="test", max_records=5000,
                              spec_records=4000, jobs=jobs, cache=cache)
    modules = [FIGURES["fig2"], FIGURES["fig14"]]
    runner.prefetch_figures(modules)
    text = "\n".join(module.run(runner).render() for module in modules)
    declared = {job for module in modules
                for job in module.required_replays(runner)}
    return runner.engine.stats, text, declared


def test_pooled_replays_equal_inline_ones_and_never_resimulate(
        tmp_path, replay_calls):
    pooled_cache = ResultCache(tmp_path / "pooled")
    pooled, pooled_text, declared = pooled_campaign(pooled_cache, jobs=2)
    assert replay_calls == []                     # every one in a child
    inline_cache = ResultCache(tmp_path / "inline")
    inline, inline_text, _ = pooled_campaign(inline_cache, jobs=1)
    assert len(replay_calls) == len(declared)

    assert pooled_text == inline_text
    sources = {job.source for job in declared if job.kind == "host"}
    kinds = Counter(job.kind for job in declared)
    for stats in (pooled, inline):
        assert stats.executed == len(sources)
        assert stats.replays_executed == kinds
    stored = {entry.digest for entry in pooled_cache.entries()
              if entry.kind in ("host", "spec")}
    assert stored == {job.cache_key().digest for job in declared}
    for job in declared:
        assert pickle.dumps(pooled_cache.get(job.cache_key()), protocol=4) \
            == pickle.dumps(inline_cache.get(job.cache_key()), protocol=4)


def test_a_cold_campaign_never_reads_g5_results_back_from_disk(tmp_path):
    runner = ExperimentRunner(scale="test", max_records=2000,
                              cache=ResultCache(tmp_path))
    rows = GEM5_CONFIGS[:4]
    runner.prefetch((row.workload, row.cpu_model, row.mode) for row in rows)
    for row in rows:
        for platform in ("Intel_Xeon", "M1_Pro"):
            runner.host_result(row.workload, row.cpu_model, platform,
                               mode=row.mode)
    # Not prefetched: the replay's own g5 run lands in the memo too.
    runner.host_result("sieve", "atomic", "Intel_Xeon")
    runner.host_result("sieve", "atomic", "M1_Pro", opt_level=3)

    stats = runner.cache_stats()
    assert stats["g5_disk_hits"] == 0
    assert stats["g5_executed"] == stats["g5_runs"] == len(rows) + 1
    assert stats["host_replays"] == 2 * len(rows) + 2
    assert stats["host_disk_hits"] == 0


def test_fig14_walks_each_trace_once_and_stores_every_member(
        tmp_path, monkeypatch):
    """Fig. 14's 21 replays are 3 traces on 7 geometries: 3 pool tasks,
    21 cache entries and 21 counted replays; warm, all 21 are hits."""
    tasks = []
    real_tasks = pool._tasks

    def spying(jobs):
        made = real_tasks(jobs)
        tasks.extend(task for task in made if not isinstance(task, G5Job))
        return made

    monkeypatch.setattr(pool, "_tasks", spying)
    cache = ResultCache(tmp_path)

    def campaign():
        runner = ExperimentRunner(scale="test", max_records=5000, jobs=2,
                                  cache=cache)
        runner.prefetch_figures([FIG14])
        return runner.engine.stats, FIG14.run(runner).render()

    cold, cold_text = campaign()
    assert [len(task.members) for task in tasks] == [7, 7, 7]
    assert cold.replays_executed == {"host": 21}
    assert sum(entry.kind == "host" for entry in cache.entries()) == 21
    del tasks[:]
    warm, warm_text = campaign()
    assert tasks == []
    assert warm.replay_hits == {"host": 21} and not warm.replays_executed
    assert warm_text == cold_text


def test_fig10_replays_have_distinct_labels():
    """4KB, THP and EHP replays of one trace differ in their knobs, so
    their progress lines and ``by_label`` entries do."""
    runner = ExperimentRunner(scale="test", max_records=60000)
    jobs = FIGURES["fig10"].required_replays(runner)
    assert len(jobs) == 12
    assert len({job.label for job in jobs}) == 12
    assert ("host o3/water_nsquared on Intel_Xeon "
            "(hugepages=thp, max_records=60000)") \
        in {job.label for job in jobs}
