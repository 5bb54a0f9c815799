"""Host replays resolve through the runner's one memo and the engine.

Fig. 14's FireSim sweep used to bypass both; these tests pin that it is
now memoised and disk-cached like every other replay, that going
through the runner changed none of its numbers, and that a replay's g5
dependency is satisfied from the memo rather than the disk.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.report import Figure
from repro.exec import ResultCache
from repro.experiments import FIGURES
from repro.experiments.common import GEM5_CONFIGS
from repro.experiments.runner import ExperimentRunner
from repro.host.cpu import HostCPU, profile_g5_run
from repro.host.firesim import (FIG14_CONFIGS, FIRESIM_CLUSTER_SCALE,
                                config_label, platform_for)

FIG14 = FIGURES["fig14"]


@pytest.fixture
def replay_calls(monkeypatch):
    """Counts ``HostCPU.replay`` calls made while the test runs."""
    calls = []
    real = HostCPU.replay

    def counting(self, *args, **kwargs):
        calls.append(self.platform.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(HostCPU, "replay", counting)
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
