"""Differential harness: pooled sampled runs vs a one-worker inline run.

The correctness bar for the window fan-out is absolute — a pooled
sampled run must serialize to the *byte-identical* JSON payload an
uncached one-worker engine (``execute_sampled_job``) produces for the
same seed, for every CPU model and workload; both sides end in
``measure_from_checkpoint``, one inline and one in pool workers.  These
tests pin that, plus the cache behaviour that makes the fan-out cheap
to repeat: each measured window lands as its own content-addressed
entry at every worker count, so a rerun (even after the whole-payload
entry is evicted) resolves every window from disk.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

import repro.exec.pool as pool_module
import repro.sample.orchestrate as orchestrate
from repro.exec import ExecutionEngine, G5Job, ProgressReporter, \
    ResultCache
from repro.g5.serialize import pack_sim_result
from repro.sample import SampledJob, execute_sampled_job

CPU_MODELS = ("atomic", "timing", "minor", "o3")
WORKLOADS = ("sieve", "fmm")


def quick_job(workload: str, cpu_model: str, **overrides) -> SampledJob:
    kwargs = dict(workload=workload, cpu_model=cpu_model, scale="test",
                  interval_insts=100, warmup_insts=200, max_k=4)
    kwargs.update(overrides)
    return SampledJob(**kwargs)


def fresh(job: SampledJob) -> SampledJob:
    """An equal job with no cached plan: whatever runs it plans anew."""
    return dataclasses.replace(job)


def payload_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("cpu_model", CPU_MODELS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_parallel_matches_sequential_byte_for_byte(tmp_path, workload,
                                                   cpu_model):
    job = quick_job(workload, cpu_model)
    sequential = execute_sampled_job(job)

    engine = ExecutionEngine(jobs=4, cache=ResultCache(tmp_path / "cache"))
    parallel = engine.run(fresh(job))

    assert payload_bytes(parallel) == payload_bytes(sequential)
    # The run really went through the fan-out, not the payload cache.
    assert engine.stats.disk_hits == 0
    assert engine.stats.windows_executed > 0 or parallel["exact"]


def test_per_window_entries_hit_on_rerun(tmp_path):
    job = quick_job("sieve", "o3")
    cache_dir = tmp_path / "cache"

    first = ExecutionEngine(jobs=4, cache=ResultCache(cache_dir))
    payload = first.run(job)
    assert payload["exact"] is False
    n_windows = len(payload["clusters"]["representatives"])
    assert first.stats.windows_executed == n_windows
    assert first.stats.window_hits == 0

    # Evict the whole-payload entry but keep the per-window entries: the
    # rerun re-plans (cheap) and resolves every window from disk.
    cache = ResultCache(cache_dir)
    assert cache.clear(kind="sample") == 1
    second = ExecutionEngine(jobs=4, cache=cache)
    again = second.run(fresh(job))
    assert payload_bytes(again) == payload_bytes(payload)
    assert second.stats.windows_executed == 0
    assert second.stats.window_hits == n_windows


def test_window_entries_are_listed_by_kind(tmp_path):
    job = quick_job("sieve", "timing")
    cache = ResultCache(tmp_path / "cache")
    engine = ExecutionEngine(jobs=4, cache=cache)
    payload = engine.run(job)

    kinds = [entry.kind for entry in cache.entries()]
    assert kinds.count("sample") == 1
    assert kinds.count("window") \
        == len(payload["clusters"]["representatives"])
    window_labels = [entry.label for entry in cache.entries()
                     if entry.kind == "window"]
    assert all(label.startswith("window:sieve/timing")
               for label in window_labels)


def test_single_worker_engine_counts_and_caches_windows(tmp_path):
    """jobs=1 is the same pipeline: per-window entries and counters."""
    job = quick_job("sieve", "timing")
    cache = ResultCache(tmp_path / "cache")
    engine = ExecutionEngine(jobs=1, cache=cache)
    payload = engine.run(job)
    assert payload_bytes(payload) \
        == payload_bytes(execute_sampled_job(fresh(job)))
    n_windows = len(payload["clusters"]["representatives"])
    assert engine.stats.executed == 1
    assert engine.stats.windows_executed == n_windows
    assert [e.kind for e in cache.entries()].count("window") == n_windows


@pytest.mark.parametrize("first_jobs, second_jobs", [(1, 4), (4, 1)])
def test_worker_counts_and_the_daemon_share_entries(tmp_path, first_jobs,
                                                    second_jobs):
    """jobs=1 == jobs=4 == served, off one set of per-window entries."""
    from repro.serve import ServeClient, ServeConfig, SimServer

    job = quick_job("sieve", "o3")
    cache_dir = tmp_path / "cache"
    first = ExecutionEngine(jobs=first_jobs, cache=ResultCache(cache_dir))
    payload = first.run(job)
    n_windows = len(payload["clusters"]["representatives"])
    assert first.stats.windows_executed == n_windows

    # The other worker count re-plans and finds every window on disk.
    assert ResultCache(cache_dir).clear(kind="sample") == 1
    second = ExecutionEngine(jobs=second_jobs, cache=ResultCache(cache_dir))
    assert payload_bytes(second.run(fresh(job))) == payload_bytes(payload)
    assert second.stats.windows_executed == 0
    assert second.stats.window_hits == n_windows

    # So does the daemon, whose served payload is the same bytes.
    assert ResultCache(cache_dir).clear(kind="sample") == 1
    server = SimServer(ServeConfig(port=0, workers=2,
                                   cache=ResultCache(cache_dir)))
    server.start()
    try:
        client = ServeClient(server.address, timeout=10.0)
        ack = client.submit_doc({
            "kind": "sample", "workload": job.workload,
            "cpu": job.cpu_model, "scale": job.scale,
            "interval_insts": job.interval_insts,
            "warmup_insts": job.warmup_insts, "max_k": job.max_k})
        assert client.wait(ack["id"], timeout=120.0)["state"] == "done"
        served = client.result(ack["id"])
        assert served["source"] == "executed"
        assert payload_bytes(served["result"]) == payload_bytes(payload)
        assert server.scheduler.stats.windows_executed == 0
        assert server.scheduler.stats.window_hits == n_windows
    finally:
        server.drain_and_stop()


def test_one_nested_batch_and_one_pool_for_a_mixed_batch(monkeypatch):
    """Two sampled jobs and a g5 job in one ``jobs=2`` resolve: every
    window resolves in the one nested batch, then the three outer jobs
    run, and no process pool is ever open inside another."""
    batches = []

    class Recording(ProgressReporter):
        def batch_start(self, total, hits, workers):
            batches.append(total)
            super().batch_start(total, hits, workers)

    pools = {"open": 0, "peak": 0}

    class CountingPool(pool_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.counted = True
            pools["open"] += 1
            pools["peak"] = max(pools["peak"], pools["open"])

        def shutdown(self, *args, **kwargs):
            if self.counted:
                self.counted = False
                pools["open"] -= 1
            super().shutdown(*args, **kwargs)

    plans = []
    real_plan = orchestrate.plan_sampled_job

    def counting_plan(job):
        plans.append(job)
        return real_plan(job)

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(orchestrate, "plan_sampled_job", counting_plan)
    sampled = [quick_job("sieve", "o3"), quick_job("sieve", "timing")]
    g5 = G5Job(workload="sieve", cpu_model="atomic", mode="se",
               scale="test")
    engine = ExecutionEngine(jobs=2,
                             progress=Recording(stream=io.StringIO()))
    resolved = engine.resolve(sampled + [g5])

    assert plans == sampled
    assert pools["peak"] == 1
    n_windows = sum(len(resolved[job].payload["clusters"]
                        ["representatives"]) for job in sampled)
    assert batches == [n_windows, 3]
    monkeypatch.undo()
    for job in sampled:
        assert payload_bytes(resolved[job].payload) \
            == payload_bytes(execute_sampled_job(fresh(job)))
    assert payload_bytes(resolved[g5].payload) \
        == payload_bytes(pack_sim_result(pool_module.execute_g5_job(g5)))
