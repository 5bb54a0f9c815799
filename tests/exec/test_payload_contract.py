"""The stored-payload contract, for every job kind and both owners.

A cache entry is only as good as its payload: an entry filed under the
right digest whose payload carries the wrong ``format`` or ``kind`` must
be a miss that re-executes (and is overwritten) — never a served
result.  The rule is each job kind's ``decode``; the CLI engine and the
serve scheduler both reach it through ``ExecutionEngine.resolve``.
"""

from __future__ import annotations

import json

import pytest

from repro.exec import (ExecutionEngine, G5Job, ReplayJob, ResultCache,
                        SpecTrace)
from repro.g5.serialize import unpack_sim_result
from repro.host.platform import get_platform
from repro.sample import SampledJob, plan_sampled_job
from repro.serve.jobs import JobRecord, JobRequest
from repro.serve.queue import JobQueue
from repro.serve.scheduler import Scheduler

G5 = G5Job("sieve", "atomic", "se", "test")
SAMPLED = SampledJob(workload="sieve", cpu_model="timing", scale="test",
                     interval_insts=100, warmup_insts=200, max_k=4)
REPLAYS = {
    "host": ReplayJob(G5, get_platform("Intel_Xeon"), max_records=4000),
    "spec": ReplayJob(SpecTrace("505.mcf_r", 2000),
                      get_platform("Intel_Xeon")),
}


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def resolve_with_engine(cache, job):
    engine = ExecutionEngine(cache=cache)
    resolved = engine.resolve([job])[job]
    return resolved.payload, resolved.source, engine.stats


def resolve_with_scheduler(cache, job):
    queue = JobQueue()
    scheduler = Scheduler(queue, cache=cache, workers=1)
    if isinstance(job, G5Job):
        request = JobRequest(kind="g5", g5=job)
    else:
        request = JobRequest(kind="sample", sampled=job)
    record = queue.submit(JobRecord(id=queue.next_id(), request=request,
                                    digest=request.digest()))
    try:
        scheduler._resolve(queue.claim_next(timeout=1.0))
    finally:
        scheduler.stop()
    assert record.state == "done", record.error
    # The scheduler keeps a result as its JSON text.
    return json.loads(record.result), record.source, scheduler.stats


OWNERS = {"engine": resolve_with_engine, "scheduler": resolve_with_scheduler}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Good payloads per kind, from one warm cache directory."""
    cache = ResultCache(tmp_path_factory.mktemp("reference"))
    engine = ExecutionEngine(cache=cache)
    window = plan_sampled_job(SAMPLED).window_jobs()[0]
    return {
        "g5": (G5, engine.resolve([G5])[G5].payload),
        "sample": (SAMPLED, engine.resolve([SAMPLED])[SAMPLED].payload),
        "window": (window, cache.get(window.cache_key())),
        **{kind: (job, engine.run(job)) for kind, job in REPLAYS.items()},
    }


@pytest.mark.parametrize("owner", sorted(OWNERS))
@pytest.mark.parametrize("kind, poison", [
    ("g5", {"format": 99}),
    ("sample", {"format": 99}),
    ("sample", {"kind": "window"}),
    ("window", {"format": 99}),
    ("window", {"kind": "sample"}),
])
def test_wrong_format_or_kind_is_a_miss_that_reexecutes(
        tmp_path, reference, owner, kind, poison):
    job, good = reference[kind]
    cache = ResultCache(tmp_path / "cache")
    cache.put(job.cache_key(), {**good, **poison})

    # Windows are reached through their sampled job.
    submitted = SAMPLED if kind == "window" else job
    payload, source, stats = OWNERS[owner](cache, submitted)

    assert source == "executed"
    assert stats.disk_hits == 0 and stats.window_hits == 0
    assert canonical(payload) == canonical(reference[
        "sample" if kind == "window" else kind][1])
    # The bad entry was replaced by the re-executed payload.
    assert canonical(cache.get(job.cache_key())) == canonical(good)


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_a_good_entry_is_served_from_disk(tmp_path, reference, owner):
    cache = ResultCache(tmp_path / "cache")
    for kind in ("g5", "sample"):
        job, good = reference[kind]
        cache.put(job.cache_key(), good)
        payload, source, stats = OWNERS[owner](cache, job)
        assert source == "disk-cache"
        assert stats.executed == 0
        assert canonical(payload) == canonical(good)


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_a_version_1_trace_entry_is_recomputed_once(tmp_path, reference,
                                                   owner):
    # Version 1 carried the trace columns as JSON lists of ints; no
    # reader for it is kept, so an old entry is a miss, and its
    # replacement is served from disk from then on.
    _, good = reference["g5"]
    recorder = unpack_sim_result(good).recorder
    old = {**good, "format": 1, "recorder": {
        **good["recorder"], "format": 1,
        "trace_fns": list(recorder.trace_fns),
        "trace_daddrs": list(recorder.trace_daddrs)}}
    cache = ResultCache(tmp_path / "cache")
    cache.put(G5.cache_key(), old)

    payload, source, stats = OWNERS[owner](cache, G5)
    assert (source, stats.executed, stats.disk_hits) == ("executed", 1, 0)
    assert canonical(payload) == canonical(good)
    assert canonical(cache.get(G5.cache_key())) == canonical(good)

    rerun = ExecutionEngine(cache=cache)
    assert rerun.resolve([G5])[G5].source == "disk-cache"
    assert rerun.stats.executed == 0


# ----------------------------------------------------------------------
# host replays: the stored payload is the HostRunResult itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(REPLAYS))
@pytest.mark.parametrize("poison", ["g5-payload", "dict", "none-result"])
def test_a_replay_key_holding_anything_else_is_recomputed(
        tmp_path, reference, kind, poison):
    job, good = reference[kind]
    bad = {"g5-payload": reference["g5"][1],
           "dict": {"kind": kind, "time_seconds": 1.0},
           "none-result": [None]}[poison]
    cache = ResultCache(tmp_path / "cache")
    cache.put(job.cache_key(), bad)

    engine = ExecutionEngine(cache=cache)
    resolved = engine.resolve([job])[job]

    assert resolved.source == "executed"
    assert resolved.value == good
    assert not engine.stats.replay_hits
    assert engine.stats.replays_executed == {kind: 1}
    # Replays are not simulations: only the host job's g5 run counts.
    assert engine.stats.executed == (1 if kind == "host" else 0)
    # The bad entry was replaced, and what replaced it is servable.
    assert cache.get(job.cache_key()) == good
    rerun = ExecutionEngine(cache=cache)
    assert rerun.resolve([job])[job] == (good, good, "disk-cache")
    assert rerun.stats.replay_hits == {kind: 1}
    assert not rerun.stats.replays_executed and rerun.stats.executed == 0


def test_a_replay_whose_g5_entry_is_unusable_reruns_the_simulation(
        tmp_path, reference):
    job, good = reference["host"]
    cache = ResultCache(tmp_path / "cache")
    cache.put(G5.cache_key(), {**reference["g5"][1], "format": 99})

    engine = ExecutionEngine(cache=cache)
    assert engine.run(job) == good

    assert engine.stats.executed == 1 and engine.stats.disk_hits == 0
    assert engine.stats.replays_executed == {"host": 1}
    assert canonical(cache.get(G5.cache_key())) \
        == canonical(reference["g5"][1])
