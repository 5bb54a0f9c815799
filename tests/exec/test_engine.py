"""Integration tests for the execution engine's three resolution layers."""

import pytest

import io

from repro.exec import (ExecutionEngine, G5Job, ProgressReporter, ReplayJob,
                        ResultCache, costmodel)
from repro.host.platform import get_platform
from repro.g5.serialize import pack_sim_result

ATOMIC = G5Job("sieve", "atomic", "se", "test")
TIMING = G5Job("sieve", "timing", "se", "test")


def test_engine_rejects_zero_workers():
    with pytest.raises(ValueError):
        ExecutionEngine(jobs=0)


def test_uncached_run_executes(tmp_path):
    engine = ExecutionEngine()
    result = engine.run(ATOMIC)
    assert result.exit_cause == "target called exit()"
    assert engine.stats.executed == 1
    assert engine.stats.disk_hits == 0
    assert engine.stats.executed_seconds > 0
    assert ATOMIC.label in engine.stats.by_label


def test_second_engine_hits_the_disk_cache(tmp_path):
    cache = ResultCache(tmp_path)
    first = ExecutionEngine(cache=cache)
    cold = first.run(ATOMIC)
    assert first.stats.executed == 1

    second = ExecutionEngine(cache=cache)
    warm = second.run(ATOMIC)
    assert second.stats.executed == 0
    assert second.stats.disk_hits == 1
    assert pack_sim_result(warm) == pack_sim_result(cold)


def test_run_batch_collapses_duplicates(tmp_path):
    engine = ExecutionEngine(cache=ResultCache(tmp_path))
    results = engine.run_batch([ATOMIC, ATOMIC, ATOMIC])
    assert engine.stats.executed == 1
    assert set(results) == {ATOMIC}


def test_warm_batch_executes_nothing(tmp_path):
    cache = ResultCache(tmp_path)
    ExecutionEngine(cache=cache).run_batch([ATOMIC, TIMING])

    warm = ExecutionEngine(cache=cache)
    results = warm.run_batch([ATOMIC, TIMING])
    assert warm.stats.executed == 0
    assert warm.stats.disk_hits == 2
    assert set(results) == {ATOMIC, TIMING}
    assert warm.stats.as_dict()["g5_executed"] == 0


def test_parallel_batch_matches_serial(tmp_path):
    serial = ExecutionEngine(jobs=1)
    parallel = ExecutionEngine(jobs=2, cache=ResultCache(tmp_path))
    jobs = [ATOMIC, TIMING]
    serial_results = serial.run_batch(jobs)
    parallel_results = parallel.run_batch(jobs)
    assert parallel.stats.executed == 2
    for job in jobs:
        assert (pack_sim_result(parallel_results[job])
                == pack_sim_result(serial_results[job]))


def test_a_batch_leaves_nothing_but_entries_in_the_cache_dir(tmp_path):
    """Prices are static: an executed batch records no duration."""
    cache = ResultCache(tmp_path)
    ExecutionEngine(cache=cache).run_batch([ATOMIC, TIMING])
    assert sorted(path.name for path in tmp_path.iterdir()) == ["objects"]
    assert len(list(cache.entries())) == 2


def test_replays_report_one_line_each(tmp_path):
    """Resolved one at a time behind a memo, as the experiment runner
    does: an executed replay is one progress line; a memo or disk hit
    is none."""
    replays = [ReplayJob(ATOMIC, get_platform(name), max_records=2000)
               for name in ("Intel_Xeon", "M1_Pro", "M1_Ultra")]

    def campaign():
        stream = io.StringIO()
        engine = ExecutionEngine(cache=ResultCache(tmp_path), memo={},
                                 progress=ProgressReporter(stream))
        engine.run_batch([ATOMIC, TIMING])
        prefetch_lines = len(stream.getvalue().splitlines())
        for replay in replays + replays:          # second pass: memo
            engine.run(replay)
        return engine, stream.getvalue().splitlines()[prefetch_lines:]

    engine, lines = campaign()
    assert [line.rsplit(" (run, ", 1)[0] for line in lines] \
        == [f"[exec] {replay.label}" for replay in replays]
    assert engine.stats.executed == 2 and engine.stats.disk_hits == 0
    assert engine.stats.replays_executed == {"host": 3}

    warm, lines = campaign()
    assert lines == []
    assert warm.stats.replay_hits == {"host": 3}
    assert warm.stats.executed == 0 and not warm.stats.replays_executed


def xeon_replay(source: G5Job, platform: str = "Intel_Xeon") -> ReplayJob:
    return ReplayJob(source, get_platform(platform), max_records=2000)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_need_shared_by_three_jobs_and_listed_in_the_batch_runs_once(
        tmp_path, jobs):
    replays = [xeon_replay(ATOMIC, name)
               for name in ("Intel_Xeon", "M1_Pro", "M1_Ultra")]
    engine = ExecutionEngine(jobs=jobs, cache=ResultCache(tmp_path))

    results = engine.run_batch([*replays, ATOMIC])

    assert set(results) == {ATOMIC, *replays}
    assert engine.stats.executed == 1 and engine.stats.disk_hits == 0
    assert engine.stats.replays_executed == {"host": 3}
    assert results[ATOMIC].exit_cause == "target called exit()"


@pytest.mark.parametrize("where", ["memo", "disk"])
def test_a_need_answered_by_memo_or_disk_is_not_executed(tmp_path, where):
    cache = ResultCache(tmp_path)
    value = ExecutionEngine(cache=cache).run(ATOMIC)
    memo = {ATOMIC: value} if where == "memo" else {}
    engine = ExecutionEngine(cache=cache, memo=memo)

    engine.run(xeon_replay(ATOMIC))

    assert engine.stats.executed == 0
    assert engine.stats.disk_hits == (1 if where == "disk" else 0)
    assert engine.stats.replays_executed == {"host": 1}


def test_a_failing_need_raises_keeps_finished_needs_and_starts_no_dependant(
        tmp_path):
    """The bad need is priced cheapest, so the good one finishes
    first; neither replay starts once a need has failed."""
    bad = G5Job("no-such-workload", "atomic", "se", "test")
    cache = ResultCache(tmp_path)
    engine = ExecutionEngine(cache=cache)
    assert costmodel.schedule([bad, TIMING]) == [TIMING, bad]

    with pytest.raises(KeyError):
        engine.run_batch([xeon_replay(TIMING), xeon_replay(bad)])

    assert engine.stats.executed == 1
    assert not engine.stats.replays_executed
    assert [entry.digest for entry in cache.entries()] \
        == [TIMING.cache_key().digest]


def test_failed_fanout_keeps_completed_results_and_cancels_the_rest(
        tmp_path):
    """One completion batch holding a success and a failure: the success
    is stored and counted, the unstarted job is cancelled, the failure
    is what the caller sees."""
    from concurrent.futures import Future

    from repro.exec.pool import execute_job

    minor = G5Job("sieve", "minor", "se", "test")
    futures = {ATOMIC: Future(), TIMING: Future(), minor: Future()}
    futures[ATOMIC].set_result(execute_job(ATOMIC))
    futures[TIMING].set_exception(OSError("worker fell over"))
    cache = ResultCache(tmp_path)
    engine = ExecutionEngine(jobs=3, cache=cache, submit=futures.get)

    with pytest.raises(OSError, match="worker fell over"):
        engine.run_batch(list(futures))

    assert futures[minor].cancelled()
    assert engine.stats.executed == 1
    assert [entry.digest for entry in cache.entries()] \
        == [ATOMIC.cache_key().digest]
    assert ATOMIC.label in engine.stats.by_label


def test_a_job_failing_in_a_worker_leaves_the_finished_ones_cached(
        tmp_path):
    """Real pool: the bad job is predicted cheapest, so it starts last
    and fails after most of the batch has finished."""
    bad = G5Job("no-such-workload", "atomic", "se", "test")
    good = [TIMING, G5Job("sieve", "minor", "se", "test"),
            G5Job("sieve", "o3", "se", "test")]
    cache = ResultCache(tmp_path)
    engine = ExecutionEngine(jobs=2, cache=cache)

    with pytest.raises(KeyError):
        engine.run_batch(good + [bad])

    written = {entry.digest for entry in cache.entries()}
    assert engine.stats.executed == len(written) >= 1
    assert written <= {job.cache_key().digest for job in good}
    # What was written is servable: a rerun executes only the rest.
    rerun = ExecutionEngine(jobs=2, cache=cache)
    rerun.run_batch(good)
    assert rerun.stats.disk_hits == len(written)
    assert rerun.stats.executed == len(good) - len(written)
