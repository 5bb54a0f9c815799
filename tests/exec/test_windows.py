"""Per-window cache entries, checkpoint-digest keys, and fan-out.

Window jobs resolve through :meth:`ExecutionEngine.resolve` like every
other job kind; these tests drive it with a plan's windows directly.

The regression pinned here: a window's exec-cache key must cover the
*content* of the checkpoint it restores from, not just the window's
index — otherwise editing the checkpoint (or anything upstream that
changes the restored state) would serve a stale measurement.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import Future

import pytest

from repro.exec import ExecutionEngine, ResultCache, WindowsCancelled
from repro.sample import SampledJob, checkpoint_digest, plan_sampled_job
from repro.sample.parallel import unpack_measurement


def resolve_windows(plan, *, jobs=1, cache=None, stop=None):
    """Resolve a plan's windows on a fresh engine.

    Returns ``(measurements in plan order, engine stats)``.
    """
    engine = ExecutionEngine(jobs=jobs, cache=cache)
    windows = plan.window_jobs()
    resolved = engine.resolve(windows, stop)
    return [resolved[window].value for window in windows], engine.stats


def stopped() -> Future:
    """A ``stop`` future that has already settled."""
    stop = Future()
    stop.set_result(None)
    return stop


@pytest.fixture(scope="module")
def plan():
    job = SampledJob(workload="sieve", cpu_model="timing", scale="test",
                     interval_insts=100, warmup_insts=200, max_k=4)
    plan = plan_sampled_job(job)
    assert not plan.exact and len(plan.windows) >= 2
    return plan


def tampered(plan):
    """A copy of ``plan`` with one checkpoint page byte flipped."""
    victim = plan.windows[0].warm_start
    checkpoint = plan.checkpoints[victim]
    page_num = next(iter(sorted(checkpoint.pages)))
    raw = bytearray(checkpoint.pages[page_num])
    raw[0] ^= 0xFF
    edited = dataclasses.replace(
        checkpoint, pages={**checkpoint.pages, page_num: bytes(raw)})
    checkpoints = {**plan.checkpoints, victim: edited}
    digests = {ws: checkpoint_digest(ckpt)
               for ws, ckpt in checkpoints.items()}
    return dataclasses.replace(plan, checkpoints=checkpoints,
                               digests=digests)


def test_editing_a_checkpoint_changes_the_digest_and_key(plan):
    edited = tampered(plan)
    victim = plan.windows[0].warm_start
    assert edited.digests[victim] != plan.digests[victim]
    # Untouched checkpoints keep their digests (and so their entries).
    for ws in plan.digests:
        if ws != victim:
            assert edited.digests[ws] == plan.digests[ws]
    before = plan.window_jobs()[0].cache_key()
    after = edited.window_jobs()[0].cache_key()
    assert before.digest != after.digest


def test_edited_checkpoint_is_a_cache_miss(tmp_path, plan):
    """The regression: same window index, edited checkpoint, must miss."""
    cache = ResultCache(tmp_path / "cache")
    _, stats = resolve_windows(plan, cache=cache)
    assert stats.windows_executed == len(plan.windows)

    # Same plan again: every window is a pure disk hit.
    _, warm = resolve_windows(plan, cache=cache)
    assert warm.windows_executed == 0
    assert warm.window_hits == len(plan.windows)

    # Edited checkpoint: only the windows it feeds re-execute.
    edited = tampered(plan)
    victim = plan.windows[0].warm_start
    affected = sum(1 for w in edited.windows if w.warm_start == victim)
    _, cold = resolve_windows(edited, cache=cache)
    assert cold.windows_executed == affected
    assert cold.window_hits == len(plan.windows) - affected


def test_pool_and_inline_fanout_agree(tmp_path, plan):
    inline, _ = resolve_windows(plan, jobs=1)
    pooled, _ = resolve_windows(plan, jobs=4)
    assert pooled == inline
    # Plan order, regardless of completion order.
    assert [m.interval for m in pooled] \
        == [w.interval for w in plan.windows]


def test_cached_measurements_roundtrip_exactly(tmp_path, plan):
    cache = ResultCache(tmp_path / "cache")
    executed, _ = resolve_windows(plan, cache=cache)
    for wjob, measurement in zip(plan.window_jobs(), executed):
        assert unpack_measurement(cache.get(wjob.cache_key())) \
            == measurement


def test_abort_before_any_window_cancels_everything(plan):
    with pytest.raises(WindowsCancelled) as exc:
        resolve_windows(plan, stop=stopped())
    assert exc.value.completed == 0
    assert exc.value.cancelled == len(plan.windows)
    assert "cancelled: " in str(exc.value)


def test_abort_mid_fanout_reports_progress(tmp_path, plan):
    # The stop settles as soon as the first window is stored.
    cache = ResultCache(tmp_path / "cache")
    real_put = cache.put
    stop = Future()

    def put_then_stop(key, payload):
        real_put(key, payload)
        stop.set_result(None)

    cache.put = put_then_stop
    with pytest.raises(WindowsCancelled) as exc:
        resolve_windows(plan, cache=cache, stop=stop)
    assert exc.value.completed == 1
    assert exc.value.cancelled == len(plan.windows) - 1


def test_abort_skips_cache_hits_already_resolved(tmp_path, plan):
    cache = ResultCache(tmp_path / "cache")
    resolve_windows(plan, cache=cache)
    # Everything is cached: an immediately-aborting run still succeeds
    # for hits, and only the (empty) execution stage can be cancelled.
    measurements, _ = resolve_windows(plan, cache=cache, stop=stopped())
    assert len(measurements) == len(plan.windows)
