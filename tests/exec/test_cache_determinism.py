"""Satellite: caching never changes results.

A cold run, an in-memory-cached (memoised) run, and a disk-cached run of
the same configuration must produce bit-identical stats dumps and
traces.  This is the contract that makes the disk cache safe to use for
figure regeneration: a warm rerun is indistinguishable from a cold one.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro
from repro.exec import ExecutionEngine, G5Job, ResultCache
from repro.experiments.runner import ExperimentRunner
from repro.g5.serialize import pack_sim_result

JOB = G5Job("sieve", "timing", "se", "test")


def _stats_dump(result) -> str:
    """A gem5-style textual stats dump, bit-comparable."""
    return "\n".join(f"{name} {result.stats[name]!r}"
                     for name in sorted(result.stats))


def _trace_bytes(result) -> bytes:
    return pickle.dumps(
        (result.recorder.trace_fns, result.recorder.trace_daddrs,
         result.recorder.fn_names), protocol=4)


def test_cold_memo_and_disk_runs_are_bit_identical(tmp_path):
    cache = ResultCache(tmp_path)

    # Layer 3: cold — a fresh engine with no cache at all.
    cold = ExecutionEngine().run(JOB)

    # Layer 1: in-memory memo — the same runner asked twice returns the
    # memoised object, which must match the cold run bit for bit.
    runner = ExperimentRunner(scale="test", cache=cache)
    memo_first = runner.g5_result(JOB.workload, JOB.cpu_model, JOB.mode)
    memo_second = runner.g5_result(JOB.workload, JOB.cpu_model, JOB.mode)
    assert memo_second is memo_first           # served from the memo
    assert runner.cache_stats()["g5_executed"] == 1

    # Layer 2: disk — a brand-new runner on the same cache directory
    # must rebuild the result from disk without executing anything.
    warm_runner = ExperimentRunner(scale="test", cache=cache)
    disk = warm_runner.g5_result(JOB.workload, JOB.cpu_model, JOB.mode)
    stats = warm_runner.cache_stats()
    assert stats["g5_executed"] == 0
    assert stats["g5_disk_hits"] == 1

    for result in (memo_first, disk):
        assert _stats_dump(result) == _stats_dump(cold)
        assert _trace_bytes(result) == _trace_bytes(cold)
        assert result.exit_code == cold.exit_code
        assert result.console == cold.console
        # The packed (cache value / pool transport) form is identical
        # too, so re-caching a disk-loaded result is a no-op.
        assert pickle.dumps(pack_sim_result(result), protocol=4) \
            == pickle.dumps(pack_sim_result(cold), protocol=4)


def test_host_replays_survive_the_disk_cache_unchanged(tmp_path):
    cache = ResultCache(tmp_path)
    cold_runner = ExperimentRunner(scale="test", max_records=20000,
                                   cache=cache)
    cold = cold_runner.host_result("sieve", "timing", "Intel_Xeon")

    warm_runner = ExperimentRunner(scale="test", max_records=20000,
                                   cache=cache)
    warm = warm_runner.host_result("sieve", "timing", "Intel_Xeon")
    stats = warm_runner.cache_stats()
    assert stats["g5_executed"] == 0       # not even the g5 run reran
    assert stats["host_disk_hits"] == 1
    assert pickle.dumps(warm, protocol=4) == pickle.dumps(cold, protocol=4)


def test_spec_replays_survive_the_disk_cache_unchanged(tmp_path):
    cache = ResultCache(tmp_path)
    cold = ExperimentRunner(scale="test", spec_records=2000,
                            cache=cache).spec_result("505.mcf_r",
                                                     "Intel_Xeon")
    warm_runner = ExperimentRunner(scale="test", spec_records=2000,
                                   cache=cache)
    warm = warm_runner.spec_result("505.mcf_r", "Intel_Xeon")
    assert warm_runner.cache_stats()["spec_disk_hits"] == 1
    assert pickle.dumps(warm, protocol=4) == pickle.dumps(cold, protocol=4)


#: Run in a fresh interpreter: writes what the cache stores for a g5 job
#: and for its Xeon replay into the directory named by ``argv[1]``.
_STORED_BYTES = """
import json, pickle, sys
from pathlib import Path
from repro.exec import G5Job, ReplayJob
from repro.host.platform import get_platform

out = Path(sys.argv[1])
job = G5Job("sieve", "atomic", "se", "test")
packed = job.execute()
replay = ReplayJob(job, get_platform("Intel_Xeon"))
payload = replay.execute(job.decode(packed))
out.joinpath("g5.key").write_text(job.cache_key().digest)
out.joinpath("g5.json").write_text(json.dumps(packed, sort_keys=True))
out.joinpath("host.key").write_text(replay.cache_key().digest)
out.joinpath("host.pickle").write_bytes(pickle.dumps(payload, protocol=4))
"""


def test_stored_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Keys and payloads are the same bytes under any ``PYTHONHASHSEED``
    (str hashing, and so set order, changes with it)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = {}
    for seed in ("0", "12345"):
        out = tmp_path / seed
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        runs[seed] = (out, subprocess.Popen(
            [sys.executable, "-c", _STORED_BYTES, str(out)], env=env))
    for out, child in runs.values():
        assert child.wait(timeout=120) == 0
    (first, _), (second, _) = runs.values()
    for name in ("g5.key", "g5.json", "host.key", "host.pickle"):
        assert first.joinpath(name).read_bytes() \
            == second.joinpath(name).read_bytes(), name
