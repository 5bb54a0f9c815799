"""End-to-end sampled simulation: accuracy, determinism, caching."""

import dataclasses
import json

import pytest

from repro.exec import ExecutionEngine, G5Job, ResultCache
from repro.sample import SampleError, SampledJob, execute_sampled_job, \
    render_sample_report
from repro.sample.orchestrate import _REPORT_KEYS


@pytest.fixture(scope="module")
def sampled_payload():
    """One sampled O3 sieve run, shared by the accuracy tests."""
    job = SampledJob(workload="sieve", cpu_model="o3", scale="simsmall",
                    interval_insts=250, warmup_insts=1000, max_k=8)
    return job, execute_sampled_job(job)


@pytest.fixture(scope="module")
def full_ipc():
    """Ground truth: the uninterrupted detailed run's ROI IPC."""
    from repro.g5 import SimConfig, System, simulate
    from repro.workloads import get_workload

    program = get_workload("sieve").build("simsmall")
    system = System(SimConfig(cpu_model="o3", record=False))
    system.set_se_workload(program, process_name="sieve")
    result = simulate(system)
    return result.sim_insts / result.sim_cycles


def test_sampled_ipc_tracks_the_full_run(sampled_payload, full_ipc):
    _, payload = sampled_payload
    assert payload["exact"] is False
    sampled_ipc = payload["derived"]["ipc"]["value"]
    assert abs(sampled_ipc - full_ipc) / full_ipc < 0.10


def test_sampled_payload_shape(sampled_payload):
    job, payload = sampled_payload
    assert payload["kind"] == "sample"
    assert payload["profile"]["n_intervals"] > 1
    reps = payload["clusters"]["representatives"]
    assert 1 <= len(reps) <= job.max_k
    assert sum(r["weight"] for r in reps) == pytest.approx(1.0)
    # Fraction counts warmup instructions too, so it can exceed 1.0 on
    # short ROIs; it only has to be positive and consistent.
    assert payload["sampled_fraction"] > 0.0
    assert payload["detailed_insts"] < payload["profile"]["roi_insts"] \
        + len(reps) * (job.warmup_insts + job.interval_insts)
    for key in _REPORT_KEYS:
        assert key in payload["estimates"]
    # JSON-safe end to end.
    json.dumps(payload)


def test_same_seed_is_byte_identical(sampled_payload):
    job, payload = sampled_payload
    again = execute_sampled_job(SampledJob(**dataclasses.asdict(job)))
    assert json.dumps(again, sort_keys=True) \
        == json.dumps(payload, sort_keys=True)
    assert render_sample_report(again) == render_sample_report(payload)


def test_k_at_least_n_intervals_is_exact(full_ipc):
    job = SampledJob(workload="sieve", cpu_model="o3", scale="simsmall",
                    interval_insts=250, k=10_000)
    payload = execute_sampled_job(job)
    assert payload["exact"] is True
    assert payload["sampled_fraction"] == pytest.approx(1.0)
    for doc in payload["estimates"].values():
        assert doc["ci95"] == 0.0
    assert payload["derived"]["ipc"]["value"] == pytest.approx(full_ipc)


def test_fs_workload_rejected():
    with pytest.raises(SampleError, match="SE"):
        execute_sampled_job(SampledJob(workload="boot_exit"))


def test_run_sampled_hits_the_disk_cache(tmp_path):
    job = SampledJob(workload="sieve", cpu_model="timing", scale="test",
                    interval_insts=100, warmup_insts=200, max_k=4)
    cache = ResultCache(tmp_path / "cache")
    first_engine = ExecutionEngine(cache=cache)
    first = first_engine.run(job)
    assert first_engine.stats.executed == 1
    assert first_engine.stats.disk_hits == 0

    second_engine = ExecutionEngine(cache=ResultCache(tmp_path / "cache"))
    second = second_engine.run(job)
    assert second_engine.stats.executed == 0
    assert second_engine.stats.disk_hits == 1
    assert second == first


def test_sampled_job_key_is_distinct_from_g5(tmp_path):
    sample = SampledJob(workload="sieve", scale="test")
    full = G5Job(workload="sieve", cpu_model="o3", mode="se", scale="test")
    assert sample.cache_key().digest != full.cache_key().digest
    # And sensitive to every sampling knob.
    assert SampledJob(workload="sieve", scale="test", seed=1).cache_key() \
        != SampledJob(workload="sieve", scale="test", seed=2).cache_key()
