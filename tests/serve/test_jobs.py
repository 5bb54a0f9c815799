"""Job request parsing, digests, and record documents."""

from __future__ import annotations

import pytest

from repro.exec.pool import G5Job
from repro.sample import SampledJob
from repro.serve.jobs import (JobRecord, JobRequestError,
                              parse_job_request)


def _g5_doc(**overrides) -> dict:
    doc = {"kind": "g5", "workload": "sieve", "cpu": "atomic",
           "scale": "test"}
    doc.update(overrides)
    return doc


def test_parse_g5_defaults_mode_from_registry():
    request = parse_job_request(_g5_doc())
    assert request.kind == "g5"
    assert request.g5.mode == "se"
    assert request.label == request.g5.label

    fs = parse_job_request(_g5_doc(workload="boot_exit"))
    assert fs.g5.mode == "fs"


def test_g5_digest_is_the_exec_cache_key():
    # Coalescing and the disk cache must agree about "identical".
    request = parse_job_request(_g5_doc())
    job = G5Job(workload="sieve", cpu_model="atomic", mode="se",
                scale="test")
    assert request.digest() == job.cache_key().digest


def test_digest_distinguishes_every_knob():
    base = parse_job_request(_g5_doc()).digest()
    assert parse_job_request(_g5_doc(cpu="o3")).digest() != base
    assert parse_job_request(_g5_doc(scale="simsmall")).digest() != base
    assert parse_job_request(_g5_doc(workload="fmm")).digest() != base


def test_figure_digest_stable_and_scale_sensitive():
    doc = {"kind": "figure", "figure": "fig3", "scale": "test"}
    first = parse_job_request(doc).digest()
    assert parse_job_request(doc).digest() == first
    other = parse_job_request({**doc, "scale": "simsmall"}).digest()
    assert other != first
    capped = parse_job_request({**doc, "max_records": 5000}).digest()
    assert capped != first


@pytest.mark.parametrize("doc", [
    "not a dict",
    {"kind": "teapot"},
    _g5_doc(workload="nonesuch"),
    _g5_doc(cpu="pentium"),
    _g5_doc(scale="simhuge"),
    _g5_doc(mode="afterburner"),
    {"kind": "figure", "figure": "fig99"},
    {"kind": "figure", "figure": "fig3", "max_records": 0},
    {"kind": "figure", "figure": "fig3", "max_records": "many"},
])
def test_invalid_documents_rejected(doc):
    with pytest.raises(JobRequestError):
        parse_job_request(doc)


def _sample_doc(**overrides) -> dict:
    doc = {"kind": "sample", "workload": "sieve", "scale": "test"}
    doc.update(overrides)
    return doc


def test_parse_sampled_via_kind_and_via_flag():
    by_kind = parse_job_request(_sample_doc())
    by_flag = parse_job_request(_g5_doc(sampled=True))
    assert by_kind.kind == by_flag.kind == "sample"
    # The flag path defaults cpu to the g5 doc's cpu; the kind path
    # defaults to o3 (sampling exists to make detailed models cheap).
    assert by_kind.sampled.cpu_model == "o3"
    assert by_flag.sampled.cpu_model == "atomic"
    assert by_kind.label == by_kind.sampled.label


def test_sampled_digest_is_the_sample_cache_key():
    request = parse_job_request(_sample_doc(cpu="o3", seed=99))
    job = SampledJob(workload="sieve", cpu_model="o3", scale="test",
                     seed=99)
    assert request.digest() == job.cache_key().digest
    assert request.digest() != parse_job_request(_sample_doc()).digest()


def test_sampled_describe_shape():
    request = parse_job_request(_sample_doc())
    doc = request.describe()
    assert doc["kind"] == "sample"
    defaults = SampledJob(workload="sieve")
    assert doc["interval_insts"] == defaults.interval_insts
    assert doc["warmup_insts"] == defaults.warmup_insts
    assert doc["seed"] == defaults.seed


@pytest.mark.parametrize("doc", [
    _sample_doc(workload="boot_exit"),          # FS mode
    _sample_doc(workload="nonesuch"),
    _sample_doc(cpu="pentium"),
    _sample_doc(scale="simhuge"),
    _sample_doc(interval_insts=0),
    _sample_doc(warmup_insts=-1),
    _sample_doc(max_k=0),
    _sample_doc(seed="lucky"),
    _sample_doc(seed=True),
])
def test_invalid_sampled_documents_rejected(doc):
    with pytest.raises(JobRequestError):
        parse_job_request(doc)


def test_status_doc_shape():
    request = parse_job_request(_g5_doc())
    record = JobRecord(id="j00000001", request=request,
                       digest=request.digest(), predicted_seconds=1.25)
    doc = record.status_doc()
    assert doc["id"] == "j00000001"
    assert doc["state"] == "queued"
    assert doc["request"] == {"kind": "g5", "workload": "sieve",
                              "cpu_model": "atomic", "mode": "se",
                              "scale": "test"}
    assert doc["predicted_seconds"] == 1.25
    assert doc["waiters"] == []
    assert not record.terminal


def test_g5_domains_default_stays_on_the_single_queue():
    request = parse_job_request(_g5_doc(cpu="timing"))
    assert request.g5.sim_config is None
    assert "domains" not in request.describe()


def test_sampled_doc_accepts_domains():
    request = parse_job_request(_sample_doc(domains=2))
    assert "domains" not in request.describe()
    assert request.digest() == parse_job_request(_sample_doc()).digest()


@pytest.mark.parametrize("doc", [
    _g5_doc(domains=2),
    _g5_doc(domains=0),
    _g5_doc(domains="two"),
    _g5_doc(domains=True),
    _sample_doc(domains=0),
])
def test_domains_field_is_ignored(doc):
    """``domains`` is no job field: like any unknown key it selects
    nothing, so the job is its twin without the key."""
    request = parse_job_request(doc)
    twin = parse_job_request({key: value for key, value in doc.items()
                              if key != "domains"})
    assert request.describe() == twin.describe()
    assert request.digest() == twin.digest()


@pytest.mark.parametrize("doc", [
    _g5_doc(workload={"kind": "g5"}),   # unhashable: must 400, not 500
    _sample_doc(workload=["sieve"]),
])
def test_non_string_workloads_rejected(doc):
    with pytest.raises(JobRequestError):
        parse_job_request(doc)
