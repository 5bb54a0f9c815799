"""Unit tests for content-addressed cache keys."""

import dataclasses
import enum
from dataclasses import dataclass

import pytest

from repro.exec.keys import (KEY_KINDS, CacheKey, canonical,
                             host_fingerprint, job_key, sim_fingerprint)
from repro.exec.pool import G5Job
from repro.exec.replay import ReplayJob, SpecTrace
from repro.g5.system import SimConfig
from repro.host.corun import Contention
from repro.host.hugepages import HugePagePolicy
from repro.host.platform import get_platform
from repro.sample.orchestrate import SampledJob
from repro.sample.parallel import WindowJob

XEON = get_platform("Intel_Xeon")
SIEVE = G5Job("sieve", "o3", "se", "test")

#: Every replay knob with a value other than its default.
REPLAY_KNOBS = [("platform", get_platform("M1_Pro")),
                ("opt_level", 3),
                ("hugepages", HugePagePolicy.THP),
                ("contention", Contention(n_processes=2,
                                          llc_evict_fraction=0.5)),
                ("layout_quality", 0.5),
                ("roi_only", True),
                ("max_records", 500),
                ("cluster_scale", 2.0)]

#: Per kind: a job, and changes that together touch every compared field.
VARIANTS = {
    "g5": (SIEVE, [
        ("workload", "dedup"), ("cpu_model", "atomic"), ("mode", "fs"),
        ("scale", "simsmall"),
        ("sim_config", SimConfig(cpu_model="o3", cpu_clock_ghz=4.0)),
        ("sim_config", SimConfig(cpu_model="timing", cores=4)),
        ("threads", 4)]),
    "host": (ReplayJob(SIEVE, XEON), [
        ("source", G5Job("dedup", "o3", "se", "test")),
        ("source", G5Job("sieve", "o3", "se", "simsmall")),
        *REPLAY_KNOBS]),
    "spec": (ReplayJob(SpecTrace("505.mcf_r", 4000), XEON), [
        ("source", SpecTrace("525.x264_r", 4000)),
        ("source", SpecTrace("505.mcf_r", 8000)),
        *REPLAY_KNOBS]),
    "sample": (SampledJob("sieve", "atomic", "test", 100, 200, 2, 4, 0), [
        ("workload", "fmm"), ("cpu_model", "o3"), ("scale", "simsmall"),
        ("interval_insts", 200), ("warmup_insts", 100), ("k", 3),
        ("max_k", 5), ("seed", 1), ("mode", "fs")]),
    "window": (WindowJob("sieve", "o3", "test", interval=3, start_inst=500,
                         length=100, pre_insts=200, ckpt_digest="a" * 64), [
        ("workload", "fmm"), ("cpu_model", "minor"), ("scale", "simsmall"),
        ("interval", 4), ("start_inst", 600), ("length", 50),
        ("pre_insts", 100), ("ckpt_digest", "b" * 64), ("mode", "fs")]),
}


def test_g5_key_is_deterministic():
    a = G5Job("sieve", "o3", "se", "test").cache_key()
    b = G5Job("sieve", "o3", "se", "test").cache_key()
    assert a == b
    assert a.kind == "g5"
    assert len(a.digest) == 64
    assert a.short == a.digest[:12]


@pytest.mark.parametrize("kind", KEY_KINDS)
def test_every_compared_field_keys_the_job(kind):
    base, changes = VARIANTS[kind]
    key = base.cache_key()
    assert key == job_key(base) == dataclasses.replace(base).cache_key()
    assert key.kind == kind and key.label == base.label
    compared = {field.name for field in dataclasses.fields(base)
                if field.compare}
    assert {name for name, _ in changes} == compared
    for name, value in changes:
        changed = dataclasses.replace(base, **{name: value}).cache_key()
        assert changed.digest != key.digest, (name, value)


def test_a_window_checkpoint_does_not_key_it():
    window, _ = VARIANTS["window"]
    carried = dataclasses.replace(window, checkpoint=object())
    assert carried.cache_key().digest == window.cache_key().digest


def test_a_kind_outside_key_kinds_is_rejected():
    @dataclass(frozen=True)
    class LintJob:
        relpath: str
        kind = "lint"
        label = "lint a.py"

    with pytest.raises(ValueError, match="unknown cache key kind"):
        job_key(LintJob("a.py"))


def test_custom_sim_config_changes_the_key():
    base = SIEVE.cache_key()
    custom = G5Job("sieve", "o3", "se", "test",
                   SimConfig(cpu_model="o3", cpu_clock_ghz=4.0)).cache_key()
    assert custom.digest != base.digest
    # ...and the config is readable in the key document.
    assert custom.describe["sim_config"]["cpu_clock_ghz"] == 4.0


def test_canonical_reduces_dataclasses_and_enums():
    class Color(enum.Enum):
        RED = "red"

    @dataclass(frozen=True)
    class Point:
        x: int
        y: int

    doc = canonical({"p": Point(1, 2), "c": Color.RED,
                     "seq": (1, 2), "none": None})
    assert doc == {"p": {"__type__": "Point", "x": 1, "y": 2},
                   "c": "red", "seq": [1, 2], "none": None}


def test_canonical_rejects_opaque_objects():
    with pytest.raises(TypeError):
        canonical(object())


def test_fingerprints_are_stable_and_distinct():
    assert sim_fingerprint() == sim_fingerprint()
    # The host fingerprint covers strictly more code.
    assert host_fingerprint() != sim_fingerprint()


def test_cache_key_short_digest():
    key = G5Job("sieve", "atomic", "se", "test").cache_key()
    assert isinstance(key, CacheKey)
    assert len(key.short) == 12 and key.digest.startswith(key.short)
