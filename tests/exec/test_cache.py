"""Unit tests for the on-disk result cache."""

import pickle

from repro.exec.cache import ENVELOPE_VERSION, ResultCache, default_cache_dir
from repro.exec.pool import G5Job
from repro.exec.replay import ReplayJob, SpecTrace
from repro.host.platform import get_platform


def _key(workload="sieve", cpu="atomic"):
    return G5Job(workload, cpu, "se", "test").cache_key()


def test_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    key = _key()
    assert cache.get(key) is None
    assert key not in cache
    cache.put(key, {"answer": 42})
    assert key in cache
    assert cache.get(key) == {"answer": 42}


def test_corrupt_entry_is_a_miss_and_is_deleted(tmp_path):
    cache = ResultCache(tmp_path)
    key = _key()
    cache.put(key, {"answer": 42})
    path = cache._path(key.digest)
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is None
    assert not path.exists()          # self-healing: the entry is gone
    assert cache.get(key) is None     # and stays a plain miss


def test_wrong_envelope_version_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = _key()
    cache.put(key, {"answer": 42})
    path = cache._path(key.digest)
    with open(path, "rb") as handle:
        envelope = pickle.load(handle)
    envelope["version"] = ENVELOPE_VERSION + 1
    with open(path, "wb") as handle:
        pickle.dump(envelope, handle)
    assert cache.get(key) is None
    assert not path.exists()


def test_digest_mismatch_is_a_miss(tmp_path):
    # An entry stored under the wrong filename must not be served.
    cache = ResultCache(tmp_path)
    key, other = _key(), _key(cpu="o3")
    cache.put(key, {"answer": 42})
    wrong = cache._path(other.digest)
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_bytes(cache._path(key.digest).read_bytes())
    assert cache.get(other) is None


def test_no_temp_files_left_behind(tmp_path):
    cache = ResultCache(tmp_path)
    for cpu in ("atomic", "timing", "minor", "o3"):
        cache.put(_key(cpu=cpu), {"cpu": cpu})
    assert not list(tmp_path.rglob("*.tmp"))


def test_entries_stats_and_clear_by_kind(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(_key(), {"a": 1})
    cache.put(_key(cpu="o3"), {"b": 2})
    platform = get_platform("Intel_Xeon")
    cache.put(ReplayJob(SpecTrace("505.mcf_r", 100), platform).cache_key(),
              {"c": 3})

    entries = list(cache.entries())
    assert len(entries) == 3
    assert {e.kind for e in entries} == {"g5", "spec"}
    assert all(e.size_bytes > 0 for e in entries)
    labels = {e.label for e in entries}
    assert "atomic/sieve (se, test)" in labels
    assert "spec 505.mcf_r on Intel_Xeon" in labels

    stats = cache.stats()
    assert stats["entries"] == 3
    assert stats["g5"] == 2 and stats["spec"] == 1
    assert stats["total_bytes"] > 0

    assert cache.clear(kind="g5") == 2
    assert cache.stats()["entries"] == 1
    assert cache.clear() == 1
    assert cache.stats()["entries"] == 0


def test_an_entry_missing_an_envelope_field_is_skipped(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(_key(), {"a": 1})
    cache.put(_key(cpu="o3"), {"b": 2})
    path = cache._path(_key().digest)
    with open(path, "rb") as handle:
        envelope = pickle.load(handle)
    del envelope["kind"]               # still the current version
    with open(path, "wb") as handle:
        pickle.dump(envelope, handle)

    assert [e.digest for e in cache.entries()] == [_key(cpu="o3").digest]
    assert cache.stats()["entries"] == 1


def test_an_entry_deleted_mid_scan_is_skipped(tmp_path, monkeypatch):
    """A concurrent prune can unlink an entry between its load and its
    stat: the scan skips it."""
    cache = ResultCache(tmp_path)
    cache.put(_key(), {"a": 1})
    cache.put(_key(cpu="o3"), {"b": 2})
    victim = cache._path(_key().digest)
    real_load = pickle.load

    def load_then_prune(handle):
        envelope = real_load(handle)
        if handle.name == str(victim):
            victim.unlink()
        return envelope

    monkeypatch.setattr(pickle, "load", load_then_prune)
    assert [e.digest for e in cache.entries()] == [_key(cpu="o3").digest]
    assert cache.stats()["entries"] == 1


def test_empty_cache_operations(tmp_path):
    cache = ResultCache(tmp_path / "never-created")
    assert list(cache.entries()) == []
    assert cache.stats()["entries"] == 0
    assert cache.clear() == 0


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro-g5"


def test_prune_evicts_oldest_first(tmp_path):
    import os

    cache = ResultCache(tmp_path)
    keys = [_key(cpu=cpu) for cpu in ("atomic", "timing", "minor", "o3")]
    for index, key in enumerate(keys):
        cache.put(key, {"payload": "x" * 64, "i": index})
        # Pin mtimes so "oldest" is unambiguous regardless of fs
        # timestamp granularity.
        os.utime(cache._path(key.digest), (1000 + index, 1000 + index))

    sizes = [cache._path(k.digest).stat().st_size for k in keys]
    keep_two = sizes[2] + sizes[3]
    removed, freed = cache.prune(keep_two)
    assert removed == 2
    assert freed == sizes[0] + sizes[1]
    assert cache.get(keys[0]) is None
    assert cache.get(keys[1]) is None
    assert cache.get(keys[2]) is not None
    assert cache.get(keys[3]) is not None


def test_prune_is_a_noop_under_the_cap(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(_key(), {"a": 1})
    assert cache.prune(10 * 1024 * 1024) == (0, 0)
    assert cache.get(_key()) is not None


def test_prune_to_zero_clears_everything(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(_key(), {"a": 1})
    cache.put(_key(cpu="o3"), {"b": 2})
    removed, freed = cache.prune(0)
    assert removed == 2
    assert freed > 0
    assert cache.stats()["entries"] == 0


def test_prune_rejects_negative_and_tolerates_missing_dir(tmp_path):
    cache = ResultCache(tmp_path / "never-created")
    assert cache.prune(0) == (0, 0)
    try:
        cache.prune(-1)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("negative max_bytes must raise")
