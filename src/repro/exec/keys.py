"""Content-addressed cache keys for experiment artifacts.

A cached result is only reusable when *everything* that determined it is
unchanged: the simulated-machine configuration, the workload build
parameters, the replay knobs, and the simulator code itself.  Each key
is the SHA-256 of a canonical JSON document naming all of those inputs;
the code contribution is a fingerprint over the source bytes of the
packages whose behaviour feeds the result, so editing any model
invalidates exactly the artifacts it can affect.

Two fingerprints are used:

- ``sim_fingerprint`` — ``repro.events`` + ``repro.g5`` +
  ``repro.workloads``: everything that determines a g5 simulation.
- ``host_fingerprint`` — the above plus ``repro.host`` + ``repro.core``:
  everything that additionally determines a host replay.
- ``sample_fingerprint`` — the simulation packages plus
  ``repro.analysis`` + ``repro.sample``: a sampled result additionally
  depends on the CFG block identification and the sampling pipeline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional

#: Bump when the key schema itself changes (forces a cold cache).
KEY_SCHEMA_VERSION = 1

#: Every entry kind a key can name; the cache CLI offers exactly these.
KEY_KINDS = ("g5", "host", "spec", "sample", "window")

#: Package directories (relative to the repro package root) hashed into
#: the simulation-side and host-side code fingerprints.
SIM_CODE_PACKAGES = ("events", "g5", "workloads")
HOST_CODE_PACKAGES = SIM_CODE_PACKAGES + ("host", "core")
SAMPLE_CODE_PACKAGES = SIM_CODE_PACKAGES + ("analysis", "sample")


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


@lru_cache(maxsize=None)
def _fingerprint(packages: tuple[str, ...]) -> str:
    """SHA-256 over the source bytes of the named repro subpackages."""
    digest = hashlib.sha256()
    root = _package_root()
    for package in packages:
        base = root / package
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def sim_fingerprint() -> str:
    """Code version of everything that determines a g5 simulation."""
    return _fingerprint(SIM_CODE_PACKAGES)


def host_fingerprint() -> str:
    """Code version of everything that determines a host replay."""
    return _fingerprint(HOST_CODE_PACKAGES)


def sample_fingerprint() -> str:
    """Code version of everything that determines a sampled simulation."""
    return _fingerprint(SAMPLE_CODE_PACKAGES)


def canonical(value: Any) -> Any:
    """Reduce a key component to JSON-encodable builtins, recursively.

    Dataclasses flatten to ``{"__type__": name, ...fields}`` so two
    different config types with identical fields never collide; enums
    reduce to their value.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        doc = {"__type__": type(value).__name__}
        for field in dataclasses.fields(value):
            doc[field.name] = canonical(getattr(value, field.name))
        return doc
    if hasattr(value, "value") and type(value).__module__ != "builtins":
        # Enum members (HugePagePolicy etc.).
        return canonical(value.value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for a "
                    f"cache key: {value!r}")


@dataclasses.dataclass(frozen=True)
class CacheKey:
    """A content hash plus the human-readable document it hashes."""

    kind: str                 # one of KEY_KINDS
    digest: str
    describe: dict

    @property
    def short(self) -> str:
        return self.digest[:12]


def _make_key(kind: str, document: dict) -> CacheKey:
    if kind not in KEY_KINDS:
        raise ValueError(f"unknown cache key kind {kind!r}")
    document = {"schema": KEY_SCHEMA_VERSION, "kind": kind,
                **canonical(document)}
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return CacheKey(kind=kind, digest=digest, describe=document)


def g5_key(workload: str, cpu_model: str, mode: str, scale: str,
           sim_config: Any = None, threads: int = 1) -> CacheKey:
    """Key of one g5 simulation result (stats + recorded trace).

    ``threads`` is the guest thread count the workload was built with;
    the simulated core count rides in through ``sim_config`` (the
    ``cores`` field of the canonicalised dataclass), so a 1-core and a
    4-core run of the same workload never share a digest.
    """
    return _make_key("g5", {
        "code": sim_fingerprint(),
        "workload": workload,
        "cpu_model": cpu_model,
        "mode": mode,
        "scale": scale,
        "threads": threads,
        "sim_config": sim_config,
    })


def host_key(g5: CacheKey, platform: Any, opt_level: int, hugepages: Any,
             contention: Any, layout_quality: float, roi_only: bool,
             max_records: Optional[int],
             cluster_scale: float = 1.0) -> CacheKey:
    """Key of one host replay of a g5 trace on one platform config."""
    return _make_key("host", {
        "code": host_fingerprint(),
        "g5": g5.digest,
        "g5_describe": g5.describe,
        "platform": platform,
        "opt_level": opt_level,
        "hugepages": hugepages,
        "contention": contention,
        "layout_quality": layout_quality,
        "roi_only": roi_only,
        "max_records": max_records,
        "cluster_scale": cluster_scale,
    })


def sample_key(workload: str, cpu_model: str, scale: str,
               interval_insts: int, warmup_insts: int, k: int,
               max_k: int, seed: int, mode: str = "se") -> CacheKey:
    """Key of one sampled-simulation payload (repro.sample)."""
    return _make_key("sample", {
        "code": sample_fingerprint(),
        "workload": workload,
        "cpu_model": cpu_model,
        "mode": mode,
        "scale": scale,
        "interval_insts": interval_insts,
        "warmup_insts": warmup_insts,
        "k": k,
        "max_k": max_k,
        "seed": seed,
    })


def window_key(workload: str, cpu_model: str, scale: str, interval: int,
               start_inst: int, length: int, pre_insts: int,
               ckpt_digest: str, mode: str = "se") -> CacheKey:
    """Key of one measured SimPoint window (repro.sample.parallel).

    The checkpoint *content* digest is part of the key — two windows at
    the same index whose restore points differ (different profile, an
    edited checkpoint, a changed functional model) must never share an
    entry, while two sampled jobs that plan the same window from the
    same state always do.
    """
    return _make_key("window", {
        "code": sample_fingerprint(),
        "workload": workload,
        "cpu_model": cpu_model,
        "mode": mode,
        "scale": scale,
        "interval": interval,
        "start_inst": start_inst,
        "length": length,
        "pre_insts": pre_insts,
        "ckpt_digest": ckpt_digest,
    })


def spec_key(spec_name: str, platform: Any, n_records: int) -> CacheKey:
    """Key of one SPEC synthetic replay on one platform."""
    return _make_key("spec", {
        "code": host_fingerprint(),
        "spec": spec_name,
        "platform": platform,
        "n_records": n_records,
    })
