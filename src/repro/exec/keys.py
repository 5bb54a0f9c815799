"""Content-addressed cache keys for experiment artifacts.

A cached result is only reusable when *everything* that determined it is
unchanged.  One rule says what that is: a job's key is the SHA-256 of a
canonical JSON document holding its ``kind``, the code fingerprint of
that kind, and every dataclass field the job compares on (a field
declared ``compare=False`` travels with the job but never keys it).  A
knob added to a job class is therefore in its key by construction.

The code fingerprint hashes the source bytes of the packages whose
behaviour feeds the result, so editing any model invalidates exactly the
artifacts it can affect:

- ``g5``: :func:`sim_fingerprint` (``repro.events``, ``repro.g5``,
  ``repro.workloads``);
- ``host`` and ``spec`` replays: :func:`host_fingerprint` (those plus
  ``repro.host`` and ``repro.core``);
- ``sample`` and ``window``: :func:`sample_fingerprint` (the simulation
  packages plus ``repro.analysis``, the guest CFG that ``sample/bbv.py``
  reads, and ``repro.sample``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any

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
    #: the job's own label (what progress lines print); not hashed
    label: str = dataclasses.field(default="", compare=False)

    @property
    def short(self) -> str:
        return self.digest[:12]


def hash_document(kind: str, fields: dict) -> tuple[str, dict]:
    """``(digest, document)`` of ``{"schema", "kind", **fields}``, with
    ``fields`` canonicalised: the one hash behind every digest."""
    document = {"schema": KEY_SCHEMA_VERSION, "kind": kind,
                **canonical(fields)}
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), document


def _code_fingerprint(kind: str) -> str:
    # Looked up by module-level name at call time, so a wrapper set on
    # this module's attribute (a tracing profiler) sees every call.
    if kind == "g5":
        return sim_fingerprint()
    if kind in ("host", "spec"):
        return host_fingerprint()
    return sample_fingerprint()


def job_key(job: Any) -> CacheKey:
    """The key of ``job``: its kind, its kind's code fingerprint and
    every compared dataclass field."""
    kind = job.kind
    if kind not in KEY_KINDS:
        raise ValueError(f"unknown cache key kind {kind!r}")
    fields = {field.name: getattr(job, field.name)
              for field in dataclasses.fields(job) if field.compare}
    digest, document = hash_document(
        kind, {"code": _code_fingerprint(kind), **fields})
    return CacheKey(kind=kind, digest=digest, describe=document,
                    label=job.label)
