"""Content-addressed on-disk result cache.

Layout (under the cache root, default ``~/.cache/repro-g5`` or
``$REPRO_CACHE_DIR``)::

    objects/<digest[:2]>/<digest>.pkl    # one pickled envelope per entry

Each envelope records the entry kind (``g5`` / ``host`` / ``spec`` /
``sample`` / ``window``), the human-readable key document, the job's
label, and the payload.  Writes are atomic
(temp file + ``os.replace``) so a crashed run can never leave a partial
entry behind; unreadable or wrong-format entries are treated as misses
and deleted, which doubles as the format-migration path.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from .keys import CacheKey

#: Envelope format version; entries with any other version are misses.
ENVELOPE_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-g5``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-g5"


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see the old file or the new
    one, never a torn one (temp file in the same directory, then
    ``os.replace``); a failed write leaves no temp file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class CacheEntry:
    """One stored result, as listed by ``repro-g5 cache list``."""

    digest: str
    kind: str
    describe: dict
    size_bytes: int
    #: the job's label; empty in an envelope written before the cache
    #: stored labels
    label: str = ""


class ResultCache:
    """Content-addressed pickle store with atomic writes."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._objects = self.root / "objects"

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # store / fetch
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[object]:
        """The stored payload for ``key``, or None on any kind of miss."""
        path = self._path(key.digest)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt or unreadable entry: drop it and report a miss.
            path.unlink(missing_ok=True)
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("version") != ENVELOPE_VERSION
                or envelope.get("digest") != key.digest):
            path.unlink(missing_ok=True)
            return None
        return envelope["payload"]

    def put(self, key: CacheKey, payload: object) -> None:
        """Atomically store ``payload`` under ``key``."""
        envelope = {
            "version": ENVELOPE_VERSION,
            "digest": key.digest,
            "kind": key.kind,
            "describe": key.describe,
            "label": key.label,
            "payload": payload,
        }
        atomic_write(self._path(key.digest), pickle.dumps(
            envelope, protocol=pickle.HIGHEST_PROTOCOL))

    def __contains__(self, key: CacheKey) -> bool:
        return self._path(key.digest).exists()

    # ------------------------------------------------------------------
    # raw envelope transport (the fleet's shared-store wire format)
    # ------------------------------------------------------------------
    def raw_get(self, digest: str) -> Optional[bytes]:
        """The stored envelope's raw bytes, verified against ``digest``.

        This is what one worker ships another over the shared-store
        HTTP endpoint: the receiver re-verifies with :meth:`raw_put`,
        so a corrupt entry can never propagate through the fleet.
        """
        path = self._path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        if self.verify_envelope(digest, blob) is None:
            path.unlink(missing_ok=True)
            return None
        return blob

    def raw_put(self, digest: str, blob: bytes) -> bool:
        """Store a serialized envelope received from a peer.

        The blob is verified before anything touches the disk: it must
        unpickle to a current-version envelope whose recorded digest
        matches the addressed one.  Returns False (and stores nothing)
        on any mismatch.
        """
        if self.verify_envelope(digest, blob) is None:
            return False
        atomic_write(self._path(digest), blob)
        return True

    @staticmethod
    def verify_envelope(digest: str, blob: bytes) -> Optional[dict]:
        """The decoded envelope if ``blob`` is a valid entry for
        ``digest``, else None."""
        try:
            envelope = pickle.loads(blob)
        except Exception:
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("version") != ENVELOPE_VERSION
                or envelope.get("digest") != digest):
            return None
        return envelope

    # ------------------------------------------------------------------
    # inspection / maintenance
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[CacheEntry]:
        """Yield every readable entry: one that is unreadable, lacks an
        envelope field or is deleted mid-scan (a concurrent prune) is
        skipped."""
        if not self._objects.is_dir():
            return
        for path in sorted(self._objects.rglob("*.pkl")):
            try:
                with open(path, "rb") as handle:
                    envelope = pickle.load(handle)
                if envelope.get("version") != ENVELOPE_VERSION:
                    continue
                entry = CacheEntry(digest=envelope["digest"],
                                   kind=envelope["kind"],
                                   describe=envelope["describe"],
                                   size_bytes=path.stat().st_size,
                                   label=envelope.get("label", ""))
            except Exception:
                continue
            yield entry

    def stats(self) -> dict[str, int]:
        """Entry counts by kind plus total size in bytes."""
        counts: dict[str, int] = {"total_bytes": 0, "entries": 0}
        for entry in self.entries():
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
            counts["entries"] += 1
            counts["total_bytes"] += entry.size_bytes
        return counts

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict oldest entries until the store fits in ``max_bytes``.

        Age is the entry file's mtime — a disk hit does not refresh it,
        so this is FIFO-by-write rather than LRU, which is the right
        policy for a content-addressed store: old entries are the ones
        most likely keyed by superseded code fingerprints.  Ties break
        on the path so concurrent pruners pick the same victims.
        Returns ``(entries_removed, bytes_freed)``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if not self._objects.is_dir():
            return (0, 0)
        entries: list[tuple[float, str, int, Path]] = []
        total = 0
        for path in self._objects.rglob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted underneath us (concurrent prune)
            entries.append((stat.st_mtime, str(path), stat.st_size, path))
            total += stat.st_size
        entries.sort()
        removed = 0
        freed = 0
        for _, _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            freed += size
        return (removed, freed)

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete entries (all, or one kind); returns the count removed."""
        removed = 0
        if not self._objects.is_dir():
            return removed
        for path in list(self._objects.rglob("*.pkl")):
            if kind is not None:
                try:
                    with open(path, "rb") as handle:
                        envelope = pickle.load(handle)
                    if envelope.get("kind") != kind:
                        continue
                except Exception:
                    pass  # unreadable entries go regardless of kind
            path.unlink(missing_ok=True)
            removed += 1
        return removed
