"""Shared content-addressed result store: read-through to live peers.

:class:`FleetCache` is a drop-in :class:`~repro.exec.cache.ResultCache`
whose misses fall through to peer workers over the worker's store
route (``GET /api/v1/store/<digest>``).  A fetched envelope is
verified twice before it is trusted — the ``X-Repro-Sha256`` transport
checksum over the body, then the envelope's own recorded digest against
the addressed one (``ResultCache.raw_put`` re-checks) — so a corrupt
or truncated transfer is a miss, never a poisoned cache.

Nothing is pushed: an entry lives on the worker that computed it (and
on every worker that later fetched it), so a result computed only on a
worker that then dies is recomputed once by whichever worker is next
asked for it.

All peer I/O is best-effort with a short timeout; a slow or dead peer
degrades to a local miss, never an error.
"""

from __future__ import annotations

import hashlib
import threading
import urllib.error
import urllib.request
from pathlib import Path
from typing import Optional, Union

from ..exec.cache import ResultCache
from ..exec.keys import CacheKey
from ..serve.http import CHECKSUM_HEADER
from .registry import rendezvous_score

__all__ = ["FleetCache"]

#: Seconds one peer fetch may take before it counts as a miss.
PEER_TIMEOUT = 5.0


class FleetCache(ResultCache):
    """A ResultCache backed by the fleet's shared store."""

    def __init__(self, root: Union[str, Path, None] = None,
                 self_url: Optional[str] = None) -> None:
        super().__init__(root)
        self.self_url = self_url.rstrip("/") if self_url else None
        self._peer_lock = threading.Lock()
        self._peers: list[dict] = []
        self._stats_lock = threading.Lock()
        self._stats = {"local_hits": 0, "remote_hits": 0,
                       "remote_misses": 0, "fetch_failures": 0}

    # ------------------------------------------------------------------
    # peers
    # ------------------------------------------------------------------
    def set_peers(self, peers: list[dict]) -> None:
        """Install the live peer list (from a heartbeat response);
        entries are ``{"id": ..., "url": ...}`` and this worker's own
        URL is filtered out."""
        cleaned = [dict(peer) for peer in peers
                   if peer.get("url")
                   and peer["url"].rstrip("/") != self.self_url]
        with self._peer_lock:
            self._peers = cleaned

    def peers(self) -> list[dict]:
        with self._peer_lock:
            return list(self._peers)

    def fleet_stats(self) -> dict[str, int]:
        with self._stats_lock:
            return dict(self._stats)

    def _count(self, name: str) -> None:
        with self._stats_lock:
            self._stats[name] += 1

    # ------------------------------------------------------------------
    # read-through get
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[object]:
        local = super().get(key)
        if local is not None:
            self._count("local_hits")
            return local
        blob = self._fetch(key.digest)
        if blob is None:
            return None
        if not super().raw_put(key.digest, blob):
            self._count("fetch_failures")
            return None
        self._count("remote_hits")
        return super().get(key)

    # ------------------------------------------------------------------
    # peer transport
    # ------------------------------------------------------------------
    def _fetch(self, digest: str) -> Optional[bytes]:
        """First verified envelope any peer can produce, else None.

        Peers are tried in rendezvous order for the digest — the
        most-likely holder first — so the common case is one request.
        """
        for peer in self._ranked_peers(digest):
            url = f"{peer['url']}/api/v1/store/{digest}"
            try:
                with urllib.request.urlopen(
                        url, timeout=PEER_TIMEOUT) as reply:
                    blob = reply.read()
                    checksum = reply.headers.get(CHECKSUM_HEADER)
            except (urllib.error.URLError, OSError, ValueError):
                self._count("fetch_failures")
                continue
            if (checksum is not None
                    and checksum != hashlib.sha256(blob).hexdigest()):
                self._count("fetch_failures")
                continue
            if self.verify_envelope(digest, blob) is None:
                self._count("fetch_failures")
                continue
            return blob
        self._count("remote_misses")
        return None

    def _ranked_peers(self, digest: str) -> list[dict]:
        peers = self.peers()
        return sorted(
            peers,
            key=lambda p: (rendezvous_score(digest, p.get("id", p["url"])),
                           p["url"]),
            reverse=True)
