"""The server's only window onto host time.

The determinism lint bans wall-clock reads across ``serve/`` exactly as
it does for the simulation core — a serving layer that stamps results
with host time would quietly break the bit-identical-rerun guarantee
the cache and the coalescer rely on.  Timing a *request* is legitimate,
though, so every timestamp and latency measurement in the server flows
through this module, which is the one scoped exemption
(the determinism rule in ``tests/lint/determinism.py`` knows it by path).

Simulation results never depend on these values: they feed job
bookkeeping (submitted/started/finished stamps), latency histograms,
and retry backoff — never cache keys or payloads.
"""

from __future__ import annotations

import time


def wall() -> float:
    """Seconds since the epoch (job lifecycle timestamps)."""
    return time.time()


def monotonic() -> float:
    """Monotonic seconds (latency measurement, deadlines)."""
    return time.monotonic()


def sleep(seconds: float) -> None:
    """Blocking sleep (retry backoff, client polling)."""
    time.sleep(seconds)
