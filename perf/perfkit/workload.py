"""What a workload hands back to ``run.py``: rounds and traced passes."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Round:
    """One fresh-state repetition: set-up, timed pass(es), checks.

    An *operation* is what can fail on its own (a figure, a g5 job, a
    request); a *reply* is what a caller waits for (a campaign, one
    ``execute_g5_job`` call, one request).
    """

    setup_s: float
    #: Wall clock of each timed pass over the workload's operation list.
    walls: list[float] = field(default_factory=list)
    #: Latency of each successful reply, in milliseconds.
    replies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: sha256 over the simulated statistics / figure text (information).
    digest: str = ""
    #: Workload-specific facts worth printing (counts, not gated).
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class TracedPass:
    """One traced pass: per-layer metrics and where the spans went."""

    wall_s: float
    layers: dict[str, float]
    spans_file: str = ""
    failures: list[str] = field(default_factory=list)


class Workload:
    """Base class: ``prepare`` once, then ``round`` / ``traced`` passes."""

    name = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def prepare(self) -> None:
        """Once-per-run set-up (harness imports, reference payloads)."""

    def round(self) -> Round:
        raise NotImplementedError

    def traced(self, spans_file: Path) -> TracedPass:
        raise NotImplementedError

    def describe(self) -> list[str]:
        """Fixed facts of the workload, printed with every result."""
        return []


def digest_of(parts: dict[str, str]) -> str:
    """Order-independent sha256 over named text blobs."""
    sha = hashlib.sha256()
    for key in sorted(parts):
        sha.update(key.encode())
        sha.update(b"\0")
        sha.update(parts[key].encode())
        sha.update(b"\0")
    return sha.hexdigest()
