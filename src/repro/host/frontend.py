"""µop supply model: DSB (decoded µop cache) vs MITE (legacy decoder).

Intel front-ends deliver µops either from the DSB — fast and wide, but
only for recently decoded, reused code — or from the MITE decode
pipeline, which struggles on cold, branchy, variable-length x86 code.
The paper shows gem5's DSB coverage is near zero (Fig. 6) and 92–97% of
its front-end bandwidth stalls wait on the MITE (Fig. 5); both effects
fall out of the DSB's small capacity against gem5's huge footprint.
"""

from __future__ import annotations


class DSB:
    """The decoded-µop cache, tracked at function granularity.

    Capacity is a µop budget; entries are whole functions (a reasonable
    granularity since our synthetic functions approximate one decode
    region).  LRU via ordered-dict semantics; the replay loop in
    :mod:`repro.host.cpu` does the lookups and installs.
    """

    __slots__ = ("capacity_uops", "entries", "occupied_uops",
                 "hits", "misses", "uops_from_dsb", "uops_from_mite")

    def __init__(self, capacity_uops: int) -> None:
        self.capacity_uops = capacity_uops
        self.entries: dict[int, int] = {}   # fn index -> uop size
        self.occupied_uops = 0
        self.hits = 0
        self.misses = 0
        self.uops_from_dsb = 0
        self.uops_from_mite = 0

    @property
    def coverage(self) -> float:
        """Fraction of all µops supplied by the DSB (the paper's Fig. 6)."""
        total = self.uops_from_dsb + self.uops_from_mite
        return self.uops_from_dsb / total if total else 0.0
