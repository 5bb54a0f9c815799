"""Host cache hierarchy: set-associative LRU state and statistics.

A cache is plain lists of line tags per set, most recently used first.
The access path — L1 (I or D side) → L2 → LLC → DRAM, move-to-front
LRU — is written once: the L1 lookups in the replay loop of
:mod:`repro.host.cpu`, which works on these lists directly, and the L1
miss in :meth:`HostHierarchy.fill`.  The classes hold the state, the
hit/miss and DRAM-traffic statistics, and the co-run eviction.
"""

from __future__ import annotations

from .platform import CacheGeometry, HostPlatform


class HostCache:
    """One set-associative LRU cache level."""

    __slots__ = ("name", "geometry", "n_sets", "assoc", "line_shift",
                 "sets", "hits", "misses")

    def __init__(self, name: str, geometry: CacheGeometry) -> None:
        self.name = name
        self.geometry = geometry
        self.n_sets = geometry.n_sets
        self.assoc = geometry.assoc
        self.line_shift = geometry.line_size.bit_length() - 1
        self.sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / max(1, self.accesses)

    def resident_lines(self) -> int:
        return sum(len(cache_set) for cache_set in self.sets)

    def resident_bytes(self) -> int:
        return self.resident_lines() * self.geometry.line_size

    def evict_fraction(self, fraction: float, stride: int = 3) -> int:
        """Invalidate roughly ``fraction`` of resident lines.

        Used by the co-run contention model: other processes' working
        sets push this process's lines out between scheduling quanta.
        Returns the number of lines dropped.  Deterministic: walks sets
        with a fixed stride.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        to_drop = int(self.resident_lines() * fraction)
        dropped = 0
        index = 0
        consecutive_empty = 0
        # Odd stride + power-of-two set count visits every set.
        while dropped < to_drop and consecutive_empty < self.n_sets:
            cache_set = self.sets[index % self.n_sets]
            if cache_set:
                cache_set.pop()
                dropped += 1
                consecutive_empty = 0
            else:
                consecutive_empty += 1
            index += stride
        return dropped


class HostHierarchy:
    """L1I + L1D + unified L2 + LLC, with DRAM traffic accounting."""

    __slots__ = ("l1i", "l1d", "l2", "llc", "l2_latency", "llc_latency",
                 "dram_latency", "dram_reads", "dram_bytes",
                 "l1i_miss_penalty_total", "l1d_miss_penalty_total")

    def __init__(self, platform: HostPlatform) -> None:
        self.l1i = HostCache("L1I", platform.l1i)
        self.l1d = HostCache("L1D", platform.l1d)
        self.l2 = HostCache("L2", platform.l2)
        self.llc = HostCache("LLC", platform.llc)
        self.l2_latency = platform.l2_latency
        self.llc_latency = platform.llc_latency
        self.dram_latency = platform.dram_latency_cycles
        self.dram_reads = 0
        self.dram_bytes = 0
        self.l1i_miss_penalty_total = 0
        self.l1d_miss_penalty_total = 0

    def fill(self, addr: int) -> int:
        """Serve an L1 miss at ``addr`` from the L2, the LLC or DRAM,
        allocating the line on the way; returns the penalty in cycles."""
        l2 = self.l2
        line = addr >> l2.line_shift
        cache_set = l2.sets[line % l2.n_sets]
        if line in cache_set:
            l2.hits += 1
            if cache_set[0] != line:
                cache_set.remove(line)
                cache_set.insert(0, line)
            return self.l2_latency
        l2.misses += 1
        cache_set.insert(0, line)
        if len(cache_set) > l2.assoc:
            cache_set.pop()
        llc = self.llc
        line = addr >> llc.line_shift
        cache_set = llc.sets[line % llc.n_sets]
        if line in cache_set:
            llc.hits += 1
            if cache_set[0] != line:
                cache_set.remove(line)
                cache_set.insert(0, line)
            return self.llc_latency
        llc.misses += 1
        cache_set.insert(0, line)
        if len(cache_set) > llc.assoc:
            cache_set.pop()
        self.dram_reads += 1
        self.dram_bytes += llc.geometry.line_size
        return self.dram_latency

    def llc_occupancy_bytes(self) -> int:
        return self.llc.resident_bytes()
