"""Host TLBs with page-size awareness (the paper's central mechanism).

The M1's 16KB pages quadruple TLB reach over the Xeon's 4KB pages, and
huge pages (2MB) backing gem5's code all but eliminate iTLB misses —
both effects the paper measures.  Entries here are keyed by virtual page
number at whatever page size backs the address, so a single TLB can mix
base pages and huge pages, like a real L1 TLB with huge-page entries.
"""

from __future__ import annotations

from typing import Callable, Optional


class HostTLB:
    """Fully-associative LRU TLB (dict-ordered for O(1) LRU)."""

    __slots__ = ("name", "entries", "default_page_shift", "map",
                 "hits", "misses", "page_shift_for")

    def __init__(self, name: str, entries: int, page_size: int,
                 page_shift_for: Optional[Callable[[int], int]] = None) -> None:
        if entries <= 0:
            raise ValueError(f"TLB needs positive entries, got {entries}")
        if page_size & (page_size - 1) or page_size == 0:
            raise ValueError(f"page size must be a power of two: {page_size}")
        self.name = name
        self.entries = entries
        self.default_page_shift = page_size.bit_length() - 1
        #: Optional override: address -> page shift (huge-page regions).
        self.page_shift_for = page_shift_for
        self.map: dict[int, None] = {}
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Translate ``addr``; returns True on TLB hit."""
        if self.page_shift_for is not None:
            shift = self.page_shift_for(addr)
        else:
            shift = self.default_page_shift
        # Tag entries with their page size so 4KB and 2MB entries coexist.
        key = (addr >> shift) << 6 | shift
        table = self.map
        if key in table:
            self.hits += 1
            # dict preserves insertion order: re-insert to mark recency.
            del table[key]
            table[key] = None
            return True
        self.misses += 1
        table[key] = None
        if len(table) > self.entries:
            del table[next(iter(table))]
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / max(1, self.accesses)

    def mpki(self, kilo_insts: float) -> float:
        return self.misses / max(1e-9, kilo_insts)

    def flush(self) -> None:
        self.map.clear()
