"""Load/store queue for the O3 CPU.

Tracks in-flight memory instructions, enforces load/store-queue capacity,
and implements store-to-load forwarding: a load whose address overlaps an
older, still-queued store gets its data from the store buffer instead of
the cache.
"""

from __future__ import annotations

from ..dyninst import DynInst


class LSQ:
    """Split load queue / store queue."""

    def __init__(self, lq_entries: int, sq_entries: int) -> None:
        if lq_entries <= 0 or sq_entries <= 0:
            raise ValueError("LQ/SQ entry counts must be positive")
        self.lq_entries = lq_entries
        self.sq_entries = sq_entries
        self._loads: list[DynInst] = []
        self._stores: list[DynInst] = []
        self.forwarded = 0

    # -- capacity ----------------------------------------------------------
    @property
    def lq_full(self) -> bool:
        return len(self._loads) >= self.lq_entries

    @property
    def sq_full(self) -> bool:
        return len(self._stores) >= self.sq_entries

    def can_insert(self, dyn: DynInst) -> bool:
        if dyn.inst.is_load:
            return not self.lq_full
        if dyn.inst.is_store:
            return not self.sq_full
        return True

    def insert(self, dyn: DynInst) -> None:
        if dyn.inst.is_load:
            if self.lq_full:
                raise RuntimeError("LQ overflow: caller must check capacity")
            self._loads.append(dyn)
        elif dyn.inst.is_store:
            if self.sq_full:
                raise RuntimeError("SQ overflow: caller must check capacity")
            self._stores.append(dyn)

    # -- forwarding ----------------------------------------------------------
    def forwarding_store(self, load: DynInst) -> DynInst | None:
        """Oldest-younger rule: youngest older store overlapping the load."""
        assert load.mem_addr is not None
        lo = load.mem_addr
        hi = lo + load.inst.mem_size
        best: DynInst | None = None
        for store in self._stores:
            if store.seq >= load.seq or store.mem_addr is None:
                continue
            s_lo = store.mem_addr
            s_hi = s_lo + store.inst.mem_size
            if s_lo < hi and lo < s_hi:
                if best is None or store.seq > best.seq:
                    best = store
        if best is not None:
            self.forwarded += 1
        return best

    # -- retirement ----------------------------------------------------------
    def retire(self, dyn: DynInst) -> None:
        """Remove a committed memory instruction from its queue."""
        if dyn.inst.is_load and dyn in self._loads:
            self._loads.remove(dyn)
        elif dyn.inst.is_store and dyn in self._stores:
            self._stores.remove(dyn)
