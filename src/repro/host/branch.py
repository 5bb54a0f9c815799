"""Host branch prediction: direction tables, BTB, indirect targets.

Direction prediction is a table of 2-bit counters indexed by a hash of
the branch identity; capacity effects (aliasing in smaller tables) are
what differentiates platforms, so the table is simulated for a bounded
number of *representative* branch slots per function and the outcome is
scaled to the function's full branch count.  BTB and indirect-target
capacity are simulated exactly (dict-ordered LRU like the TLBs).

Branch outcomes are generated deterministically per slot from the
function's taken bias via a per-slot LCG, so runs are reproducible.

:class:`HostBranchUnit` is the predictor's state and statistics; the
lookups and updates are part of the replay loop in :mod:`repro.host.cpu`.
"""

from __future__ import annotations


class HostBranchUnit:
    """Direction predictor + BTB + indirect-target buffer."""

    __slots__ = ("table", "table_mask", "btb", "btb_entries",
                 "ind_table", "cond_branches", "cond_mispredicts",
                 "btb_lookups", "btb_misses", "ind_lookups", "ind_misses",
                 "_slot_state")

    def __init__(self, table_bits: int, btb_entries: int) -> None:
        if table_bits <= 0 or btb_entries <= 0:
            raise ValueError("predictor sizes must be positive")
        self.table = [1] * (1 << table_bits)   # weakly not-taken
        self.table_mask = (1 << table_bits) - 1
        self.btb: dict[int, None] = {}
        self.btb_entries = btb_entries
        self.ind_table: dict[int, None] = {}
        self.cond_branches = 0
        self.cond_mispredicts = 0
        self.btb_lookups = 0
        self.btb_misses = 0
        self.ind_lookups = 0
        self.ind_misses = 0
        self._slot_state: dict[int, int] = {}

    @property
    def mispredict_rate(self) -> float:
        return self.cond_mispredicts / max(1, self.cond_branches)
