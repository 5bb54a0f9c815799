"""Recording a g5 run as a host-level execution trace.

gem5 compiled to x86/ARM is, to the host CPU, a long stream of calls into
thousands of small simulator functions (event handlers, port methods,
decode helpers, ...).  The paper profiles that stream with VTune / M1
counters.  We reproduce the stream directly: every g5 SimObject reports
the simulator functions it executes to an :class:`ExecutionRecorder`,
producing a compact trace of ``(function id, data address)`` records plus
a host heap map.  The host model (:mod:`repro.host.cpu`) then replays the
trace against a concrete platform's front-end and memory hierarchy.

The recorder is deliberately dumb and fast: interning gives each function
name a small integer, records append to flat lists, and allocation is a
bump pointer.  All host-microarchitecture meaning (code addresses, block
structure, branch behaviour) is attached later by
:class:`~repro.host.binary.BinaryImage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

#: Host heap starts well above the (synthetic) code segment.
HEAP_BASE = 0x10_000_000

#: Alignment of every host allocation, matching glibc malloc.
ALLOC_ALIGN = 16


@dataclass(frozen=True)
class HostAllocation:
    """One host heap allocation made by the simulator."""

    base: int
    size: int
    label: str

    @property
    def end(self) -> int:
        return self.base + self.size


class ExecutionRecorder:
    """Accumulates the host-level execution trace of one g5 run.

    Attributes
    ----------
    fn_names:
        Interned simulator-function names; index is the function id.
    trace_fns / trace_daddrs:
        Parallel lists: per record, the function id executed and the host
        data address it touched (0 when none).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.fn_names: list[str] = ["<reserved>"]
        self._ids: dict[str, int] = {"<reserved>": 0}
        self.trace_fns: list[int] = []
        self.trace_daddrs: list[int] = []
        self.allocations: list[HostAllocation] = []
        self._brk = HEAP_BASE
        self.roi_begin: Optional[int] = None   # record index of ROI start
        self.roi_end: Optional[int] = None     # record index of ROI end

    # ------------------------------------------------------------------
    # function interning
    # ------------------------------------------------------------------
    def intern(self, name: str) -> int:
        """Return the stable integer id for simulator function ``name``."""
        fn_id = self._ids.get(name)
        if fn_id is None:
            fn_id = len(self.fn_names)
            self._ids[name] = fn_id
            self.fn_names.append(name)
        return fn_id

    def known_functions(self) -> list[str]:
        """Names of all functions interned so far (excluding the sentinel)."""
        return self.fn_names[1:]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, fn_id: int, daddr: int = 0) -> None:
        """Append one function invocation to the trace."""
        if self.enabled and fn_id:
            self.trace_fns.append(fn_id)
            self.trace_daddrs.append(daddr)

    # ------------------------------------------------------------------
    # host heap
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, label: str = "") -> int:
        """Bump-allocate ``nbytes`` of host heap; returns the base address."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        base = self._brk
        self.allocations.append(HostAllocation(base, nbytes, label))
        aligned = (nbytes + ALLOC_ALIGN - 1) // ALLOC_ALIGN * ALLOC_ALIGN
        self._brk = base + aligned
        return base

    @property
    def heap_bytes(self) -> int:
        """Total bytes ever allocated (the simulator's resident data set)."""
        return self._brk - HEAP_BASE

    # ------------------------------------------------------------------
    # trace inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.trace_fns)

    def invocation_counts(self) -> dict[str, int]:
        """Per-function invocation counts over the whole trace."""
        counts = [0] * len(self.fn_names)
        for fn_id in self.trace_fns:
            counts[fn_id] += 1
        return {self.fn_names[i]: c for i, c in enumerate(counts) if c and i}

    def functions_touched(self) -> int:
        """Number of distinct simulator functions that actually executed."""
        return len(set(self.trace_fns))

    def iter_records(self) -> Iterator[tuple[int, int]]:
        """Yield ``(fn_id, daddr)`` records in execution order."""
        return zip(self.trace_fns, self.trace_daddrs)

    # ------------------------------------------------------------------
    # region-of-interest markers (m5 work begin/end)
    # ------------------------------------------------------------------
    def mark_roi_begin(self) -> None:
        """Mark the current trace position as the ROI start."""
        self.roi_begin = len(self.trace_fns)

    def mark_roi_end(self) -> None:
        """Mark the current trace position as the ROI end."""
        self.roi_end = len(self.trace_fns)

    def roi_slice(self) -> tuple[list[int], list[int]]:
        """The ROI-restricted trace (whole trace if unmarked)."""
        begin = self.roi_begin or 0
        end = self.roi_end if self.roi_end is not None else len(self.trace_fns)
        return self.trace_fns[begin:end], self.trace_daddrs[begin:end]

    def clear_trace(self) -> None:
        """Drop recorded invocations but keep interning and heap state."""
        self.trace_fns.clear()
        self.trace_daddrs.clear()
        self.roi_begin = None
        self.roi_end = None


class NullRecorder(ExecutionRecorder):
    """Recorder that drops everything; used when profiling is off."""

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def record(self, fn_id: int, daddr: int = 0) -> None:  # noqa: D102
        pass
