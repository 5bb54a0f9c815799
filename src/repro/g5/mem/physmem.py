"""Guest physical memory, backed lazily page by page.

Like gem5, the simulator backs simulated DRAM with host memory.  Pages
are allocated on first touch from the host heap (via the execution
recorder), so the *host-visible* data footprint of a simulation grows
with the guest's working set — the property behind the paper's Fig. 9
(gem5's data set fits in the host LLC).
"""

from __future__ import annotations

from typing import Optional

from ...events import SimObject

PAGE_SIZE = 4096
PAGE_SHIFT = 12


class MemoryError_(RuntimeError):
    """Raised on out-of-range guest accesses."""


class PhysicalMemory(SimObject):
    """Byte-addressable guest memory with lazy page allocation."""

    def __init__(self, name: str, parent, size: int) -> None:
        super().__init__(name, parent)
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(
                f"memory size must be a positive multiple of {PAGE_SIZE}, "
                f"got {size}")
        self.size = size
        self._pages: dict[int, bytearray] = {}
        self._page_host_base: dict[int, int] = {}

    # ------------------------------------------------------------------
    # page management
    # ------------------------------------------------------------------
    def _page(self, addr: int) -> tuple[bytearray, int]:
        if not 0 <= addr < self.size:
            raise MemoryError_(
                f"guest address {addr:#x} outside memory of {self.size:#x}")
        page_num = addr >> PAGE_SHIFT
        page = self._pages.get(page_num)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_num] = page
            self._page_host_base[page_num] = self.host_alloc(
                PAGE_SIZE, f"guestpage:{page_num:#x}")
        return page, addr & (PAGE_SIZE - 1)

    def host_addr(self, addr: int) -> int:
        """Host address backing guest address ``addr`` (allocating the page)."""
        page_num = addr >> PAGE_SHIFT
        base = self._page_host_base.get(page_num)
        if base is None:
            self._page(addr)
            base = self._page_host_base[page_num]
        return base + (addr & (PAGE_SIZE - 1))

    @property
    def pages_touched(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes little-endian; returns an unsigned integer."""
        # Hot path: in-bounds access to an already-touched page.  This is
        # the per-instruction fetch/load route, so it avoids the helper
        # calls; all edge cases fall through to the checked path below.
        if 0 < size and 0 <= addr and addr + size <= self.size:
            page = self._pages.get(addr >> PAGE_SHIFT)
            offset = addr & (PAGE_SIZE - 1)
            if page is not None and offset + size <= PAGE_SIZE:
                return int.from_bytes(page[offset:offset + size], "little")
        self._check_span(addr, size)
        page, offset = self._page(addr)
        if offset + size <= PAGE_SIZE:
            return int.from_bytes(page[offset:offset + size], "little")
        return int.from_bytes(self._read_span(addr, size), "little")

    def write(self, addr: int, size: int, value: int) -> None:
        """Write the low ``size`` bytes of ``value`` little-endian."""
        if 0 < size and 0 <= addr and addr + size <= self.size:
            page = self._pages.get(addr >> PAGE_SHIFT)
            offset = addr & (PAGE_SIZE - 1)
            if page is not None and offset + size <= PAGE_SIZE:
                page[offset:offset + size] = \
                    (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
                return
        self._check_span(addr, size)
        raw = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        page, offset = self._page(addr)
        if offset + size <= PAGE_SIZE:
            page[offset:offset + size] = raw
        else:
            for index, byte in enumerate(raw):
                byte_page, byte_off = self._page(addr + index)
                byte_page[byte_off] = byte

    def read_block(self, addr: int, size: int) -> bytes:
        """Read an arbitrary byte span (used for program load checks)."""
        self._check_span(addr, size)
        return self._read_span(addr, size)

    def write_block(self, addr: int, data: bytes) -> None:
        """Write an arbitrary byte span (used by the loader)."""
        self._check_span(addr, len(data))
        for index, byte in enumerate(data):
            page, offset = self._page(addr + index)
            page[offset] = byte

    def _read_span(self, addr: int, size: int) -> bytes:
        out = bytearray(size)
        for index in range(size):
            page, offset = self._page(addr + index)
            out[index] = page[offset]
        return bytes(out)

    def _check_span(self, addr: int, size: int) -> None:
        if size <= 0:
            raise MemoryError_(f"access size must be positive, got {size}")
        if addr < 0 or addr + size > self.size:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + size:#x}) outside memory "
                f"of {self.size:#x}")
