"""Byte-level SRAM model.

MCUs have no cache and no OS (paper Section 2.1): programs address a flat
SRAM directly.  :class:`SRAM` models exactly that — a flat byte array with
access counting — and is the storage layer beneath
:class:`repro.core.pool.CircularSegmentPool`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OutOfMemoryError

__all__ = ["SRAM"]


class SRAM:
    """A flat on-chip SRAM of ``capacity`` bytes with access counters.

    Reads and writes take/return ``np.uint8`` arrays.  Out-of-range accesses
    raise :class:`OutOfMemoryError` — on the real part they would silently
    corrupt a neighbouring region or hard-fault; the simulator always faults.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"SRAM capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._data = np.zeros(self.capacity, dtype=np.uint8)
        self.bytes_read = 0
        self.bytes_written = 0

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.capacity:
            raise OutOfMemoryError(
                requested=addr + size, capacity=self.capacity, what="SRAM access"
            )

    def read(self, addr: int, size: int) -> np.ndarray:
        """Read ``size`` bytes starting at ``addr`` (returns a copy)."""
        self._check(addr, size)
        self.bytes_read += size
        return self._data[addr : addr + size].copy()

    def write(self, addr: int, data: np.ndarray) -> None:
        """Write a uint8 array at ``addr``."""
        data = np.ascontiguousarray(data, dtype=np.uint8).ravel()
        self._check(addr, data.size)
        self.bytes_written += data.size
        self._data[addr : addr + data.size] = data

    def fill(self, addr: int, size: int, value: int) -> None:
        """memset-equivalent, counted as writes."""
        self._check(addr, size)
        self.bytes_written += size
        self._data[addr : addr + size] = np.uint8(value)

    @property
    def total_traffic(self) -> int:
        return self.bytes_read + self.bytes_written

    def reset_counters(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0

    def snapshot(self) -> np.ndarray:
        """Copy of the full SRAM contents (for debugging/tests); not counted."""
        return self._data.copy()
