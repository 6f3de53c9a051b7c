"""Tests for the SRAM byte model."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryError
from repro.mcu.memory import SRAM


class TestSRAM:
    def test_roundtrip(self):
        ram = SRAM(64)
        data = np.arange(16, dtype=np.uint8)
        ram.write(8, data)
        np.testing.assert_array_equal(ram.read(8, 16), data)

    def test_read_returns_copy(self):
        ram = SRAM(16)
        ram.write(0, np.ones(4, dtype=np.uint8))
        view = ram.read(0, 4)
        view[0] = 99
        assert ram.read(0, 1)[0] == 1

    def test_traffic_counters(self):
        ram = SRAM(32)
        ram.write(0, np.zeros(8, dtype=np.uint8))
        ram.read(0, 4)
        assert ram.bytes_written == 8
        assert ram.bytes_read == 4
        assert ram.total_traffic == 12
        ram.reset_counters()
        assert ram.total_traffic == 0

    def test_out_of_range_faults(self):
        ram = SRAM(16)
        with pytest.raises(OutOfMemoryError):
            ram.read(10, 8)
        with pytest.raises(OutOfMemoryError):
            ram.write(15, np.zeros(2, dtype=np.uint8))
        with pytest.raises(OutOfMemoryError):
            ram.read(-1, 1)

    def test_fill(self):
        ram = SRAM(8)
        ram.fill(2, 3, 7)
        assert ram.read(2, 3).tolist() == [7, 7, 7]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SRAM(0)

    def test_int8_payloads_roundtrip_via_views(self):
        ram = SRAM(4)
        signed = np.array([-1, -128, 127, 0], dtype=np.int8)
        ram.write(0, signed.view(np.uint8))
        back = ram.read(0, 4).view(np.int8)
        np.testing.assert_array_equal(back, signed)
