"""MCU hardware simulator substrate.

The paper evaluates on two STM32 boards; with no hardware available this
package provides the simulated equivalent: device profiles with the memory
capacities and clock rates of the real parts, a byte-level SRAM model,
an instruction cost table for the Cortex-M instructions the paper's
intrinsics lower to (SMLAD, SADD16, PKHBT, LDR/STR, memcpy), and an energy
model that charges nanojoules per cycle and per memory access — the two
quantities the paper itself says dominate MCU energy (Section 7.2).
"""

from repro.mcu.device import (
    DeviceProfile,
    STM32F411RE,
    STM32F767ZI,
    DEVICES,
    get_device,
)
from repro.mcu.memory import SRAM
from repro.mcu.isa import Instruction, InstructionSet, CORTEX_M4_ISA, CORTEX_M7_ISA
from repro.mcu.energy import EnergyModel, EnergyBreakdown
from repro.mcu.profiler import Profiler, CostReport

__all__ = [
    "DeviceProfile",
    "STM32F411RE",
    "STM32F767ZI",
    "DEVICES",
    "get_device",
    "SRAM",
    "Instruction",
    "InstructionSet",
    "CORTEX_M4_ISA",
    "CORTEX_M7_ISA",
    "EnergyModel",
    "EnergyBreakdown",
    "Profiler",
    "CostReport",
]
