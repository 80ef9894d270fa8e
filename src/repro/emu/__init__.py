"""Emulation: execute configured devices, inject faults, dump waveforms.

The emulator *decodes* a specialized bitstream back into a logic network —
LUT masks, crossbar selects, flip-flop modes and active routing switches —
and simulates the result.  Nothing is taken from the design database: what
runs is literally what the configuration bits say, which is how the test
suite proves the whole flow (mapping → packing → placement → routing →
bitgen → SCG specialization) end to end.
"""

from repro.emu.emulator import DecodedDesign, decode_bitstream, FpgaEmulator
from repro.emu.fault import FaultInjector, ForcedFault, active_override_ints
from repro.emu.vcd import VcdWriter, write_vcd

__all__ = [
    "DecodedDesign",
    "decode_bitstream",
    "FpgaEmulator",
    "FaultInjector",
    "ForcedFault",
    "active_override_ints",
    "VcdWriter",
    "write_vcd",
]
