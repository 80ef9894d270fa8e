"""Emulation: execute configured devices, fault semantics, waveforms.

The emulator *decodes* a specialized bitstream back into a logic network —
LUT masks, crossbar selects, flip-flop modes and active routing switches —
and steps the result on the compiled kernels over lane-packed integers.
Nothing is taken from the design database: what runs is literally what
the configuration bits say, which is how the test suite proves the whole
flow (mapping → packing → placement → routing → bitgen → SCG
specialization) end to end.  :mod:`repro.emu.fault` holds the one
stuck-at semantics every simulator step applies.
"""

from repro.emu.emulator import DecodedDesign, decode_bitstream, FpgaEmulator
from repro.emu.fault import ForcedFault, active_override_ints
from repro.emu.vcd import VcdWriter, write_vcd

__all__ = [
    "DecodedDesign",
    "decode_bitstream",
    "FpgaEmulator",
    "ForcedFault",
    "active_override_ints",
    "VcdWriter",
    "write_vcd",
]
