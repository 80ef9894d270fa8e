"""Bitstream generation.

Lowers a packed/placed/routed design onto the device's configuration
cells, producing a :class:`~repro.core.pconf.ParameterizedBitstream` whose
tunable bits realize the TCON/TLUT machinery.  The frames a
respecialization rewrites are the SCG's
(:class:`~repro.core.scg.SpecializedConfigGenerator`).
"""

from repro.bitgen.genbit import IoMap, generate_bitstream, GeneratedBitstream

__all__ = [
    "IoMap",
    "generate_bitstream",
    "GeneratedBitstream",
]
