"""Shared low-level utilities.

The utility layer deliberately has no dependencies on the rest of the
library; everything above (netlist, mapping, physical design, core) may use
it freely.
"""

from repro.util.rng import RngHub, derive_seed
from repro.util.trace import Trace
from repro.util.tables import TextTable
from repro.util.pq import IndexedMinHeap
from repro.util.dset import DisjointSet
from repro.util.bitops import (
    pack_bits,
    unpack_bits,
    popcount64,
    words_for_bits,
)

__all__ = [
    "RngHub",
    "derive_seed",
    "Trace",
    "TextTable",
    "IndexedMinHeap",
    "DisjointSet",
    "pack_bits",
    "unpack_bits",
    "popcount64",
    "words_for_bits",
]
