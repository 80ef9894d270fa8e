"""Bit packing helpers on numpy arrays.

Bitstreams (:mod:`repro.bitgen`) and bit-parallel simulation
(:mod:`repro.netlist.simulate`) both store bits densely in ``uint64`` words;
these helpers convert between boolean vectors and packed words, count
differing bits — the inner loop of partial-reconfiguration diffing — and
pack per-lane stimulus scripts into lane-packed integers.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "words_for_bits",
    "pack_bits",
    "unpack_bits",
    "popcount64",
    "xor_popcount",
    "pack_lane_scripts",
]

_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1
)


def words_for_bits(n_bits: int) -> int:
    """Number of 64-bit words needed to hold ``n_bits``.

    >>> words_for_bits(0), words_for_bits(1), words_for_bits(64), words_for_bits(65)
    (0, 1, 1, 2)
    """
    return (int(n_bits) + 63) >> 6


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean/0-1 vector into little-endian ``uint64`` words.

    Bit ``i`` of the input lands in word ``i // 64``, bit position ``i % 64``.

    >>> w = pack_bits(np.array([1, 0, 1]))
    >>> int(w[0])
    5
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    padded = np.zeros(words_for_bits(n) * 64, dtype=np.uint8)
    padded[:n] = bits
    # numpy packbits is big-endian within bytes; ask for little-endian so the
    # word view below keeps bit i at position i.
    as_bytes = np.packbits(padded, bitorder="little")
    return as_bytes.view(np.uint64)


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: first ``n_bits`` as a ``uint8`` 0/1 vector.

    >>> v = unpack_bits(pack_bits(np.array([1, 1, 0, 1])), 4)
    >>> v.tolist()
    [1, 1, 0, 1]
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, bitorder="little")
    return bits[:n_bits]


def popcount64(words: np.ndarray) -> int:
    """Total number of set bits across a ``uint64`` array.

    >>> popcount64(pack_bits(np.array([1, 0, 1, 1])))
    3
    """
    as_bytes = np.ascontiguousarray(words, dtype=np.uint64).view(np.uint8)
    return int(_POP8[as_bytes].sum())


def xor_popcount(a: np.ndarray, b: np.ndarray) -> int:
    """Number of bit positions at which ``a`` and ``b`` differ.

    Both arrays must be ``uint64`` of the same length.  This is the hot path
    of frame diffing in partial reconfiguration, done without materializing
    an unpacked bit vector.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return popcount64(np.bitwise_xor(a, b))


def pack_lane_scripts(
    scripts: "Sequence[Sequence[Mapping[str, int]] | None]",
    names: "Mapping[int, str]",
    n_cycles: int,
) -> dict[int, list[int]]:
    """Pack per-lane stimulus scripts into lane-packed integers.

    ``scripts[k]`` is lane *k*'s per-cycle ``{name: 0/1}`` rows (``None``
    for an unbound lane); bit *k* of ``out[i][c]`` is lane *k*'s value of
    ``names[i]`` on cycle ``c``.  Missing names and cycles beyond a
    script's end read 0.  Lanes bound to the same script *object* pack
    together under one lane mask, so a batch sharing one stimulus pays
    one pass over it instead of one per lane.

    >>> script = [{"a": 1}, {"a": 0}]
    >>> pack_lane_scripts([script, None, script], {7: "a"}, 2)
    {7: [5, 0]}
    """
    masks: dict[int, list] = {}
    for lane, script in enumerate(scripts):
        if script is not None:
            masks.setdefault(id(script), [script, 0])[1] |= 1 << lane
    packed = {i: [0] * n_cycles for i in names}
    for script, mask in masks.values():
        for cyc, row in zip(range(n_cycles), script):
            for i, name in names.items():
                if int(row.get(name, 0)) & 1:
                    packed[i][cyc] |= mask
    return packed
