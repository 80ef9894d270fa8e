"""Sum-of-products covers (BLIF ``.names`` bodies) and ISOP extraction.

A :class:`Cube` is a product term over ``n`` ordered inputs using the BLIF
alphabet ``0`` (negative literal), ``1`` (positive literal), ``-``
(don't-care).  A :class:`Cover` is a list of cubes plus the output polarity.

The bit-parallel simulator evaluates node functions cube-by-cube, so compact
covers matter; :func:`truthtable_to_cover` implements the Minato–Morreale
irredundant SOP (ISOP) algorithm on integer truth tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.netlist.truthtable import TruthTable, _full_mask, _var_mask

__all__ = ["Cube", "Cover", "cover_to_truthtable", "truthtable_to_cover"]


@dataclass(frozen=True, slots=True)
class Cube:
    """A product term: ``mask`` selects bound variables, ``polarity`` their phase.

    Variable ``i`` appears as a positive literal iff ``mask>>i & 1`` and
    ``polarity>>i & 1``; as a negative literal iff ``mask>>i & 1`` and not
    ``polarity>>i & 1``; otherwise it is unbound (``-``).  Slotted: the
    ISOP cache keeps every cover's cubes for the life of the process.
    """

    mask: int
    polarity: int

    def __post_init__(self) -> None:
        if self.polarity & ~self.mask:
            raise ValueError("polarity bits outside mask")

    @staticmethod
    def from_blif(text: str) -> "Cube":
        """Parse a BLIF input-plane string like ``1-0``.

        >>> c = Cube.from_blif("1-0")
        >>> c.to_blif(3)
        '1-0'
        """
        mask = 0
        pol = 0
        for i, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << i
                pol |= 1 << i
            elif ch == "0":
                mask |= 1 << i
            elif ch != "-":
                raise ValueError(f"bad cube character {ch!r}")
        return Cube(mask, pol)

    def to_blif(self, n_vars: int) -> str:
        chars = []
        for i in range(n_vars):
            if (self.mask >> i) & 1:
                chars.append("1" if (self.polarity >> i) & 1 else "0")
            else:
                chars.append("-")
        return "".join(chars)

    def n_literals(self) -> int:
        return self.mask.bit_count()

    def contains_point(self, idx: int) -> bool:
        """Does the cube cover the minterm with packed assignment ``idx``?"""
        return (idx & self.mask) == self.polarity

    def truthtable(self, n_vars: int) -> TruthTable:
        """Expand the cube into a full truth table on ``n_vars`` inputs."""
        tt = TruthTable.const(1, n_vars)
        for i in range(n_vars):
            if (self.mask >> i) & 1:
                v = TruthTable.var(i, n_vars)
                tt = tt & (v if (self.polarity >> i) & 1 else ~v)
        return tt


@dataclass(frozen=True)
class Cover:
    """An SOP cover: OR of cubes, possibly describing the off-set.

    ``output_value`` is 1 when the cubes describe where the function is 1
    (the usual case) and 0 when they describe where it is 0 (BLIF permits
    both, but not mixed within one ``.names``).
    """

    n_vars: int
    cubes: tuple[Cube, ...]
    output_value: int = 1

    def __post_init__(self) -> None:
        if self.output_value not in (0, 1):
            raise ValueError("output_value must be 0 or 1")

    def truthtable(self) -> TruthTable:
        return cover_to_truthtable(self)

    def n_literals(self) -> int:
        return sum(c.n_literals() for c in self.cubes)

    def to_blif_lines(self) -> list[str]:
        """Render the cover body as BLIF plane lines (no ``.names`` header)."""
        out_ch = str(self.output_value)
        if not self.cubes:
            # Empty cover: constant opposite of output_value convention —
            # BLIF expresses const-0 as an empty body and const-1 as a lone
            # "1" line; handled by the writer, not here.
            return []
        return [f"{c.to_blif(self.n_vars)} {out_ch}" for c in self.cubes]


def cover_to_truthtable(cover: Cover) -> TruthTable:
    """Evaluate an SOP cover into a complete truth table.

    >>> c = Cover(2, (Cube.from_blif("11"),))
    >>> cover_to_truthtable(c).bits == 0b1000
    True
    """
    acc = TruthTable.const(0, cover.n_vars)
    for cube in cover.cubes:
        acc = acc | cube.truthtable(cover.n_vars)
    if cover.output_value == 0:
        acc = ~acc
    return acc


# ---------------------------------------------------------------------------
# Minato–Morreale ISOP
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _var_masks(n: int) -> tuple[int, ...]:
    """Truth-table positions where each of ``n`` variables is 1."""
    return tuple(_var_mask(n, var) for var in range(n))


def _isop(
    lower: int, upper: int, n: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Return ``(cubes, function_bits)`` with lower ⊆ function ⊆ upper.

    ``cubes`` are ``(mask, polarity)`` pairs over ``n`` variables.  The
    recursion splits on the highest variable either bound depends on,
    covering the cubes that need its 0 literal, then its 1 literal, then
    neither (in that order).
    """
    full = _full_mask(n)
    masks = _var_masks(n)

    def rec(lower: int, upper: int, var: int):
        if lower == 0:
            return (), 0
        if upper == full:
            return ((0, 0),), full
        # find a splitting variable that matters: a bound depends on
        # ``var`` iff its var=1 half, shifted down, differs from its
        # var=0 half
        while var >= 0:
            vmask, shift = masks[var], 1 << var
            if (lower & vmask) >> shift != lower & ~vmask:
                break
            if (upper & vmask) >> shift != upper & ~vmask:
                break
            var -= 1
        else:
            # No dependence left: lower != 0 and upper != all is
            # impossible here because both are then constants with
            # lower ⊆ upper.
            return ((0, 0),), full
        hi, lo = lower & vmask, lower & ~vmask
        l0, l1 = lo | (lo << shift), hi | (hi >> shift)
        hi, lo = upper & vmask, upper & ~vmask
        u0, u1 = lo | (lo << shift), hi | (hi >> shift)

        c0, f0 = rec(l0 & ~u1, u0, var - 1)
        c1, f1 = rec(l1 & ~u0, u1, var - 1)
        c2, f2 = rec((l0 & ~f0) | (l1 & ~f1), u0 & u1, var - 1)

        bit = 1 << var
        cubes = (
            tuple([(m | bit, p) for m, p in c0])
            + tuple([(m | bit, p | bit) for m, p in c1])
            + c2
        )
        return cubes, (f0 & ~vmask) | (f1 & vmask) | f2

    return rec(lower, upper, n - 1)


@lru_cache(maxsize=65536)
def _isop_cached(bits: int, n_vars: int) -> tuple[Cube, ...]:
    cubes, func = _isop(bits, bits, n_vars)
    assert func == bits, "ISOP must be exact when lower == upper"
    return tuple([Cube(mask, pol) for mask, pol in cubes])


def truthtable_to_cover(tt: TruthTable) -> Cover:
    """Compute an irredundant SOP cover of ``tt`` (Minato–Morreale).

    The result is exact (covers precisely the on-set) and each cube is prime
    relative to the recursion order.  Results are cached per table since the
    simulator requests covers for the same LUT functions repeatedly.

    >>> tt = TruthTable.var(0, 2) ^ TruthTable.var(1, 2)
    >>> cov = truthtable_to_cover(tt)
    >>> cover_to_truthtable(cov) == tt
    True
    >>> len(cov.cubes)
    2
    """
    return Cover(tt.n_vars, _isop_cached(tt.bits, tt.n_vars), 1)
