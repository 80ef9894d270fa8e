"""Reference truth-table lowering (the pre-integer implementations).

Two routines exactly as they shipped before the emulation stage lowered
on plain integers:

* the Minato–Morreale ISOP recursion of :mod:`repro.netlist.sop`, which
  cofactors through :func:`_cof` (one mask lookup per call) and builds a
  :class:`~repro.netlist.sop.Cube` at every level;
* the per-bit TLUT configuration expression of :mod:`repro.core.virtual`,
  which cofactors the LUT function one :class:`TruthTable` at a time for
  each physical index and converts the remaining parameter function
  through this module's ISOP.

``tests/test_lowering.py`` diffs the package's integer ISOP
(:func:`repro.netlist.sop._isop`) and its batched TLUT bits
(:func:`repro.core.virtual.tlut_bit_exprs`) against them.

Not part of the package — covers come from
:func:`repro.netlist.sop.truthtable_to_cover` and TLUT bits from
:func:`repro.core.virtual.tlut_bit_exprs`.
"""

from __future__ import annotations

from repro.core.boolfunc import BoolExpr, bf_conj, bf_const
from repro.errors import SpecializationError
from repro.mapping.result import LutImpl
from repro.netlist.sop import Cube
from repro.netlist.truthtable import _full_mask, _var_mask

__all__ = ["isop", "tlut_bit_expr"]


def _cof(bits: int, n: int, var: int, value: int) -> int:
    mask = _var_mask(n, var)
    shift = 1 << var
    if value:
        hi = bits & mask
        return hi | (hi >> shift)
    lo = bits & ~mask
    return (lo | (lo << shift)) & _full_mask(n)


def _isop(lower: int, upper: int, n: int, var: int) -> tuple[tuple[Cube, ...], int]:
    """Return (cover, function_bits) with lower ⊆ function ⊆ upper.

    ``var`` is the highest variable index still eligible for splitting.
    """
    if lower == 0:
        return (), 0
    if upper == _full_mask(n):
        return (Cube(0, 0),), _full_mask(n)
    # find a splitting variable that matters
    while var >= 0:
        if (
            _cof(lower, n, var, 0) != _cof(lower, n, var, 1)
            or _cof(upper, n, var, 0) != _cof(upper, n, var, 1)
        ):
            break
        var -= 1
    if var < 0:
        # No dependence left: lower != 0 and upper != all is impossible here
        # because both are then constants with lower ⊆ upper.
        return (Cube(0, 0),), _full_mask(n)

    l0, l1 = _cof(lower, n, var, 0), _cof(lower, n, var, 1)
    u0, u1 = _cof(upper, n, var, 0), _cof(upper, n, var, 1)

    c0, f0 = _isop(l0 & ~u1, u0, n, var - 1)
    c1, f1 = _isop(l1 & ~u0, u1, n, var - 1)
    l_rest = (l0 & ~f0) | (l1 & ~f1)
    c2, f2 = _isop(l_rest, u0 & u1, n, var - 1)

    bit = 1 << var
    cubes = (
        tuple(Cube(c.mask | bit, c.polarity) for c in c0)
        + tuple(Cube(c.mask | bit, c.polarity | bit) for c in c1)
        + c2
    )
    vmask = _var_mask(n, var)
    func = (f0 & ~vmask) | (f1 & vmask) | f2
    return cubes, func


def isop(lower: int, upper: int, n: int) -> tuple[tuple[Cube, ...], int]:
    """An irredundant cover of any function between ``lower`` and
    ``upper`` over ``n`` variables: ``(cubes, function_bits)``."""
    return _isop(lower, upper, n, n - 1)


def tlut_bit_expr(
    lut: LutImpl,
    phys_index: int,
    param_index_of: dict[int, int],
) -> BoolExpr:
    """Configuration-bit expression for one TLUT truth-table entry.

    ``phys_index`` packs the physical-input assignment (bit ``i`` equals
    physical input ``i``).  Cofactoring the mixed function on that
    assignment leaves a function of the parameter leaves only, which is
    converted to a BoolExpr through its ISOP cover.
    """
    func = lut.func
    pset = set(lut.param_leaves)
    # fix each physical variable to its bit in phys_index
    tt = func
    phys_pos = 0
    for var, leaf in enumerate(lut.leaves):
        if leaf in pset:
            continue
        tt = tt.cofactor(var, (phys_index >> phys_pos) & 1)
        phys_pos += 1
    # remaining support is over parameter variables
    const = tt.const_value()
    if const is not None:
        return bf_const(const)
    cubes, _func = isop(tt.bits, tt.bits, tt.n_vars)
    terms = []
    param_var_of: dict[int, int] = {}
    for var, leaf in enumerate(lut.leaves):
        if leaf in pset:
            param_var_of[var] = param_index_of[leaf]
    for cube in cubes:
        lits = []
        for var in range(func.n_vars):
            if (cube.mask >> var) & 1:
                if var not in param_var_of:
                    raise SpecializationError(
                        "cofactored TLUT function depends on a physical var"
                    )
                lits.append((param_var_of[var], (cube.polarity >> var) & 1))
        terms.append(bf_conj(lits))
    expr = terms[0]
    for t in terms[1:]:
        expr = expr | t
    return expr
