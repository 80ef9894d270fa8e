"""The virtual (pre-placement) parameterized bitstream.

The paper's offline stage first creates "a virtual intermediate level" —
a generalized configuration whose bits are Boolean functions, *before* the
design is committed to device frames (§III, §IV-A.3).  This module builds
exactly that from a mapping result:

* every LUT contributes ``2**n`` configuration bits (its truth table over
  physical inputs).  For a **TLUT**, each bit is the parameter-cofactored
  function — a :class:`~repro.core.boolfunc.BoolExpr`;
* every **TCON** contributes one bit per candidate connection, whose
  expression is the connection's activation condition (``sel`` / ``~sel``).

The same layout logic is reused by the physical bitstream generator
(:mod:`repro.bitgen.genbit`), which simply re-bases the regions onto device
frames; and the online debug session uses the virtual PConf to drive the
SCG before any place-and-route has happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.boolfunc import BoolExpr, bf_conj, bf_const, bf_not, bf_var
from repro.core.muxnet import InstrumentedDesign
from repro.core.pconf import ParameterizedBitstream
from repro.errors import SpecializationError
from repro.mapping.result import LutImpl, MappingResult
from repro.netlist.sop import truthtable_to_cover
from repro.netlist.truthtable import TruthTable, _full_mask, _var_mask

__all__ = ["VirtualPConf", "build_virtual_pconf", "tlut_bit_exprs"]


@dataclass
class VirtualPConf:
    """A parameterized bitstream plus its region directory."""

    bitstream: ParameterizedBitstream
    lut_regions: dict[int, tuple[int, int]] = field(default_factory=dict)
    """LUT root node → (first bit, n bits)."""
    tcon_regions: dict[int, tuple[int, int]] = field(default_factory=dict)
    """TCON root node → (first bit, n bits=2)."""

    @property
    def n_bits(self) -> int:
        return self.bitstream.n_bits


def tlut_bit_exprs(
    lut: LutImpl, param_index_of: dict[int, int]
) -> list[BoolExpr]:
    """Configuration-bit expressions of every TLUT truth-table entry.

    Entry ``i`` packs a physical-input assignment (bit ``j`` of ``i``
    equals physical input ``j``).  One cofactor tree over the physical
    variables, in leaf order, yields each entry's function of the
    parameter leaves: a level doubles the list as the 0-cofactors of the
    previous level followed by its 1-cofactors, so bit ``j`` of a leaf's
    position is the value of physical input ``j``.  Each distinct
    cofactor becomes one BoolExpr, through its ISOP cover.
    """
    n = lut.func.n_vars
    pset = set(lut.param_leaves)
    cofs = [lut.func.bits]
    for var, leaf in enumerate(lut.leaves):
        if leaf in pset:
            continue
        vmask, shift = _var_mask(n, var), 1 << var
        c0 = []
        c1 = []
        for bits in cofs:
            lo, hi = bits & ~vmask, bits & vmask
            c0.append(lo | (lo << shift))
            c1.append(hi | (hi >> shift))
        cofs = c0 + c1
    full = _full_mask(n)
    param_var_of = {
        var: param_index_of[leaf]
        for var, leaf in enumerate(lut.leaves)
        if leaf in pset
    }
    exprs: dict[int, BoolExpr] = {}
    for bits in cofs:
        if bits in exprs:
            continue
        if bits == 0 or bits == full:
            exprs[bits] = bf_const(int(bits == full))
            continue
        expr = None
        for cube in truthtable_to_cover(TruthTable(n, bits)).cubes:
            lits = []
            for var in range(n):
                if (cube.mask >> var) & 1:
                    if var not in param_var_of:
                        raise SpecializationError(
                            "cofactored TLUT function depends on a physical var"
                        )
                    lits.append((param_var_of[var], (cube.polarity >> var) & 1))
            term = bf_conj(lits)
            expr = term if expr is None else expr | term
        exprs[bits] = expr
    return [exprs[bits] for bits in cofs]


def build_virtual_pconf(
    mapping: MappingResult, design: InstrumentedDesign
) -> VirtualPConf:
    """Lay out every LUT/TCON configuration bit and parameterize it."""
    space = design.param_space
    param_index_of = {
        nid: space.index_of(name) for name, nid in design.param_nodes.items()
    }

    # layout: LUTs first (sorted by root id for determinism), then TCONs
    total = 0
    lut_regions: dict[int, tuple[int, int]] = {}
    for root in sorted(mapping.luts):
        n = 1 << len(mapping.luts[root].physical_inputs)
        lut_regions[root] = (total, n)
        total += n
    tcon_regions: dict[int, tuple[int, int]] = {}
    for root in sorted(mapping.tcons):
        tcon_regions[root] = (total, 2)
        total += 2

    pb = ParameterizedBitstream(space, total)

    for root, (base, n) in lut_regions.items():
        lut = mapping.luts[root]
        if not lut.is_tlut:
            # static truth table over its (physical == all) inputs
            for i in range(n):
                pb.set_constant(base + i, lut.func.eval_index(i))
            continue
        for i, expr in enumerate(tlut_bit_exprs(lut, param_index_of)):
            pb.set_tunable(base + i, expr)

    for root, (base, _n) in tcon_regions.items():
        t = mapping.tcons[root]
        sel_idx = param_index_of.get(t.sel)
        if sel_idx is None:
            raise SpecializationError(
                f"TCON select {mapping.network.node_name(t.sel)!r} "
                "is not a declared parameter"
            )
        sel = bf_var(sel_idx)
        pb.set_tunable(base + 0, bf_not(sel))  # source0 active when sel=0
        pb.set_tunable(base + 1, sel)          # source1 active when sel=1

    return VirtualPConf(
        bitstream=pb, lut_regions=lut_regions, tcon_regions=tcon_regions
    )
