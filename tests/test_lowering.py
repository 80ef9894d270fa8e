"""Integer truth-table lowering against its references.

``benchmarks/ref_lowering.py`` keeps the ISOP recursion over
:class:`~repro.netlist.sop.Cube` objects and the per-bit TLUT cofactoring
that the emulation stage ran before it lowered on plain integers:

* the integer ISOP returns the reference's cubes, in the same order, and
  the same function bits, for functions of 0–10 variables and for random
  ``(lower, upper)`` intervals;
* every batched TLUT bit is the very interned expression the reference
  builds for its physical index, over random TLUTs with parameters at
  random leaf positions and 0–6 physical inputs;
* the physical bitstream's TLUT masks are the reference's expressions of
  each mask bit's physical index.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks import ref_lowering as ref
from repro.core.boolfunc import bf_const
from repro.core.flow import DebugFlowConfig, run_generic_stage, run_physical_stage
from repro.core.virtual import tlut_bit_exprs
from repro.mapping.result import LutImpl
from repro.netlist import parse_blif
from repro.netlist.sop import _isop, truthtable_to_cover
from repro.netlist.truthtable import TruthTable
from tests.conftest import TINY_SEQ_BLIF


def _bits(n: int):
    """Functions of ``n`` variables: any integer, or a dense random one."""
    dense = st.integers(0, 2**32).map(
        lambda seed: random.Random(seed).getrandbits(1 << n)
    )
    return st.one_of(st.integers(0, (1 << (1 << n)) - 1), dense)


def _functions(lo: int, hi: int):
    """``(n, bits)`` over ``lo``..``hi`` variables."""
    return st.integers(lo, hi).flatmap(
        lambda n: st.tuples(st.just(n), _bits(n))
    )


def _pairs(cubes) -> tuple:
    return tuple((c.mask, c.polarity) for c in cubes)


class TestIsop:
    @settings(max_examples=400, deadline=None)
    @given(fn=_functions(0, 6))
    def test_matches_reference(self, fn):
        n, bits = fn
        cubes, func = ref.isop(bits, bits, n)
        assert _isop(bits, bits, n) == (_pairs(cubes), func)
        assert truthtable_to_cover(TruthTable(n, bits)).cubes == cubes

    @settings(max_examples=40, deadline=None)
    @given(fn=_functions(7, 10))
    def test_matches_reference_wide(self, fn):
        n, bits = fn
        cubes, func = ref.isop(bits, bits, n)
        assert _isop(bits, bits, n) == (_pairs(cubes), func)

    @settings(max_examples=300, deadline=None)
    @given(
        fn=_functions(0, 8),
        other=st.integers(0, (1 << 256) - 1),
    )
    def test_intervals_match_reference(self, fn, other):
        n, bits = fn
        other &= (1 << (1 << n)) - 1
        lower, upper = bits & other, bits | other
        cubes, func = ref.isop(lower, upper, n)
        assert _isop(lower, upper, n) == (_pairs(cubes), func)
        assert lower & ~func == 0 and func & ~upper == 0


@st.composite
def tluts(draw):
    """A random TLUT: 0–6 physical inputs and 1–3 parameters at random
    leaf positions, any function, and random parameter indices."""
    n_phys = draw(st.integers(0, 6))
    n_params = draw(st.integers(1, 3))
    n = n_phys + n_params
    is_param = draw(st.permutations([True] * n_params + [False] * n_phys))
    leaves = tuple(range(10, 10 + n))
    params = tuple(leaf for leaf, p in zip(leaves, is_param) if p)
    lut = LutImpl(
        root=99,
        leaves=leaves,
        func=TruthTable(n, draw(_bits(n))),
        param_leaves=params,
    )
    indices = draw(st.permutations(range(5)))
    return lut, dict(zip(params, indices))


class TestTlutBits:
    @settings(max_examples=300, deadline=None)
    @given(case=tluts())
    def test_batch_is_the_reference_expression(self, case):
        lut, param_index_of = case
        exprs = tlut_bit_exprs(lut, param_index_of)
        assert len(exprs) == 1 << len(lut.physical_inputs)
        for i, expr in enumerate(exprs):
            assert expr is ref.tlut_bit_expr(lut, i, param_index_of)

    def test_bitgen_masks_are_the_reference_expressions(self):
        offline = run_generic_stage(
            parse_blif(TINY_SEQ_BLIF), DebugFlowConfig(n_buffer_inputs=2)
        )
        phys = run_physical_stage(offline)
        design = offline.instrumented
        param_index_of = {
            nid: design.param_space.index_of(name)
            for name, nid in design.param_nodes.items()
        }
        pb = phys.bitstream.pconf
        checked = 0
        for cluster in phys.packed.clusters:
            x, y = phys.placement.cluster_site(cluster.index)
            for pos, ble in enumerate(cluster.bles):
                lut = (
                    offline.mapping.luts.get(ble.lut.output)
                    if ble.lut is not None
                    else None
                )
                if lut is None or not lut.is_tlut:
                    continue
                base = phys.layout.lut_base[(x, y, pos)]
                phys_mask = (1 << len(lut.physical_inputs)) - 1
                for i in range(1 << phys.arch.k):
                    want = ref.tlut_bit_expr(lut, i & phys_mask, param_index_of)
                    got = pb.tunable.get(base + i)
                    if got is None:  # constant bits live in the baseline
                        got = bf_const(int(pb.baseline[base + i]))
                    assert got is want
                checked += 1
        assert checked == offline.mapping.n_tluts > 0


@pytest.mark.parametrize("n_phys", [0, 1, 3])
def test_constant_cofactors_are_constants(n_phys):
    """A TLUT whose function ignores its parameter configures constants."""
    n = n_phys + 1
    func = TruthTable.var(0, n) if n_phys else TruthTable.const(1, n)
    lut = LutImpl(
        root=1, leaves=tuple(range(2, 2 + n)), func=func,
        param_leaves=(1 + n,),
    )
    exprs = tlut_bit_exprs(lut, {1 + n: 0})
    assert [e.value for e in exprs] == [
        func.eval_index(i) for i in range(1 << n_phys)
    ]
    assert all(e.is_const() for e in exprs)
