"""SCG behaviour, virtual PConf correctness, and cost-model derivations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costmodel import Virtex5Model
from repro.core.scg import SpecializedConfigGenerator
from repro.core.virtual import build_virtual_pconf, tlut_bit_exprs
from repro.errors import SpecializationError
from repro.mapping.result import LutImpl
from repro.netlist.truthtable import TruthTable


@pytest.fixture(scope="module")
def offline():
    from repro.core.flow import DebugFlowConfig, run_generic_stage
    from repro.netlist import parse_blif
    from tests.conftest import TINY_SEQ_BLIF

    return run_generic_stage(
        parse_blif(TINY_SEQ_BLIF), DebugFlowConfig(n_buffer_inputs=2)
    )


class TestVirtualPConf:
    def test_every_lut_has_region(self, offline):
        vp = build_virtual_pconf(offline.mapping, offline.instrumented)
        assert set(vp.lut_regions) == set(offline.mapping.luts)
        assert set(vp.tcon_regions) == set(offline.mapping.tcons)

    def test_regions_disjoint(self, offline):
        vp = build_virtual_pconf(offline.mapping, offline.instrumented)
        spans = sorted(
            list(vp.lut_regions.values()) + list(vp.tcon_regions.values())
        )
        for (a_base, a_n), (b_base, _b_n) in zip(spans, spans[1:]):
            assert a_base + a_n <= b_base

    def test_static_lut_bits_match_function(self, offline):
        vp = build_virtual_pconf(offline.mapping, offline.instrumented)
        assign = offline.instrumented.param_space.zeros()
        bits, _ = vp.bitstream.specialize(assign)
        for root, (base, n) in vp.lut_regions.items():
            lut = offline.mapping.luts[root]
            if lut.is_tlut:
                continue
            for i in range(n):
                assert bits[base + i] == lut.func.eval_index(i)

    def test_tcon_bits_follow_select(self, offline):
        vp = build_virtual_pconf(offline.mapping, offline.instrumented)
        design = offline.instrumented
        for root, (base, _n) in vp.tcon_regions.items():
            t = offline.mapping.tcons[root]
            sel_name = design.network.node_name(t.sel)
            for sel_val in (0, 1):
                assign = design.param_space.assignment({sel_name: sel_val})
                bits, _ = vp.bitstream.specialize(assign)
                assert bits[base + 0] == (1 - sel_val)
                assert bits[base + 1] == sel_val

    def test_tlut_bit_expr_matches_cofactor(self):
        """TLUT config bits must reproduce the mixed function exactly."""
        # func over leaves (10, 20, 30) where 20 is the parameter (var 1):
        # f = mux(p, a, b) — classic tunable buffer pair
        a = TruthTable.var(0, 3)
        b = TruthTable.var(2, 3)
        p = TruthTable.var(1, 3)
        func = (~p & a) | (p & b)
        lut = LutImpl(root=99, leaves=(10, 20, 30), func=func, param_leaves=(20,))
        exprs = tlut_bit_exprs(lut, {20: 0})
        assert len(exprs) == 4  # 2 physical inputs: leaves 10 and 30
        for phys_idx, expr in enumerate(exprs):
            for p_val in (0, 1):
                # full function evaluated with vars (a, p, b)
                a_val = phys_idx & 1
                b_val = (phys_idx >> 1) & 1
                want = func.eval_point([a_val, p_val, b_val])
                assert expr.evaluate({0: p_val}) == want


class TestScg:
    def test_respecialize_before_load_raises(self, offline):
        vp = build_virtual_pconf(offline.mapping, offline.instrumented)
        scg = SpecializedConfigGenerator(vp.bitstream)
        with pytest.raises(SpecializationError):
            scg.respecialize(offline.instrumented.param_space.zeros())

    def test_keeps_initial_and_latest_records(self, offline):
        # a session keeps two records and a running total, not one
        # record per turn
        vp = build_virtual_pconf(offline.mapping, offline.instrumented)
        scg = SpecializedConfigGenerator(vp.bitstream)
        space = offline.instrumented.param_space
        first = scg.load_full(space.zeros())
        assert scg.initial is first and scg.latest is first
        assert scg.total_modeled_overhead_s() == 0
        recs = [scg.respecialize(space.zeros()) for _ in range(3)]
        assert scg.initial is first
        assert scg.latest is recs[-1]
        want = 0
        for rec in recs:
            want += rec.device_cost.specialization_s
        assert scg.total_modeled_overhead_s() == want > 0

    def test_frames_count(self, offline):
        vp = build_virtual_pconf(offline.mapping, offline.instrumented)
        scg = SpecializedConfigGenerator(vp.bitstream, frame_bits=64)
        assert scg.n_frames == -(-vp.n_bits // 64)


class TestCostDerivations:
    def test_three_orders_of_magnitude(self):
        m = Virtex5Model()
        spec_s = m.evaluation_s(25_000, 20_000) + m.partial_reconfig_s(12)
        assert m.full_reconfig_s() / spec_s > 1000

    def test_debug_turn_amortization_quote(self):
        """Paper: 50 us overhead == 5000 turns at 400 MHz / 4 ticks."""
        m = Virtex5Model()
        assert m.break_even_turns(50e-6) == 5000
        assert m.debug_turn_s() * 5000 == pytest.approx(50e-6)

    def test_specialization_report_consistency(self):
        m = Virtex5Model()
        r = m.report(n_expr_nodes=100, n_tunable_bits=100, n_frames_touched=1)
        assert r.specialization_s == pytest.approx(
            r.evaluation_s + r.partial_reconfig_s
        )
        assert r.break_even_turns == m.break_even_turns(r.specialization_s)
