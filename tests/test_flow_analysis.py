"""Flow orchestration, cost models, baselines, analysis drivers."""

from __future__ import annotations

import os

import pytest

from repro.analysis import ascii_bar_chart, run_table1, run_table2, save_result
from repro.analysis.experiments import run_benchmark_columns
from repro.baselines import RecompileModel, run_conventional_flow
from repro.baselines.conventional import user_sink_names
from repro.core.costmodel import Virtex5Model
from repro.core.flow import DebugFlowConfig, run_generic_stage
from repro.core.virtual import build_virtual_pconf
from repro.errors import DebugFlowError
from repro.workloads import get_spec


class TestCostModel:
    def test_full_reconfig_is_176ms(self):
        assert Virtex5Model().full_reconfig_s() == pytest.approx(0.176, rel=0.02)

    def test_break_even_5000(self):
        m = Virtex5Model()
        assert m.break_even_turns(50e-6) == 5000

    def test_partial_scales_with_frames(self):
        m = Virtex5Model()
        assert m.partial_reconfig_s(10) == pytest.approx(
            10 * m.partial_reconfig_s(1)
        )

    def test_report_rows(self):
        rep = Virtex5Model().report(
            n_expr_nodes=10_000, n_tunable_bits=20_000, n_frames_touched=4
        )
        keys = [k for k, _v in rep.rows()]
        assert "full reconfiguration" in keys
        assert rep.speedup_vs_full > 100

    def test_evaluation_within_50us_for_paper_sizes(self):
        m = Virtex5Model()
        assert m.evaluation_s(25_000, 20_000) < 50e-6


class TestRecompileModel:
    def test_monotone(self):
        m = RecompileModel()
        assert m.compile_time_s(1000) < m.compile_time_s(10_000)

    def test_hour_scale_at_25k(self):
        t = RecompileModel().compile_time_s(25_000)
        assert 1800 < t < 7200

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RecompileModel().compile_time_s(-1)


class TestOfflineStage:
    def test_summary_and_annotation(self, stereov_offline):
        s = stereov_offline
        assert "LUTs" in s.summary()
        assert len(s.annotation.param_names) == len(s.instrumented.param_space)
        assert sum(s.trace.seconds().values()) > 0

    def test_virtual_pconf_dimensions(self, stereov_offline):
        vp = build_virtual_pconf(
            stereov_offline.mapping, stereov_offline.instrumented
        )
        assert vp.n_bits > 0
        assert vp.bitstream.n_tunable > 0
        # every TCON claims exactly two bits
        assert all(n == 2 for _b, n in vp.tcon_regions.values())

    def test_empty_design_rejected(self):
        from repro.netlist import LogicNetwork

        net = LogicNetwork("empty")
        net.add_pi("a")
        net.add_po_dummy = None
        with pytest.raises(Exception):
            run_generic_stage(net)


class TestConventionalFlow:
    def test_structure(self, stereov_net):
        res = run_conventional_flow(stereov_net, "abc")
        assert res.n_luts > res.phase1.n_luts
        assert res.n_instrumentation_luts > 0
        assert res.n_taps == len(res.instrumented.taps)
        assert "abc" in res.summary()

    def test_depth_within_one_of_golden(self, stereov_net, stereov_offline):
        sinks = user_sink_names(stereov_net)
        golden = stereov_offline.initial.depth_to(sinks)
        for mapper in ("simplemap", "abc"):
            res = run_conventional_flow(stereov_net, mapper)
            assert golden <= res.user_depth <= golden + 1

    def test_unknown_mapper(self, stereov_net):
        with pytest.raises(DebugFlowError):
            run_conventional_flow(stereov_net, "vivado")


class TestAnalysis:
    def test_table1_small(self):
        text = run_table1([get_spec("stereov.")])
        assert "stereov." in text and "Proposed" in text
        assert "paper" in text.lower()

    def test_table2_small(self):
        text = run_table2([get_spec("stereov.")])
        assert "Golden" in text

    def test_columns_cached(self):
        a = run_benchmark_columns(get_spec("stereov."))
        b = run_benchmark_columns(get_spec("stereov."))
        assert a is b

    def test_ascii_chart(self):
        chart = ascii_bar_chart([("x", {"a": 1.0, "b": 2.0})], width=10)
        assert "##########" in chart

    def test_save_result(self, tmp_path):
        p = save_result("unit", "hello", str(tmp_path))
        assert os.path.exists(p)
        with open(p) as fh:
            assert fh.read() == "hello\n"
