"""Slow integration tests over the benchmark suite (marked ``slow``).

Run with ``pytest -m slow`` (excluded from the default quick run only if
you deselect them; they are kept in the default run because the suite's
small subset finishes in well under a minute).
"""

from __future__ import annotations

import pytest

from parity import check_equivalent
from repro.analysis.experiments import run_benchmark_columns
from repro.baselines.conventional import user_sink_names
from repro.netlist import validate_network
from repro.workloads import paper_suite

SMALL = [s for s in paper_suite() if s.n_gates < 1000]


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: s.name)
class TestSuiteShape:
    def test_area_ordering(self, spec):
        cols = run_benchmark_columns(spec)
        conv = min(cols.sm.n_luts, cols.abc.n_luts)
        assert cols.proposed.n_luts < conv
        assert conv / cols.proposed.n_luts > 2.0

    def test_depth_matches_paper_golden(self, spec):
        cols = run_benchmark_columns(spec)
        golden = cols.initial.depth_to(cols.user_sinks)
        assert golden == spec.golden_depth
        assert cols.proposed.depth_to(cols.user_sinks) <= golden

    def test_proposed_mapping_equivalent(self, spec):
        cols = run_benchmark_columns(spec)
        lutnet = cols.proposed.to_lut_network()
        validate_network(lutnet)
        assert check_equivalent(
            cols.offline.instrumented.network,
            lutnet,
            n_vectors=128,
            n_cycles=4,
        )

    def test_tcon_count_scales_with_taps(self, spec):
        cols = run_benchmark_columns(spec)
        n_taps = len(cols.offline.taps)
        assert 1.0 * n_taps <= cols.proposed.n_tcons <= 2.0 * n_taps


@pytest.mark.slow
def test_full_suite_headline_ratio():
    """The paper's 3.5x claim over the whole suite (slow: ~2-3 minutes)."""
    ratios = []
    for spec in paper_suite():
        cols = run_benchmark_columns(spec)
        conv = (cols.sm.n_luts + cols.abc.n_luts) / 2
        ratios.append(conv / cols.proposed.n_luts)
    avg = sum(ratios) / len(ratios)
    assert 2.8 <= avg <= 4.5, f"headline ratio {avg:.2f} drifted"
