"""Cross-backend differential parity harness.

The compiled simulation layer has two independent kernel
implementations — the generated big-int python kernels and the
vectorized numpy lowering — and ``benchmarks/ref_simulate.py`` keeps
the reference per-gate simulator as a third.  This harness treats every
implementation as an oracle that must agree **bit-for-bit** with an
independent big-int reference evaluator (:mod:`tests.parity`, which
shares no lowering code with any of them):

* a seeded random-network sweep over unmapped/mapped × combinational/
  sequential shapes at lane widths 1, 64, 96, 128 and 1024, with
  fault-style (lane-masked) and mutation-style (full-mask) overrides;
* backend resolution rules (width-based auto selection, explicit-request
  validation);
* full-campaign outcome diffs: the same stuck-at campaign run once per
  backend (pinned through ``AUTO_NUMPY_MIN_WORDS``) must produce
  byte-identical outcomes JSON — fast multi-word version always, the
  full 1024-scenario single-batch version on the slow tier.
"""

from __future__ import annotations

import json
import random

import pytest

import numpy as np

from benchmarks import ref_simulate
from parity import (
    pin_backend,
    random_network,
    random_override_ints,
    random_stimulus_ints,
    reference_sequential,
)
from repro.errors import SimulationError
from repro.netlist.compiled import (
    AUTO_NUMPY_MIN_WORDS,
    CompiledSimulator,
    program_for,
    resolve_backend,
)

#: Lane widths the sweep covers: single word, exact word boundary, ragged
#: multi-word, two words, and the 16-word width the issue targets.
WIDTHS = (1, 64, 96, 128, 1024)

N_CYCLES = 6


def _n_words(width: int) -> int:
    return (width + 63) // 64


def _scenario(net, width: int, seed: int):
    """Deterministic stimulus + per-cycle overrides for one sweep case.

    Cycles alternate between clean, fault-style (lane-masked) and
    mutation-style (full-mask) overrides so each backend's override
    blending is exercised in every combination.
    """
    rng = random.Random(seed * 7919 + width)
    nw = _n_words(width)
    stim_rows = [random_stimulus_ints(rng, net, nw) for _ in range(N_CYCLES)]
    overrides = {}
    for cyc in range(N_CYCLES):
        if cyc % 3 == 1:
            overrides[cyc] = random_override_ints(rng, net, nw, lane_masked=True)
        elif cyc % 3 == 2:
            overrides[cyc] = random_override_ints(rng, net, nw, lane_masked=False)
    return nw, stim_rows, overrides


def _compiled_cycles(net, backend, nw, stim_rows, overrides):
    """Per-cycle, per-node word-packed values from a compiled backend."""
    sim = CompiledSimulator(program_for(net), nw, backend=backend)
    assert sim.backend == backend
    out = []
    for cyc, stim in enumerate(stim_rows):
        sim.step(stim, overrides=overrides.get(cyc))
        out.append({nid: sim.value(nid) for nid in net.nodes()})
    return out


def _interpreted_cycles(net, nw, stim_rows, overrides):
    """Same trace from the reference per-gate simulator."""

    def row(v):
        return np.frombuffer(v.to_bytes(8 * nw, "little"), dtype=np.uint64)

    sim = ref_simulate.SequentialSimulator(net, n_words=nw)
    out = []
    for cyc, stim in enumerate(stim_rows):
        ov = overrides.get(cyc)
        values = sim.step(
            {pid: row(v) for pid, v in stim.items()},
            overrides=(
                None
                if ov is None
                else {n: (row(f), row(m)) for n, (f, m) in ov.items()}
            ),
        )
        out.append(
            {
                nid: int.from_bytes(
                    np.ascontiguousarray(values[nid]).tobytes(), "little"
                )
                for nid in net.nodes()
            }
        )
    return out


def _assert_traces_equal(net, got, want, label: str):
    assert len(got) == len(want)
    for cyc, (g, w) in enumerate(zip(got, want)):
        for nid in net.nodes():
            assert g[nid] == w[nid], (
                f"{label}: cycle {cyc}, node {net.node_name(nid)!r}: "
                f"{g[nid]:#x} != {w[nid]:#x}"
            )


def _comb_net(seed: int):
    return random_network(seed, n_pis=10, n_gates=70, n_pos=6)


def _seq_net(seed: int):
    return random_network(seed, n_pis=8, n_gates=60, n_latches=6, n_pos=5)


class TestPythonBackendVsReference:
    """Pure-python leg: generated big-int kernels vs the independent
    big-int reference."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_combinational(self, seed, width):
        net = _comb_net(seed)
        nw, stim, ov = _scenario(net, width, seed)
        want = reference_sequential(net, stim, nw, ov)
        got = _compiled_cycles(net, "python", nw, stim, ov)
        _assert_traces_equal(net, got, want, f"python w={width}")

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_sequential(self, seed, width):
        net = _seq_net(seed)
        nw, stim, ov = _scenario(net, width, seed)
        want = reference_sequential(net, stim, nw, ov)
        got = _compiled_cycles(net, "python", nw, stim, ov)
        _assert_traces_equal(net, got, want, f"python w={width}")


class TestAllBackendsAgree:
    """Four-way diff: reference vs python-compiled vs numpy-compiled vs
    the reference per-gate simulator, every node, every cycle."""

    def _sweep(self, net, width: int, seed: int):
        nw, stim, ov = _scenario(net, width, seed)
        want = reference_sequential(net, stim, nw, ov)
        for label, got in (
            ("python", _compiled_cycles(net, "python", nw, stim, ov)),
            ("numpy", _compiled_cycles(net, "numpy", nw, stim, ov)),
            ("interpreted", _interpreted_cycles(net, nw, stim, ov)),
        ):
            _assert_traces_equal(net, got, want, f"{label} w={width}")

    @pytest.mark.parametrize("width", WIDTHS)
    def test_combinational(self, width):
        self._sweep(_comb_net(11), width, 11)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_sequential(self, width):
        self._sweep(_seq_net(12), width, 12)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_mapped(self, width, mapped_parity_net):
        self._sweep(mapped_parity_net, width, 13)


@pytest.fixture(scope="module")
def mapped_parity_net():
    from repro.core.flow import run_generic_stage
    from repro.workloads import campaign_spec, generate_circuit

    spec = campaign_spec("parity-map", n_gates=110, depth=8, n_pis=14, n_pos=7)
    return run_generic_stage(generate_circuit(spec, 7)).mapping.to_lut_network()


class TestBackendResolution:
    def test_explicit_requests_honoured(self):
        assert resolve_backend("python", n_words=64) == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown simulation backend"):
            resolve_backend("fortran")

    def test_auto_is_width_based(self):
        assert resolve_backend(None, n_words=1) == "python"
        assert resolve_backend(None, n_words=AUTO_NUMPY_MIN_WORDS - 1) == "python"
        wide = resolve_backend(None, n_words=AUTO_NUMPY_MIN_WORDS)
        assert wide == "numpy"
        assert resolve_backend("auto", n_words=16) == wide


# -- full-campaign outcome diffs ----------------------------------------------

def _campaign_outcomes_json(scenarios, backend, cache, monkeypatch, *, max_turns=16):
    from repro.campaign import CampaignConfig, run_campaign

    pin_backend(monkeypatch, backend)
    assert resolve_backend(None, n_words=1) == backend
    assert resolve_backend(None, n_words=16) == backend
    report = run_campaign(
        scenarios,
        config=CampaignConfig(lane_width=1024, max_turns=max_turns),
        cache=cache,
    )
    assert "error" not in {r.status for r in report.results}
    return json.dumps(report.outcomes(), sort_keys=True)


def test_campaign_outcomes_identical_multiword(monkeypatch):
    """96-scenario stuck-at campaign (two-word batch at ``lane_width=1024``)
    run per backend: the outcomes JSON must be byte-identical."""
    from repro.campaign import ArtifactStore
    from repro.workloads import campaign_spec, stuck_at_scenarios

    spec = campaign_spec("parity-fast", n_gates=420, depth=8, n_pis=32, n_pos=24)
    scenarios = stuck_at_scenarios(spec, 96, horizon=24)
    cache = ArtifactStore()
    py = _campaign_outcomes_json(scenarios, "python", cache, monkeypatch)
    vec = _campaign_outcomes_json(scenarios, "numpy", cache, monkeypatch)
    assert py == vec


@pytest.mark.slow
def test_campaign_outcomes_identical_width_1024(monkeypatch):
    """The flagship diff: a full 1024-scenario stuck-at campaign — one
    single 1024-lane (16-word) batch — run once per backend against a
    shared offline cache.  Outcomes JSON must match byte for byte."""
    from repro.campaign import ArtifactStore
    from repro.workloads import campaign_spec, stuck_at_scenarios

    spec = campaign_spec(
        "parity-camp", n_gates=3000, depth=8, n_pis=96, n_pos=80
    )
    scenarios = stuck_at_scenarios(spec, 1024, horizon=24)
    assert len(scenarios) == 1024
    cache = ArtifactStore()
    py = _campaign_outcomes_json(scenarios, "python", cache, monkeypatch)
    vec = _campaign_outcomes_json(scenarios, "numpy", cache, monkeypatch)
    assert py == vec
