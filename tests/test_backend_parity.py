"""Differential parity harness for the compiled simulation kernels.

The generated big-int kernels are the one compiled implementation.
``benchmarks/ref_simulate.py`` keeps the reference per-gate simulator as
an independent second one, and :mod:`tests.parity` an independent
big-int reference evaluator that shares no lowering code with either.
Both simulators must agree with that evaluator **bit-for-bit**:

* a seeded random-network sweep over unmapped/mapped × combinational/
  sequential shapes at lane widths 1, 64, 96, 128 and 1024, with
  fault-style (lane-masked) and mutation-style (full-mask) overrides;
* backend resolution rules (``"python"`` at every width, unknown names
  rejected);
* full-campaign outcome diffs: the same stuck-at campaign run on the
  compiled kernels and on the reference simulator
  (:func:`benchmarks.ref_simulate.reference_online`) must produce
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
    random_network,
    random_override_ints,
    random_stimulus_ints,
    reference_sequential,
)
from repro.errors import SimulationError
from repro.netlist.compiled import (
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
    mutation-style (full-mask) overrides so each simulator's override
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


def _compiled_cycles(net, nw, stim_rows, overrides):
    """Per-cycle, per-node word-packed values from the compiled kernels."""
    sim = CompiledSimulator(program_for(net), nw)
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


def _sweep(net, width: int, seed: int) -> None:
    """Every node, every cycle: the compiled kernels and the reference
    per-gate simulator each equal the independent reference evaluator."""
    nw, stim, ov = _scenario(net, width, seed)
    want = reference_sequential(net, stim, nw, ov)
    for label, got in (
        ("compiled", _compiled_cycles(net, nw, stim, ov)),
        ("interpreted", _interpreted_cycles(net, nw, stim, ov)),
    ):
        _assert_traces_equal(net, got, want, f"{label} w={width}")


def _comb_net(seed: int):
    return random_network(seed, n_pis=10, n_gates=70, n_pos=6)


def _seq_net(seed: int):
    return random_network(seed, n_pis=8, n_gates=60, n_latches=6, n_pos=5)


class TestPythonBackendVsReference:
    """The sweep on seeds 1-4: two networks per unmapped shape."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_combinational(self, seed, width):
        _sweep(_comb_net(seed), width, seed)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_sequential(self, seed, width):
        _sweep(_seq_net(seed), width, seed)


class TestAllBackendsAgree:
    """The sweep on seeds 11-13: one network per shape, mapped included."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_combinational(self, width):
        _sweep(_comb_net(11), width, 11)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_sequential(self, width):
        _sweep(_seq_net(12), width, 12)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_mapped(self, width, mapped_parity_net):
        _sweep(mapped_parity_net, width, 13)


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
        for name in ("fortran", "numpy"):
            with pytest.raises(SimulationError, match="unknown simulation backend"):
                resolve_backend(name)

    def test_auto_is_python_at_every_width(self):
        for n_words in (1, 3, 4, 16, 1024):
            assert resolve_backend(None, n_words=n_words) == "python"
            assert resolve_backend("auto", n_words=n_words) == "python"
        net = _comb_net(1)
        for n_words in (1, 4, 16):
            sim = CompiledSimulator(program_for(net), n_words)
            assert sim.backend == "python"


# -- full-campaign outcome diffs ----------------------------------------------

def _campaign_outcomes_json(scenarios, cache, *, max_turns=16):
    from repro.campaign import CampaignConfig, run_campaign

    report = run_campaign(
        scenarios,
        config=CampaignConfig(lane_width=1024, max_turns=max_turns),
        cache=cache,
    )
    assert "error" not in {r.status for r in report.results}
    return json.dumps(report.outcomes(), sort_keys=True)


def _compiled_vs_reference(scenarios) -> None:
    """One campaign on the compiled kernels, then on the reference
    simulator (golden passes and lane batches), over a shared store: the
    outcomes JSON must match byte for byte.  ``reference_online`` patches
    in-process names, so both legs run with the default ``workers=1``."""
    from repro.campaign import ArtifactStore

    cache = ArtifactStore()
    compiled = _campaign_outcomes_json(scenarios, cache)
    with ref_simulate.reference_online():
        reference = _campaign_outcomes_json(scenarios, cache)
    assert compiled == reference


def test_campaign_outcomes_identical_multiword():
    """96-scenario stuck-at campaign (two-word batch at ``lane_width=1024``)
    on the compiled kernels and on the reference simulator."""
    from repro.workloads import campaign_spec, stuck_at_scenarios

    spec = campaign_spec("parity-fast", n_gates=420, depth=8, n_pis=32, n_pos=24)
    _compiled_vs_reference(stuck_at_scenarios(spec, 96, horizon=24))


@pytest.mark.slow
def test_campaign_outcomes_identical_width_1024():
    """The flagship diff: a full 1024-scenario stuck-at campaign — one
    single 1024-lane (16-word) batch — on the compiled kernels and on the
    reference simulator at the same width."""
    from repro.workloads import campaign_spec, stuck_at_scenarios

    spec = campaign_spec(
        "parity-camp", n_gates=3000, depth=8, n_pis=96, n_pos=80
    )
    scenarios = stuck_at_scenarios(spec, 1024, horizon=24)
    assert len(scenarios) == 1024
    _compiled_vs_reference(scenarios)
