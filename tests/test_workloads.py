"""Workload generation and bug injection."""

from __future__ import annotations

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from parity import reference_stuck_at_scenarios
from repro.core.flow import run_generic_stage
from repro.errors import WorkloadError
from repro.netlist import (
    check_equivalent,
    logic_depth,
    network_stats,
    validate_network,
    write_blif,
)
from repro.workloads import (
    campaign_spec,
    generate_circuit,
    get_spec,
    inject_bug,
    paper_suite,
    stuck_at_scenarios,
)
from repro.workloads.perturb import BUG_KINDS
from repro.workloads.suites import PAPER_SUITE


SMALL = [s for s in paper_suite() if s.n_gates < 1000]


class TestSuite:
    def test_suite_has_eight_benchmarks(self):
        assert len(PAPER_SUITE) == 8

    def test_small_subset(self):
        names = [s.name for s in paper_suite(small_only=True)]
        assert names == ["stereov.", "diffeq2", "diffeq1"]

    def test_get_spec_unknown(self):
        with pytest.raises(KeyError):
            get_spec("nope")

    def test_paper_numbers_present(self):
        s = get_spec("clma")
        assert s.n_gates == 8381 and s.paper_sm_luts == 23694


#: sha256 of ``write_blif(generate_circuit(spec))`` for every paper-suite
#: design: generator changes that only speed it up must keep these.
PAPER_SUITE_BLIF_SHA256 = {
    "stereov.": "defade97fb98f8a8bfb816dd18a9c020d7609a9d958e92cb37d57754bb4b903a",
    "diffeq2": "c1b8218849a00b4a644ebec875e08f9d412f9e6ca26bb8cc2c10b708be039b92",
    "diffeq1": "ba1afb96de489fc01abaaa64ea20d66e8224226d9653d85351076835a1baca9e",
    "clma": "f1d6d808c991ed4069ab78b3bb53c43b835a2d9ccbfdda5efe87d6f09f94af81",
    "or1200": "9872c98f752d696de3e40851dce178509134879eeffddfb16dbab05a6e78389e",
    "frisc": "b5b465a96dfac1f602e859a82cb2587153c84ab2af8309f30f140817c7e8b6b8",
    "s38417": "9912b27b0dd6926009a0478a9b085a44737a24ed02d952e76d8cacb9a7c53362",
    "s38584": "31ea207ebf4c95c778b35c16b673bf842f4854778e475d7c090bac184bfe34b0",
}


class TestGenerator:
    @pytest.mark.parametrize("spec", paper_suite(), ids=lambda s: s.name)
    def test_paper_suite_blif_pinned(self, spec):
        blif = write_blif(generate_circuit(spec))
        digest = hashlib.sha256(blif.encode()).hexdigest()
        assert digest == PAPER_SUITE_BLIF_SHA256[spec.name]

    @pytest.mark.parametrize("spec", SMALL, ids=lambda s: s.name)
    def test_exact_gate_count(self, spec):
        net = generate_circuit(spec)
        assert net.n_gates == spec.n_gates

    @pytest.mark.parametrize("spec", SMALL, ids=lambda s: s.name)
    def test_exact_gate_depth(self, spec):
        net = generate_circuit(spec)
        assert logic_depth(net) == spec.gate_depth_target

    @pytest.mark.parametrize("spec", SMALL, ids=lambda s: s.name)
    def test_structurally_valid(self, spec):
        validate_network(generate_circuit(spec))

    @pytest.mark.parametrize("spec", SMALL, ids=lambda s: s.name)
    def test_no_dead_logic(self, spec):
        net = generate_circuit(spec)
        counts = net.fanout_counts()
        dead = [g for g in net.gates() if counts[g] == 0]
        assert dead == []

    def test_deterministic(self):
        spec = get_spec("stereov.")
        assert write_blif(generate_circuit(spec, 1)) == write_blif(
            generate_circuit(spec, 1)
        )

    def test_seed_changes_circuit(self):
        spec = get_spec("stereov.")
        assert write_blif(generate_circuit(spec, 1)) != write_blif(
            generate_circuit(spec, 2)
        )

    def test_latch_count(self):
        spec = get_spec("diffeq2")
        assert generate_circuit(spec).n_latches == spec.n_latches

    def test_impossible_depth_raises(self):
        spec = dataclasses.replace(
            get_spec("stereov."), n_gates=3, gate_depth_target=10
        )
        with pytest.raises(WorkloadError):
            generate_circuit(spec)

    def test_golden_depth_calibration(self, stereov_offline):
        # the generator + ABC mapping reproduce the paper's Golden depth
        spec = get_spec("stereov.")
        from repro.baselines.conventional import user_sink_names

        sinks = user_sink_names(stereov_offline.source)
        assert stereov_offline.initial.depth_to(sinks) == spec.golden_depth


class TestBugInjection:
    def test_changes_local_function(self, tiny_seq, rng):
        net = tiny_seq.copy()
        bug = inject_bug(net, rng)
        assert net.func(bug.node) != bug.original_func

    @pytest.mark.parametrize("kind", BUG_KINDS)
    def test_each_kind(self, tiny_seq, rng, kind):
        net = tiny_seq.copy()
        bug = inject_bug(net, rng, kind=kind)
        assert bug.kind in BUG_KINDS
        assert net.func(bug.node) != bug.original_func

    def test_target_node(self, tiny_seq, rng):
        net = tiny_seq.copy()
        target = net.require("t1")
        bug = inject_bug(net, rng, node=target, kind="stuck_at")
        assert bug.node == target

    def test_non_gate_target_rejected(self, tiny_seq, rng):
        with pytest.raises(WorkloadError):
            inject_bug(tiny_seq.copy(), rng, node=tiny_seq.pis[0])

    def test_some_bug_is_observable(self, rng):
        golden = generate_circuit(get_spec("stereov."))
        found = False
        for _ in range(20):
            trial = golden.copy()
            inject_bug(trial, rng)
            if not check_equivalent(golden, trial, n_vectors=256, n_cycles=4):
                found = True
                break
        assert found, "20 random bugs all invisible — suspicious"


SCREEN_SPECS = [
    campaign_spec("screen-comb", n_gates=100, depth=7, n_pis=16, n_pos=8),
    campaign_spec(
        "screen-seq", n_gates=100, depth=7, n_latches=6, n_pis=16, n_pos=8
    ),
]


@pytest.fixture(scope="module", params=SCREEN_SPECS, ids=lambda s: s.name)
def screen_design(request):
    spec = request.param
    return spec, run_generic_stage(generate_circuit(spec))


class TestStuckAtScreening:
    """Packed-lane screening against the one-candidate-at-a-time
    reference in ``tests/parity.py``."""

    @pytest.mark.parametrize("seed", [1, 7, 2016])
    def test_packed_screen_matches_sequential_reference(
        self, screen_design, seed
    ):
        spec, offline = screen_design
        kw = dict(seed=seed, horizon=24, offline=offline)
        with pytest.raises(WorkloadError) as ref_err:
            reference_stuck_at_scenarios(spec, 10**6, **kw)
        observable = int(re.match(r"only (\d+)/", str(ref_err.value))[1])
        assert observable > 5
        # none, one, a typical count, and every observable fault
        for n in (0, 1, 5, observable):
            assert stuck_at_scenarios(
                spec, n, **kw
            ) == reference_stuck_at_scenarios(spec, n, **kw)
        with pytest.raises(WorkloadError) as err:
            stuck_at_scenarios(spec, 10**6, **kw)
        assert str(err.value) == str(ref_err.value)
