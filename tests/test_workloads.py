"""Workload generation and bug injection."""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parity import check_equivalent, reference_stuck_at_scenarios
from repro.core.flow import run_generic_stage
from repro.errors import WorkloadError
from repro.netlist import (
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
    mutation_scenarios,
    paper_suite,
    stimulus_script,
    stuck_at_scenarios,
)
from repro.workloads import generator
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

#: The campaign designs the benchmark and the CLI build: perfbench's
#: warm-campaign (``parity-camp``) and cold-physical (``synth150``)
#: designs, ``--synthetic-gates 400`` and a sequential synthetic design.
CAMPAIGN_SPECS = {
    "parity-camp": campaign_spec(
        "parity-camp", n_gates=300, depth=8, n_pis=32, n_pos=24
    ),
    "synth150": campaign_spec(
        "synth150", n_gates=150, depth=10, n_pis=20, n_pos=10
    ),
    "synthetic-400": campaign_spec(
        "synthetic-400", n_gates=400, depth=8, n_pis=25, n_pos=12
    ),
    "seq-12": campaign_spec(
        "seq-12", n_gates=200, depth=8, n_latches=12, n_pis=16, n_pos=8
    ),
}

#: sha256 of ``write_blif(generate_circuit(spec, seed))`` for each campaign
#: design at three seeds, recorded from the generator that drew its gate
#: functions with ``Generator.choice``: the CDF draw must keep them.
CAMPAIGN_BLIF_SHA256 = {
    ("parity-camp", 2016): "5a41f14eec36af6322b6f16fce2f323a600cae10186372caec2d7a03e04f18b5",
    ("parity-camp", 7): "b72ed668899aabc962c3cb89e194fc166bdc87e6b5efb328307fcf92a67b77f9",
    ("parity-camp", 123): "c285c709a8eddcdf188bf593a2cdbbacc4a7ac011485a53cd10aafc8708cf954",
    ("synth150", 2016): "fe74e3f0b57bb56e710cc95375ad56ad87fd9dba77ce272084264eb10b94050a",
    ("synth150", 7): "c30f769f48c779dd7d96e2cd2a5aa3b0e50a0de09320f3a7ee17f283858134b6",
    ("synth150", 123): "3a1c9c82c3da7fc3886af4fbafcb830b2c6cb72d26963f10f8e7815052d6f7ca",
    ("synthetic-400", 2016): "ffdeb8d20df2d2f25ce07d5b576875b6c4ffdf84630e847dbd52f4597089578f",
    ("synthetic-400", 7): "1a219c349da2566d88cad4f79e89ca805f2073c7d47061f44dd1489c54e04096",
    ("synthetic-400", 123): "7d97dafa0ea77e7f23a05c1cbe244e2268456a2b1abffdfbb97733ae6689db14",
    ("seq-12", 2016): "0908c235342d4dd9c2884b4c9159ae0fc362f5f611ae9b6fd023d9859c71db4c",
    ("seq-12", 7): "d27c21037482de6e5ab65c32e612bf7926a0b662b2fa0e7e7f113a4d1d2690a5",
    ("seq-12", 123): "d6399201d3ef6ac031dccc9f79c16bc18aeb1f94bf0c476fdfc8266142a9c489",
}


class TestGenerator:
    @pytest.mark.parametrize("spec", paper_suite(), ids=lambda s: s.name)
    def test_paper_suite_blif_pinned(self, spec):
        blif = write_blif(generate_circuit(spec))
        digest = hashlib.sha256(blif.encode()).hexdigest()
        assert digest == PAPER_SUITE_BLIF_SHA256[spec.name]

    @pytest.mark.parametrize(
        "name,seed", list(CAMPAIGN_BLIF_SHA256), ids=lambda v: str(v)
    )
    def test_campaign_designs_blif_pinned(self, name, seed):
        blif = write_blif(generate_circuit(CAMPAIGN_SPECS[name], seed))
        digest = hashlib.sha256(blif.encode()).hexdigest()
        assert digest == CAMPAIGN_BLIF_SHA256[name, seed]

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

    def test_weighted_draw_equals_generator_choice(self):
        # the CDF draw consumes one double, exactly as choice does, so
        # interleaved draws keep both streams in step
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        weights = generator._TWO_INPUT_WEIGHTS
        for _ in range(20000):
            want = int(a.choice(len(weights), p=weights))
            got = bisect.bisect_right(generator._TWO_INPUT_CDF, b.random())
            assert got == want
            assert a.integers(0, 97) == b.integers(0, 97)
        assert a.random() == b.random()

    def test_stimulus_script_equals_per_bit_draws(self):
        # the reference: one scalar integers(0, 2) per PI per cycle
        net = generate_circuit(CAMPAIGN_SPECS["seq-12"], 7)
        names = [net.node_name(p) for p in net.pis]
        for seed, n_cycles in ((7, 24), (0, 1), (2016, 65), (3, 0)):
            rng = np.random.default_rng(seed)
            want = [
                {n: int(rng.integers(0, 2)) for n in names}
                for _ in range(n_cycles)
            ]
            assert stimulus_script(net, n_cycles, seed) == want

    def test_golden_depth_calibration(self, stereov_offline):
        # the generator + ABC mapping reproduce the paper's Golden depth
        spec = get_spec("stereov.")
        from repro.baselines.conventional import user_sink_names

        sinks = user_sink_names(stereov_offline.source)
        assert stereov_offline.initial.depth_to(sinks) == spec.golden_depth


def _mutate(net, how: str, seed: int) -> None:
    """Mutate ``net`` in place the ways campaign code does."""
    gate = max(net.gates())
    if how == "rewire":
        net.rewire(gate, net.fanins(gate), ~net.func(gate))
    elif how == "latch" and net.latches:
        net.set_latch_driver(net.latches[0].q, gate)
    elif how == "add_po":
        net.add_po(net.node_name(gate))
    elif how == "inject_bug":
        inject_bug(net, np.random.default_rng(seed))
    else:  # "rename", and "latch" on a design without latches
        net.name = f"{net.name}_renamed"


class TestGeneratorMemo:
    """``generate_circuit`` builds each ``(spec, seed)`` once per process
    and hands out copies: the memo must serve exactly what a rebuild
    would, whatever callers did to earlier copies."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_gates=st.integers(20, 60),
        depth=st.integers(2, 6),
        n_latches=st.sampled_from([0, 3]),
        seed=st.integers(0, 2**31),
        how=st.sampled_from(
            ["rewire", "latch", "add_po", "inject_bug", "rename"]
        ),
    )
    def test_memo_serves_the_uncached_build(
        self, n_gates, depth, n_latches, seed, how
    ):
        spec = campaign_spec(
            f"memo-{n_latches}",
            n_gates=n_gates,
            depth=depth,
            n_latches=n_latches,
            n_pis=6,
            n_pos=3,
        )
        fresh = write_blif(generator._build.__wrapped__(spec, seed))
        first = generate_circuit(spec, seed)
        assert write_blif(first) == fresh
        _mutate(first, how, seed)
        again = generate_circuit(spec, seed)
        assert again is not first
        assert write_blif(again) == fresh

    def test_key_is_the_spec_value_and_the_seed(self):
        spec = campaign_spec("memo-key", n_gates=40, depth=5)
        generator._build.cache_clear()
        generate_circuit(spec, 3)
        # an equal spec built separately is the same design
        generate_circuit(campaign_spec("memo-key", n_gates=40, depth=5), 3)
        info = generator._build.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        generate_circuit(dataclasses.replace(spec, n_pos=11), 3)
        generate_circuit(spec, 4)
        info = generator._build.cache_info()
        assert (info.hits, info.misses) == (1, 3)


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


#: ``mutation_scenarios(spec, 4, horizon=24)`` on :data:`SCREEN_SPECS`,
#: as the screen reported them when it compared per-cycle PO dicts.
PINNED_MUTATIONS = {
    "screen-comb": [
        ("screen-comb/mut0@n28", 326106389458363528),
        ("screen-comb/mut1@n64", 2010118297860347158),
        ("screen-comb/mut2@n99", 1479175961360232369),
        ("screen-comb/mut3@n44", 115482815152818469),
    ],
    "screen-seq": [
        ("screen-seq/mut0@n56", 7510586229833405295),
        ("screen-seq/mut1@n9", 5180865771552256908),
        ("screen-seq/mut2@n50", 3215104495583153778),
        ("screen-seq/mut3@n81", 6830428637065935318),
    ],
}


@pytest.mark.parametrize("spec", SCREEN_SPECS, ids=lambda s: s.name)
def test_mutation_screen_pinned(spec):
    got = mutation_scenarios(spec, 4, horizon=24)
    assert [(sc.name, sc.bug_seed) for sc in got] == PINNED_MUTATIONS[spec.name]
