"""Simulation on lane-packed integers, and the equivalence helper."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from parity import check_equivalent
from repro.errors import SimulationError
from repro.netlist import CompiledSimulator, parse_blif, program_for
from repro.netlist.transforms import cleanup

ONES = (1 << 64) - 1


def _sim(net) -> CompiledSimulator:
    return CompiledSimulator(program_for(net), 64)


class TestCombinational:
    def test_known_vectors(self, tiny_comb):
        net = tiny_comb
        sim = _sim(net)
        sim.step(
            {net.require("x"): ONES, net.require("y"): 0, net.require("z"): ONES}
        )
        assert sim.value(net.require("out1")) == ONES  # (x^y)&z
        assert sim.value(net.require("out2")) == 0  # ~x&~z

    def test_missing_source(self, tiny_comb):
        with pytest.raises(SimulationError):
            _sim(tiny_comb).step({})

    def test_override_forces_value(self, tiny_comb):
        net = tiny_comb
        sim = _sim(net)
        w = net.require("w")
        sim.step(
            {net.require("x"): ONES, net.require("y"): 0, net.require("z"): ONES},
            overrides={w: (0, ONES)},
        )
        assert sim.value(w) == 0
        assert sim.value(net.require("out1")) == 0


class TestSequential:
    def test_counter_bit_toggles(self):
        net = parse_blif(
            ".model c\n.inputs en\n.outputs q\n.latch d q 0\n"
            ".names en q d\n01 1\n10 1\n.end\n"
        )
        sim = CompiledSimulator(program_for(net), 1)
        seen = []
        for _ in range(4):
            sim.step({net.pis[0]: 1})
            seen.append(sim.value(net.require("q")))
        assert seen == [0, 1, 0, 1]

    def test_init_one(self):
        net = parse_blif(
            ".model c\n.inputs a\n.outputs q\n.latch a q 1\n.end\n"
        )
        sim = _sim(net)
        sim.step({net.pis[0]: 0})
        assert sim.value(net.require("q")) == ONES

    def test_reset_restores_state(self):
        net = parse_blif(
            ".model c\n.inputs a\n.outputs q\n.latch a q 0\n.end\n"
        )
        sim = _sim(net)
        sim.step({net.pis[0]: ONES})
        sim.step({net.pis[0]: ONES})
        sim.reset()
        assert sim.cycle == 0
        sim.step({net.pis[0]: 0})
        assert sim.value(net.require("q")) == 0

    def test_missing_pi(self, tiny_seq):
        with pytest.raises(SimulationError):
            _sim(tiny_seq).step({})


#: Runs ``check_equivalent`` on the tiny sequential design with every
#: simulator step recorded, and prints the words each PI received.
_RECORD_PI_WORDS = """
import json
import parity
from conftest import TINY_SEQ_BLIF
from repro.netlist import parse_blif

net = parse_blif(TINY_SEQ_BLIF)
words = {}
step = parity.CompiledSimulator.step

def recording_step(sim, pi_values, **kwargs):
    for pi, w in pi_values.items():
        words.setdefault(net.node_name(pi), []).append(w)
    return step(sim, pi_values, **kwargs)

parity.CompiledSimulator.step = recording_step
assert parity.check_equivalent(net, net.copy(), n_vectors=64, n_cycles=4)
print(json.dumps(words, sort_keys=True))
"""


class TestEquivalence:
    def test_self_equivalent(self, tiny_seq):
        assert check_equivalent(tiny_seq, tiny_seq.copy())

    def test_cleanup_preserves_function(self, tiny_seq):
        cleaned = cleanup(tiny_seq.copy())
        assert check_equivalent(tiny_seq, cleaned)

    def test_detects_difference(self, tiny_comb):
        other = tiny_comb.copy()
        f = other.require("out1")
        other.rewire(f, other.fanins(f), ~other.func(f))
        assert not check_equivalent(tiny_comb, other, n_vectors=128)

    def test_pi_mismatch_raises(self, tiny_comb, tiny_seq):
        with pytest.raises(SimulationError):
            check_equivalent(tiny_comb, tiny_seq)

    def test_sequential_divergence_found(self):
        a = parse_blif(
            ".model a\n.inputs x\n.outputs q\n.latch x q 0\n.end\n"
        )
        b = parse_blif(
            ".model b\n.inputs x\n.outputs q\n.latch d q 0\n"
            ".names x d\n0 1\n.end\n"
        )
        assert not check_equivalent(a, b, n_vectors=64, n_cycles=4)

    def test_pi_words_do_not_depend_on_hash_seed(self):
        """Every PI receives the same words under any ``PYTHONHASHSEED``:
        the vectors follow the PI order, not a set's iteration order."""
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests), "src")
        runs = [
            subprocess.run(
                [sys.executable, "-c", _RECORD_PI_WORDS],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.pathsep.join([src, tests]),
                },
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert set(json.loads(runs[0])) == {"a", "b", "c"}
        assert runs[0] == runs[1]
