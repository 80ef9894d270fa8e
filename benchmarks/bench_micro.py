"""Micro-benchmarks M1 — the online stage's hot paths, measured for real.

These use pytest-benchmark's statistics properly (many rounds): SCG
specialization, Boolean-expression evaluation, frame diffing and
bit-parallel simulation throughput.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks import ref_simulate
from benchmarks.conftest import emit_json
from repro.core.boolfunc import bf_conj, bf_var
from repro.core.parameters import ParameterSpace
from repro.core.pconf import ParameterizedBitstream
from repro.bitgen.partial import changed_frames
from repro.netlist.compiled import CompiledSimulator, program_for, words_to_int
from repro.workloads import generate_circuit, get_spec
from repro.util.rng import RngHub


@pytest.fixture(scope="module")
def pconf_mid():
    """A synthetic PConf the size of a mid-benchmark debug network."""
    space = ParameterSpace([f"p{i}" for i in range(256)])
    pb = ParameterizedBitstream(space, n_bits=20_000)
    rng = np.random.default_rng(1)
    for i in range(0, 20_000, 4):
        lits = [
            (int(rng.integers(0, 256)), int(rng.integers(0, 2)))
            for _ in range(3)
        ]
        pb.set_tunable(i, bf_conj(lits))
    return space, pb


def test_scg_specialization_speed(benchmark, pconf_mid):
    space, pb = pconf_mid
    assignment = space.assignment({"p3": 1, "p77": 1})
    bits, stats = benchmark(pb.specialize, assignment)
    assert bits.shape == (20_000,)
    # a few random conjunctions fold to constants (conflicting literals),
    # so the tunable count sits just under the 5000 candidates
    assert 4_800 <= stats.n_tunable_bits <= 5_000


def test_boolfunc_eval_speed(benchmark):
    vec = np.zeros(64, dtype=np.uint8)
    vec[7] = 1
    expr = bf_conj([(7, 1), (9, 0), (13, 0)]) | bf_var(22)
    result = benchmark(expr.evaluate, vec)
    assert result == 1


def test_frame_diff_speed(benchmark):
    rng = np.random.default_rng(3)
    old = rng.integers(0, 2, size=200_000).astype(np.uint8)
    new = old.copy()
    flips = rng.integers(0, old.size, size=40)
    new[flips] ^= 1
    frames = benchmark(changed_frames, old, new, 1312)
    assert 1 <= len(frames) <= 40


#: Lanes of the simulation-throughput legs.
SIM_LANES = 4096


def _stereov_stimulus():
    """stereov. and one cycle of random stimulus for every PI, lane-packed
    over :data:`SIM_LANES` lanes."""
    net = generate_circuit(get_spec("stereov."))
    rng = RngHub(5).stream("sim")
    n_words = SIM_LANES // 64
    stim = {
        pi: words_to_int(
            rng.integers(
                0, np.iinfo(np.uint64).max, size=n_words, dtype=np.uint64,
                endpoint=True,
            )
        )
        for pi in net.pis
    }
    return net, stim


def test_bit_parallel_simulation_speed(benchmark, results_dir):
    net, stim = _stereov_stimulus()
    sim = CompiledSimulator(program_for(net), SIM_LANES)
    benchmark(sim.step, stim)
    assert len(sim.values) == net.n_nodes
    emit_json(
        results_dir,
        "micro",
        {"compiled_sim_4096v_mean_s": benchmark.stats.stats.mean},
    )


def test_interpreted_simulation_speed(benchmark, results_dir):
    """The reference per-gate simulator on the same workload — the
    denominator of the compiled-kernel speedup tracked in
    BENCH_micro.json."""
    net, stim = _stereov_stimulus()
    sim = ref_simulate.ReferenceKernel(net, SIM_LANES)
    benchmark(sim.step, stim)
    assert sim.node_ints(net.pis) == [stim[pi] for pi in net.pis]
    emit_json(
        results_dir,
        "micro",
        {"interpreted_sim_4096v_mean_s": benchmark.stats.stats.mean},
    )
