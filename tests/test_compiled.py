"""Compiled simulation kernels: parity, caching, multi-word lanes.

The compiled path must be **bit-identical** to the reference per-gate
simulator (``benchmarks/ref_simulate.py::ReferenceKernel``), fed the same
lane-packed integers, over every node, every cycle,
for every network shape the stack produces — mapped and unmapped,
sequential and combinational, with and without lane-masked overrides,
single- and multi-word.  These tests pin that down with randomized
sweeps, then cover the program caches, the >64-lane engine and the
128-scenario campaign equivalence.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from benchmarks import ref_simulate
from repro.campaign import ArtifactStore, CampaignConfig, run_campaign
from repro.core.debug import DebugSession
from repro.core.flow import run_generic_stage
from repro.emu.fault import active_override_ints, ForcedFault
from repro.engine import LaneEngine
from repro.errors import SimulationError
from repro.netlist import parse_blif
from hypothesis import given, settings, strategies as st

from parity import (
    block_overrides,
    block_words,
    random_network,
    random_override_ints,
    random_stimulus_ints,
    reference_sequential,
)
from repro.netlist.compiled import (
    CompiledProgram,
    CompiledSimulator,
    block_ints,
    block_rows,
    compile_network,
    held_block_ints,
    network_signature,
    program_for,
    words_to_int,
)
from repro.workloads import campaign_spec, generate_circuit, stuck_at_scenarios
from repro.workloads.scenarios import stimulus_script

U64MAX = np.iinfo(np.uint64).max


def _rand_int(rng, n_words):
    return words_to_int(
        rng.integers(0, U64MAX, size=n_words, dtype=np.uint64, endpoint=True)
    )


def _rand_overrides(rng, net, n_words, *, lane_masked: bool):
    """A random ``node -> (forced, mask)`` dict over gates, PIs and latch
    outputs (``lane_masked=False``: every lane forced)."""
    nodes = list(net.nodes())
    picks = rng.choice(nodes, size=min(4, len(nodes)), replace=False)
    full = (1 << (64 * n_words)) - 1
    out = {}
    for nid in picks:
        if lane_masked:
            out[int(nid)] = (_rand_int(rng, n_words), _rand_int(rng, n_words))
        else:
            out[int(nid)] = (_rand_int(rng, n_words), full)
    return out


def _assert_step_parity(net, n_words, rng, n_cycles=10, *, lane_masked=True):
    interp = ref_simulate.ReferenceKernel(net, 64 * n_words)
    compiled = CompiledSimulator(program_for(net), 64 * n_words)
    nodes = list(net.nodes())
    for cyc in range(n_cycles):
        stim = {p: _rand_int(rng, n_words) for p in net.pis}
        ov = None
        if cyc % 3 == 1:
            ov = _rand_overrides(rng, net, n_words, lane_masked=lane_masked)
        elif cyc % 3 == 2:
            ov = _rand_overrides(rng, net, n_words, lane_masked=False)
        interp.step(stim, overrides=ov)
        compiled.step(stim, overrides=ov)
        for nid, vi, vc in zip(
            nodes, interp.node_ints(nodes), compiled.node_ints(nodes)
        ):
            assert vi == vc, f"cycle {cyc}, node {net.node_name(nid)!r}"


class TestRandomizedParity:
    @pytest.mark.parametrize("n_words", [1, 2])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_combinational_network_parity(self, seed, n_words):
        spec = campaign_spec(
            f"par-comb-{seed}", n_gates=90, depth=7, n_pis=12, n_pos=6
        )
        net = generate_circuit(spec, seed)
        _assert_step_parity(net, n_words, np.random.default_rng(seed))

    @pytest.mark.parametrize("n_words", [1, 2])
    @pytest.mark.parametrize("seed", [4, 5])
    def test_sequential_network_parity(self, seed, n_words):
        spec = campaign_spec(
            f"par-seq-{seed}",
            n_gates=80,
            depth=6,
            n_latches=8,
            n_pis=10,
            n_pos=5,
        )
        net = generate_circuit(spec, seed)
        _assert_step_parity(net, n_words, np.random.default_rng(seed))

    def test_mapped_network_parity(self):
        spec = campaign_spec("par-map", n_gates=110, depth=8, n_pis=14, n_pos=7)
        offline = run_generic_stage(generate_circuit(spec, 7))
        mapped = offline.mapping.to_lut_network()
        _assert_step_parity(mapped, 1, np.random.default_rng(7))
        _assert_step_parity(mapped, 2, np.random.default_rng(8))

    def test_combinational_entry_point_parity(self):
        """One settle of a combinational network from the same stimulus,
        clean, lane-masked and fully forced."""
        spec = campaign_spec("par-cmb", n_gates=70, depth=6, n_pis=10, n_pos=5)
        net = generate_circuit(spec, 11)
        rng = np.random.default_rng(11)
        stim = {p: _rand_int(rng, 1) for p in net.pis}
        nodes = list(net.nodes())
        interp = ref_simulate.ReferenceKernel(net)
        compiled = CompiledSimulator(program_for(net))
        for ov in (
            None,
            _rand_overrides(rng, net, 1, lane_masked=True),
            _rand_overrides(rng, net, 1, lane_masked=False),
        ):
            interp.step(stim, overrides=ov)
            compiled.step(stim, overrides=ov)
            assert interp.node_ints(nodes) == compiled.node_ints(nodes)

    def test_constant_gate_override_parity(self):
        # constants are folded out of the kernel; an override on one must
        # still blend and un-blend exactly like the reference simulator
        net = parse_blif(
            ".model c\n.inputs a\n.outputs y\n.names k\n"
            "\n.names a k y\n11 1\n.end"
        )
        k = net.require("k")
        nodes = list(net.nodes())
        stim = {net.pis[0]: U64MAX}
        interp = ref_simulate.ReferenceKernel(net)
        compiled = CompiledSimulator(program_for(net))
        for ov in ({k: (0xFF, 0xFF)}, None, {k: (0xFF, 0xFF)}, None):
            interp.step(stim, overrides=ov)
            compiled.step(stim, overrides=ov)
            assert interp.node_ints(nodes) == compiled.node_ints(nodes), ov

    def test_missing_source_raises(self):
        net = parse_blif(
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end"
        )
        with pytest.raises(SimulationError):
            CompiledSimulator(program_for(net)).step({net.pis[0]: 0})


class TestProgramCache:
    def test_signature_is_structural_not_nominal(self):
        a = parse_blif(
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end"
        )
        b = parse_blif(
            ".model m2\n.inputs p q\n.outputs z\n.names p q z\n11 1\n.end"
        )
        c = parse_blif(
            ".model m3\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-1 1\n.end"
        )
        assert network_signature(a) == network_signature(b)
        assert network_signature(a) != network_signature(c)

    def test_signature_keyed_reuse_and_mutation_invalidation(self):
        spec = campaign_spec("cache-t", n_gates=40, depth=5, n_pis=8, n_pos=4)
        net1 = generate_circuit(spec, 1)
        net2 = generate_circuit(spec, 1)  # regenerated, structurally equal
        p1 = program_for(net1)
        assert program_for(net1) is p1  # same instance, same signature
        assert program_for(net2) is p1  # signature-keyed reuse
        # in-place mutation must recompile, not serve the stale program
        gate = next(net1.gates())
        net1.rewire(gate, net1.fanins(gate), ~net1.func(gate))
        assert program_for(net1) is not p1

    def test_rewire_revalidates_across_backends(self):
        """An in-place rewire after the kernels were generated must
        recompile — the kernels hang off the program object, so a stale
        program would mean stale kernels."""
        spec = campaign_spec("cache-b", n_gates=40, depth=5, n_pis=8, n_pos=4)
        net = generate_circuit(spec, 2)
        p1 = program_for(net)
        sim1 = CompiledSimulator(p1, 128)
        stim = {p: 0x5A5A_5A5A_5A5A_5A5A for p in net.pis}
        sim1.step(stim)
        kernel1 = p1.code.kernel("clean")

        gate = next(net.gates())
        net.rewire(gate, net.fanins(gate), ~net.func(gate))
        p2 = program_for(net)
        assert p2 is not p1
        assert p2.code.kernel("clean") is not kernel1  # fresh, not the stale kernel
        sim2 = CompiledSimulator(p2, 128)
        sim2.step(stim)
        nodes = list(net.nodes())
        want = reference_sequential(net, [stim], 128)[0]
        assert sim2.node_ints(nodes) == [want[x] for x in nodes]
        # the inverted gate actually changed value — a stale program would
        # have kept serving the old function
        assert sim2.value(gate) == sim1.value(gate) ^ sim1.full_mask

    def test_program_pickles_without_kernels(self, monkeypatch):
        """Linked kernels never pickle; their generated code does, as
        marshal bytes: a clone links its kernels without ``compile()``,
        and a clone pickled under another bytecode magic drops the code
        and regenerates it on first use."""
        import pickle

        import repro.netlist.compiled as compiled_mod

        net = parse_blif(
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end"
        )
        program = compile_network(net)
        program.code.generate("clean", "forced")
        same = pickle.dumps(program)
        monkeypatch.setattr(compiled_mod, "MAGIC_NUMBER", b"\x00\x00\r\n")
        other = pickle.dumps(program)
        monkeypatch.undo()

        def boom(*_a, **_k):
            raise AssertionError("kernel code was compiled")

        monkeypatch.setattr(compiled_mod, "compile", boom, raising=False)
        clone = pickle.loads(same)
        assert isinstance(clone, CompiledProgram)
        assert clone.ops == program.ops
        assert set(clone.code._code) == {"clean", "forced"}
        sim = CompiledSimulator(clone)
        y = net.require("y")
        sim.step({net.pis[0]: 0b1100, net.pis[1]: 0b1010})
        assert sim.value(y) == 0b0110
        sim.step(
            {net.pis[0]: 0b1100, net.pis[1]: 0b1010},
            overrides={y: (0b1111, 0b0011)},
        )
        assert sim.value(y) == 0b0111
        monkeypatch.undo()

        stale = pickle.loads(other)
        assert stale.code._code == {}
        sim = CompiledSimulator(stale)
        sim.step({net.pis[0]: 0b1100, net.pis[1]: 0b1010})
        assert sim.value(y) == 0b0110
        assert set(stale.code._code) == {"clean"}

    def test_golden_pass_generates_clean_kernel_only(self):
        """A pass that never arms a gate override compiles one kernel
        kind; the first armed override links ``forced``."""
        from repro.workloads.scenarios import packed_signal_traces

        spec = campaign_spec("cache-g", n_gates=40, depth=5, n_pis=8, n_pos=4)
        net = generate_circuit(spec, 11)
        program = program_for(net)
        assert program.code._code == {}
        stim = stimulus_script(net, 8, 3)
        packed_signal_traces(net, [stim, stim], list(net.po_names))
        sim = CompiledSimulator(program)
        sim.step({p: 0 for p in net.pis})
        assert set(program.code._code) == {"clean"}
        gate = next(net.gates())
        sim.step({p: 0 for p in net.pis}, overrides={gate: (1, 1)})
        assert set(program.code._code) == {"clean", "forced"}


def _code_size(op) -> int:
    """An op's code as the chunk budget counts it: its assignment and its
    fanin literals, a tautology cube counting as one."""
    return 1 + sum(max(1, mask.bit_count()) for mask, _pol in op[2])


def _eval_ops(ops, v: list, full: int) -> list:
    """Evaluate ``ops`` in order into ``v`` straight from their cubes."""
    for node, fanins, cubes in ops:
        acc = 0
        for cmask, cpol in cubes:
            term = full
            for pos, src in enumerate(fanins):
                if (cmask >> pos) & 1:
                    term &= v[src] if (cpol >> pos) & 1 else full ^ v[src]
            acc |= term
        v[node] = acc
    return v


@st.composite
def _op_lists(draw):
    """Random ``(ops, n_early, n_sources)``: ops over 1–6 fanins with 0–5
    cubes each (tautology and empty covers included)."""
    n_sources = 4
    n_ops = draw(st.integers(0, 40))
    ops = []
    for i in range(n_ops):
        node = n_sources + i
        k = draw(st.integers(1, 6))
        fanins = tuple(
            draw(st.lists(st.integers(0, node - 1), min_size=k, max_size=k))
        )
        cubes = []
        for _ in range(draw(st.integers(0, 5))):
            mask = draw(st.integers(0, (1 << k) - 1))
            cubes.append((mask, draw(st.integers(0, (1 << k) - 1)) & mask))
        ops.append((node, fanins, tuple(cubes)))
    return tuple(ops), draw(st.integers(0, n_ops)), n_sources


class TestChunkLayout:
    """Kernel chunks are bounded by the code they hold, not by op count."""

    def test_generate_peak_memory_is_bounded_by_code(self):
        """``compile()``'s peak follows a chunk's code: 1,000 dense 4-input
        LUT ops (about 12 literals each, like or1200's early LUT ops)
        peak near 5 MB under the chunk budget and near 27 MB as one
        1,000-op chunk."""
        import tracemalloc

        from repro.netlist.compiled import KernelCode
        from repro.netlist.sop import truthtable_to_cover
        from repro.netlist.truthtable import TruthTable

        rng = random.Random(2000)
        ops = []
        for i in range(1000):
            node = 64 + i
            cover = truthtable_to_cover(TruthTable(4, rng.getrandbits(16)))
            ops.append((
                node,
                tuple(rng.randrange(node) for _ in range(4)),
                tuple((c.mask, c.polarity) for c in cover.cubes),
            ))
        code = KernelCode(tuple(ops), "dense")
        tracemalloc.start()
        try:
            code.generate("clean")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        # the chunks still evaluate every op, in order
        full = (1 << 64) - 1
        v = [rng.getrandbits(64) for _ in range(64 + len(ops))]
        want = _eval_ops(ops, list(v), full)
        code.kernel("clean")(v, full)
        assert v == want

    @settings(max_examples=60, deadline=None)
    @given(case=_op_lists(), budget=st.sampled_from([1, 6, 20, 2000]))
    def test_layout_invariants(self, case, budget):
        import pickle
        from unittest import mock

        import repro.netlist.compiled as compiled_mod
        from repro.netlist.compiled import KernelCode

        ops, n_early, n_sources = case
        with mock.patch.object(compiled_mod, "_LITERALS_PER_CHUNK", budget):
            code = KernelCode(ops, "layout", n_early=n_early)
            early, late = code._chunk_starts()
            # a pure function of the ops: another label, copied ops and a
            # pickled clone lay out alike
            copied = tuple((n, tuple(f), tuple(c)) for n, f, c in ops)
            other = KernelCode(copied, "other", n_early=n_early)
            assert other._chunk_starts() == (early, late)
            clone = pickle.loads(pickle.dumps(code))
            assert clone._chunk_starts() == (early, late)
            full = (1 << 8) - 1
            rng = random.Random(len(ops))
            v = [rng.getrandbits(8) for _ in range(n_sources + len(ops))]
            want = _eval_ops(ops, list(v), full)
            got = list(v)
            code.kernel("clean")(got, full)
            assert got == want
            # the late kernel recomputes exactly the late ops
            stale = want[: n_sources + n_early] + [0] * (len(ops) - n_early)
            code.kernel("clean", late=True)(stale, full)
            assert stale == want
        # no chunk mixes early and late ops
        assert early[:1] == ([0] if n_early else [])
        assert all(start < n_early for start in early)
        assert late[:1] == ([n_early] if len(ops) > n_early else [])
        assert all(start >= n_early for start in late)
        for starts, last in ((early, n_early), (late, len(ops))):
            for start, end in zip(starts, starts[1:] + [last]):
                size = sum(_code_size(op) for op in ops[start:end])
                assert end > start
                assert end - start == 1 or size <= budget


class TestBlockEvaluation:
    """Direct coverage for the cycle-batched entry points (the lane
    engine and the kernel bench consume them)."""

    def _program(self, seed=9):
        spec = campaign_spec("blk-t", n_gates=60, depth=6, n_pis=10, n_pos=5)
        net = generate_circuit(spec, seed)
        return net, program_for(net)

    @staticmethod
    def _cycles(out, nodes, nw, n_cycles):
        return [
            [
                int.from_bytes(
                    out[i, c * nw : (c + 1) * nw].tobytes(), "little"
                )
                for i in range(len(nodes))
            ]
            for c in range(n_cycles)
        ]

    @pytest.mark.parametrize("lanes", [1, 3, 5, 24, 63, 64, 65, 96, 128])
    def test_row_helpers_restride_every_cycle(self, lanes):
        """Block integers at stride ``lanes`` and ``n_words`` word rows
        convert into each other cycle for cycle, on every path (one numpy
        shift, whole bytes, re-packed bits)."""
        import random

        rng = random.Random(lanes)
        nw, full = (lanes + 63) // 64, (1 << lanes) - 1
        for n in (1, 2, 13, 64):
            ints = [rng.getrandbits(n * lanes) for _ in range(5)]
            rows = block_rows(ints, n, lanes)
            assert rows.shape == (5, n * nw) and rows.dtype == np.uint64
            for x, row in zip(ints, rows):
                assert self._cycles(row[None], [x], nw, n) == [
                    [(x >> (c * lanes)) & full] for c in range(n)
                ]
            assert block_ints(rows, n, lanes) == ints
            held = held_block_ints(rows[:, :nw], n, lanes)
            assert held == [
                sum((x & full) << (c * lanes) for c in range(n)) for x in ints
            ]

    def test_run_block_matches_stepwise(self):
        net, program = self._program()
        nw = 4
        gate = int(next(net.gates()))
        nodes = list(net.nodes())
        rng = np.random.default_rng(9)
        stepper = CompiledSimulator(program, 64 * nw)
        blocker = CompiledSimulator(program, 64 * nw)
        full = stepper.full_mask
        rows, ovr = [], []
        for c in range(blocker.block_cycles):
            rows.append(
                {
                    p: int.from_bytes(rng.bytes(8 * nw), "little")
                    for p in net.pis
                }
            )
            ovr.append(
                {
                    gate: (
                        int(rng.integers(0, 2)) * full,
                        0xFF << (64 * (c % nw)),
                    )
                }
                if c % 2
                else None
            )
        expected = []
        for row, ov in zip(rows, ovr):
            stepper.step(row, overrides=ov)
            expected.append(stepper.node_ints(nodes))
        consumed = blocker.run_block(
            block_words(rows, net.pis, 64 * nw),
            len(rows),
            block_overrides(ovr, 64 * nw),
        )
        assert consumed == len(rows) == blocker.block_cycles > 1
        assert blocker.cycle == stepper.cycle
        assert blocker.node_ints(nodes) == expected[-1]
        out = np.empty(
            (len(nodes), blocker.block_cycles * nw), dtype=np.uint64
        )
        blocker.block_export(nodes, out)
        got = self._cycles(out, nodes, nw, len(rows))
        for c in range(len(rows)):
            assert got[c] == expected[c], c
        # rewinding re-mirrors an earlier cycle for per-cycle reads
        blocker.rewind_block(5)
        assert blocker.cycle == 5
        assert blocker.node_ints(nodes) == expected[4]

    def test_step_is_a_private_one_cycle_pass(self, monkeypatch):
        """A step runs the private pass, never a public pass method (the
        kernel benchmark's tracer adds each public call's cycles, so a
        step through ``run_block`` would count its cycle twice).  Steps
        of a sequential design with overrides equal the reference, record
        the trajectory the next run predicts, and ``rewind_block(1)``
        after a step changes nothing."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("step called a public pass method")

        net = random_network(3, n_pis=6, n_gates=40, n_latches=4)
        rng = random.Random(3)
        rows = [random_stimulus_ints(rng, net, 65) for _ in range(6)]
        overrides = {
            cyc: random_override_ints(rng, net, 65, lane_masked=True)
            for cyc in (1, 4)
        }
        want = reference_sequential(net, rows, 65, overrides)
        nodes = list(net.nodes())
        sim = CompiledSimulator(program_for(net), 65)
        with monkeypatch.context() as patch:
            patch.setattr(CompiledSimulator, "run_block", refuse)
            patch.setattr(CompiledSimulator, "run_block_array", refuse)
            for cyc, row in enumerate(rows):
                sim.step(row, overrides=overrides.get(cyc))
                state = list(sim.latch_state)
                sim.rewind_block(1)
                assert (sim.cycle, sim.latch_state) == (cyc + 1, state)
                assert sim.node_ints(nodes) == [want[cyc][x] for x in nodes]
        sim.reset()
        assert sim.block_span(len(rows)) == len(rows)

    def test_run_block_array_matches_run_block(self):
        net, program = self._program(10)
        nw = 4
        nodes = list(net.nodes())
        rng = np.random.default_rng(10)
        a = CompiledSimulator(program, 64 * nw)
        b = CompiledSimulator(program, 64 * nw)
        n_cycles = a.block_cycles
        stim = rng.integers(
            0,
            U64MAX,
            size=(len(program.pi_nodes), n_cycles * nw),
            dtype=np.uint64,
            endpoint=True,
        )
        words = {
            int(p): int.from_bytes(stim[i].tobytes(), "little")
            for i, p in enumerate(program.pi_nodes)
        }
        assert a.run_block(words, n_cycles) == n_cycles
        assert b.run_block_array(stim) == n_cycles
        assert a.cycle == b.cycle
        assert a.node_ints(nodes) == b.node_ints(nodes)
        outa = np.empty((len(nodes), n_cycles * nw), dtype=np.uint64)
        outb = np.empty_like(outa)
        a.block_export(nodes, outa)
        b.block_export(nodes, outb)
        assert np.array_equal(outa, outb)

    def test_run_block_array_rejects_bad_inputs(self):
        net, program = self._program(11)
        n_pis = len(program.pi_nodes)
        # a short dense batch gives the run_block result
        rng = np.random.default_rng(11)
        stim = rng.integers(
            0, U64MAX, size=(n_pis, 3 * 4), dtype=np.uint64, endpoint=True
        )
        arr = CompiledSimulator(program, 256)
        ref = CompiledSimulator(program, 256)
        assert arr.run_block_array(stim) == 3
        ref.run_block(
            {
                int(p): int.from_bytes(stim[i].tobytes(), "little")
                for i, p in enumerate(program.pi_nodes)
            },
            3,
        )
        nodes = list(net.nodes())
        assert arr.cycle == ref.cycle == 3
        assert arr.node_ints(nodes) == ref.node_ints(nodes)
        sim = CompiledSimulator(program, 256)
        with pytest.raises(SimulationError, match="shape"):
            sim.run_block_array(np.zeros((n_pis + 1, 4), dtype=np.uint64))
        with pytest.raises(SimulationError, match="shape"):
            sim.run_block_array(np.zeros((n_pis, 3), dtype=np.uint64))
        with pytest.raises(SimulationError, match="shape"):
            sim.run_block_array(np.zeros((n_pis, 4), dtype=np.int64))
        with pytest.raises(SimulationError):
            sim.run_block_array(
                np.zeros((n_pis, 4 * (sim.block_cycles + 1)), dtype=np.uint64)
            )


_PREDICTION_CASES: dict = {}


class TestLatchPrediction:
    """Sequential programs batch on the recorded latch states: a pass
    consumes exactly the cycles up to the first wrong prediction, with
    every value equal to cycle-by-cycle simulation, and the record is
    corrected from there."""

    HORIZON = 24
    N_WORDS = 2
    N_LANES = 64 * N_WORDS
    N_LATCHES = 6

    def _case(self, seed):
        case = _PREDICTION_CASES.get(seed)
        if case is None:
            import random

            net = random_network(
                seed, n_pis=8, n_gates=50, n_latches=self.N_LATCHES
            )
            rng = random.Random(seed)
            rows = [
                random_stimulus_ints(rng, net, self.N_LANES)
                for _ in range(self.HORIZON)
            ]
            values = reference_sequential(net, rows, self.N_LANES)
            states = [
                [v[latch.driver] for latch in net.latches] for v in values
            ]
            case = _PREDICTION_CASES[seed] = (net, rows, values, states)
        return case

    def _assert_pass(self, sim, net, values, states, base, consumed):
        """The consumed cycles of the last pass equal the reference."""
        nw = self.N_WORDS
        nodes = list(net.nodes())
        out = np.empty((len(nodes), sim.block_cycles * nw), dtype=np.uint64)
        sim.block_export(nodes, out)
        for c in range(consumed):
            got = [
                int.from_bytes(out[i, c * nw : (c + 1) * nw].tobytes(), "little")
                for i in range(len(nodes))
            ]
            assert got == [values[base + c][x] for x in nodes], base + c
        last = base + consumed - 1
        assert sim.cycle == last + 1
        assert sim.node_ints(nodes) == [values[last][x] for x in nodes]
        assert sim.latch_state == states[last]

    def _run_to_horizon(self, sim, net, rows, values, states):
        while sim.cycle < self.HORIZON:
            base = sim.cycle
            n = sim.block_span(self.HORIZON - base)
            words = block_words(rows[base : base + n], net.pis, self.N_LANES)
            consumed = sim.run_block(words, n)
            assert consumed == n  # an exact record predicts every cycle
            self._assert_pass(sim, net, values, states, base, consumed)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 3),
        corruptions=st.lists(
            st.tuples(
                st.integers(1, HORIZON - 1),
                st.integers(0, N_LATCHES - 1),
                st.integers(0, N_WORDS - 1),
                st.integers(1, U64MAX),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda t: t[:3],  # each corrupted word flipped once
        ),
    )
    def test_corrupted_record(self, seed, corruptions):
        net, rows, values, states = self._case(seed)
        H = self.HORIZON
        sim = CompiledSimulator(program_for(net), self.N_LANES)
        for row in rows:  # stepping records the true trajectory
            sim.step(row)
        sim.reset()
        assert sim.block_span(H) == H
        for cycle, latch, word, flip in corruptions:
            sim._rec[cycle, latch, word] ^= np.uint64(flip)
        first_wrong = min(cycle for cycle, *_ in corruptions)
        consumed = sim.run_block(block_words(rows, net.pis, self.N_LANES), H)
        assert consumed == first_wrong
        self._assert_pass(sim, net, values, states, 0, consumed)
        # the record ends at the corrected state: nothing is predicted
        # past it, and the rest of the run steps and re-records
        assert sim.block_span(H - consumed) == 1
        self._run_to_horizon(sim, net, rows, values, states)
        # the repaired record predicts the next run whole
        sim.reset()
        assert sim.block_span(H) == H
        self._run_to_horizon(sim, net, rows, values, states)

    def test_record_memory_cap(self, monkeypatch):
        import repro.netlist.compiled as compiled

        net, rows, values, states = self._case(0)
        cap = 10
        monkeypatch.setattr(
            compiled,
            "RECORD_MAX_WORDS",
            cap * self.N_LATCHES * self.N_WORDS,
        )
        sim = CompiledSimulator(program_for(net), self.N_LANES)
        assert sim._rec.shape == (cap, self.N_LATCHES, self.N_WORDS)
        self._run_to_horizon(sim, net, rows, values, states)
        sim.reset()
        # one pass predicts the recorded cycles; past the cap, one per pass
        assert sim.block_span(self.HORIZON) == cap
        self._run_to_horizon(sim, net, rows, values, states)
        assert sim._rec_len == cap


class TestMultiWordLanes:
    @staticmethod
    def _buffer_stuck_at_0(lane_mask: int) -> int:
        """``y = a`` over 128 lanes, ``a`` all ones but stuck at 0 on
        ``lane_mask``: returns ``y``."""
        net = parse_blif(
            ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end"
        )
        sim = CompiledSimulator(program_for(net), 128)
        a = net.pis[0]
        fault = ForcedFault(node=a, value=0, lane_mask=lane_mask)
        sim.step(
            {a: (1 << 128) - 1},
            overrides=active_override_ints([fault], 0, n_lanes=128),
        )
        return sim.value(net.require("y"))

    def test_fault_injector_lane_mask_isolates_lanes(self):
        y = self._buffer_stuck_at_0(1 << 77)
        assert y == ((1 << 128) - 1) ^ (1 << 77)  # lane 77 only

    def test_active_override_ints_all_lanes_expands_to_every_word(self):
        for lanes in (1, 5, 64, 96, 128):
            f = ForcedFault(node=3, value=1)
            forced, mask = active_override_ints([f], 0, n_lanes=lanes)[3]
            assert forced == mask == (1 << lanes) - 1, lanes
            off = ForcedFault(node=3, value=0)
            forced, mask = active_override_ints([off], 0, n_lanes=lanes)[3]
            assert forced == 0 and mask == (1 << lanes) - 1, lanes
        lane70 = ForcedFault(node=3, value=1, lane_mask=1 << 70)
        forced, mask = active_override_ints([lane70], 0, n_lanes=128)[3]
        assert mask == 1 << 70
        assert active_override_ints([lane70], 0, n_lanes=64) == {3: (0, 0)}

    def test_word0_lane_mask_stays_in_word0(self):
        # a literal mask of word 0's 64 lanes is a mask, not "all lanes"
        word0 = (1 << 64) - 1
        f = ForcedFault(node=3, value=1, lane_mask=word0)
        forced, mask = active_override_ints([f], 0, n_lanes=128)[3]
        assert forced == mask == word0
        assert self._buffer_stuck_at_0(word0) == ((1 << 128) - 1) ^ word0

    def test_engine_lane_beyond_64_matches_solo_session(self):
        spec = campaign_spec("wide-eng", n_gates=100, depth=7, n_pis=16, n_pos=8)
        golden = generate_circuit(spec)
        offline = run_generic_stage(golden)
        scenarios = stuck_at_scenarios(spec, 1, horizon=24)
        sc = scenarios[0]
        stims = [stimulus_script(golden, 24, seed) for seed in range(96)]

        engine = LaneEngine(offline, n_lanes=96, trace_depth=24)
        assert engine.n_words == 2
        for lane in range(96):
            engine.bind_stimulus(lane, stims[lane])
            engine.observe([sc.fault_signal], lane=lane)
            if lane % 2:
                engine.force(sc.fault_signal, sc.fault_value, lane=lane)
        engine.reset()
        engine.run(24)
        for lane in (0, 63, 64, 65, 77, 95):
            solo = DebugSession(offline, trace_depth=24)
            solo.observe([sc.fault_signal])
            if lane % 2:
                solo.force(sc.fault_signal, sc.fault_value)
            solo.reset()
            solo.run(24, stimulus=lambda c: stims[lane][c])
            assert np.array_equal(
                engine.waveforms(lane)[sc.fault_signal],
                solo.waveforms()[sc.fault_signal],
            ), f"lane {lane}"

    def test_run_outputs_early_stop_trims_and_matches(self):
        spec = campaign_spec("stop-eng", n_gates=80, depth=6, n_pis=12, n_pos=6)
        golden = generate_circuit(spec)
        offline = run_generic_stage(golden)
        stim = stimulus_script(golden, 32, 3)
        engine = LaneEngine(offline, n_lanes=2)
        for lane in range(2):
            engine.bind_stimulus(lane, stim)
        full = engine.run_outputs(32)
        assert full.shape == (32, len(engine.user_po_names), 1)
        engine.reset()
        stopped = engine.run_outputs(32, stop=lambda c, row: c == 9)
        assert stopped.shape[0] == 10
        assert np.array_equal(stopped, full[:10])


class TestWideCampaignEquivalence:
    """The acceptance criterion: a 128-scenario campaign at lane_width
    128 (two packed words) produces byte-identical outcomes to 64 and 1."""

    def test_128_scenario_campaign_at_width_128_vs_64_vs_1(self):
        spec = campaign_spec(
            "wide-camp", n_gates=400, depth=8, n_pis=25, n_pos=12
        )
        scenarios = stuck_at_scenarios(spec, 128, horizon=32)
        cache = ArtifactStore()
        run_campaign(
            scenarios[:1], config=CampaignConfig(lane_width=1), cache=cache
        )

        wide = run_campaign(
            scenarios, config=CampaignConfig(lane_width=128), cache=cache
        )
        packed = run_campaign(
            scenarios, config=CampaignConfig(lane_width=64), cache=cache
        )
        serial = run_campaign(
            scenarios, config=CampaignConfig(lane_width=1), cache=cache
        )

        assert wide.lane_batches == [128]
        assert packed.lane_batches == [64, 64]
        assert wide.outcomes() == packed.outcomes() == serial.outcomes()
        assert "error" not in {r.status for r in wide.results}
        assert [r.modeled_overhead_s for r in wide.results] == [
            r.modeled_overhead_s for r in serial.results
        ]
