"""Compiled simulation kernels: parity, caching, multi-word lanes.

The compiled path must be **bit-identical** to the reference per-gate
simulator (``benchmarks/ref_simulate.py``) over every node, every cycle,
for every network shape the stack produces — mapped and unmapped,
sequential and combinational, with and without lane-masked overrides,
single- and multi-word.  These tests pin that down with randomized
sweeps, then cover the program caches, the >64-lane engine and the
128-scenario campaign equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks import ref_simulate
from repro.campaign import ArtifactStore, CampaignConfig, run_campaign
from repro.core.debug import DebugSession
from repro.core.flow import run_generic_stage
from repro.emu.fault import FaultInjector, active_override_ints, ForcedFault
from repro.engine import LaneEngine
from repro.errors import SimulationError
from repro.netlist import parse_blif
from hypothesis import given, settings, strategies as st

from parity import (
    block_overrides,
    block_words,
    random_network,
    random_stimulus_ints,
    reference_sequential,
)
from repro.netlist.compiled import (
    COMPILED_SIM_STAGE,
    CompiledProgram,
    CompiledSimulator,
    compile_network,
    network_signature,
    program_for,
)
from repro.netlist.simulate import SequentialSimulator, simulate_combinational
from repro.workloads import campaign_spec, generate_circuit, stuck_at_scenarios
from repro.workloads.scenarios import stimulus_script

U64MAX = np.iinfo(np.uint64).max


def _rand_words(rng, n_words):
    return rng.integers(0, U64MAX, size=n_words, dtype=np.uint64, endpoint=True)


def _rand_overrides(rng, net, n_words, *, lane_masked: bool):
    """A random override dict over gates, PIs and latch outputs."""
    nodes = list(net.nodes())
    picks = rng.choice(nodes, size=min(4, len(nodes)), replace=False)
    out = {}
    for nid in picks:
        if lane_masked:
            out[int(nid)] = (_rand_words(rng, n_words), _rand_words(rng, n_words))
        else:
            out[int(nid)] = _rand_words(rng, n_words)
    return out


def _assert_step_parity(net, n_words, rng, n_cycles=10, *, lane_masked=True):
    interp = ref_simulate.SequentialSimulator(net, n_words=n_words)
    compiled = SequentialSimulator(net, n_words=n_words)
    for cyc in range(n_cycles):
        stim = {p: _rand_words(rng, n_words) for p in net.pis}
        ov = None
        if cyc % 3 == 1:
            ov = _rand_overrides(rng, net, n_words, lane_masked=lane_masked)
        elif cyc % 3 == 2:
            ov = _rand_overrides(rng, net, n_words, lane_masked=False)
        vi = interp.step(stim, overrides=ov)
        vc = compiled.step(stim, overrides=ov)
        for nid in net.nodes():
            assert np.array_equal(vi[nid], vc[nid]), (
                f"cycle {cyc}, node {net.node_name(nid)!r}"
            )


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
        spec = campaign_spec("par-cmb", n_gates=70, depth=6, n_pis=10, n_pos=5)
        net = generate_circuit(spec, 11)
        rng = np.random.default_rng(11)
        stim = {s: _rand_words(rng, 1) for s in net.sources()}
        for ov in (
            None,
            _rand_overrides(rng, net, 1, lane_masked=True),
            _rand_overrides(rng, net, 1, lane_masked=False),
        ):
            vi = ref_simulate.simulate_combinational(net, stim, overrides=ov)
            vc = simulate_combinational(net, stim, overrides=ov)
            for nid in net.nodes():
                assert np.array_equal(vi[nid], vc[nid])

    def test_constant_gate_override_parity(self):
        # constants are folded out of the kernel; an override on one must
        # still blend and un-blend exactly like the reference simulator
        net = parse_blif(
            ".model c\n.inputs a\n.outputs y\n.names k\n"
            "\n.names a k y\n11 1\n.end"
        )
        k = net.require("k")
        stim = {net.pis[0]: np.array([U64MAX], dtype=np.uint64)}
        forced = (
            np.array([np.uint64(0xFF)], dtype=np.uint64),
            np.array([np.uint64(0xFF)], dtype=np.uint64),
        )
        for ov in ({k: forced}, None, {k: forced}, None):
            vi = ref_simulate.simulate_combinational(net, stim, overrides=ov)
            vc = simulate_combinational(net, stim, overrides=ov)
            for nid in net.nodes():
                assert np.array_equal(vi[nid], vc[nid]), (ov, nid)

    def test_missing_source_raises(self):
        net = parse_blif(
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end"
        )
        with pytest.raises(SimulationError):
            simulate_combinational(net, {net.pis[0]: np.zeros(1, np.uint64)})
        with pytest.raises(SimulationError):
            SequentialSimulator(net).step({net.pis[0]: np.zeros(1, np.uint64)})


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
        assert program_for(net1) is p1  # instance-keyed fast path
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
        sim1 = CompiledSimulator(p1, 2)
        stim = {p: 0x5A5A_5A5A_5A5A_5A5A for p in net.pis}
        sim1.step(stim)
        kernels1 = p1.kernels()

        gate = next(net.gates())
        net.rewire(gate, net.fanins(gate), ~net.func(gate))
        p2 = program_for(net)
        assert p2 is not p1
        assert p2.kernels() is not kernels1  # fresh kernels, not the stale pair
        sim2 = CompiledSimulator(p2, 2)
        sim2.step(stim)
        nodes = list(net.nodes())
        want = reference_sequential(net, [stim], 2)[0]
        assert sim2.node_ints(nodes) == [want[x] for x in nodes]
        # the inverted gate actually changed value — a stale program would
        # have kept serving the old function
        assert sim2.value(gate) == sim1.value(gate) ^ sim1.full_mask

    def test_store_hit_keeps_in_process_program(self):
        """A store hit returns the program this process already holds for
        the signature, kernels built, and still counts as a hit."""
        spec = campaign_spec("cache-w", n_gates=40, depth=5, n_pis=8, n_pos=4)
        a = generate_circuit(spec, 5)
        b = generate_circuit(spec, 5)  # structurally identical
        assert a is not b
        warm = ArtifactStore()
        # the store's copy is another instance, as if a process filled it
        warm.put(COMPILED_SIM_STAGE, network_signature(a), compile_network(a))
        p = program_for(a)
        kernels = p.kernels()
        hits, misses = warm.stats.hits, warm.stats.misses
        q = program_for(b, store=warm)
        assert q is p
        assert q._kernels is kernels
        assert (warm.stats.hits, warm.stats.misses) == (hits + 1, misses)
        # another signature is compiled and stored as before
        c = generate_circuit(spec, 6)
        r = program_for(c, store=warm)
        assert r.signature == network_signature(c) != p.signature
        assert (warm.stats.hits, warm.stats.misses) == (hits + 1, misses + 1)
        assert warm.count(COMPILED_SIM_STAGE) == 2

    def test_store_persistence_round_trip(self, tmp_path):
        spec = campaign_spec("cache-d", n_gates=40, depth=5, n_pis=8, n_pos=4)
        net = generate_circuit(spec, 3)
        store = ArtifactStore(cache_dir=str(tmp_path))
        program = program_for(net, store=store)
        assert store.count(COMPILED_SIM_STAGE) == 1
        # a fresh store over the same directory (fresh process model) must
        # serve the program from disk — and it must still execute
        import repro.netlist.compiled as compiled_mod

        compiled_mod._BY_KEY.clear()
        compiled_mod._BY_NET.clear()
        restarted = ArtifactStore(cache_dir=str(tmp_path))
        again = program_for(net, store=restarted)
        assert restarted.stats.for_stage(COMPILED_SIM_STAGE).disk_hits == 1
        assert again.signature == program.signature
        sim = CompiledSimulator(again)
        sim.step({p: U64MAX for p in net.pis})

    def test_program_pickles_without_kernels(self):
        import pickle

        net = parse_blif(
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end"
        )
        program = compile_network(net)
        program.kernels()  # generate, then ensure pickling drops them
        clone = pickle.loads(pickle.dumps(program))
        assert isinstance(clone, CompiledProgram)
        assert clone.ops == program.ops
        sim = CompiledSimulator(clone)
        sim.step({net.pis[0]: 0b1100, net.pis[1]: 0b1010})
        assert sim.value(net.require("y")) == 0b0110


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

    def test_run_block_matches_stepwise(self):
        net, program = self._program()
        nw = 4
        gate = int(next(net.gates()))
        nodes = list(net.nodes())
        rng = np.random.default_rng(9)
        stepper = CompiledSimulator(program, nw)
        blocker = CompiledSimulator(program, nw)
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
            block_words(rows, net.pis, nw),
            len(rows),
            block_overrides(ovr, nw),
        )
        assert consumed == len(rows) == blocker.block_cycles > 1
        assert blocker.cycle == stepper.cycle
        assert blocker.node_ints(nodes) == expected[-1]
        assert blocker.dense().tolist() == stepper.dense().tolist()
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

    def test_run_block_array_matches_run_block(self):
        net, program = self._program(10)
        nw = 4
        nodes = list(net.nodes())
        rng = np.random.default_rng(10)
        a = CompiledSimulator(program, nw)
        b = CompiledSimulator(program, nw)
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
        arr = CompiledSimulator(program, 4)
        ref = CompiledSimulator(program, 4)
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
        sim = CompiledSimulator(program, 4)
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
                random_stimulus_ints(rng, net, self.N_WORDS)
                for _ in range(self.HORIZON)
            ]
            values = reference_sequential(net, rows, self.N_WORDS)
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
            words = block_words(rows[base : base + n], net.pis, self.N_WORDS)
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
        sim = CompiledSimulator(program_for(net), self.N_WORDS)
        for row in rows:  # stepping records the true trajectory
            sim.step(row)
        sim.reset()
        assert sim.block_span(H) == H
        for cycle, latch, word, flip in corruptions:
            sim._rec[cycle, latch, word] ^= np.uint64(flip)
        first_wrong = min(cycle for cycle, *_ in corruptions)
        consumed = sim.run_block(block_words(rows, net.pis, self.N_WORDS), H)
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
        sim = CompiledSimulator(program_for(net), self.N_WORDS)
        assert sim._rec.shape == (cap, self.N_LATCHES, self.N_WORDS)
        self._run_to_horizon(sim, net, rows, values, states)
        sim.reset()
        # one pass predicts the recorded cycles; past the cap, one per pass
        assert sim.block_span(self.HORIZON) == cap
        self._run_to_horizon(sim, net, rows, values, states)
        assert sim._rec_len == cap


class TestMultiWordLanes:
    def test_fault_injector_lane_mask_isolates_lanes(self):
        net = parse_blif(
            ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end"
        )
        fi = FaultInjector(net, n_words=2)
        fi.stuck_at("a", 0, lane_mask=1 << 77)
        vals = fi.step({net.pis[0]: np.full(2, U64MAX, dtype=np.uint64)})
        y = vals[net.require("y")]
        assert y[0] == U64MAX  # word 0 untouched
        assert y[1] == U64MAX ^ np.uint64(1 << 13)  # lane 77 = word 1 bit 13

    def test_active_override_ints_all_lanes_expands_to_every_word(self):
        f = ForcedFault(node=3, value=1)
        ov = active_override_ints([f], 0, n_words=2)
        forced, mask = ov[3]
        assert forced == mask == (1 << 128) - 1
        lane70 = ForcedFault(node=3, value=1, lane_mask=1 << 70)
        forced, mask = active_override_ints([lane70], 0, n_words=2)[3]
        assert mask == 1 << 70
        assert active_override_ints([f], 5, n_words=1)[3][1] == (1 << 64) - 1

    def test_word0_lane_mask_stays_in_word0(self):
        # a literal mask of word 0's 64 lanes is a mask, not "all lanes"
        word0 = (1 << 64) - 1
        f = ForcedFault(node=3, value=1, lane_mask=word0)
        forced, mask = active_override_ints([f], 0, n_words=2)[3]
        assert forced == mask == word0
        net = parse_blif(
            ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end"
        )
        fi = FaultInjector(net, n_words=2)
        fi.stuck_at("a", 0, lane_mask=word0)
        vals = fi.step({net.pis[0]: np.full(2, U64MAX, dtype=np.uint64)})
        y = vals[net.require("y")]
        assert y[0] == 0 and y[1] == U64MAX

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

    @pytest.mark.slow
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
