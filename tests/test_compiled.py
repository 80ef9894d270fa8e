"""Compiled simulation kernels: parity, caching, multi-word lanes.

The compiled path must be **bit-identical** to the reference interpreter
over every node, every cycle, for every network shape the stack
produces — mapped and unmapped, sequential and combinational, with and
without lane-masked overrides, single- and multi-word.  These tests pin
that down with randomized sweeps, then cover the program caches, the
>64-lane engine and the 128-scenario campaign equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import ArtifactStore, CampaignConfig, run_campaign
from repro.core.debug import DebugSession
from repro.core.flow import run_generic_stage
from repro.emu.fault import ALL_LANES, FaultInjector, active_override_ints, ForcedFault
from repro.engine import LaneEngine
from repro.errors import SimulationError
from repro.netlist import parse_blif
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
    interp = SequentialSimulator(net, n_words=n_words, interpreted=True)
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
            vi = simulate_combinational(net, stim, overrides=ov, interpreted=True)
            vc = simulate_combinational(net, stim, overrides=ov)
            for nid in net.nodes():
                assert np.array_equal(vi[nid], vc[nid])

    def test_constant_gate_override_parity(self):
        # constants are folded out of the kernel; an override on one must
        # still blend and un-blend exactly like the interpreter
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
            vi = simulate_combinational(net, stim, overrides=ov, interpreted=True)
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
        """An in-place rewire queried under a *different* backend must
        recompile and re-lower — the numpy vector plan hangs off the
        program object, so a stale program would mean a stale plan."""
        from repro.netlist.vector import plan_for

        spec = campaign_spec("cache-b", n_gates=40, depth=5, n_pis=8, n_pos=4)
        net = generate_circuit(spec, 2)
        p1 = program_for(net)
        # warm both backends on the original program: python kernels and
        # the vector plan are both cached on the program instance
        py1 = CompiledSimulator(p1, 2, backend="python")
        np1 = CompiledSimulator(p1, 2, backend="numpy")
        stim = {p: 0x5A5A_5A5A_5A5A_5A5A for p in net.pis}
        py1.step(stim)
        np1.step(stim)
        plan1 = plan_for(p1)
        assert p1._vector_plan is plan1

        gate = next(net.gates())
        net.rewire(gate, net.fanins(gate), ~net.func(gate))
        # first post-rewire query arrives from the numpy side
        p2 = program_for(net)
        assert p2 is not p1
        assert plan_for(p2) is not plan1  # fresh lowering, not the stale plan
        py2 = CompiledSimulator(p2, 2, backend="python")
        np2 = CompiledSimulator(p2, 2, backend="numpy")
        py2.step(stim)
        np2.step(stim)
        nodes = list(net.nodes())
        assert py2.node_ints(nodes) == np2.node_ints(nodes)
        # the inverted gate actually changed value — a stale program or
        # plan would have kept serving the old function
        assert py2.value(gate) == py1.value(gate) ^ py1.full_mask
        assert np2.value(gate) == np1.value(gate) ^ np1.full_mask

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
    """Direct coverage for the numpy backend's cycle-batched entry
    points (the lane engine and the kernel bench consume them)."""

    def _program(self, seed=9):
        spec = campaign_spec("blk-t", n_gates=60, depth=6, n_pis=10, n_pos=5)
        net = generate_circuit(spec, seed)
        return net, program_for(net)

    def test_run_block_matches_stepwise(self):
        net, program = self._program()
        rng = np.random.default_rng(9)
        nw = 4
        stepper = CompiledSimulator(program, nw, backend="numpy")
        blocker = CompiledSimulator(program, nw, backend="numpy")
        gate = int(next(net.gates()))
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
                {gate: (int(rng.integers(0, 2)) * full, 0xFF << (64 * (c % nw)))}
                if c % 2
                else None
            )
        nodes = list(net.nodes())
        expected = []
        for row, ov in zip(rows, ovr):
            stepper.step(row, overrides=ov)
            expected.append(stepper.node_ints(nodes))
        blocker.run_block(rows, ovr)
        assert blocker.cycle == stepper.cycle
        assert blocker.node_ints(nodes) == expected[-1]
        out = np.empty(
            (len(nodes), blocker.block_cycles * nw), dtype=np.uint64
        )
        blocker.block_export(nodes, out)
        for c in range(len(rows)):
            got = [
                int.from_bytes(
                    out[i, c * nw : (c + 1) * nw].tobytes(), "little"
                )
                for i in range(len(nodes))
            ]
            assert got == expected[c], f"cycle {c}"

    def test_run_block_array_matches_run_block(self):
        net, program = self._program(10)
        rng = np.random.default_rng(10)
        nw = 4
        a = CompiledSimulator(program, nw, backend="numpy")
        b = CompiledSimulator(program, nw, backend="numpy")
        n_cycles = a.block_cycles
        stim = rng.integers(
            0,
            U64MAX,
            size=(len(program.pi_nodes), n_cycles * nw),
            dtype=np.uint64,
            endpoint=True,
        )
        rows = [
            {
                int(p): int.from_bytes(
                    stim[i, c * nw : (c + 1) * nw].tobytes(), "little"
                )
                for i, p in enumerate(program.pi_nodes)
            }
            for c in range(n_cycles)
        ]
        a.run_block(rows)
        b.run_block_array(stim)
        assert a.cycle == b.cycle
        nodes = list(net.nodes())
        assert a.node_ints(nodes) == b.node_ints(nodes)
        outa = np.empty((len(nodes), n_cycles * nw), dtype=np.uint64)
        outb = np.empty_like(outa)
        a.block_export(nodes, outa)
        b.block_export(nodes, outb)
        assert np.array_equal(outa, outb)

    def test_run_block_array_rejects_bad_inputs(self):
        _net, program = self._program(11)
        n_pis = len(program.pi_nodes)
        py = CompiledSimulator(program, 4, backend="python")
        with pytest.raises(SimulationError, match="numpy backend"):
            py.run_block_array(np.zeros((n_pis, 4), dtype=np.uint64))
        vec = CompiledSimulator(program, 4, backend="numpy")
        with pytest.raises(SimulationError, match="shape"):
            vec.run_block_array(np.zeros((n_pis + 1, 4), dtype=np.uint64))
        with pytest.raises(SimulationError, match="shape"):
            vec.run_block_array(np.zeros((n_pis, 3), dtype=np.uint64))
        with pytest.raises(SimulationError, match="shape"):
            vec.run_block_array(np.zeros((n_pis, 4), dtype=np.int64))
        with pytest.raises(SimulationError):
            vec.run_block_array(
                np.zeros(
                    (n_pis, 4 * (vec.block_cycles + 1)), dtype=np.uint64
                )
            )


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
        assert active_override_ints([f], 5, n_words=1)[3][1] == ALL_LANES

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
