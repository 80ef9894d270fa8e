"""The ``emulation`` stage: the mapped network's compiled program and the
lowered virtual PConf, built once per design and served by the store.

Its proof obligations, over small random designs and configs:

* a store hit serves the program of the engine's mapped network, whose
  kernels compute what a fresh ``compile_network`` computes, and an
  engine over it observes and specializes;
* a program or plan pickled under another bytecode magic loads without
  code, regenerates it, and simulates and specializes identically;
* kernel kinds are generated when linked or stored: the stage generates
  none, a session's turns link ``clean`` and its first forced fault
  ``forced``, and a pickled artifact carries both kinds of its program;
* ``PROGRAM_VERSION`` keys the ``emulation`` stage and nothing upstream;
* a warm restart compiles nothing: with ``compile_network`` and
  ``compile()`` patched to raise, a lane engine, a stuck-at screen and a
  campaign run on a store another process filled.
"""

from __future__ import annotations

import pickle
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.netlist.compiled as compiled
from repro.campaign import ArtifactStore, CampaignConfig, run_campaign
from repro.campaign.cache import resolve_offline
from repro.core.debug import DebugSession
from repro.core.flow import DebugFlowConfig, run_generic_stage
from repro.core.virtual import build_virtual_pconf
from repro.engine import LaneEngine
from repro.errors import DebugFlowError
from repro.netlist.compiled import (
    PROGRAM_VERSION,
    CompiledSimulator,
    compile_network,
    network_signature,
)
from repro.pipeline import DEBUG_FLOW_GRAPH, StageGraph
from repro.workloads import campaign_spec, generate_circuit, stuck_at_scenarios
from repro.workloads.scenarios import packed_signal_traces, stimulus_script

#: A bytecode magic no interpreter has.
OTHER_MAGIC = b"\x00\x00\r\n"

#: (design seed, latch count): combinational and sequential designs.
DESIGNS = st.tuples(st.integers(0, 10_000), st.sampled_from([0, 3]))


def _design(seed: int, n_latches: int):
    spec = campaign_spec(
        f"emu-{n_latches}", n_gates=40, depth=5, n_pis=8, n_pos=4,
        n_latches=n_latches,
    )
    return spec, generate_circuit(spec, seed)


def _clear_memos() -> None:
    """Forget every program this process compiled (a fresh process)."""
    compiled._BY_KEY.clear()
    compiled._BY_NET.clear()


def _assert_same_simulation(a, b, rng, n_cycles: int = 6) -> None:
    """Two programs of one network agree cycle by cycle, clean and with
    a gate override (so both kernel kinds run)."""
    sims = [CompiledSimulator(a), CompiledSimulator(b)]
    gates = [node for node, _fanins, _cubes in a.ops]
    for cyc in range(n_cycles):
        stim = {p: int(rng.integers(0, 2**63)) for p in a.pi_nodes}
        overrides = None
        if gates and cyc % 2:
            gate = gates[int(rng.integers(0, len(gates)))]
            overrides = {
                gate: (int(rng.integers(0, 2**63)), int(rng.integers(0, 2**63)))
            }
        for sim in sims:
            sim.step(stim, overrides=overrides)
        assert sims[0].values == sims[1].values


def _random_assignment(space, rng):
    return space.assignment(
        {name: int(rng.integers(0, 2)) for name in space.names}
    )


class TestEmulationStage:
    @settings(max_examples=6, deadline=None)
    @given(design=DESIGNS, seed=st.integers(0, 2**16))
    def test_store_hit_serves_the_engines_program(self, design, seed):
        _spec, net = _design(*design)
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as d:
            resolve_offline(net, cache=ArtifactStore(cache_dir=d))
            _clear_memos()
            restarted = ArtifactStore(cache_dir=d)
            offline, hit = resolve_offline(net, cache=restarted)
        assert hit
        assert restarted.stats.for_stage("emulation").disk_hits == 1
        engine = LaneEngine(offline)
        program = engine.sim.program
        assert program is offline.emulation.program
        assert program.signature == network_signature(engine.mapped_net)
        _assert_same_simulation(
            program, compile_network(engine.mapped_net), rng
        )
        # the loaded PConf shares the design's parameter space, so the
        # engine observes, and it specializes like a freshly built one
        space = offline.instrumented.param_space
        assert engine.pconf.bitstream.space is space
        engine.observe([engine.observable_signals[0]])
        fresh = build_virtual_pconf(offline.mapping, offline.instrumented)
        for _ in range(3):
            assignment = _random_assignment(space, rng)
            got, got_stats = engine.pconf.bitstream.specialize(assignment)
            want, want_stats = fresh.bitstream.specialize(assignment)
            assert np.array_equal(got, want) and got_stats == want_stats

    @settings(max_examples=6, deadline=None)
    @given(design=DESIGNS, seed=st.integers(0, 2**16))
    def test_other_magic_drops_code_and_regenerates(self, design, seed):
        _spec, net = _design(*design)
        rng = np.random.default_rng(seed)
        offline, _hit = resolve_offline(net)
        emulation = offline.emulation
        with mock.patch.object(compiled, "MAGIC_NUMBER", OTHER_MAGIC):
            blob = pickle.dumps(emulation)
        clone = pickle.loads(blob)
        plan = clone.pconf.bitstream._plan
        assert clone.program.code._code == {}
        assert plan is not None and plan.code._code == {}
        clone.bind(offline.instrumented)
        _assert_same_simulation(emulation.program, clone.program, rng)
        space = offline.instrumented.param_space
        for _ in range(3):
            assignment = _random_assignment(space, rng)
            got, got_stats = clone.pconf.bitstream.specialize(assignment)
            want, want_stats = emulation.pconf.bitstream.specialize(assignment)
            assert np.array_equal(got, want) and got_stats == want_stats
        assert set(plan.code._code) == {"clean"}

    def test_same_magic_keeps_code(self):
        """The stage generates no kernel code; pickling the artifact (a
        store put or a pool payload) generates both kinds of its program
        first, and its plan keeps the one kind it runs."""
        _spec, net = _design(5, 3)
        _clear_memos()
        offline, _hit = resolve_offline(net)
        assert offline.emulation.program.code._code == {}
        clone = pickle.loads(pickle.dumps(offline.emulation))
        assert set(clone.program.code._code) == {"clean", "forced"}
        assert set(clone.pconf.bitstream._plan.code._code) == {"clean"}

    def test_turns_generate_clean_and_a_fault_forced(self):
        """A session over an unstored artifact runs its turns on the
        ``clean`` kernel alone; its first forced fault generates
        ``forced``."""
        _spec, net = _design(23, 3)
        _clear_memos()
        offline, _hit = resolve_offline(net)
        program = offline.emulation.program
        session = DebugSession(offline)
        stim = stimulus_script(net, 8, 5)
        signals = session.observable_signals
        for picks in ([signals[0]], [signals[-1]]):
            session.observe(picks)
            session.reset()
            session.run(8, stimulus=stim)
            assert picks[0] in session.waveforms()
        assert set(program.code._code) == {"clean"}
        gate = next(
            s for s in signals if program.is_op[session.mapped_net.require(s)]
        )
        session.force(gate, 1)
        session.reset()
        session.run(8, stimulus=stim)
        assert set(program.code._code) == {"clean", "forced"}

    @settings(max_examples=10, deadline=None)
    @given(
        design=DESIGNS,
        k=st.sampled_from([4, 5, 6]),
        fold=st.booleans(),
        n_buffer_inputs=st.sampled_from([None, 2, 4]),
    )
    def test_program_version_keys_emulation_only(
        self, design, k, fold, n_buffer_inputs
    ):
        _spec, net = _design(*design)
        config = DebugFlowConfig(
            k=k, fold_polarity=fold, n_buffer_inputs=n_buffer_inputs
        )
        assert DEBUG_FLOW_GRAPH["emulation"].version == PROGRAM_VERSION
        bumped = StageGraph(
            [
                replace(s, version=PROGRAM_VERSION + 1)
                if s.name == "emulation"
                else s
                for s in DEBUG_FLOW_GRAPH
            ]
        )
        old = DEBUG_FLOW_GRAPH.stage_keys(net, config)
        new = bumped.stage_keys(net, config)
        assert {s for s in old if old[s] != new[s]} == {"emulation"}
        # and the in-process program memo misses too
        sig = network_signature(net)
        with mock.patch.object(compiled, "PROGRAM_VERSION", PROGRAM_VERSION + 1):
            assert network_signature(net) != sig

    def test_generic_stage_builds_emulation_on_first_use(self):
        _spec, net = _design(17, 0)
        offline = run_generic_stage(net)
        assert offline.emulation is None
        engine = LaneEngine(offline)
        assert engine.sim.program is offline.emulation.program
        assert engine.pconf is offline.emulation.pconf

    def test_engine_rejects_another_networks_program(self):
        _spec, net = _design(17, 0)
        _spec, other = _design(18, 0)
        offline, _hit = resolve_offline(net)
        offline.emulation = resolve_offline(other)[0].emulation
        with pytest.raises(DebugFlowError):
            LaneEngine(offline)


class TestWarmRestart:
    HORIZON = 32

    def test_warm_restart_compiles_nothing(self, tmp_path, monkeypatch):
        spec = campaign_spec("emu-warm", n_gates=80, depth=6, n_pis=12, n_pos=6)
        net = generate_circuit(spec, 2016)
        resolve_offline(net, cache=ArtifactStore(cache_dir=str(tmp_path)))
        _clear_memos()
        # the golden network is not the mapped one: its program compiles
        # here, once, and later golden passes take it from the memo
        stim = stimulus_script(net, self.HORIZON, 7)
        packed_signal_traces(net, [stim], list(net.po_names))

        def boom(*_args, **_kwargs):
            raise AssertionError("compiled on a warm restart")

        monkeypatch.setattr(compiled, "compile_network", boom)
        monkeypatch.setattr(compiled, "compile", boom, raising=False)
        restarted = ArtifactStore(cache_dir=str(tmp_path))
        offline, hit = resolve_offline(
            generate_circuit(spec, 2016), cache=restarted
        )
        assert hit and restarted.stats.misses == 0
        engine = LaneEngine(offline, n_lanes=4)
        engine.force(engine.observable_signals[0], 1, lane=1)
        engine.run_outputs(self.HORIZON)
        scenarios = stuck_at_scenarios(
            spec, 3, horizon=self.HORIZON, offline=offline
        )
        report = run_campaign(
            scenarios,
            config=CampaignConfig(workers=1),
            cache=ArtifactStore(cache_dir=str(tmp_path)),
        )
        assert report.cache_stats["misses"] == 0
        assert all(r.status != "error" for r in report.results)
