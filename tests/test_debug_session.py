"""The online debug loop: sessions, trace buffers, selection strategies."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from benchmarks.ref_tracebuffer import TraceBuffer
from repro.core.debug import DebugSession
from repro.core.flow import DebugFlowConfig, run_generic_stage
from repro.core.selection import (
    ConeOfInfluenceSelection,
    ManualSelection,
    RoundRobinSweep,
)
from repro.errors import DebugFlowError
from repro.netlist import CompiledSimulator, parse_blif, program_for
from tests.conftest import TINY_SEQ_BLIF


@pytest.fixture(scope="module")
def offline():
    net = parse_blif(TINY_SEQ_BLIF)
    return run_generic_stage(net, DebugFlowConfig(n_buffer_inputs=2))


@pytest.fixture
def session(offline):
    return DebugSession(offline, trace_depth=64)


class TestTraceBuffer:
    def test_window_order(self):
        tb = TraceBuffer(width=1, depth=4)
        for i in range(6):
            tb.capture([i % 2])
        w = tb.window()
        assert w.shape == (4, 1)
        assert w[:, 0].tolist() == [0, 1, 0, 1]

    def test_partial_fill(self):
        tb = TraceBuffer(width=2, depth=8)
        tb.capture([1, 0])
        assert tb.window().shape == (1, 2)

    def test_trigger_stops_capture(self):
        tb = TraceBuffer(width=1, depth=8, post_trigger=2)
        tb.capture([0], trigger=True)
        tb.capture([1])
        assert tb.stopped
        tb.capture([1])  # ignored
        assert tb.window().shape[0] == 2
        assert tb.triggered_at == 0

    def test_reset(self):
        tb = TraceBuffer(width=1, depth=4)
        tb.capture([1], trigger=True)
        tb.reset()
        assert tb.window().shape == (0, 1) or tb.window().size == 0
        assert tb.triggered_at is None

    def test_bad_dims(self):
        with pytest.raises(DebugFlowError):
            TraceBuffer(width=0, depth=4)
        tb = TraceBuffer(width=2, depth=4)
        with pytest.raises(DebugFlowError):
            tb.capture([1])

    def test_channel(self):
        tb = TraceBuffer(width=2, depth=4)
        tb.capture([1, 0])
        assert tb.channel(0).tolist() == [1]
        with pytest.raises(DebugFlowError):
            tb.channel(5)


class TestSession:
    def test_observe_and_run(self, session):
        sigs = session.observable_signals[:2]
        hookup = session.observe(sigs)
        assert set(hookup.values()) >= set(sigs)
        window = session.run(10, stimulus=lambda c: {"a": c & 1})
        assert window.shape == (10, session.design.n_buffer_inputs)

    def test_waveform_matches_reference(self, offline, session, rng):
        sig = session.observable_signals[0]
        session.observe([sig])
        stim_script = [
            {n: int(rng.integers(0, 2)) for n in ("a", "b", "c")}
            for _ in range(24)
        ]
        session.run(24, stimulus=lambda c: stim_script[c])
        wave = session.waveforms()[sig]

        source = offline.source
        ref = CompiledSimulator(program_for(source), 1)
        expected = []
        for stim in stim_script:
            ref.step({p: stim[source.node_name(p)] for p in source.pis})
            expected.append(ref.value(source.require(sig)))
        assert wave.tolist() == expected

    def test_turn_accounting(self, session):
        session.observe(session.observable_signals[:1])
        session.run(5, stimulus=lambda c: {})
        session.observe(session.observable_signals[1:2])
        session.run(7, stimulus=lambda c: {})
        assert len(session.turns) == 2
        assert session.total_cycles() == 12
        rep = session.amortization_report()
        assert rep["specializations"] == 2.0
        assert rep["modeled_overhead_s"] > 0

    def test_trigger_stops_window(self, session):
        session.observe(session.observable_signals[:1])
        session.run(
            40,
            stimulus=lambda c: {"a": 1, "b": 1, "c": 1},
            trigger=lambda cyc, buffers: cyc == 5,
        )
        assert session.trace.stopped

    def test_negative_cycles_rejected(self, session):
        session.observe(session.observable_signals[:1])
        with pytest.raises(DebugFlowError):
            session.run(-1, stimulus=lambda c: {})

    def test_reset_clears_state(self, session):
        session.observe(session.observable_signals[:1])
        session.run(5, stimulus=lambda c: {"a": 1})
        session.reset()
        assert session.trace.cycle == 0

    def test_turns_retain_little_memory(self, offline):
        # a session keeps one small log per turn, not every turn's SCG
        # record (frames, stats and cost report: about 0.6 KB here)
        session = DebugSession(offline, trace_depth=16)
        design = session.design
        groups = [
            [design.network.node_name(t) for t in g.path]
            for g in design.groups
        ]
        script = [{"a": c & 1, "b": c >> 1 & 1, "c": 1} for c in range(8)]

        def turn(i):
            session.observe([names[i % len(names)] for names in groups])
            session.reset()
            session.run(8, stimulus=script)
            session.waveforms()

        for i in range(20):
            turn(i)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                turn(i)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(session.turns) == 220
        assert retained / 200 < 200


class TestStrategies:
    def test_round_robin_covers_everything(self, offline):
        design = offline.instrumented
        seen: set[str] = set()
        for sel in RoundRobinSweep(design):
            design.selection_for(sel)  # must be collision-free
            seen.update(sel)
        assert seen == {
            design.network.node_name(t) for t in design.taps
        }

    def test_manual_validates(self, offline):
        design = offline.instrumented
        good = [[design.network.node_name(design.taps[0])]]
        assert list(ManualSelection(design, good)) == good
        g0 = design.groups[0]
        if len(g0.leaves) >= 2:
            bad = [[design.network.node_name(l) for l in g0.leaves[:2]]]
            with pytest.raises(DebugFlowError):
                ManualSelection(design, bad)

    def test_cone_selection_prioritizes_near(self, offline):
        design = offline.instrumented
        po = offline.source.po_names[0]
        rounds = list(ConeOfInfluenceSelection(design, po))
        assert rounds, "cone strategy yielded nothing"
        for sel in rounds:
            design.selection_for(sel)
        first = set(rounds[0])
        # the failing signal's own driver region comes first
        cone = design.network.transitive_fanin(
            [design.network.require(po)]
        )
        assert any(design.network.require(s) in cone for s in first)

    def test_cone_unknown_signal(self, offline):
        with pytest.raises(DebugFlowError):
            ConeOfInfluenceSelection(offline.instrumented, "ghost")

    def test_cone_max_rounds(self, offline):
        design = offline.instrumented
        po = offline.source.po_names[0]
        limited = list(
            ConeOfInfluenceSelection(design, po, max_rounds=1)
        )
        assert len(limited) <= 1
