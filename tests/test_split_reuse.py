"""Programs split at late PIs: every call runs like the unsplit program.

``compile_network(net, late=...)`` orders the ops outside the late PIs'
fanout (closed through latches) first, and a block pass whose early
inputs — start cycle, span, latch state, latch-record version, early PI
words and overrides — equal the last pass's re-runs only the late ops.
The differential test drives a simulator over the split program and one
over the unsplit ``program_for(net)`` through random sequences of block
passes, steps, resets and rewinds (late-only and early stimulus changes,
gate, source and constant overrides) and compares every node's block
values, the latch state and the cycle after every call.  The targeted
tests pin each part of the reuse condition with a case where leaving it
out gives a wrong answer, and show the reuse fires in a debug session.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.netlist.compiled as compiled
from parity import block_overrides, block_words, random_network
from repro.core.debug import DebugSession
from repro.core.flow import run_generic_stage
from repro.errors import SimulationError
from repro.netlist.compiled import (
    CompiledSimulator,
    compile_network,
    program_for,
)
from repro.netlist.truthtable import TruthTable
from repro.workloads import campaign_spec, generate_circuit
from repro.workloads.scenarios import signal_traces, stimulus_script

#: Cycles of stimulus each tape holds; a call past them resets first.
HORIZON = 12


def split_network(
    seed: int, n_latches: int, *, late_drives_latch: bool = False
):
    """A random design plus a select layer: two late PIs each steering
    gates over the design's nodes toward extra POs (the shape of a trace
    mux network).  With ``late_drives_latch`` one latch is re-driven from
    the select layer, so the late cone reaches the latch state."""
    rng = random.Random(seed)
    net = random_network(
        seed, n_pis=5, n_gates=24, n_latches=n_latches, n_pos=3
    )
    design = list(net.gates()) + [latch.q for latch in net.latches]
    sels = [net.add_pi(f"sel{i}") for i in range(2)]
    pool = list(sels)
    for i in range(6):
        fanins = (rng.choice(pool), rng.choice(design), rng.choice(design))
        func = TruthTable(3, rng.getrandbits(8))
        pool.append(net.add_gate(f"m{i}", fanins, func))
    for gate in pool[-2:]:
        net.add_po(net.node_name(gate))
    if late_drives_latch and net.latches:
        net.set_latch_driver(net.latches[0].q, pool[-1])
    return net, sels


class SplitPair:
    """A split program's simulator and the unsplit program's, driven in
    lockstep over the same stimulus tapes and compared after every call.

    Early PIs read one of two tapes (the second equal to the first up to
    a random cycle, so trajectories can agree on the recorded prefix and
    part later), late PIs one of three, and overrides one of a small pool,
    so equal early inputs recur and the reuse fires."""

    def __init__(self, net, late, n_lanes: int, seed: int, *, cap=None):
        rng = random.Random(seed)
        self.net = net
        self.lanes = n_lanes
        self.nw = n_words = (n_lanes + 63) // 64
        self.nodes = list(net.nodes())
        early = [p for p in net.pis if p not in set(late)]

        def tape(pis):
            return [
                {p: rng.getrandbits(n_lanes) for p in pis}
                for _ in range(HORIZON)
            ]

        first = tape(early)
        part_from = rng.randrange(HORIZON)
        second = first[:part_from] + tape(early)[part_from:]
        self.early_tapes = [first, second]
        self.late_tapes = [tape(late) for _ in range(3)]
        full = (1 << n_lanes) - 1
        gates, consts = [], []
        for n in net.gates():
            (gates if net.func(n).const_value() is None else consts).append(n)
        sources = list(net.pis) + [latch.q for latch in net.latches]

        def forced():  # all lanes, or a random lane mask
            value = rng.getrandbits(n_lanes)
            if rng.random() < 0.5:
                return value, full
            return value, rng.getrandbits(n_lanes)

        # gate + source overrides, and gate + folded-constant overrides
        self.override_pool = [None] + [
            {rng.choice(nodes): forced() for nodes in kinds}
            for kinds in ((gates, sources), (gates, consts or gates))
        ]
        with mock.patch.object(
            compiled,
            "RECORD_MAX_WORDS",
            (cap or HORIZON + 1) * max(1, len(net.latches)) * n_words,
        ):
            split = compile_network(net, late=late)
            self.part = CompiledSimulator(split, n_lanes)
            self.ref = CompiledSimulator(program_for(net), n_lanes)
        assert self.part.program.late_sources == tuple(sorted(late))
        self.last = 0  # cycles the last block pass consumed (0: no rewind)
        self.blocks = 0
        self.reused = 0
        rerun = self.part._rerun_late

        def counted(*args):
            self.reused += 1
            return rerun(*args)

        self.part._rerun_late = counted

    def _rows(self, tape: int, late: int, cycle: int, n: int):
        return [
            {**self.early_tapes[tape][c], **self.late_tapes[late][c]}
            for c in range(cycle, cycle + n)
        ]

    def block(self, span: int, tape: int, late: int, ov: int) -> int:
        cycle = self.ref.cycle
        if cycle >= HORIZON:
            return self.reset()
        n = min(span, HORIZON - cycle, self.ref.block_cycles)
        rows = self._rows(tape, late, cycle, n)
        words = block_words(rows, self.net.pis, self.lanes)
        overrides = block_overrides([self.override_pool[ov]] * n, self.lanes)
        got = self.part.run_block(words, n, overrides)
        want = self.ref.run_block(words, n, overrides)
        assert got == want
        self.last = got
        self.blocks += 1
        self.last_block = (cycle, span, tape, ov)
        return got

    def replay(self, late: int, change: int) -> None:
        """Re-run the last block pass from a reset with other late words
        (and, for ``change`` 1 or 2, another early tape or override set):
        the steps up to its start cycle repeat its stimulus."""
        cycle, span, tape, ov = getattr(self, "last_block", (0, 8, 0, 0))
        self.reset()
        for _ in range(cycle):
            self.step(tape, late, ov)
        if change == 1:
            tape = 1 - tape
        elif change == 2:
            ov = (ov + 1) % len(self.override_pool)
        self.block(span, tape, late, ov)

    def step(self, tape: int, late: int, ov: int) -> None:
        cycle = self.ref.cycle
        if cycle >= HORIZON:
            return self.reset()
        (row,) = self._rows(tape, late, cycle, 1)
        for sim in (self.part, self.ref):
            sim.step(row, overrides=self.override_pool[ov])
        self.last = 0

    def reset(self) -> None:
        for sim in (self.part, self.ref):
            sim.reset()
        self.last = 0

    def rewind(self, k: int) -> None:
        if self.last:
            self.last = min(k, self.last)
            for sim in (self.part, self.ref):
                sim.rewind_block(self.last)

    def check(self) -> None:
        part, ref = self.part, self.ref
        assert part.cycle == ref.cycle
        assert part.latch_state == ref.latch_state
        assert part.node_ints(self.nodes) == ref.node_ints(self.nodes)
        if self.blocks:
            width = ref.block_cycles * self.nw
            got = np.zeros((len(self.nodes), width), dtype=np.uint64)
            want = np.zeros_like(got)
            part.block_export(self.nodes, got)
            ref.block_export(self.nodes, want)
            assert np.array_equal(got, want)

    def run(self, actions) -> None:
        for name, *args in actions:
            getattr(self, name)(*args)
            self.check()


ACTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("block"),
            st.integers(1, 8),
            st.integers(0, 1),
            st.integers(0, 2),
            st.integers(0, 2),
        ),
        st.tuples(
            st.just("step"),
            st.integers(0, 1),
            st.integers(0, 2),
            st.integers(0, 2),
        ),
        st.tuples(st.just("reset")),
        st.tuples(st.just("rewind"), st.integers(1, 8)),
        st.tuples(
            st.just("replay"), st.integers(0, 2), st.sampled_from([0, 0, 1, 2])
        ),
    ),
    min_size=4,
    max_size=24,
)


class TestSplitProgram:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_latches=st.sampled_from([0, 3]),
        late_drives_latch=st.booleans(),
        extra_late=st.integers(0, 2),
        n_lanes=st.sampled_from([1, 3, 64, 65]),
        cap=st.sampled_from([None, 3]),
        actions=ACTIONS,
    )
    def test_runs_like_the_unsplit_program(
        self, seed, n_latches, late_drives_latch, extra_late, n_lanes, cap,
        actions,
    ):
        net, sels = split_network(
            seed, n_latches, late_drives_latch=late_drives_latch
        )
        rng = random.Random(seed)
        late = sels + rng.sample(net.pis[: -len(sels)], extra_late)
        SplitPair(net, late, n_lanes, seed, cap=cap).run(actions)

    def test_partition(self):
        net, sels = split_network(3, 3)
        program = compile_network(net, late=sels)
        late = {node for node, _f, _c in program.ops[program.n_early :]}
        early = {node for node, _f, _c in program.ops[: program.n_early]}
        assert late and early
        # early ops read only early nodes; every reader of a late node is late
        for node, fanins, _cubes in program.ops:
            if node in early:
                assert not (set(fanins) & (late | set(sels)))
            elif not (set(fanins) & (late | set(sels))):
                pytest.fail(f"op {node} is late but reads no late node")
        assert program.reusable and program.late_qs == ()
        # no kernel chunk mixes early and late ops
        starts = program.code._chunk_starts()
        assert starts == ([0], [program.n_early])
        with pytest.raises(SimulationError, match="primary inputs"):
            compile_network(net, late=[net.latches[0].q])

    def test_partition_closes_through_latches(self):
        net, sels = split_network(3, 3, late_drives_latch=True)
        program = compile_network(net, late=sels)
        q = net.latches[0].q
        assert q in program.late_qs and not program.reusable
        readers = [node for node, fanins, _c in program.ops if q in fanins]
        assert readers
        assert all(program.is_late[node] for node in readers)
        # a late-only change moves the latch trajectory: the unsplit
        # program consumes fewer predicted cycles the second time
        pair = SplitPair(net, sels, 64, 3)
        pair.run(
            [("step", 0, 0, 0)] * HORIZON
            + [("reset",), ("block", 8, 0, 0, 0)]
            + [("reset",), ("block", 8, 0, 1, 0)]
        )
        assert pair.last < 8

    @pytest.mark.parametrize("n_latches", [0, 3])
    def test_late_only_change_reruns_late_ops(self, n_latches):
        net, sels = split_network(5, n_latches)
        pair = SplitPair(net, sels, 128, 5)
        pair.run(
            [("step", 0, 0, 0)] * HORIZON + [("reset",), ("block", 8, 0, 0, 0)]
        )
        assert (pair.reused, pair.last) == (0, 8)
        for late in (1, 2, 1):
            pair.run([("reset",), ("block", 8, 0, late, 0)])
        assert (pair.reused, pair.last) == (3, 8)
        pair.run([("rewind", 3), ("step", 0, 2, 0)])
        assert pair.ref.cycle == 4

    def test_record_version_keys_the_reuse(self):
        """Steps along another trajectory rewrite the latch record: the
        same block then predicts other states and must not be reused."""
        net, sels = split_network(7, 3)
        pair = SplitPair(net, sels, 64, 7)
        pair.early_tapes[1] = [
            {p: ~w & ((1 << 64) - 1) for p, w in row.items()}
            for row in pair.early_tapes[0]
        ]
        pair.run(
            [("step", 0, 0, 0)] * HORIZON
            + [("reset",), ("block", 8, 0, 0, 0), ("reset",)]
        )
        version = pair.part._rec_version
        pair.run([("step", 1, 0, 0)] * 8 + [("reset",)])
        # only the record differs from the last pass's inputs
        assert pair.part._rec_version != version
        assert pair.part.block_span(8) == 8
        pair.run([("block", 8, 0, 1, 0)])
        assert pair.reused == 0 and pair.last < 8

    def test_latch_state_keys_the_reuse(self):
        """Past the record's memory cap nothing is recorded: two runs can
        reach one cycle with the record unchanged and different states."""
        net, sels = split_network(12, 3)
        pair = SplitPair(net, sels, 64, 12, cap=2)
        pair.early_tapes[1] = pair.early_tapes[0][:2] + [
            {p: ~w & ((1 << 64) - 1) for p, w in row.items()}
            for row in pair.early_tapes[0][2:]
        ]
        pair.run([("step", 0, 0, 0)] * 5)
        first = list(pair.ref.latch_state)
        pair.run([("block", 1, 0, 0, 0), ("reset",)])
        version = pair.part._rec_version
        pair.run([("step", 1, 0, 0)] * 5)
        # only the latch state differs from the last pass's inputs
        assert pair.part._rec_version == version
        assert pair.ref.cycle == 5 and pair.ref.latch_state != first
        pair.run([("block", 1, 0, 1, 0)])
        assert pair.reused == 0

    def test_overrides_key_the_reuse(self):
        net, sels = split_network(13, 0)
        pair = SplitPair(net, sels, 64, 13)
        pair.run(
            [("block", 8, 0, 0, 1), ("reset",), ("block", 8, 0, 1, 2)]
            + [("reset",), ("block", 8, 0, 2, 0)]
        )
        assert pair.reused == 0

    def test_split_follows_the_emulation_stage(self):
        net, sels = split_network(3, 0)
        late = tuple(sorted(sels))
        assert program_for(net, late=sels).late_sources == late
        assert program_for(net, late=sels) is program_for(net, late=late)
        assert program_for(net) is not program_for(net, late=sels)
        assert program_for(net).n_early == len(program_for(net).ops)


class TestDebugTurnReuse:
    def test_second_identical_stimulus_turn_runs_only_late_chunks(self):
        spec = campaign_spec(
            "reuse-seq", n_gates=60, depth=5, n_pis=8, n_pos=4, n_latches=4
        )
        net = generate_circuit(spec, 23)
        session = DebugSession(run_generic_stage(net))
        program = session.sim.program
        assert program.reusable and 0 < program.n_early < len(program.ops)
        stim = stimulus_script(net, 16, 5)
        taps = [
            sorted(session.design.network.node_name(t) for t in g.path)
            for g in session.design.groups
        ]
        golden = signal_traces(net, stim, [s for names in taps for s in names])

        def turn(k: int) -> None:
            picks = [names[k % len(names)] for names in taps]
            session.observe(picks)
            session.reset()
            session.run(16, stimulus=stim)
            waves = session.waveforms()
            assert set(waves) == set(picks)
            for sig in picks:
                assert np.array_equal(waves[sig], golden[sig]), sig

        turn(0)  # steps, recording the latch trajectory
        turn(1)  # one predicted block pass
        full = session.sim._clean_kernel

        def refuse(*_args):
            raise AssertionError("the early ops ran again")

        session.sim._clean_kernel = refuse
        try:
            turn(2)  # the same stimulus: only the select cone re-runs
        finally:
            session.sim._clean_kernel = full
        assert session.sim.cycle == 16


class TestLaneExactBlocks:
    def test_one_lane_session_block_values_are_32_bits(self):
        """A one-lane session evaluates one bit per cycle: after a
        32-cycle run on a sequential design every block value fits in
        32 bits (64 lanes' worth of bits per cycle would be 2,048)."""
        spec = campaign_spec(
            "lane-exact", n_gates=60, depth=5, n_pis=8, n_pos=4, n_latches=4
        )
        net = generate_circuit(spec, 29)
        session = DebugSession(run_generic_stage(net))
        stim = stimulus_script(net, 32, 3)
        taps = [
            sorted(session.design.network.node_name(t) for t in g.path)
            for g in session.design.groups
        ]
        golden = signal_traces(net, stim, [s for names in taps for s in names])
        for k in range(3):  # steps and records, then 32-cycle block passes
            picks = [names[k % len(names)] for names in taps]
            session.observe(picks)
            session.reset()
            session.run(32, stimulus=stim)
            for sig in picks:
                assert np.array_equal(session.waveforms()[sig], golden[sig])
        sim = session.sim
        assert sim._blk_len == 32
        assert max(sim._bv) < 2**32
