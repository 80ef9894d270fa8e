"""The lane-parallel online engine: masks, lanes, batches, equivalence."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.ref_simulate import ReferenceLaneEngine, apply_override
from parity import random_network, reference_traces
from repro.campaign import (
    ArtifactStore,
    CampaignConfig,
    run_campaign,
    run_scenario_batch,
)
from repro.core.debug import DebugSession
from repro.core.flow import run_generic_stage
from repro.core.tracebuffer import LaneTraceBuffer, TraceBuffer
from repro.emu.fault import ForcedFault, active_override_ints
from repro.engine import LaneEngine
from repro.errors import DebugFlowError
from repro.netlist import parse_blif
from repro.netlist.compiled import (
    BLOCK_TARGET_WORDS,
    MAX_BLOCK_CYCLES,
    CompiledSimulator,
    program_for,
    words_to_int,
)
from repro.util.bitops import lane_bits, unpack_bits
from repro.workloads import (
    DebugScenario,
    campaign_spec,
    generate_circuit,
    mutation_scenarios,
    stuck_at_scenarios,
)
from repro.workloads.scenarios import (
    packed_signal_traces,
    signal_traces,
    stimulus_script,
)

SPEC = campaign_spec("engine-test", n_gates=100, depth=7, n_pis=16, n_pos=8)
HORIZON = 48


@pytest.fixture(scope="module")
def golden():
    return generate_circuit(SPEC)


@pytest.fixture(scope="module")
def offline(golden):
    return run_generic_stage(golden)


@pytest.fixture(scope="module")
def scenarios():
    return stuck_at_scenarios(SPEC, 4, horizon=HORIZON)


class TestMaskedOverrides:
    def test_apply_override_blend_formula(self):
        # the reference simulator's blend, which the kernels must reproduce
        clean = np.array([0b1100], dtype=np.uint64)
        forced = np.array([0b0011], dtype=np.uint64)
        mask = np.array([0b1010], dtype=np.uint64)
        out = apply_override(clean, (forced, mask))
        # value = (clean & ~mask) | (forced & mask), lane by lane
        assert out[0] == np.uint64(0b0110)
        # full-array form replaces wholesale
        assert apply_override(clean, forced)[0] == forced[0]

    def test_masked_gate_override_isolates_lanes(self):
        net = parse_blif(
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end"
        )
        a, b = net.pis
        y = net.require("y")
        ones = (1 << 64) - 1
        sim = CompiledSimulator(program_for(net), 64)
        # force y to 1 in lane 3 only, while a&b computes 0 everywhere
        sim.step({a: 0, b: ones}, overrides={y: (1 << 3, 1 << 3)})
        assert sim.value(y) == 1 << 3
        # the pair blend is (clean & ~mask) | (forced & mask), lane by lane:
        # y computes 0b1100 from a=0b1100, b=ones
        sim.step({a: 0b1100, b: ones}, overrides={y: (0b0011, 0b1010)})
        assert sim.value(y) == 0b0110
        # an all-lanes mask replaces the value wholesale
        sim.step({a: 0b1100, b: ones}, overrides={y: (0b0011, ones)})
        assert sim.value(y) == 0b0011

    def test_active_overrides_full_vs_masked_forms(self):
        full = ForcedFault(node=7, value=1)
        forced, mask = active_override_ints([full], 0, n_lanes=64)[7]
        assert forced == mask == (1 << 64) - 1

        lane5 = ForcedFault(node=7, value=1, lane_mask=1 << 5)
        forced, mask = active_override_ints([lane5], 0, n_lanes=64)[7]
        assert forced == mask == 1 << 5

    def test_active_overrides_accumulates_lanes_per_node(self):
        f0 = ForcedFault(node=3, value=1, lane_mask=1 << 0)
        f1 = ForcedFault(node=3, value=0, lane_mask=1 << 1)
        forced, mask = active_override_ints([f0, f1], 0, n_lanes=64)[3]
        assert mask == 0b11
        assert forced == 0b01  # lane 0 forced high, lane 1 low

    def test_window_respected(self):
        f = ForcedFault(node=1, value=1, first_cycle=2, last_cycle=3)
        assert active_override_ints([f], 1, n_lanes=64) is None
        assert active_override_ints([f], 2, n_lanes=64) is not None
        assert active_override_ints([f], 4, n_lanes=64) is None


class TestLaneTraceBuffer:
    def test_lane_windows_match_solo_buffers(self):
        rng = np.random.default_rng(7)
        n_lanes, width, depth = 5, 3, 8
        packed = LaneTraceBuffer(width=width, depth=depth, n_lanes=n_lanes)
        solos = [TraceBuffer(width=width, depth=depth) for _ in range(n_lanes)]
        for _ in range(13):  # spans the wrap-around
            bits = rng.integers(0, 2, size=(n_lanes, width))
            sample = np.zeros(width, dtype=np.uint64)
            for lane in range(n_lanes):
                solos[lane].capture(bits[lane].tolist())
                for ch in range(width):
                    if bits[lane][ch]:
                        sample[ch] |= np.uint64(1 << lane)
            packed.capture(sample)
        for lane in range(n_lanes):
            assert np.array_equal(packed.window(lane), solos[lane].window())

    def test_per_lane_trigger_freezes_only_that_lane(self):
        packed = LaneTraceBuffer(width=1, depth=8, n_lanes=2, post_trigger=2)
        solo = TraceBuffer(width=1, depth=8, post_trigger=2)
        for cyc in range(8):
            sample = np.array([np.uint64(0b11 if cyc % 2 else 0)], dtype=np.uint64)
            packed.capture(sample, trigger_mask=0b01 if cyc == 1 else 0)
            solo.capture([cyc % 2], trigger=cyc == 1)
        assert packed.stopped(0) and not packed.stopped(1)
        assert packed.triggered_at(0) == 1 and packed.triggered_at(1) is None
        assert np.array_equal(packed.window(0), solo.window())
        # the live lane kept recording all 8 cycles
        assert packed.window(1).shape == (8, 1)

    def test_lane_bounds(self):
        with pytest.raises(DebugFlowError):
            LaneTraceBuffer(width=1, depth=4, n_lanes=0)
        tb = LaneTraceBuffer(width=1, depth=4, n_lanes=2)
        with pytest.raises(DebugFlowError):
            tb.window(2)
        # beyond 64 lanes the rows simply widen (multi-word addressing)
        wide = LaneTraceBuffer(width=1, depth=4, n_lanes=65)
        assert wide.n_words == 2


class TestPackedGolden:
    def test_packed_signal_traces_match_serial_per_lane(self, golden):
        # both golden views against the reference evaluator, one lane at
        # a time (signal_traces is lane 0 of the packed pass)
        stims = [stimulus_script(golden, 16, seed) for seed in (1, 2, 9)]
        names = [golden.node_name(p) for p in golden.pis][:2] + list(
            golden.po_names
        )
        packed = packed_signal_traces(golden, stims, names)
        for lane, stim in enumerate(stims):
            serial = signal_traces(golden, stim, names)
            ref = reference_traces(golden, [stim], names, 1)
            assert list(serial) == names
            for n in names:
                want = [w & 1 for w in ref[n]]
                lane_bits = (
                    (packed[n][:, 0] >> np.uint64(lane)) & np.uint64(1)
                ).astype(np.uint8)
                assert lane_bits.tolist() == want, n
                assert serial[n].tolist() == want, n

    def test_sequential_golden_matches_reference_at_70_lanes(self):
        # a design with latches, 70 distinct stimuli over two words:
        # every word of every signal, whose idle lanes 70..127 read 0
        spec = campaign_spec(
            "golden-seq", n_gates=100, depth=7, n_latches=6, n_pis=16, n_pos=8
        )
        net = generate_circuit(spec)
        assert net.latches
        stims = [stimulus_script(net, 10, seed) for seed in range(70)]
        names = [net.node_name(n) for n in net.topo_order()]
        packed = packed_signal_traces(net, stims, names)
        want = reference_traces(net, stims, names, 70)
        for n in names:
            assert packed[n].shape == (10, 2)
            assert [words_to_int(row) for row in packed[n]] == want[n], n

    @pytest.mark.parametrize("lanes", [1, 3, 64, 65])
    def test_combinational_golden_runs_in_blocks(
        self, golden, lanes, monkeypatch
    ):
        # a horizon crossing two block boundaries: one run_block pass per
        # block and no step, every cycle equal to the reference
        blk = CompiledSimulator(program_for(golden), lanes).block_cycles
        horizon = 2 * blk + 5
        passes = []
        real = CompiledSimulator.run_block

        def counted(self, *args, **kwargs):
            passes.append(real(self, *args, **kwargs))
            return passes[-1]

        def no_step(self, *args, **kwargs):
            raise AssertionError("a combinational golden pass stepped")

        monkeypatch.setattr(CompiledSimulator, "run_block", counted)
        monkeypatch.setattr(CompiledSimulator, "step", no_step)
        stims = [stimulus_script(golden, horizon, seed) for seed in range(lanes)]
        names = [golden.node_name(n) for n in golden.topo_order()]
        packed = packed_signal_traces(golden, stims, names)
        assert passes == [blk, blk, 5]
        want = reference_traces(golden, stims, names, lanes)
        for n in names:
            assert packed[n].shape == (horizon, (lanes + 63) // 64)
            assert [words_to_int(row) for row in packed[n]] == want[n], n

    def test_missing_pi_reads_zero(self, golden):
        pos = list(golden.po_names)
        zeros = [{golden.node_name(p): 0 for p in golden.pis}] * 4
        got = signal_traces(golden, [{}] * 4, pos)
        ref = reference_traces(golden, [zeros], pos, 1)
        assert {n: a.tolist() for n, a in got.items()} == {
            n: [w & 1 for w in words] for n, words in ref.items()
        }

    def test_multiword_lanes_and_horizon_check(self, golden):
        # 65 lanes span two packed words; lane 64 = word 1, bit 0
        stims = [stimulus_script(golden, 8, seed) for seed in range(65)]
        names = list(golden.po_names)[:2]
        packed = packed_signal_traces(golden, stims, names)
        for n in names:
            assert packed[n].shape == (8, 2)
        serial = signal_traces(golden, stims[64], names)
        for n in names:
            lane_bits = (packed[n][:, 1] & np.uint64(1)).astype(np.uint8)
            assert np.array_equal(lane_bits, serial[n]), n
        with pytest.raises(Exception):
            packed_signal_traces(golden, [[{}], [{}, {}]], [])

    def test_lane_bits_match_per_lane_formula(self):
        # 130 lanes: three words, the last one partial; the lanes at
        # both ends of the first word, the second word's first and the
        # last lane
        rng = np.random.default_rng(130)
        packed = {
            name: rng.integers(0, 1 << 64, size=(9, 3), dtype=np.uint64)
            for name in ("a", "b", "c")
        }
        packed["empty"] = np.zeros((0, 3), dtype=np.uint64)
        for lane in (0, 63, 64, 129):
            word, bit = lane >> 6, np.uint64(lane & 63)
            for name, arr in packed.items():
                got = lane_bits(arr, lane)
                want = ((arr[:, word] >> bit) & np.uint64(1)).astype(np.uint8)
                assert got.dtype == np.uint8
                assert np.array_equal(got, want), (lane, name)
                # the same bits through the bitstream unpacker
                unpacked = [unpack_bits(row, 130)[lane] for row in arr]
                assert got.tolist() == unpacked, (lane, name)


class TestLaneIsolation:
    def test_fault_in_lane_k_leaves_other_lanes_untouched(
        self, offline, golden, scenarios
    ):
        sc = scenarios[0]
        stim = stimulus_script(golden, HORIZON, sc.stimulus_seed)
        sig, value = sc.fault_signal, sc.fault_value

        clean = DebugSession(offline)
        clean.observe([sig])
        clean.run(HORIZON, stimulus=lambda c: stim[c])
        baseline = clean.waveforms()[sig]

        engine = LaneEngine(offline, n_lanes=4, trace_depth=HORIZON)
        for lane in range(4):
            engine.bind_stimulus(lane, stim)
            engine.observe([sig], lane=lane)
        engine.force(sig, value, lane=2)
        engine.reset()
        engine.run(HORIZON)
        for lane in range(4):
            wave = engine.waveforms(lane)[sig]
            if lane == 2:
                assert np.all(wave == value)
                assert not np.array_equal(wave, baseline)
            else:
                assert np.array_equal(wave, baseline), f"lane {lane} disturbed"

    def test_full_word_of_lanes_reproduces_solo_trace_bitforbit(
        self, offline, golden, scenarios
    ):
        # all 64 lanes armed with per-lane stimuli and a fault in every
        # other lane: each lane's trace must equal the solo session's
        sc = scenarios[0]
        sig, value = sc.fault_signal, sc.fault_value
        stims = [stimulus_script(golden, 24, seed) for seed in range(64)]
        engine = LaneEngine(offline, n_lanes=64, trace_depth=24)
        for lane in range(64):
            engine.bind_stimulus(lane, stims[lane])
            engine.observe([sig], lane=lane)
            if lane % 2:
                engine.force(sig, value, lane=lane)
        engine.reset()
        engine.run(24)
        for lane in (0, 1, 31, 32, 62, 63):
            solo = DebugSession(offline, trace_depth=24)
            solo.observe([sig])
            if lane % 2:
                solo.force(sig, value)
            solo.reset()
            solo.run(24, stimulus=lambda c: stims[lane][c])
            assert np.array_equal(
                engine.waveforms(lane)[sig], solo.waveforms()[sig]
            ), f"lane {lane}"

    def test_lanes_observe_different_signals_simultaneously(
        self, offline, golden
    ):
        stim = stimulus_script(golden, 16, 5)
        sigs = DebugSession(offline).observable_signals[:2]
        engine = LaneEngine(offline, n_lanes=2, trace_depth=16)
        for lane, sig in enumerate(sigs):
            engine.bind_stimulus(lane, stim)
            engine.observe([sig], lane=lane)
        engine.reset()
        engine.run(16)
        for lane, sig in enumerate(sigs):
            solo = DebugSession(offline, trace_depth=16)
            solo.observe([sig])
            solo.run(16, stimulus=lambda c: stim[c])
            assert np.array_equal(
                engine.waveforms(lane)[sig], solo.waveforms()[sig]
            )

    def test_cycles_charged_only_to_participating_lanes(self, offline, golden):
        # a retired lane's turn log must not accrue cycles from replays it
        # no longer takes part in (solo-session accounting parity)
        stim = stimulus_script(golden, 8, 3)
        sig = DebugSession(offline).observable_signals[0]
        engine = LaneEngine(offline, n_lanes=2, trace_depth=8)
        for lane in range(2):
            engine.bind_stimulus(lane, stim)
            engine.observe([sig], lane=lane)
        engine.run(8, lanes=[0])
        assert engine.total_cycles(0) == 8
        assert engine.total_cycles(1) == 0
        engine.run(8)  # default: everyone
        assert engine.total_cycles(0) == 16
        assert engine.total_cycles(1) == 8

    def test_lane_scgs_independent_after_shared_initial_load(self, offline):
        engine = LaneEngine(offline, n_lanes=2)
        first, second = engine.scgs
        # one initial load serves every lane
        assert first.initial is second.initial
        assert first.latest is first.initial
        bits, latest = second.current_bits.copy(), second.latest
        sig = next(
            s
            for s in engine.observable_signals
            if any(engine.design.selection_for([s]).values())
        )
        engine.observe([sig], lane=0)
        assert first.latest is not first.initial
        assert first.modeled_overhead_s > 0
        assert not np.array_equal(first.current_bits, bits)
        assert second.latest is latest
        assert second.modeled_overhead_s == 0
        assert np.array_equal(second.current_bits, bits)
        # the shared bits are read-only: no lane can write through them
        assert not second.current_bits.flags.writeable

    def test_engine_validates_lanes_and_signals(self, offline):
        engine = LaneEngine(offline, n_lanes=2)
        with pytest.raises(DebugFlowError):
            engine.observe(["x"], lane=2)
        with pytest.raises(DebugFlowError):
            engine.force("no_such_signal", 1, lane=0)
        with pytest.raises(DebugFlowError):
            LaneEngine(offline, n_lanes=0)


def _latch_ints(engine) -> list[int]:
    """Latch state of a compiled or reference engine, as integers over
    the engine's lanes."""
    if isinstance(engine, ReferenceLaneEngine):
        state = engine.sim._state
        lanes = (1 << engine.n_lanes) - 1
        return [
            words_to_int(state[l.q]) & lanes for l in engine.mapped_net.latches
        ]
    return list(engine.sim.latch_state)


MERGED_COMB = campaign_spec("merged-comb", n_gates=80, depth=6, n_pis=12, n_pos=6)
MERGED_SEQ = campaign_spec(
    "merged-seq", n_gates=80, depth=6, n_latches=8, n_pis=10, n_pos=5
)


class TestMergedLoopBackends:
    """``run`` and ``run_outputs`` each have one loop over kernel passes
    of up to ``block_cycles`` cycles: 25-cycle blocks at 320 lanes (5
    words), sequential designs included (their later passes run on the
    checked latch prediction).  The compiled kernels must give the
    traces, triggers, PO arrays, early stops and state of the reference
    engine, which emulates one cycle per pass."""

    N_LANES = 320
    CYCLES = 48
    #: trigger lane -> first cycle its trigger may fire (block boundary 25)
    TRIGGERS = {5: 10, 63: 3, 64: 30, 200: 12, 319: 40}
    STOP_AT = 30  # inside the second 25-cycle block
    FORCED = {3: 0, 64: 20, 130: 30, 319: 0}  # lane -> fault first cycle

    def _run(self, spec, backend):
        golden = generate_circuit(spec)
        offline = run_generic_stage(golden)
        if backend == "reference":
            engine = ReferenceLaneEngine(
                offline, n_lanes=self.N_LANES, trace_depth=self.CYCLES
            )
        else:
            engine = LaneEngine(
                offline, n_lanes=self.N_LANES, trace_depth=self.CYCLES
            )
        assert engine.backend == {"reference": "interpreted"}.get(backend, backend)
        sigs = engine.observable_signals
        for lane in range(self.N_LANES):
            engine.bind_stimulus(
                lane, stimulus_script(golden, self.CYCLES + 8, lane % 17)
            )
        for i, lane in enumerate(sorted({*self.TRIGGERS, *self.FORCED})):
            engine.observe([sigs[(3 * i) % len(sigs)]], lane=lane)
        for i, (lane, first) in enumerate(self.FORCED.items()):
            engine.force(sigs[i % len(sigs)], i % 2, lane=lane, first_cycle=first)

        seen: dict[int, list] = {lane: [] for lane in self.TRIGGERS}

        def trigger(lane, k):
            def fire(cycle, named):
                seen[lane].append((cycle, dict(named)))
                return cycle >= k and any(named.values())

            return fire

        engine.reset()
        engine.run(
            self.CYCLES,
            triggers={lane: trigger(lane, k) for lane, k in self.TRIGGERS.items()},
        )
        # every trigger saw its lane's own samples: the captured window
        groups = [g.po_name for g in engine.design.groups]
        for lane, calls in seen.items():
            window = engine.trace.window(lane)
            for c, named in calls[: len(window)]:
                assert [named[g] for g in groups] == list(window[c]), (lane, c)
        runs = {
            "block_cycles": engine.sim.block_cycles,
            "seen": seen,
            "windows": [engine.trace.window(l) for l in range(self.N_LANES)],
            "triggered": {l: engine.trace.triggered_at(l) for l in self.TRIGGERS},
        }
        rows: list = []
        engine.reset()
        runs["stopped"] = engine.run_outputs(
            self.CYCLES,
            stop=lambda c, row: rows.append(list(row)) or c == self.STOP_AT,
        )
        runs["rows"] = rows
        runs["cycle_after_stop"] = engine.sim.cycle
        runs["total_cycles"] = {
            l: engine.total_cycles(l) for l in sorted({*self.TRIGGERS, *self.FORCED})
        }
        runs["latches_after_stop"] = _latch_ints(engine)
        runs["follow_up"] = engine.run_outputs(8)
        return runs

    @pytest.mark.parametrize("spec", [MERGED_COMB, MERGED_SEQ], ids=["comb", "seq"])
    def test_backends_agree(self, spec):
        ref = self._run(spec, "reference")
        assert ref["block_cycles"] == 1
        fired = [t for t in ref["triggered"].values() if t is not None]
        assert min(fired) < 25 <= max(fired)  # both sides of the boundary
        n_stop = self.STOP_AT + 1
        assert ref["stopped"].shape[0] == n_stop
        assert len(ref["rows"]) == n_stop
        assert ref["cycle_after_stop"] == n_stop
        assert set(ref["total_cycles"].values()) == {self.CYCLES + n_stop}
        got = self._run(spec, "python")
        assert got["block_cycles"] == 25
        assert got["triggered"] == ref["triggered"]
        for lane in self.TRIGGERS:
            assert len(got["seen"][lane]) == self.CYCLES
            assert got["seen"][lane] == ref["seen"][lane], lane
        for lane in range(self.N_LANES):
            assert np.array_equal(
                got["windows"][lane], ref["windows"][lane]
            ), lane
        assert np.array_equal(got["stopped"], ref["stopped"])
        assert got["rows"] == ref["rows"]
        assert got["cycle_after_stop"] == n_stop
        assert got["latches_after_stop"] == ref["latches_after_stop"]
        assert got["total_cycles"] == ref["total_cycles"]
        assert np.array_equal(got["follow_up"], ref["follow_up"])

class TestFacade:
    def test_session_is_one_lane_engine(self, offline):
        session = DebugSession(offline)
        assert isinstance(session.engine, LaneEngine)
        assert session.engine.n_lanes == 1
        assert session.trace.lane == 0

    def test_session_force_is_lane_masked(self, offline):
        session = DebugSession(offline)
        fault = session.force(session.observable_signals[0], 1)
        assert fault.lane_mask == 1  # lane 0 only — bit 0 is all a
        # 1-lane engine ever reads


def _one_lane(sc, offline, **kw):
    (result,) = run_scenario_batch([sc], offline, **kw)
    return result


DETECT_SPEC = campaign_spec(
    "detect-seq", n_gates=100, depth=7, n_latches=6, n_pis=16, n_pos=8
)
DETECT_HORIZON = 24


class TestDetector:
    def test_batch_verdicts_match_one_lane_sessions(self):
        """A two-word batch of detected and silent stuck-at lanes under
        three stimuli, a lane whose fault starts past the horizon and a
        lane whose force fails: each lane's ``(fail_cycle, failing_po)``
        is the first mismatch of a one-lane session's outputs against the
        reference evaluator's golden outputs, and a lane without one is
        ``undetected``."""
        import dataclasses

        golden = generate_circuit(DETECT_SPEC)
        offline = run_generic_stage(golden)
        stims = [stimulus_script(golden, DETECT_HORIZON, s) for s in range(3)]
        pos = list(golden.po_names)
        golden_pos = [reference_traces(golden, [st], pos, 1) for st in stims]
        session = DebugSession(offline)

        def first_mismatch(sc):
            stim = stims[sc.stimulus_seed]
            session.clear_forces()
            session.force(
                sc.fault_signal,
                sc.fault_value,
                first_cycle=sc.fault_from_cycle,
            )
            session.reset()
            rows = session.output_trace(
                DETECT_HORIZON, stimulus=lambda c: stim[c]
            )
            want = golden_pos[sc.stimulus_seed]
            for cycle, row in enumerate(rows):
                for po, got in row.items():
                    if po in want and got != want[po][cycle] & 1:
                        return cycle, po
            return None

        taps = [t for t in offline.annotation.tap_names if t not in pos]
        lanes = [
            DebugScenario(
                name=f"sa{value}@{tap}",
                kind="stuck_at",
                spec=DETECT_SPEC,
                horizon=DETECT_HORIZON,
                stimulus_seed=(2 * i + value) % len(stims),
                fault_signal=tap,
                fault_value=value,
            )
            for i, tap in enumerate(taps[:34])
            for value in (0, 1)
        ]
        expected = [first_mismatch(sc) for sc in lanes]
        seen = next(sc for sc, hit in zip(lanes, expected) if hit)
        late = dataclasses.replace(
            seen, name="late", fault_from_cycle=DETECT_HORIZON + 3
        )
        broken = dataclasses.replace(seen, name="broken", fault_signal="nope")
        lanes[40:40] = [late, broken]
        expected[40:40] = [first_mismatch(late), "error"]
        assert len(lanes) > 64 and expected[40] is None
        assert sum(hit is None for hit in expected) > 1
        assert sum(isinstance(hit, tuple) for hit in expected) > 10

        results = run_scenario_batch(lanes, offline, max_turns=4)
        for sc, hit, r in zip(lanes, expected, results):
            if hit == "error":
                assert r.status == "error" and "nope" in r.error
            elif hit is None:
                assert r.status == "undetected", sc.name
            else:
                assert r.status in ("localized", "missed"), sc.name
                assert (r.fail_cycle, r.failing_po) == hit, sc.name

    def test_mixed_golden_batch_errors_every_lane(self, offline, scenarios):
        import dataclasses

        other = dataclasses.replace(
            scenarios[1], design_seed=scenarios[1].design_seed + 1
        )
        batch = run_scenario_batch([scenarios[0], other], offline)
        assert [r.status for r in batch] == ["error", "error"]
        assert all("share one golden design" in r.error for r in batch)


class TestBatchEquivalence:
    def test_batch_outcomes_identical_to_serial(self, offline, scenarios):
        serial = [_one_lane(sc, offline, max_turns=48) for sc in scenarios]
        batch = run_scenario_batch(scenarios, offline, max_turns=48)
        assert [r.outcome() for r in batch] == [r.outcome() for r in serial]
        assert [r.modeled_overhead_s for r in batch] == [
            r.modeled_overhead_s for r in serial
        ]
        assert all(r.lane_batch == len(scenarios) for r in batch)
        assert [r.lane for r in batch] == list(range(len(scenarios)))

    def test_distinct_stimuli_walk_their_own_golden_lane(
        self, offline, scenarios
    ):
        """Each lane's walk reads its own lane of the packed golden
        traces: lanes running distinct stimuli, over two packed words,
        localize as they do in one-lane batches."""
        import dataclasses

        batch = [
            dataclasses.replace(
                scenarios[k % len(scenarios)],
                name=f"distinct{k}",
                stimulus_seed=100 + k,
            )
            for k in range(66)
        ]
        results = run_scenario_batch(batch, offline, max_turns=48)
        lanes = (0, 1, 2, 3, 64, 65)
        for lane in lanes:
            solo = _one_lane(batch[lane], offline, max_turns=48)
            assert results[lane].outcome() == solo.outcome(), lane
        assert {results[lane].status for lane in lanes} >= {"localized"}

    def test_bad_lane_degrades_alone(self, offline, scenarios):
        import dataclasses

        broken = dataclasses.replace(scenarios[0], fault_signal="nope")
        batch = run_scenario_batch(
            [broken] + list(scenarios[1:]), offline, max_turns=48
        )
        assert batch[0].status == "error" and "nope" in batch[0].error
        good = [_one_lane(sc, offline) for sc in scenarios[1:]]
        assert [r.outcome() for r in batch[1:]] == [r.outcome() for r in good]

    def test_campaign_lane_width_equivalence_mixed(self):
        scenarios = stuck_at_scenarios(SPEC, 3, horizon=HORIZON) + (
            mutation_scenarios(SPEC, 1, horizon=HORIZON)
        )
        serial = run_campaign(
            scenarios, config=CampaignConfig(lane_width=1), cache=ArtifactStore()
        )
        lanes = run_campaign(
            scenarios,
            config=CampaignConfig(lane_width=64),
            cache=ArtifactStore(),
        )
        assert serial.outcomes() == lanes.outcomes()
        assert serial.lane_batches == [1] * len(scenarios)
        assert [(r.lane, r.lane_batch) for r in serial.results] == [
            (0, 1)
        ] * len(scenarios)
        assert sum(lanes.lane_batches) == len(scenarios)
        assert "lane batch" in lanes.render()

    def test_narrow_lane_width_still_identical(self, offline, scenarios):
        wide = run_campaign(
            scenarios, config=CampaignConfig(lane_width=64), cache=ArtifactStore()
        )
        narrow = run_campaign(
            scenarios, config=CampaignConfig(lane_width=2), cache=ArtifactStore()
        )
        assert wide.outcomes() == narrow.outcomes()
        assert max(narrow.lane_batches) <= 2


@pytest.mark.slow
class TestAcceptance:
    def test_32_scenario_mixed_campaign_byte_identical(self):
        """The PR's correctness bar: ≥32 mixed scenarios, lane-batched
        outcomes byte-identical to one-lane batches."""
        spec = campaign_spec(
            "engine-accept", n_gates=120, depth=8, n_pis=20, n_pos=10
        )
        scenarios = stuck_at_scenarios(spec, 26, horizon=HORIZON) + (
            mutation_scenarios(spec, 6, horizon=HORIZON)
        )
        assert len(scenarios) >= 32
        serial = run_campaign(
            scenarios, config=CampaignConfig(lane_width=1), cache=ArtifactStore()
        )
        lanes = run_campaign(
            scenarios,
            config=CampaignConfig(lane_width=64),
            cache=ArtifactStore(),
        )
        assert serial.outcomes() == lanes.outcomes()
        # the stuck-at group actually packed into a >1-lane batch
        assert max(lanes.lane_batches) >= 26


@functools.lru_cache(maxsize=None)
def _sequential_design(name: str):
    """(offline artifact, source network) of a sequential test design."""
    if name == "merged-seq":
        golden = generate_circuit(MERGED_SEQ)
    else:
        golden = random_network(5, n_pis=10, n_gates=70, n_latches=8, n_pos=6)
    return run_generic_stage(golden), golden


class TestPredictedBlocks:
    """Sequential designs batch cycles on the kernel's latch record.

    A session's whole life must equal the reference engine, which
    emulates one cycle per pass: a first run with no record, a repeat the
    record predicts, new stimulus, a new force, a force moved later, a run
    split without a reset, an early stop inside a block and triggers on
    both sides of a block boundary — windows, trigger cycles, PO arrays,
    cycle counter, latch state and turn accounting after every step."""

    CYCLES = 72

    @staticmethod
    def _counting(engine) -> dict[str, int]:
        """Count the kernel steps and block passes an engine makes."""
        counts = {"step": 0, "run_block": 0}
        sim = engine.sim
        for name in counts:
            inner = getattr(sim, name)

            def wrapped(*args, _inner=inner, _name=name, **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)

            setattr(sim, name, wrapped)
        return counts

    def _drive(self, engine, golden, boundary: int) -> list:
        C = self.CYCLES
        n = engine.n_lanes
        lanes = sorted({0, n // 2, n - 1})
        sigs = engine.observable_signals
        design = engine.design.network
        forced = [design.node_name(l.q) for l in design.latches][:2] + sigs[:1]
        snaps: list = []
        counts = (
            self._counting(engine) if isinstance(engine.sim, CompiledSimulator)
            else None
        )

        def snap(label, outputs=None):
            snaps.append(
                (
                    label,
                    {
                        "windows": [engine.trace.window(l) for l in range(n)],
                        "triggered": [
                            engine.trace.triggered_at(l) for l in range(n)
                        ],
                        "cycle": engine.sim.cycle,
                        "latches": _latch_ints(engine),
                        "turns": [
                            [t.cycles_run for t in engine.turns[l]]
                            for l in range(n)
                        ],
                        "outputs": outputs,
                        "passes": dict(counts) if counts else None,
                    },
                )
            )
            if counts:
                counts.update(step=0, run_block=0)

        def bind(seed0, n_scripts):
            scripts = [
                stimulus_script(golden, C + 8, seed0 + k)
                for k in range(n_scripts)
            ]
            for lane in range(n):
                engine.bind_stimulus(lane, scripts[lane % n_scripts])

        def run(n_cycles=C, triggers=None):
            engine.reset()
            engine.run(n_cycles, triggers=triggers)

        bind(0, 5)
        for i, lane in enumerate(lanes):
            engine.observe([sigs[(3 * i) % len(sigs)]], lane=lane)
        run()
        snap("first run, no record")
        run()
        snap("repeat")
        bind(11, 3)
        run()
        snap("new stimulus")
        for i, lane in enumerate(lanes):
            engine.force(forced[i % len(forced)], i % 2, lane=lane)
        run()
        snap("new force")
        for i, lane in enumerate(lanes):
            engine.clear_forces(lane)
            engine.force(
                forced[i % len(forced)], i % 2, lane=lane, first_cycle=20
            )
        run()
        snap("force moved later")
        engine.reset()
        engine.run(10)
        engine.run(38)
        snap("run(10) then run(38)")
        engine.reset()
        stopped = engine.run_outputs(C, stop=lambda c, row: c == 30)
        snap("stop inside a block", stopped)
        snap("after the stop", engine.run_outputs(8))
        for k in (boundary - 3, boundary + 2):
            run(triggers={l: (lambda c, named, k=k: c >= k) for l in lanes})
            snap(f"trigger at {k}")
        return snaps

    @pytest.mark.parametrize("n_lanes", [1, 64, 65, 320])
    @pytest.mark.parametrize("design", ["merged-seq", "random-seq"])
    def test_matches_reference_engine(self, design, n_lanes):
        offline, golden = _sequential_design(design)
        C = self.CYCLES
        n_words = (n_lanes + 63) // 64
        boundary = min(MAX_BLOCK_CYCLES, BLOCK_TARGET_WORDS // n_words)
        assert boundary + 2 < C
        ref = self._drive(
            ReferenceLaneEngine(offline, n_lanes=n_lanes, trace_depth=C),
            golden,
            boundary,
        )
        for label, snap in ref:
            if label.startswith("trigger at"):
                k = int(label.rsplit(" ", 1)[1])
                assert {snap["triggered"][l] for l in (0, n_lanes - 1)} == {k}
        engine = LaneEngine(offline, n_lanes=n_lanes, trace_depth=C)
        assert engine.backend == "python"
        assert engine.sim.block_cycles == boundary
        got = self._drive(engine, golden, boundary)
        assert [l for l, _ in got] == [l for l, _ in ref]
        for (label, g), (_, r) in zip(got, ref):
            for lane, (gw, rw) in enumerate(zip(g["windows"], r["windows"])):
                assert np.array_equal(gw, rw), (label, lane)
            for key in ("triggered", "cycle", "latches", "turns"):
                assert g[key] == r[key], (label, key)
            if r["outputs"] is not None:
                assert np.array_equal(g["outputs"], r["outputs"]), label
        passes = dict((label, s["passes"]) for label, s in got)
        # the first run has nothing to predict from: one step per
        # cycle; the repeat is predicted whole: full blocks only
        assert passes["first run, no record"] == {"step": C, "run_block": 0}
        assert passes["repeat"] == {"step": 0, "run_block": -(-C // boundary)}

class TestScriptPacking:
    def test_rebinding_the_same_script_packs_once(self, offline, monkeypatch):
        import repro.engine.lanes as lanes_mod

        calls = []
        real = lanes_mod.pack_lane_scripts

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lanes_mod, "pack_lane_scripts", counting)
        golden = offline.source
        script = stimulus_script(golden, 12, 3)
        session = DebugSession(offline)
        sig = session.observable_signals[0]
        for _ in range(3):
            session.observe([sig])
            session.reset()
            session.run(12, stimulus=script)
        assert len(calls) == 1
        first = session.waveforms()
        # an equal but different object repacks, and so does a callable
        session.reset()
        session.run(12, stimulus=[dict(row) for row in script])
        assert len(calls) == 2
        session.reset()
        session.run(12, stimulus=lambda c: script[c])
        assert session.waveforms().keys() == first.keys()
        for name in first:
            assert np.array_equal(session.waveforms()[name], first[name])
        session.reset()
        session.run(12, stimulus=script)
        assert len(calls) == 4
        session.reset()
        session.output_trace(12, stimulus=script)
        assert len(calls) == 4


class TestTurnReuse:
    """What one turn keeps for the next: user PI words per ``(cycle,
    n_cycles)`` until a lane rebinds a script, select words until the
    next observation, and the trace memory.  Kept words equal a fresh
    engine's pack, and a turn's waveforms keep their values."""

    def test_kept_block_words_equal_a_fresh_pack(self, offline, golden):
        stims = [stimulus_script(golden, 12, seed) for seed in (1, 2, 3)]
        taps = DebugSession(offline).observable_signals
        observed: dict[int, list[str]] = {}
        engine = LaneEngine(offline, n_lanes=3)
        for lane, stim in enumerate(stims):
            engine.bind_stimulus(lane, stim)

        def assert_fresh(cycle, n_cycles):
            fresh = LaneEngine(offline, n_lanes=3)
            for lane, stim in enumerate(stims):
                fresh.bind_stimulus(lane, stim)
            for lane, signals in observed.items():
                fresh.observe(signals, lane=lane)
            got = engine._block_pi_words(cycle, n_cycles)
            assert got == fresh._block_pi_words(cycle, n_cycles)

        assert_fresh(0, 8)
        # one lane of three rebinds its script
        stims[1] = stimulus_script(golden, 12, 9)
        engine.bind_stimulus(1, stims[1])
        assert_fresh(0, 8)
        # an observation rebuilds the select words only
        observed[2] = [taps[3]]
        engine.observe(observed[2], lane=2)
        assert_fresh(0, 8)
        # another block start and length
        assert_fresh(4, 5)
        assert_fresh(0, 8)
        # a callable stimulus is consulted on every pack, never kept
        flips = [0]

        def flipping(cycle):
            return {pi: bit ^ flips[0] for pi, bit in stims[1][cycle].items()}

        stims[0] = flipping
        engine.bind_stimulus(0, flipping)
        assert_fresh(0, 8)
        flips[0] = 1
        assert_fresh(0, 8)

    def test_waveforms_keep_their_values_after_the_next_turn(
        self, offline, golden
    ):
        session = DebugSession(offline)
        signals = session.observable_signals[:1]
        session.observe(signals)
        session.reset()
        window = session.run(16, stimulus=stimulus_script(golden, 16, 4))
        waves = session.waveforms()
        kept = {name: wave.copy() for name, wave in waves.items()}
        kept_window = window.copy()
        changed = False
        for seed in (5, 6, 7):
            session.observe(signals)
            session.reset()
            session.run(16, stimulus=stimulus_script(golden, 16, seed))
            later = session.waveforms()
            changed |= any(
                not np.array_equal(later[name], kept[name]) for name in kept
            )
        assert changed  # the later turns wrote other values
        assert np.array_equal(window, kept_window)
        for name, wave in kept.items():
            assert np.array_equal(waves[name], wave)


def _walk_selection(design, signals):
    """Select values the way the per-group walk resolved them: name →
    tap → group, then the tap's path, one signal per group."""
    values: dict[str, int] = {}
    used: set[int] = set()
    for name in signals:
        nid = design.network.find(name)
        if nid is None:
            raise DebugFlowError(f"unknown signal {name!r}")
        group = design.group_of(nid)
        if group.index in used:
            raise DebugFlowError(
                f"signals {signals!r} collide in trace group "
                f"{group.index} (one signal per buffer input)"
            )
        used.add(group.index)
        for pname, bit in group.path[nid]:
            prev = values.get(pname)
            if prev is not None and prev != bit:
                raise DebugFlowError(
                    f"conflicting select requirement on {pname!r}"
                )
            values[pname] = bit
    return values


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 — the error is the outcome
        return (type(exc), str(exc))


@functools.lru_cache(maxsize=None)
def _observe_engine(n_latches: int):
    spec = campaign_spec(
        f"observe-{n_latches}", n_gates=40, depth=5, n_pis=8, n_pos=4,
        n_latches=n_latches,
    )
    return LaneEngine(run_generic_stage(generate_circuit(spec, 31)), n_lanes=66)


class TestObserveTable:
    """``observe`` resolves picks from the per-tap select table and packs
    them with one scatter; its assignment vector, observed map and errors
    equal the walk's composition (``selection_for`` → ``assignment`` →
    ``observed_at``), kept here as the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_latches=st.sampled_from([0, 3]),
        lane=st.sampled_from([0, 1, 64, 65]),
        picks=st.lists(st.integers(0, 10_000), max_size=8),
        kinds=st.lists(
            st.sampled_from(["tap", "tap", "tap", "node", "unknown"]),
            min_size=8,
            max_size=8,
        ),
    )
    def test_observe_matches_the_walk(self, n_latches, lane, picks, kinds):
        engine = _observe_engine(n_latches)
        design = engine.design
        net = design.network
        taps = [net.node_name(t) for t in design.taps]
        tapped = set(design.taps)
        untapped = [net.node_name(n) for n in net.nodes() if n not in tapped]
        signals = []
        for i, pick in enumerate(picks):
            kind = kinds[i]
            if kind == "tap":
                signals.append(taps[pick % len(taps)])
            elif kind == "node":
                signals.append(untapped[pick % len(untapped)])
            else:
                signals.append(f"nope_{pick}")
        word, bit = lane >> 6, np.uint64(lane & 63)
        others = engine._param_bits.copy()
        before = engine.observed(lane)
        want = _outcome(lambda: _walk_selection(design, signals))
        got = _outcome(lambda: engine.observe(signals, lane=lane))
        assert _outcome(lambda: design.selection_for(signals)) == want
        if isinstance(want, tuple):
            assert got == want
            assert engine.observed(lane) == before
            return
        assignment = design.param_space.assignment(want)
        assert got == design.observed_at(want)
        assert engine.observed(lane) == got
        assert engine.assignments[lane] == assignment
        # the lane's bit of the packed select words, and no other bit
        packed = engine._param_bits
        assert np.array_equal(
            (packed[:, word] >> bit) & np.uint64(1), assignment.vector
        )
        mask = ~(np.uint64(1) << bit)
        assert np.array_equal(packed[:, word] & mask, others[:, word] & mask)
        rest = [w for w in range(engine.n_words) if w != word]
        assert np.array_equal(packed[:, rest], others[:, rest])

    def test_two_picks_in_one_group(self):
        engine = _observe_engine(0)
        design = engine.design
        g = next(g for g in design.groups if len(g.leaves) >= 2)
        names = [design.network.node_name(leaf) for leaf in g.leaves[:2]]
        want = _outcome(lambda: _walk_selection(design, names))
        assert want[0] is DebugFlowError and "collide" in want[1]
        assert _outcome(lambda: engine.observe(names)) == want
