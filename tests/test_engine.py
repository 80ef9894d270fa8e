"""The lane-parallel online engine: masks, lanes, batches, equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignConfig,
    run_campaign,
    run_scenario_batch,
)
from repro.core.debug import DebugSession
from repro.core.flow import run_generic_stage
from repro.core.tracebuffer import LaneTraceBuffer, TraceBuffer
from repro.emu.fault import ALL_LANES, ForcedFault, active_overrides
from repro.engine import LaneEngine
from repro.errors import DebugFlowError
from repro.netlist import parse_blif
from repro.netlist.simulate import apply_override, simulate_combinational
from repro.workloads import (
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
        ones = np.array([np.uint64(0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
        # force y to 1 in lane 3 only, while a&b computes 0 everywhere
        forced = (
            np.array([np.uint64(1 << 3)], dtype=np.uint64),
            np.array([np.uint64(1 << 3)], dtype=np.uint64),
        )
        vals = simulate_combinational(
            net,
            {a: ones.copy() * 0, b: ones.copy()},
            overrides={y: forced},
        )
        assert int(vals[y][0]) == 1 << 3

    def test_active_overrides_full_vs_masked_forms(self):
        full = ForcedFault(node=7, value=1)
        got = active_overrides([full], 0)
        assert isinstance(got[7], np.ndarray)
        assert got[7][0] == np.uint64(ALL_LANES)

        lane5 = ForcedFault(node=7, value=1, lane_mask=1 << 5)
        got = active_overrides([lane5], 0)
        forced, mask = got[7]
        assert int(forced[0]) == 1 << 5 and int(mask[0]) == 1 << 5

    def test_active_overrides_accumulates_lanes_per_node(self):
        f0 = ForcedFault(node=3, value=1, lane_mask=1 << 0)
        f1 = ForcedFault(node=3, value=0, lane_mask=1 << 1)
        forced, mask = active_overrides([f0, f1], 0)[3]
        assert int(mask[0]) == 0b11
        assert int(forced[0]) == 0b01  # lane 0 forced high, lane 1 low

    def test_window_respected(self):
        f = ForcedFault(node=1, value=1, first_cycle=2, last_cycle=3)
        assert active_overrides([f], 1) is None
        assert active_overrides([f], 2) is not None
        assert active_overrides([f], 4) is None


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
        stims = [stimulus_script(golden, 16, seed) for seed in (1, 2, 9)]
        names = [golden.node_name(p) for p in golden.pis][:2] + list(
            golden.po_names
        )
        packed = packed_signal_traces(golden, stims, names)
        for lane, stim in enumerate(stims):
            serial = signal_traces(golden, stim, names)
            for n in serial:
                lane_bits = (
                    (packed[n][:, 0] >> np.uint64(lane)) & np.uint64(1)
                ).astype(np.uint8)
                assert np.array_equal(lane_bits, serial[n]), n

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
        assert first.history[0] is second.history[0]
        bits, history = second.current_bits.copy(), list(second.history)
        sig = next(
            s
            for s in engine.observable_signals
            if any(engine.design.selection_for([s]).values())
        )
        engine.observe([sig], lane=0)
        assert len(first.history) == 2
        assert not np.array_equal(first.current_bits, bits)
        assert second.history == history
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
        with pytest.raises(DebugFlowError):
            # the interpreted escape hatch stays single-word
            LaneEngine(offline, n_lanes=65, interpreted=True)


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
