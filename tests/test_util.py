"""Unit tests for the utility layer."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tracebuffer import LaneTraceBuffer, TraceBuffer
from repro.emu.fault import ALL_LANES, ForcedFault, active_override_ints
from repro.util import (
    DisjointSet,
    IndexedMinHeap,
    RngHub,
    TextTable,
    Trace,
    derive_seed,
    pack_bits,
    popcount64,
    unpack_bits,
    words_for_bits,
)
from repro.util.bitops import xor_popcount


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngHub(7).stream("x").random(5)
        b = RngHub(7).stream("x").random(5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        hub = RngHub(7)
        assert hub.stream("a").random() != hub.stream("b").random()

    def test_stream_is_stateful_fresh_is_not(self):
        hub = RngHub(1)
        s = hub.stream("s")
        first = s.random()
        assert hub.stream("s").random() != first  # same (advanced) object
        assert hub.fresh("s").random() == pytest.approx(first)

    def test_derive_seed_stable(self):
        assert derive_seed(42, "abc") == derive_seed(42, "abc")
        assert derive_seed(42, "abc") != derive_seed(43, "abc")
        assert derive_seed(42, "abc") != derive_seed(42, "abd")

    def test_child_hub_independent(self):
        hub = RngHub(3)
        assert hub.child("a").seed != hub.child("b").seed


def _hand_built(*spans: tuple[str, float, float]) -> Trace:
    trace = Trace()
    for name, start, end in spans:
        trace.record(name, start, end)
    return trace


class TestTrace:
    def test_parent_indices_under_nesting(self):
        trace = Trace()
        with trace.span("campaign") as root:
            with trace.span("plan") as plan:
                with trace.span("design"):
                    pass
            with trace.span("run"):
                pass
        with trace.span("report"):
            pass
        assert root == 0 and plan == 1
        assert [(n, p) for n, _s, _e, p in trace.spans] == [
            ("campaign", -1),
            ("plan", 0),
            ("design", 1),
            ("run", 0),
            ("report", -1),
        ]
        for _name, start, end, parent in trace.spans:
            assert start <= end
            if parent >= 0:
                _n, p_start, p_end, _p = trace.spans[parent]
                assert p_start <= start <= end <= p_end

    def test_recorded_worker_interval_lands_under_open_span(self):
        trace = Trace()
        assert trace.record("early", 1.0, 2.0) == 0
        with trace.span("run") as run:
            idx = trace.record("stage.place", 5.0, 7.5)
        assert trace.spans[0] == ["early", 1.0, 2.0, -1]
        assert trace.spans[idx] == ["stage.place", 5.0, 7.5, run]

    def test_seconds_sum_per_name_in_first_seen_order(self):
        trace = _hand_built(
            ("stage.place", 0.0, 2.0),
            ("online", 1.0, 1.5),
            ("stage.pack", 3.0, 4.0),
            ("stage.place", 5.0, 6.0),
        )
        assert trace.seconds() == {
            "stage.place": 3.0,
            "online": 0.5,
            "stage.pack": 1.0,
        }
        assert list(trace.seconds("stage.").items()) == [
            ("place", 3.0),
            ("pack", 1.0),
        ]

    def test_counters(self):
        trace = Trace()
        trace.add("retries")
        trace.add("retries", 2)
        trace.add("resumed_scenarios", 0)
        assert trace.counters == {"retries": 3, "resumed_scenarios": 0}

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            # disjoint
            ([(0.0, 1.0)], [(2.0, 3.0)], 0.0),
            # touching at one instant
            ([(0.0, 1.0)], [(1.0, 2.0)], 0.0),
            # nested: b inside a
            ([(0.0, 10.0)], [(2.0, 5.0)], 3.0),
            # partial, with a's own spans overlapping each other
            ([(0.0, 4.0), (1.0, 6.0)], [(5.0, 8.0)], 1.0),
            # several pieces on both sides
            ([(0.0, 2.0), (4.0, 6.0)], [(1.0, 5.0)], 2.0),
            # empty side
            ([], [(0.0, 1.0)], 0.0),
        ],
    )
    def test_overlap(self, a, b, expected):
        trace = _hand_built(
            *[("offline", s, e) for s, e in a],
            *[("online", s, e) for s, e in b],
        )
        assert trace.overlap("offline", "online") == pytest.approx(expected)
        assert trace.overlap("online", "offline") == pytest.approx(expected)

    @pytest.mark.parametrize(
        "spans, window, ratio",
        [
            # disjoint: busy 2 of a 4-second window
            ([(0.0, 1.0), (3.0, 4.0)], 4.0, 0.5),
            # touching: fully busy
            ([(0.0, 1.0), (1.0, 3.0)], 3.0, 1.0),
            # nested: both count as busy, so concurrency shows above 1
            ([(0.0, 4.0), (1.0, 3.0)], 4.0, 1.5),
            # empty window
            ([], 0.0, 1.0),
            ([(2.0, 2.0)], 0.0, 1.0),
        ],
    )
    def test_window_and_busy_ratio(self, spans, window, ratio):
        trace = _hand_built(*[("stage.place", s, e) for s, e in spans])
        trace.record("other", -10.0, 10.0)
        assert trace.window("stage.place") == pytest.approx(window)
        assert trace.busy_ratio("stage.place") == pytest.approx(ratio)

    def test_picklable(self):
        trace = Trace()
        with trace.span("campaign"):
            trace.add("retries")
        again = pickle.loads(pickle.dumps(trace))
        assert again == trace


class TestTextTable:
    def test_render_alignment(self):
        t = TextTable(["n", "v"], aligns="lr")
        t.add_row(["a", 10])
        t.add_row(["bb", 5])
        out = t.render()
        assert "a " in out and " 5" in out

    def test_row_width_mismatch(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_bad_aligns(self):
        with pytest.raises(ValueError):
            TextTable(["a"], aligns="x")
        with pytest.raises(ValueError):
            TextTable(["a", "b"], aligns="l")

    def test_csv(self):
        t = TextTable(["a", "b"])
        t.add_row([1, 2])
        assert t.render_csv() == "a,b\n1,2"


class TestHeap:
    def test_order(self):
        h = IndexedMinHeap()
        for k, p in [(1, 5.0), (2, 1.0), (3, 3.0)]:
            h.push(k, p)
        assert [h.pop()[0] for _ in range(3)] == [2, 3, 1]

    def test_decrease_key(self):
        h = IndexedMinHeap()
        h.push(1, 10.0)
        h.push(2, 5.0)
        h.push(1, 1.0)
        assert h.pop() == (1, 1.0)

    def test_increase_key(self):
        h = IndexedMinHeap()
        h.push(1, 1.0)
        h.push(2, 5.0)
        h.push(1, 10.0)
        assert h.pop() == (2, 5.0)

    def test_pop_empty(self):
        with pytest.raises(IndexError):
            IndexedMinHeap().pop()

    def test_contains_priority(self):
        h = IndexedMinHeap()
        h.push(9, 2.5)
        assert h.contains(9) and h.priority(9) == 2.5
        assert not h.contains(1)

    @given(st.lists(st.tuples(st.integers(0, 50), st.floats(0, 100)), max_size=60))
    def test_heap_property(self, items):
        h = IndexedMinHeap()
        latest: dict[int, float] = {}
        for k, p in items:
            h.push(k, p)
            latest[k] = p
        out = []
        while h:
            out.append(h.pop())
        assert sorted(k for k, _ in out) == sorted(latest)
        prios = [p for _, p in out]
        assert prios == sorted(prios)
        for k, p in out:
            assert latest[k] == p


class TestDisjointSet:
    def test_union_find(self):
        d = DisjointSet(4)
        d.union(0, 1)
        d.union(2, 3)
        assert d.same(0, 1) and d.same(2, 3) and not d.same(1, 2)
        assert d.n_sets == 2

    def test_add(self):
        d = DisjointSet(1)
        new = d.add()
        assert new == 1 and d.n_sets == 2

    def test_groups(self):
        d = DisjointSet(3)
        d.union(0, 2)
        groups = d.groups()
        assert sorted(map(sorted, groups.values())) == [[0, 2], [1]]


class TestBitops:
    def test_words_for_bits(self):
        assert [words_for_bits(n) for n in (0, 1, 64, 65, 128)] == [0, 1, 1, 2, 2]

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
    def test_pack_unpack_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert unpack_bits(pack_bits(arr), len(bits)).tolist() == bits

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_popcount_matches_sum(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert popcount64(pack_bits(arr)) == sum(bits)

    def test_xor_popcount(self):
        a = pack_bits(np.array([1, 0, 1, 1], dtype=np.uint8))
        b = pack_bits(np.array([1, 1, 0, 1], dtype=np.uint8))
        assert xor_popcount(a, b) == 2

    def test_xor_popcount_shape_mismatch(self):
        with pytest.raises(ValueError):
            xor_popcount(np.zeros(1, np.uint64), np.zeros(2, np.uint64))


class TestLaneMaskAlgebra:
    """Property tests for the lane-mask accumulation that the compiled
    kernels and the reference simulator consume
    (``active_override_ints``)."""

    @given(
        n_lanes=st.sampled_from([1, 5, 63, 64, 65, 96, 128, 192]),
        raw=st.lists(
            st.tuples(
                st.integers(0, 2),  # node
                st.integers(0, 1),  # forced value
                st.one_of(  # absolute lane-index mask, word 0, or all lanes
                    st.just(ALL_LANES),
                    st.just((1 << 64) - 1),
                    st.integers(0, (1 << 192) - 1),
                ),
                st.integers(0, 3),  # first_cycle
                st.integers(0, 3),  # last_cycle (clamped >= first)
            ),
            max_size=8,
        ),
        cycle=st.integers(0, 3),
    )
    def test_accumulation_matches_per_lane_reference(self, n_lanes, raw, cycle):
        faults = [
            ForcedFault(
                node=n,
                value=v,
                first_cycle=fc,
                last_cycle=max(fc, lc),
                lane_mask=lm,
            )
            for n, v, lm, fc, lc in raw
        ]
        got = active_override_ints(faults, cycle, n_lanes=n_lanes)

        # naive reference: walk every lane of every in-window fault in
        # order; the last fault covering a lane decides its forced bit
        full = (1 << n_lanes) - 1
        ref: dict[int, tuple[int, int]] = {}
        for f in faults:
            if not f.first_cycle <= cycle <= f.last_cycle:
                continue
            lm = full if f.lane_mask == ALL_LANES else f.lane_mask & full
            forced, mask = ref.get(f.node, (0, 0))
            for lane in range(n_lanes):
                if (lm >> lane) & 1:
                    mask |= 1 << lane
                    if f.value:
                        forced |= 1 << lane
                    else:
                        forced &= ~(1 << lane)
            ref[f.node] = (forced, mask)
        assert got == (ref or None)

    @given(lane=st.integers(0, 191))
    def test_absolute_lane_index_addresses_word_and_bit(self, lane):
        n_words = (lane >> 6) + 1
        ov = active_override_ints(
            [ForcedFault(node=0, value=1, lane_mask=1 << lane)],
            0,
            n_lanes=64 * n_words,
        )
        forced, mask = ov[0]
        words = [(mask >> (64 * w)) & ((1 << 64) - 1) for w in range(n_words)]
        assert words[lane >> 6] == 1 << (lane & 63)
        assert sum(1 for w in words if w) == 1
        assert forced == mask


class TestLaneTraceBufferLayout:
    """Multi-word row-layout property: every lane of a packed
    :class:`LaneTraceBuffer` reads back bit-for-bit what a solo
    :class:`TraceBuffer` fed the same per-lane bits would hold —
    including ring wrap-around, per-lane post-trigger freezes, untriggered
    cycles captured as one block, and resets between runs (a reset keeps
    the memory, so a window that read a row from before it would show the
    earlier run's bits)."""

    @given(
        width=st.integers(1, 4),
        depth=st.integers(2, 5),
        n_lanes=st.sampled_from([1, 2, 63, 64, 65, 130]),
        seed=st.integers(0, 2**32 - 1),
        runs=st.lists(
            st.lists(st.tuples(st.integers(1, 13), st.booleans()), max_size=3),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_lane_windows_match_solo_buffers(
        self, width, depth, n_lanes, seed, runs
    ):
        rng = random.Random(seed)
        n_words = (n_lanes + 63) >> 6
        # probe a boundary-heavy lane subset (first/last/middle and the
        # first lane of word 1 when it exists) instead of all 130
        probes = sorted({0, n_lanes - 1, n_lanes // 2, min(64, n_lanes - 1)})
        ltb = LaneTraceBuffer(width, depth, n_lanes=n_lanes)
        solos = {lane: TraceBuffer(width, depth) for lane in probes}
        assert ltb.n_words == n_words

        for run, chunks in enumerate(runs):
            if run:
                ltb.reset()
                for solo in solos.values():
                    solo.reset()
            # each chunk: cycles captured one by one with random triggers,
            # or as one untriggered block; past depth the ring wraps
            for n_captures, as_block in chunks:
                block = []
                for _ in range(n_captures):
                    bits = [
                        [rng.getrandbits(1) for _ in range(width)]
                        for _ in range(n_lanes)
                    ]
                    sample = np.zeros((width, n_words), dtype=np.uint64)
                    for lane in range(n_lanes):
                        w, b = lane >> 6, lane & 63
                        for ch in range(width):
                            if bits[lane][ch]:
                                sample[ch, w] |= np.uint64(1) << np.uint64(b)
                    trig = set()
                    if not as_block:
                        trig = {lane for lane in probes if rng.random() < 0.2}
                    if as_block:
                        block.append(sample)
                    else:
                        mask = sum(1 << lane for lane in trig)
                        ltb.capture(sample, trigger_mask=mask)
                    for lane, solo in solos.items():
                        solo.capture(bits[lane], trigger=lane in trig)
                if block:
                    ltb.capture_block(np.stack(block))

            for lane, solo in solos.items():
                assert ltb.window(lane).tolist() == solo.window().tolist()
                assert ltb.stopped(lane) == solo.stopped
                assert ltb.triggered_at(lane) == solo.triggered_at

    @pytest.mark.parametrize("post_trigger", [2, 9])
    def test_block_over_an_armed_lane_matches_row_captures(
        self, post_trigger
    ):
        # lane 1 triggers on cycle 0.  With a post-trigger of 2 it stops
        # after cycle 1, and the ring wraps so the block lands on its two
        # rows; with 9 its countdown ends inside the block.
        width, depth, n_lanes = 2, 8, 3
        ones = np.full((width, 1), 0b111, dtype=np.uint64)
        block = np.full((4, width, 1), 0b101, dtype=np.uint64)
        rows, blocked = (
            LaneTraceBuffer(width, depth, n_lanes=n_lanes,
                            post_trigger=post_trigger)
            for _ in range(2)
        )
        for buf in (rows, blocked):
            for cycle in range(depth):
                buf.capture(ones, trigger_mask=0b010 if cycle == 0 else 0)
        for sample in block:
            rows.capture(sample)
        blocked.capture_block(block)
        assert blocked.cycle == rows.cycle
        for lane in range(n_lanes):
            assert blocked.window(lane).tolist() == rows.window(lane).tolist()
            assert blocked.stopped(lane) == rows.stopped(lane)
            assert blocked.triggered_at(lane) == rows.triggered_at(lane)
        assert rows.stopped(1) and not rows.stopped(0)
