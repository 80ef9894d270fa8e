"""Unit tests for the utility layer."""

from __future__ import annotations

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
    Stopwatch,
    PhaseTimer,
    TextTable,
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


class TestTiming:
    def test_stopwatch(self):
        sw = Stopwatch()
        with sw:
            pass
        assert sw.elapsed >= 0.0

    def test_stopwatch_stop_before_start(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_phase_timer_accumulates(self):
        pt = PhaseTimer()
        for _ in range(3):
            with pt.phase("a"):
                pass
        assert pt.counts["a"] == 3
        assert pt.total() == pytest.approx(pt.totals["a"])

    def test_phase_timer_merge(self):
        a, b = PhaseTimer(), PhaseTimer()
        with a.phase("x"):
            pass
        with b.phase("x"):
            pass
        a.merge(b)
        assert a.counts["x"] == 2

    def test_report_contains_phases(self):
        pt = PhaseTimer()
        with pt.phase("route"):
            pass
        assert "route" in pt.report() and "TOTAL" in pt.report()


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
    """Property tests for the word-packed lane-mask accumulation that
    the compiled kernels and the reference simulator consume
    (``active_override_ints``)."""

    @given(
        n_words=st.integers(1, 3),
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
    def test_accumulation_matches_per_lane_reference(self, n_words, raw, cycle):
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
        got = active_override_ints(faults, cycle, n_words=n_words)

        # naive reference: walk every lane of every in-window fault in
        # order; the last fault covering a lane decides its forced bit
        full = (1 << (64 * n_words)) - 1
        ref: dict[int, tuple[int, int]] = {}
        for f in faults:
            if not f.first_cycle <= cycle <= f.last_cycle:
                continue
            lm = full if f.lane_mask == ALL_LANES else f.lane_mask & full
            forced, mask = ref.get(f.node, (0, 0))
            for lane in range(64 * n_words):
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
            n_words=n_words,
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
    including ring wrap-around and per-lane post-trigger freezes."""

    @given(
        width=st.integers(1, 4),
        depth=st.integers(2, 5),
        n_lanes=st.sampled_from([1, 2, 63, 64, 65, 130]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_lane_windows_match_solo_buffers(self, width, depth, n_lanes, seed):
        rng = random.Random(seed)
        n_words = (n_lanes + 63) >> 6
        # probe a boundary-heavy lane subset (first/last/middle and the
        # first lane of word 1 when it exists) instead of all 130
        probes = sorted({0, n_lanes - 1, n_lanes // 2, min(64, n_lanes - 1)})
        ltb = LaneTraceBuffer(width, depth, n_lanes=n_lanes)
        solos = {lane: TraceBuffer(width, depth) for lane in probes}
        assert ltb.n_words == n_words

        for _ in range(depth + 3):  # +3 exercises the ring wrap
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
            trig = {lane for lane in probes if rng.random() < 0.2}
            ltb.capture(
                sample, trigger_mask=sum(1 << lane for lane in trig)
            )
            for lane, solo in solos.items():
                solo.capture(bits[lane], trigger=lane in trig)

        for lane, solo in solos.items():
            assert ltb.window(lane).tolist() == solo.window().tolist()
            assert ltb.stopped(lane) == solo.stopped
            assert ltb.triggered_at(lane) == solo.triggered_at
