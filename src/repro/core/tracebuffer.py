"""Trace-buffer model.

A trace buffer is an embedded memory that records, every cycle, the value
of each of its inputs (§I of the paper).  The model is a circular buffer of
``depth`` samples × ``width`` channels with an optional trigger: once the
trigger fires, capture continues for ``post_trigger`` samples and stops, so
the window brackets the event of interest — the standard ELA behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DebugFlowError

__all__ = ["TraceBuffer", "LaneTraceBuffer", "LaneView"]

#: Bit position of each lane within its 64-lane word.
_BIT_SHIFTS = np.arange(64, dtype=np.uint64)


class TraceBuffer:
    """Circular capture memory.

    >>> tb = TraceBuffer(width=2, depth=4)
    >>> for t in range(6):
    ...     tb.capture([t % 2, 1])
    >>> tb.window().shape
    (4, 2)
    >>> tb.window()[-1].tolist()   # most recent sample last
    [1, 1]
    """

    def __init__(self, width: int, depth: int, *, post_trigger: int | None = None):
        if width <= 0 or depth <= 0:
            raise DebugFlowError("trace buffer width/depth must be positive")
        self.width = width
        self.depth = depth
        self.post_trigger = depth // 2 if post_trigger is None else post_trigger
        self._mem = np.zeros((depth, width), dtype=np.uint8)
        self._head = 0
        self._count = 0
        self._triggered_at: int | None = None
        self._remaining: int | None = None
        self.stopped = False
        self._cycle = 0

    def reset(self) -> None:
        self._mem[:] = 0
        self._head = 0
        self._count = 0
        self._triggered_at = None
        self._remaining = None
        self.stopped = False
        self._cycle = 0

    @property
    def cycle(self) -> int:
        """Cycles observed since reset (captured or not)."""
        return self._cycle

    @property
    def triggered_at(self) -> int | None:
        return self._triggered_at

    def capture(self, sample, *, trigger: bool = False) -> None:
        """Record one cycle's sample unless capture already stopped."""
        self._cycle += 1
        if self.stopped:
            return
        row = np.asarray(sample, dtype=np.uint8)
        if row.shape != (self.width,):
            raise DebugFlowError(
                f"sample width {row.shape} != buffer width {self.width}"
            )
        self._mem[self._head] = row
        self._head = (self._head + 1) % self.depth
        self._count = min(self._count + 1, self.depth)
        if trigger and self._triggered_at is None:
            self._triggered_at = self._cycle - 1
            self._remaining = self.post_trigger
        if self._remaining is not None:
            self._remaining -= 1
            if self._remaining <= 0:
                self.stopped = True

    def window(self) -> np.ndarray:
        """Captured samples, oldest first, shape ``(n_captured, width)``."""
        if self._count < self.depth:
            return self._mem[: self._count].copy()
        return np.roll(self._mem, -self._head, axis=0).copy()

    def channel(self, index: int) -> np.ndarray:
        """One channel's captured history, oldest first."""
        if not 0 <= index < self.width:
            raise DebugFlowError(f"channel {index} out of range")
        return self.window()[:, index]


class LaneTraceBuffer:
    """Lane-packed capture memory: one :class:`TraceBuffer` per SIMD lane.

    The lane-parallel debug engine runs many scenarios through one packed
    emulation; each cell of this buffer is a row of ``n_words`` ``uint64``
    words whose bit *k* of word *w* is lane ``64*w + k``'s sample for
    that (cycle, channel).  One :meth:`capture` call per cycle records
    *every* lane — O(width × words) regardless of lane count, which is
    what keeps trace capture off the per-scenario cost sheet.  Lane
    counts beyond 64 simply widen the rows (the multi-word addressing the
    compiled-kernel engine uses for >64-lane campaigns).

    Per-lane trigger/stop state is tracked so one lane can freeze its
    post-trigger window while the others keep recording: captures blend
    ``mem = (mem & ~active) | (sample & active)``, so a stopped lane's
    bits survive later wraps of the ring untouched.  :meth:`window`
    extracts one lane's history bit-for-bit identical to what a solo
    :class:`TraceBuffer` would have recorded.  A window reads only rows
    captured since the last :meth:`reset` while its lane was active, so a
    reset rewinds the counters and leaves the memory as it is.
    """

    def __init__(
        self,
        width: int,
        depth: int,
        *,
        n_lanes: int = 1,
        post_trigger: int | None = None,
    ):
        if width <= 0 or depth <= 0:
            raise DebugFlowError("trace buffer width/depth must be positive")
        if n_lanes < 1:
            raise DebugFlowError("lane count must be at least 1")
        self.width = width
        self.depth = depth
        self.n_lanes = n_lanes
        self.n_words = (n_lanes + 63) >> 6
        self.post_trigger = depth // 2 if post_trigger is None else post_trigger
        self._mem = np.zeros((depth, width, self.n_words), dtype=np.uint64)
        self.reset()

    def _lane_masks(self, active: np.ndarray) -> np.ndarray:
        """``(n_words,)`` word mask of the lanes ``active`` (a per-lane
        bool array) marks."""
        bits = np.zeros(64 * self.n_words, dtype=np.uint64)
        bits[: self.n_lanes] = active
        return np.bitwise_or.reduce(
            bits.reshape(self.n_words, 64) << _BIT_SHIFTS, axis=1
        )

    def reset(self) -> None:
        self._head = 0
        self._cycle = 0
        self._count = np.zeros(self.n_lanes, dtype=np.int64)
        self._triggered_at = np.full(self.n_lanes, -1, dtype=np.int64)
        self._remaining = np.full(self.n_lanes, -1, dtype=np.int64)
        self._stopped = np.zeros(self.n_lanes, dtype=bool)
        self._stop_head = np.zeros(self.n_lanes, dtype=np.int64)
        self._active_mask = self._lane_masks(~self._stopped)

    @property
    def cycle(self) -> int:
        """Cycles observed since reset (captured or not)."""
        return self._cycle

    def stopped(self, lane: int = 0) -> bool:
        return bool(self._stopped[lane])

    def triggered_at(self, lane: int = 0) -> int | None:
        t = int(self._triggered_at[lane])
        return None if t < 0 else t

    def capture(self, sample: np.ndarray, *, trigger_mask: int = 0) -> None:
        """Record one cycle's packed sample for every non-stopped lane.

        ``sample`` holds one row of ``n_words`` ``uint64`` words per
        channel (bit *k* of word *w* = lane ``64*w + k``); a flat
        ``(width,)`` array is accepted for single-word buffers.
        ``trigger_mask`` arms the post-trigger stop for the lanes whose
        bits are set, mirroring ``TraceBuffer.capture(trigger=...)`` lane
        by lane.
        """
        self._cycle += 1
        amask = self._active_mask
        if not amask.any():
            return
        row = np.asarray(sample, dtype=np.uint64)
        if row.shape == (self.width,) and self.n_words == 1:
            row = row.reshape(self.width, 1)
        if row.shape != (self.width, self.n_words):
            raise DebugFlowError(
                f"sample shape {row.shape} != buffer shape "
                f"({self.width}, {self.n_words})"
            )
        self._mem[self._head] = (self._mem[self._head] & ~amask) | (row & amask)
        self._head = (self._head + 1) % self.depth
        active = ~self._stopped
        np.minimum(self._count + 1, self.depth, out=self._count, where=active)
        if trigger_mask:
            lane = 0
            tm = trigger_mask
            while tm:
                if (
                    tm & 1
                    and lane < self.n_lanes
                    and active[lane]
                    and self._triggered_at[lane] < 0
                ):
                    self._triggered_at[lane] = self._cycle - 1
                    self._remaining[lane] = self.post_trigger
                tm >>= 1
                lane += 1
        armed = active & (self._remaining >= 0)
        if armed.any():
            self._remaining[armed] -= 1
            newly = armed & (self._remaining <= 0)
            if newly.any():
                self._stopped |= newly
                self._stop_head[newly] = self._head
                self._active_mask = self._lane_masks(~self._stopped)

    def capture_block(self, samples: np.ndarray) -> None:
        """Record consecutive cycles' packed samples with no trigger:
        ``samples[c]`` is cycle *c*'s ``(width, n_words)`` row.  The same
        state as one :meth:`capture` per row; while a lane counts down a
        post-trigger stop (which may end inside the block) it is that."""
        n = len(samples)
        if (self._remaining[~self._stopped] >= 0).any():
            for row in samples:
                self.capture(row)
            return
        self._cycle += n
        amask = self._active_mask
        if not n or not amask.any():
            return
        rows = np.asarray(samples, dtype=np.uint64)
        if rows.shape[1:] != (self.width, self.n_words):
            raise DebugFlowError(
                f"sample shape {rows.shape[1:]} != buffer shape "
                f"({self.width}, {self.n_words})"
            )
        keep = min(n, self.depth)  # a longer block wraps over its own rows
        idx = (self._head + n - keep + np.arange(keep)) % self.depth
        self._mem[idx] = (self._mem[idx] & ~amask) | (rows[n - keep :] & amask)
        self._head = (self._head + n) % self.depth
        np.minimum(
            self._count + n, self.depth, out=self._count, where=~self._stopped
        )

    def window(self, lane: int = 0) -> np.ndarray:
        """Lane ``lane``'s captured samples, oldest first, ``uint8``."""
        if not 0 <= lane < self.n_lanes:
            raise DebugFlowError(f"lane {lane} out of range")
        count = int(self._count[lane])
        end = int(self._stop_head[lane]) if self._stopped[lane] else self._head
        start = (end - count) % self.depth
        idx = (start + np.arange(count)) % self.depth
        word, bit = lane >> 6, lane & 63
        return (
            (self._mem[idx, :, word] >> np.uint64(bit)) & np.uint64(1)
        ).astype(np.uint8)

    def channel(self, index: int, lane: int = 0) -> np.ndarray:
        """One channel's captured history for one lane, oldest first."""
        if not 0 <= index < self.width:
            raise DebugFlowError(f"channel {index} out of range")
        return self.window(lane)[:, index]


class LaneView:
    """A single lane of a :class:`LaneTraceBuffer`, with the solo
    :class:`TraceBuffer` read API — what :class:`~repro.core.debug.
    DebugSession` hands back as its ``trace`` now that the session is a
    one-lane facade over the engine.  ``reset`` clears the *shared*
    buffer, which is exact for the facade (one lane) and what batch
    drivers want anyway (all lanes re-arm together each turn)."""

    def __init__(self, buffer: LaneTraceBuffer, lane: int = 0) -> None:
        self._buffer = buffer
        self.lane = lane

    @property
    def width(self) -> int:
        return self._buffer.width

    @property
    def depth(self) -> int:
        return self._buffer.depth

    @property
    def post_trigger(self) -> int:
        return self._buffer.post_trigger

    @property
    def cycle(self) -> int:
        return self._buffer.cycle

    @property
    def stopped(self) -> bool:
        return self._buffer.stopped(self.lane)

    @property
    def triggered_at(self) -> int | None:
        return self._buffer.triggered_at(self.lane)

    def reset(self) -> None:
        self._buffer.reset()

    def window(self) -> np.ndarray:
        return self._buffer.window(self.lane)

    def channel(self, index: int) -> np.ndarray:
        return self._buffer.channel(index, self.lane)
