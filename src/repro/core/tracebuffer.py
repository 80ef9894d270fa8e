"""Trace-buffer model.

A trace buffer is an embedded memory that records, every cycle, the value
of each of its inputs (§I of the paper).  The model is a circular buffer of
``depth`` samples × ``width`` channels per lane with an optional trigger:
once a lane's trigger fires, its capture continues for ``post_trigger``
samples and stops, so its window brackets the event of interest — the
standard ELA behaviour.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from repro.errors import DebugFlowError

__all__ = ["LaneTraceBuffer", "LaneView"]


class LaneTraceBuffer:
    """Lane-packed capture memory: one circular trace buffer per SIMD
    lane.

    The lane-parallel debug engine runs many scenarios through one packed
    emulation; each sample it hands over is a row of ``n_words``
    ``uint64`` words per channel whose bit *k* of word *w* is lane
    ``64*w + k``'s sample for that (cycle, channel).  The memory keeps
    each cell's lanes as ``ceil(n_lanes / 8)`` bytes (the words' low
    bytes: lane *k* is bit ``k % 8`` of byte ``k // 8``), so a one-lane
    buffer stores a byte per sample.  One :meth:`capture` call per cycle
    records *every* lane — O(width × words) regardless of lane count,
    which is what keeps trace capture off the per-scenario cost sheet.
    Lane counts beyond 64 simply widen the rows (the multi-word
    addressing the compiled-kernel engine uses for >64-lane campaigns).

    Per-lane trigger/stop state is tracked so one lane can freeze its
    post-trigger window while the others keep recording: captures blend
    ``mem = (mem & ~active) | (sample & active)``, so a stopped lane's
    bits survive later wraps of the ring untouched.  :meth:`window`
    extracts one lane's history bit-for-bit identical to what a one-lane
    buffer fed that lane's samples would have recorded (the tests check
    it against ``benchmarks/ref_tracebuffer.py``).  A window reads only rows
    captured since the last :meth:`reset` while its lane was active, so a
    reset rewinds the counters and leaves the memory as it is.  Memory
    bits past the last lane are never written and stay zero.
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
        # an anonymous mapping: rows no capture reaches stay out of the
        # resident set, however small the memory (the allocator zeroes
        # small blocks it hands out from its heap)
        self._n_bytes = (n_lanes + 7) >> 3
        self._mem = np.frombuffer(
            mmap.mmap(-1, depth * width * self._n_bytes), dtype=np.uint8
        ).reshape(depth, width, self._n_bytes)
        self._count = np.zeros(n_lanes, dtype=np.int64)
        self._triggered_at = np.empty(n_lanes, dtype=np.int64)
        self._remaining = np.empty(n_lanes, dtype=np.int64)
        self._stopped = np.zeros(n_lanes, dtype=bool)
        self._stop_head = np.zeros(n_lanes, dtype=np.int64)
        self._all_lanes = np.packbits(~self._stopped, bitorder="little")
        self.reset()

    def _cells(self, rows: np.ndarray) -> np.ndarray:
        """The lane bytes of ``(..., n_words)`` ``uint64`` word rows."""
        if rows.strides[-1] != rows.itemsize:
            rows = np.ascontiguousarray(rows)
        return rows.view(np.uint8)[..., : self._n_bytes]

    def reset(self) -> None:
        """Rewind every lane's counters and trigger state in place; the
        memory keeps its rows (no window reads them again)."""
        self._head = 0
        self._cycle = 0
        self._count.fill(0)
        self._triggered_at.fill(-1)
        self._remaining.fill(-1)
        self._stopped.fill(False)
        self._stop_head.fill(0)
        self._active_mask = self._all_lanes

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
        bits are set: such a lane captures ``post_trigger`` samples from
        this one on, then stops.
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
        mem, head = self._mem, self._head
        mem[head] = (mem[head] & ~amask) | (self._cells(row) & amask)
        self._head = (head + 1) % self.depth
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
                self._active_mask = np.packbits(
                    ~self._stopped, bitorder="little"
                )

    def capture_block(self, samples: np.ndarray) -> None:
        """Record consecutive cycles' packed samples with no trigger:
        ``samples[c]`` is cycle *c*'s ``(width, n_words)`` row.  The same
        state as one :meth:`capture` per row; while a lane counts down a
        post-trigger stop (which may end inside the block) it is that.
        With no lane stopped and no wrap of the ring the block lands as
        one slice store; otherwise each row is blended into the memory
        so stopped lanes keep their bits."""
        n = len(samples)
        active = ~self._stopped
        if (self._remaining[active] >= 0).any():
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
        mem, cells, head = self._mem, self._cells(rows), self._head
        if head + n <= self.depth and active.all():
            np.bitwise_and(cells, amask, out=mem[head : head + n])
        else:
            keep = min(n, self.depth)  # a longer block wraps over its own rows
            idx = (head + n - keep + np.arange(keep)) % self.depth
            mem[idx] = (mem[idx] & ~amask) | (cells[n - keep :] & amask)
        self._head = (head + n) % self.depth
        np.minimum(self._count + n, self.depth, out=self._count, where=active)

    def window(self, lane: int = 0) -> np.ndarray:
        """Lane ``lane``'s captured samples, oldest first: a fresh
        ``(n_captured, width)`` ``uint8`` array, read as a slice unless
        the window wraps the ring."""
        if not 0 <= lane < self.n_lanes:
            raise DebugFlowError(f"lane {lane} out of range")
        count = int(self._count[lane])
        end = int(self._stop_head[lane]) if self._stopped[lane] else self._head
        start = end - count
        byte, bit = lane >> 3, lane & 7
        if start >= 0:
            cells = self._mem[start:end, :, byte]
        else:
            idx = (start + np.arange(count)) % self.depth
            cells = self._mem[idx, :, byte]
        if bit:
            cells = cells >> bit
        return cells & 1

    def channel(self, index: int, lane: int = 0) -> np.ndarray:
        """One channel's captured history for one lane, oldest first."""
        if not 0 <= index < self.width:
            raise DebugFlowError(f"channel {index} out of range")
        return self.window(lane)[:, index]


class LaneView:
    """A single lane of a :class:`LaneTraceBuffer`, read as a one-lane
    buffer (``window``, ``channel``, ``stopped``, ``triggered_at``) —
    what :class:`~repro.core.debug.DebugSession` hands back as its
    ``trace`` now that the session is a one-lane facade over the
    engine.  ``reset`` clears the *shared*
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
