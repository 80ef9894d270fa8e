"""Reference one-lane trace buffer (the solo capture model).

A trace buffer is an embedded memory that records, every cycle, the value
of each of its inputs (§I of the paper).  This model is a circular buffer
of ``depth`` samples × ``width`` channels with an optional trigger: once
the trigger fires, capture continues for ``post_trigger`` samples and
stops, so the window brackets the event of interest — the standard ELA
behaviour.  It keeps one lane in a plain ``uint8`` ring and shares no
code with the package's lane-packed
:class:`~repro.core.tracebuffer.LaneTraceBuffer`, which makes it an
**independent oracle**: ``tests/test_util.py`` and
``tests/test_engine.py`` check that every lane of a packed buffer reads
back what this buffer, fed the same per-lane bits, holds.

Not part of the package — sessions and lane engines capture through
:class:`~repro.core.tracebuffer.LaneTraceBuffer`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DebugFlowError

__all__ = ["TraceBuffer"]


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
