"""One record of spans and counters per run.

Every layer that times something — compile stages, the dataflow
scheduler, the campaign, the online runner — writes into a
:class:`Trace`, and every timing line of a report is read back out of
it.  Times are ``perf_counter`` seconds, ``CLOCK_MONOTONIC`` system-wide
on Linux, so an interval a pool worker measured is recorded as it is.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Trace"]


@dataclass
class Trace:
    """Spans plus integer counters of one run (picklable).

    ``spans`` holds ``[name, start, end, parent]`` lists in the order they
    opened; ``parent`` is the index of the enclosing span, ``-1`` at the
    top level.

    >>> t = Trace()
    >>> with t.span("compile"):
    ...     with t.span("stage.pack"):
    ...         pass
    >>> [(name, parent) for name, _s, _e, parent in t.spans]
    [('compile', -1), ('stage.pack', 0)]
    """

    spans: list[list] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list, repr=False)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around the block; yields its index."""
        idx = self.record(name, time.perf_counter(), 0.0)
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> int:
        """Add an interval measured elsewhere (a pool worker, say) under
        the innermost open span; returns its index."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def add(self, counter: str, n: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    # -- readers ---------------------------------------------------------------

    def seconds(self, prefix: str = "") -> dict[str, float]:
        """Summed seconds per span name, in first-seen order; with a
        ``prefix``, only the names carrying it, with it stripped."""
        out: dict[str, float] = {}
        for name, start, end, _parent in self.spans:
            if name.startswith(prefix):
                key = name[len(prefix) :]
                out[key] = out.get(key, 0.0) + (end - start)
        return out

    def window(self, name: str) -> float:
        """First start to last end over the spans named ``name``."""
        spans = [(s, e) for n, s, e, _p in self.spans if n == name]
        if not spans:
            return 0.0
        return max(e for _s, e in spans) - min(s for s, _e in spans)

    def busy_ratio(self, name: str) -> float:
        """Busy seconds of ``name`` over its :meth:`window` — above 1 when
        its spans ran concurrently; 1.0 for an empty window."""
        window = self.window(name)
        if window <= 0:
            return 1.0
        return self.seconds().get(name, 0.0) / window

    def overlap(self, a: str, b: str) -> float:
        """Seconds during which spans named ``a`` and ``b`` were both open."""
        x, y = self._union(a), self._union(b)
        total, i, j = 0.0, 0, 0
        while i < len(x) and j < len(y):
            lo = max(x[i][0], y[j][0])
            hi = min(x[i][1], y[j][1])
            if hi > lo:
                total += hi - lo
            if x[i][1] <= y[j][1]:
                i += 1
            else:
                j += 1
        return total

    def _union(self, name: str) -> list[tuple[float, float]]:
        merged: list[tuple[float, float]] = []
        for s, e in sorted(
            (s, e) for n, s, e, _p in self.spans if n == name and e > s
        ):
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        return merged
