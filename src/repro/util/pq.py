"""Indexed binary min-heap.

A priority queue with *decrease-key*: when a shorter path to a node is
found mid-search, its queue priority drops without leaving stale entries
behind.  Python's :mod:`heapq` has no decrease-key, so we keep an explicit
position index per key.  The reference PathFinder
(``benchmarks/ref_route.py``) searches through it; the production router
(:mod:`repro.route.pathfinder`) switched to C-level :mod:`heapq` with
lazy deletion, which benchmarked faster despite the stale entries.

Keys are non-negative integers (routing-resource node ids), priorities are
floats.  All operations are O(log n); :meth:`contains` and priority lookup
are O(1).
"""

from __future__ import annotations

__all__ = ["IndexedMinHeap"]


class IndexedMinHeap:
    """Binary min-heap over integer keys with decrease-key support.

    >>> h = IndexedMinHeap()
    >>> h.push(5, 3.0); h.push(7, 1.0); h.push(9, 2.0)
    >>> h.pop()
    (7, 1.0)
    >>> h.push(5, 0.5)      # decrease-key for key 5
    >>> h.pop()
    (5, 0.5)
    >>> h.pop()
    (9, 2.0)
    >>> len(h)
    0
    """

    __slots__ = ("_keys", "_prios", "_pos")

    def __init__(self) -> None:
        self._keys: list[int] = []
        self._prios: list[float] = []
        self._pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def contains(self, key: int) -> bool:
        return key in self._pos

    def priority(self, key: int) -> float:
        """Current priority of ``key`` (KeyError if absent)."""
        return self._prios[self._pos[key]]

    def push(self, key: int, prio: float) -> None:
        """Insert ``key`` or update its priority (up or down)."""
        pos = self._pos.get(key)
        if pos is None:
            self._keys.append(key)
            self._prios.append(prio)
            pos = len(self._keys) - 1
            self._pos[key] = pos
            self._sift_up(pos)
        else:
            old = self._prios[pos]
            self._prios[pos] = prio
            if prio < old:
                self._sift_up(pos)
            elif prio > old:
                self._sift_down(pos)

    def pop(self) -> tuple[int, float]:
        """Remove and return ``(key, priority)`` with the smallest priority."""
        if not self._keys:
            raise IndexError("pop from empty heap")
        key = self._keys[0]
        prio = self._prios[0]
        last_key = self._keys.pop()
        last_prio = self._prios.pop()
        del self._pos[key]
        if self._keys:
            self._keys[0] = last_key
            self._prios[0] = last_prio
            self._pos[last_key] = 0
            self._sift_down(0)
        return key, prio

    def clear(self) -> None:
        self._keys.clear()
        self._prios.clear()
        self._pos.clear()

    # -- internals --------------------------------------------------------

    def _swap(self, i: int, j: int) -> None:
        keys, prios, pos = self._keys, self._prios, self._pos
        keys[i], keys[j] = keys[j], keys[i]
        prios[i], prios[j] = prios[j], prios[i]
        pos[keys[i]] = i
        pos[keys[j]] = j

    def _sift_up(self, i: int) -> None:
        prios = self._prios
        while i > 0:
            parent = (i - 1) >> 1
            if prios[i] < prios[parent]:
                self._swap(i, parent)
                i = parent
            else:
                return

    def _sift_down(self, i: int) -> None:
        prios = self._prios
        n = len(prios)
        while True:
            left = 2 * i + 1
            right = left + 1
            smallest = i
            if left < n and prios[left] < prios[smallest]:
                smallest = left
            if right < n and prios[right] < prios[smallest]:
                smallest = right
            if smallest == i:
                return
            self._swap(i, smallest)
            i = smallest
