"""Emulation-level fault injection.

Separate from :mod:`repro.workloads.perturb` (which mutates netlists),
this module forces values onto *running* signals during simulation —
modeling transient upsets or environment-dependent bugs that only internal
observability can catch, the motivating scenario of the paper's
introduction.

:class:`ForcedFault` and :func:`active_override_ints` are the one
implementation of stuck-at semantics: :meth:`repro.engine.LaneEngine.force`
(mapped-network emulation, behind every debug session) arms faults, and
any :class:`~repro.netlist.compiled.CompiledSimulator` step applies them
as the ``(forced, mask)`` overrides :func:`active_override_ints` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "ALL_LANES",
    "ForcedFault",
    "active_override_ints",
]

#: Effectively "forever" for fault windows (cycle counters are int64-safe).
NEVER_ENDS = 2**62

#: Lane mask covering every lane: all bits set at any width.
ALL_LANES = -1


@dataclass(frozen=True)
class ForcedFault:
    """A stuck-at override on a simulated signal during a cycle window.

    ``node`` is the id of the signal in whichever network is being
    simulated — the mapped network for a
    :class:`~repro.core.debug.DebugSession`.  ``signal`` records the
    human-readable name for reports; it does not participate in
    application.

    ``lane_mask`` selects which SIMD lanes the fault afflicts as an
    *absolute lane-index* mask: lane *k* is bit *k* (``1 << 77`` is lane
    77).  The :data:`ALL_LANES` default (``-1``) has every bit set, so it
    covers every lane — the whole-value force.  The lane-parallel
    engine arms each scenario's fault with ``1 << lane`` so that
    concurrent scenarios each carry a *different* bug through one packed
    emulation: the simulator blends ``value = (clean & ~mask) | (forced &
    mask)`` per node.
    """

    node: int
    value: int
    first_cycle: int = 0
    last_cycle: int = NEVER_ENDS
    signal: str = ""
    lane_mask: int = ALL_LANES

    def active_at(self, cycle: int) -> bool:
        return self.first_cycle <= cycle <= self.last_cycle


def active_override_ints(
    faults: Iterable[ForcedFault], cycle: int, *, n_lanes: int
) -> "dict[int, tuple[int, int]] | None":
    """Lane-packed integer overrides for the faults active on ``cycle``.

    Feeds the compiled simulator directly: each entry is a ``(forced,
    mask)`` pair of plain ``n_lanes``-bit integers, and ``None`` means no
    fault is in window.  ``lane_mask`` is an absolute lane-index mask cut
    to the simulation's ``n_lanes`` lanes — a fault on lane 77 carries
    ``lane_mask = 1 << 77``; :data:`ALL_LANES` covers exactly the
    ``n_lanes`` lanes.  Faults on the same node accumulate lane-wise,
    later faults winning on overlap.
    """
    full = (1 << n_lanes) - 1
    acc: dict[int, tuple[int, int]] | None = None
    for f in faults:
        if not f.active_at(cycle):
            continue
        if acc is None:
            acc = {}
        lm = f.lane_mask & full
        forced_bits = lm if f.value else 0
        prev_forced, prev_mask = acc.get(f.node, (0, 0))
        acc[f.node] = (
            (prev_forced & ~lm & full) | forced_bits,
            prev_mask | lm,
        )
    return acc
