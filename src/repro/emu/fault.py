"""Emulation-level fault injection.

Separate from :mod:`repro.workloads.perturb` (which mutates netlists),
this module forces values onto *running* signals during simulation —
modeling transient upsets or environment-dependent bugs that only internal
observability can catch, the motivating scenario of the paper's
introduction.

:class:`ForcedFault` and :func:`active_override_ints` are the one shared
implementation of stuck-at semantics: :class:`FaultInjector` (plain
netlist simulation) and :meth:`repro.engine.LaneEngine.force` (mapped-network
emulation, behind every debug session) both apply faults through them,
so the two layers can never drift apart on windowing or lane-masking
rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.errors import SimulationError
from repro.netlist.network import LogicNetwork
from repro.netlist.simulate import SequentialSimulator

__all__ = [
    "ALL_LANES",
    "ForcedFault",
    "active_override_ints",
    "FaultInjector",
]

#: Effectively "forever" for fault windows (cycle counters are int64-safe).
NEVER_ENDS = 2**62

#: Lane mask covering every lane of every word: all bits set at any width.
ALL_LANES = -1


@dataclass(frozen=True)
class ForcedFault:
    """A stuck-at override on a simulated signal during a cycle window.

    ``node`` is the id of the signal in whichever network is being
    simulated — the source netlist for :class:`FaultInjector`, the mapped
    network for a :class:`~repro.core.debug.DebugSession`.  ``signal``
    records the human-readable name for reports; it does not participate
    in application.

    ``lane_mask`` selects which SIMD lanes the fault afflicts as an
    *absolute lane-index* mask: lane *k* is bit *k*, so with
    ``n_words > 1`` lane 77 is word 1, bit 13 (``1 << 77``).  The
    :data:`ALL_LANES` default (``-1``) has every bit set, so it covers
    every lane of every word — the whole-value force.  The lane-parallel
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
    faults: Iterable[ForcedFault], cycle: int, *, n_words: int = 1
) -> "dict[int, tuple[int, int]] | None":
    """Word-packed integer overrides for the faults active on ``cycle``.

    Feeds the compiled simulator directly: each entry is a ``(forced,
    mask)`` pair of plain integers spanning all ``64 * n_words`` lanes,
    and ``None`` means no fault is in window.  ``lane_mask`` is an
    absolute lane-index mask cut to the simulation's width — a fault on
    lane 77 carries ``lane_mask = 1 << 77`` and lands in word 1, bit 13;
    :data:`ALL_LANES` covers every lane.  Faults on the same node
    accumulate lane-wise, later faults winning on overlap.
    """
    full = (1 << (64 * n_words)) - 1
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


class FaultInjector:
    """Drives a simulator while forcing faulty values on chosen signals.

    Faults may be restricted to a subset of the packed SIMD lanes via
    ``lane_mask`` (an absolute lane-index mask — with ``n_words > 1``
    lane 77 is bit 77, i.e. word 1 bit 13), so a vectorized fault
    campaign can carry one candidate fault per lane through a single
    simulation, composing with multi-word lane counts instead of forcing
    whole-word overrides.

    >>> # fi = FaultInjector(net); fi.stuck_at("n17", 0, first_cycle=5)
    >>> # fi.stuck_at("n9", 1, lane_mask=1 << 77)   # lane 77 only
    """

    def __init__(self, net: LogicNetwork, *, n_words: int = 1) -> None:
        self.net = net
        self.sim = SequentialSimulator(net, n_words=n_words)
        self._faults: list[ForcedFault] = []

    def stuck_at(
        self,
        signal: str,
        value: int,
        *,
        first_cycle: int = 0,
        last_cycle: int | None = None,
        lane_mask: int = ALL_LANES,
    ) -> ForcedFault:
        """Force ``signal`` to ``value`` during [first_cycle, last_cycle].

        ``lane_mask`` selects the afflicted lanes (default: all of them —
        the whole-value force).
        """
        nid = self.net.find(signal)
        if nid is None:
            raise SimulationError(f"unknown signal {signal!r}")
        if value not in (0, 1):
            raise SimulationError("fault value must be 0/1")
        fault = ForcedFault(
            node=nid,
            value=value,
            first_cycle=first_cycle,
            last_cycle=last_cycle if last_cycle is not None else NEVER_ENDS,
            signal=signal,
            lane_mask=lane_mask,
        )
        self._faults.append(fault)
        return fault

    def clear(self) -> None:
        self._faults.clear()

    def step(self, pi_values: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
        """One cycle with active faults applied as overrides."""
        overrides = active_override_ints(
            self._faults, self.sim.cycle, n_words=self.sim.n_words
        )
        return self.sim.step(pi_values, overrides=overrides or {})
