"""Automatic bug localization: the frontier walk and its graph helpers.

This is the campaign-grade version of the hunt ``examples/bug_hunt.py``
narrates: starting from a failing primary output, repeatedly observe the
suspect's *observable fan-in frontier* (the nearest tapped signals, crossing
gates the mapper absorbed into LUT cones), compare the captured waveforms
against a golden reference simulation, and walk to the first diverging
frontier signal until the divergence has no diverging inputs — that signal
roots the bug region.  Every frontier batch costs one debugging turn
(an online respecialization), never a recompilation.

:func:`divergence_walk` makes the walk's decisions as a generator; the
campaign runner (:func:`repro.campaign.runner.run_scenario_batch`) is the
only code that runs it, serving every lane of a batch from one packed
emulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.network import LogicNetwork
from repro.util.bitops import lane_bits

__all__ = [
    "Localization",
    "divergence_walk",
    "mapped_frontier_fn",
    "observable_frontier",
    "untapped_region",
]


@dataclass(frozen=True)
class Localization:
    """Outcome of one localization walk."""

    suspect: str
    """The tapped signal rooting the divergence."""
    region: frozenset[str]
    """The suspect plus its un-tapped fan-in cone — the mapped netlist's
    observability granularity: gates absorbed into the suspect's LUT cone
    are not individually visible, so the hunt cannot narrow further."""
    turns: int
    """Debugging turns (online respecializations) the walk spent."""
    signals_checked: int
    """Frontier signals whose waveforms were compared against golden."""
    exhausted: bool = False
    """True when the walk stopped on its turn budget, not on convergence."""


def _frontier_walk(net: LogicNetwork, is_tap, nid: int) -> list[str]:
    """Backward DFS from ``nid`` to the nearest nodes where ``is_tap``
    holds, crossing everything in between (latch boundaries are crossed
    through the latch's D input, so the walk follows divergence backward
    through sequential logic as well)."""
    latch_by_q = {latch.q: latch for latch in net.latches}
    out: list[str] = []
    seen: set[int] = set()
    stack = list(net.fanins(nid))
    if nid in latch_by_q:
        stack.append(latch_by_q[nid].driver)
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        if is_tap(p):
            out.append(net.node_name(p))
        else:
            stack.extend(net.fanins(p))
            if p in latch_by_q:
                stack.append(latch_by_q[p].driver)
    return out


def observable_frontier(
    net: LogicNetwork, tapped: set[int], nid: int
) -> list[str]:
    """Nearest tapped signals feeding ``nid``, crossing untapped ones."""
    return _frontier_walk(net, tapped.__contains__, nid)


def mapped_frontier_fn(session):
    """Observable fan-in frontier over the *mapped* LUT network.

    Netlist-level bugs propagate along source connectivity, but an
    emulation-level forced fault lives on a mapped root: LUT cones that
    absorbed copies of the faulted signal's logic never see the override,
    so the divergence flows strictly along mapped LUT fan-ins.  Walking
    the source graph can then stall one hop short (a source-frontier tap
    whose LUT swallowed the fault site reads clean).  Use this frontier
    for ``stuck_at`` scenarios; the source-level
    :func:`observable_frontier` remains right for mutations.

    ``session`` is anything exposing ``mapped_net`` and ``design`` — a
    :class:`~repro.core.debug.DebugSession` or a
    :class:`~repro.engine.LaneEngine`.
    """
    mapped = session.mapped_net
    design = session.design
    tap_names = {
        design.network.node_name(t) for t in design.taps
    }

    def frontier(name: str) -> list[str]:
        nid = mapped.find(name)
        if nid is None:
            return []
        return _frontier_walk(
            mapped,
            lambda p: mapped.node_name(p) in tap_names
            and mapped.node_name(p) != name,
            nid,
        )

    return frontier


def untapped_region(
    net: LogicNetwork, tapped: set[int], suspect: str
) -> frozenset[str]:
    """The suspect plus its un-tapped fan-in cone (the bug region)."""
    region: set[str] = set()
    stack = [net.require(suspect)]
    while stack:
        nid = stack.pop()
        name = net.node_name(nid)
        if name in region:
            continue
        region.add(name)
        for p in net.fanins(nid):
            if p not in tapped:
                stack.append(p)
    return frozenset(region)


def divergence_walk(
    design,
    golden: dict[str, np.ndarray],
    lane: int,
    failing_po: str,
    n_cycles: int,
    *,
    max_turns: int = 48,
    frontier_fn=None,
):
    """The frontier walk as a generator: yield observations, receive waves.

    Each ``yield`` hands back one collision-free batch of tapped signals
    to observe — exactly one debugging turn.  The driver observes the
    batch, replays the stimulus from reset, and ``send``\\ s the captured
    waveforms (``{signal: uint8 array}``) back in; the generator's return
    value (via ``StopIteration``) is the :class:`Localization`.

    ``golden`` holds lane-packed reference traces
    (:func:`~repro.workloads.scenarios.packed_signal_traces`) for at
    least every tapped signal the walk may touch, and ``lane`` is this
    walk's bit of them: only the signals the walk compares are unpacked,
    one lane at a time (:func:`~repro.util.bitops.lane_bits`);
    ``frontier_fn`` (``name -> [frontier signal names]``) defaults to the
    source-level :func:`observable_frontier` — pass
    :func:`mapped_frontier_fn` for emulation-level faults.  The walk
    reports ``exhausted=True`` instead of looping when it runs out of its
    ``max_turns`` budget.

    Decoupling the walk's *decisions* from its *execution* lets the
    lane-parallel batch runner
    (:func:`repro.campaign.runner.run_scenario_batch`, its only caller)
    advance any number of these generators against one packed emulation:
    every still-active lane gets one turn per emulation replay, and lanes
    retire as their generators converge.  Each lane's decision sequence
    depends only on its own waveforms, so outcomes are byte-identical at
    every lane width.
    """
    net = design.network
    tapped = set(design.taps)
    if frontier_fn is None:
        frontier_fn = lambda name: observable_frontier(  # noqa: E731
            net, tapped, net.require(name)
        )

    turns = 0
    checked = 0
    scored: dict[str, bool] = {}
    # Walk-level verdict memo: frontiers of successive suspects overlap
    # through shared fan-in, and re-observing an already-judged signal
    # would burn debugging turns from the budget for no information.
    budget_hit = False

    def diverges(signals: list[str]):
        """Observe signals (in collision-free batches) vs the golden model."""
        nonlocal turns, checked, budget_hit
        out: dict[str, bool] = {s: scored[s] for s in signals if s in scored}
        remaining = [
            s
            for s in signals
            if s not in scored
            and net.find(s) is not None
            and net.find(s) in tapped
        ]
        while remaining:
            if turns >= max_turns:
                # unscored signals stay unscored — flag it so the walk
                # reports exhaustion instead of a false convergence
                budget_hit = True
                break
            batch: list[str] = []
            used: set[int] = set()
            rest: list[str] = []
            for s in remaining:
                g = design.group_of(net.require(s))
                if g.index in used:
                    rest.append(s)
                else:
                    used.add(g.index)
                    batch.append(s)
            turns += 1
            waves = yield batch
            for s in batch:
                checked += 1
                exp = golden.get(s)
                got = waves.get(s)
                if exp is None or got is None:
                    verdict = False
                else:
                    # the trace buffer keeps the LAST `depth` of the
                    # n_cycles run — align the golden slice to that window
                    ref = lane_bits(exp[:n_cycles], lane)
                    ref = ref[max(0, len(ref) - len(got)) :]
                    verdict = not np.array_equal(got[: len(ref)], ref)
                out[s] = scored[s] = verdict
            remaining = rest
        return out

    suspect = failing_po
    visited: set[str] = set()
    exhausted = False
    while True:
        if turns >= max_turns:
            exhausted = True
            break
        visited.add(suspect)
        frontier = [s for s in frontier_fn(suspect) if s not in visited]
        verdicts = yield from diverges(frontier)
        bad = [s for s in frontier if verdicts.get(s)]
        if not bad:
            if budget_hit:
                exhausted = True
            break
        suspect = bad[0]

    return Localization(
        suspect=suspect,
        region=untapped_region(net, tapped, suspect),
        turns=turns,
        signals_checked=checked,
        exhausted=exhausted,
    )
