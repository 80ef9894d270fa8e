#!/usr/bin/env python
"""Bug hunt: localize an injected RTL bug with the online debug loop.

Scenario from the paper's introduction: a functional error slipped into
the RTL; the emulated design misbehaves at some output, and the engineer
must find *which internal signal* first diverges — but only a handful of
signals are observable per run.  Conventionally every new signal set
costs a recompilation; with parameterized reconfiguration it costs
microseconds.

The script:

1. generates a golden design and a buggy copy (one mutated gate);
2. runs the offline stage on the buggy design;
3. drives identical random stimulus through a golden reference simulation
   and the debug session, sweeping the observable signals with the
   cone-of-influence strategy until the culprit signal is found;
4. reports the bug site and what the hunt would have cost conventionally.

This script walks ONE bug interactively.  For batch runs over many
(design, bug) pairs — with the offline stage cached per design and the
online sessions fanned out over worker processes — use the campaign API
(:mod:`repro.campaign`, ``python -m repro.campaign``, and
``examples/campaign_demo.py``), which automates this same walk as lanes
of one packed emulation (:func:`repro.campaign.run_scenario_batch`).
Golden values here come from the campaign's golden simulator,
:func:`repro.workloads.scenarios.signal_traces`.

Run:  python examples/bug_hunt.py
"""

from __future__ import annotations

import os
import sys

# allow running straight from a source checkout, from any working directory
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from repro import (
    DebugSession,
    RecompileModel,
    generate_circuit,
    get_spec,
    inject_bug,
    run_generic_stage,
)
from repro.campaign.localize import observable_frontier, untapped_region
from repro.workloads import stimulus_script as _campaign_stimulus
from repro.workloads.scenarios import signal_traces


def main() -> None:
    rng = np.random.default_rng(2016)
    golden = generate_circuit(get_spec("stereov."))
    buggy = golden.copy()
    buggy.name = "stereov_buggy"

    # inject until the bug is observable at an output within the horizon
    bug = None
    for _attempt in range(50):
        trial = golden.copy()
        candidate = inject_bug(trial, rng)
        if _mismatch_cycle(golden, trial, horizon=200) is not None:
            buggy, bug = trial, candidate
            break
    assert bug is not None, "could not produce an observable failure"
    print(f"injected bug: {bug.description} (hidden from the debugger)")

    fail_cycle = _mismatch_cycle(golden, buggy, horizon=200)
    failing_po = _failing_po(golden, buggy, fail_cycle)
    print(f"failure first visible at PO {failing_po!r}, cycle {fail_cycle}")

    # ---- offline stage on the buggy design (what we'd have on the bench)
    offline = run_generic_stage(buggy)
    session = DebugSession(offline)
    design = offline.instrumented
    stim = _stimulus_script(golden, fail_cycle + 1, seed=7)

    def diverges(signals: list[str]) -> dict[str, bool]:
        """Observe signals (in collision-free batches) vs the golden model."""
        out: dict[str, bool] = {}
        remaining = [
            s
            for s in signals
            if design.network.find(s) is not None
            and design.network.find(s) in set(design.taps)
        ]
        while remaining:
            batch: list[str] = []
            used: set[int] = set()
            rest: list[str] = []
            for s in remaining:
                g = design.group_of(design.network.require(s))
                if g.index in used:
                    rest.append(s)
                else:
                    used.add(g.index)
                    batch.append(s)
            session.observe(batch)
            session.reset()
            session.run(fail_cycle + 1, stimulus=lambda c: stim[c])
            waves = session.waveforms()
            expected = signal_traces(golden, stim, batch)
            for s in batch:
                exp = expected.get(s)
                got = waves.get(s)
                out[s] = bool(
                    exp is not None
                    and got is not None
                    and not np.array_equal(got, exp[: len(got)])
                )
            remaining = rest
        return out

    # walk the divergence backward: a signal whose *observable* fan-in
    # frontier (the nearest tapped signals, crossing gates the mapper
    # absorbed) fully matches the golden model is the bug region's root
    # (the same walk repro.campaign.run_scenario_batch automates)
    net_b = design.network
    tapped = set(design.taps)

    suspect = failing_po
    turns_before = len(session.turns)
    visited: set[str] = set()
    while True:
        visited.add(suspect)
        frontier = [
            s
            for s in observable_frontier(net_b, tapped, net_b.require(suspect))
            if s not in visited
        ]
        verdicts = diverges(frontier)
        bad = [s for s, d in verdicts.items() if d]
        if not bad:
            break
        suspect = bad[0]
    turns = len(session.turns) - turns_before

    # Observability granularity is the mapped netlist: gates absorbed into
    # the suspect's LUT cone are not individually visible, so the hunt
    # localizes to the suspect plus its un-tapped fan-in region.
    region = untapped_region(net_b, tapped, suspect)

    print(
        f"\nlocalized after {turns} debugging turns: signal {suspect!r} "
        f"(region of {len(region)} gates)"
    )
    print(f"ground truth: the bug was injected at {bug.node_name!r}")
    assert bug.node_name in region, (
        f"bug {bug.node_name!r} not inside the localized region"
    )

    # cost comparison
    model = RecompileModel()
    conv_s = turns * model.compile_time_s(offline.initial.n_luts)
    ours_s = session.total_modeled_overhead_s()
    print(
        f"\nconventional flow: {turns} recompiles ≈ {conv_s:.0f} s; "
        f"parameterized flow: {ours_s * 1e6:.1f} us of specialization"
    )


def _stimulus_script(net, n_cycles: int, seed: int) -> list[dict[str, int]]:
    return _campaign_stimulus(net, n_cycles, seed)


def _po_mismatches(golden, buggy, horizon: int) -> "list[tuple[int, str]]":
    """Every ``(cycle, PO)`` where the two designs' outputs differ, in
    cycle order (PO order within a cycle)."""
    stim = _stimulus_script(golden, horizon, seed=7)
    pos = list(golden.po_names)
    a = signal_traces(golden, stim, pos)
    b = signal_traces(buggy, stim, pos)
    return [
        (cyc, po)
        for cyc in range(horizon)
        for po in pos
        if a[po][cyc] != b[po][cyc]
    ]


def _mismatch_cycle(golden, buggy, horizon: int) -> int | None:
    hits = _po_mismatches(golden, buggy, horizon)
    return hits[0][0] if hits else None


def _failing_po(golden, buggy, cycle: int) -> str:
    for cyc, po in _po_mismatches(golden, buggy, cycle + 1):
        if cyc == cycle:
            return po
    raise RuntimeError("no failing PO at the mismatch cycle")


if __name__ == "__main__":
    main()
