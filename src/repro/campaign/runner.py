"""Scenario execution: detection + localization as lanes of one engine.

:func:`run_scenario_batch` binds any number of scenarios *sharing one
offline artifact* (and one horizon) to the lanes of a single
:class:`~repro.engine.LaneEngine` — 64 per packed word, further words
added beyond that — one packed golden pass, one packed detection run
(with a per-lane early exit: the moment every live lane has diverged, the
rest of the horizon is skipped), and a batched frontier walk where every
observe+replay turn advances every still-active lane, retiring lanes as
their walks converge.  A lone scenario is a one-lane batch.

It is a pure function of ``(scenarios, offline artifact)`` — stimulus,
golden model and bug reproduction all derive deterministically from the
scenario — and every lane drives the same
:func:`~repro.campaign.localize.divergence_walk` decision generator the
interactive :func:`~repro.campaign.localize.localize_divergence` does,
which is what guarantees byte-identical outcomes at every lane width and
worker count.
"""

from __future__ import annotations

import numpy as np

from repro.campaign.localize import (
    divergence_walk,
    mapped_frontier_fn,
)
from repro.campaign.results import ScenarioResult
from repro.core.flow import OfflineStage
from repro.engine import LaneEngine
from repro.netlist.network import LogicNetwork
from repro.util.trace import Trace
from repro.workloads.scenarios import (
    DebugScenario,
    packed_signal_traces,
    stimulus_script,
)

__all__ = ["run_scenario_batch"]


_BIT_POSITIONS = np.arange(64, dtype=np.uint64)


def _lane_slices(
    packed: dict[str, np.ndarray], n_lanes: int
) -> list[dict[str, np.ndarray]]:
    """The first ``n_lanes`` lanes' ``uint8`` views of lane-packed golden
    traces.

    Each name is unpacked once for all lanes: shifting every word by each
    of the 64 bit positions (arithmetic, so independent of host byte
    order) puts lane ``64 * w + k`` in column ``64 * w + k``, and each lane
    gets one row of the transposed result.
    """
    out: list[dict[str, np.ndarray]] = [{} for _ in range(n_lanes)]
    for name, arr in packed.items():
        bits = (arr[:, :, None] >> _BIT_POSITIONS) & np.uint64(1)
        rows = np.ascontiguousarray(
            bits.reshape(arr.shape[0], 64 * arr.shape[1])[:, :n_lanes].T,
            dtype=np.uint8,
        )
        for lane, row in zip(out, rows):
            lane[name] = row
    return out


def run_scenario_batch(
    scenarios: "list[DebugScenario]",
    offline: OfflineStage,
    *,
    max_turns: int = 48,
    store=None,
) -> list[ScenarioResult]:
    """Run many scenarios' online loops as lanes of one packed engine.

    Every scenario must share ``offline`` (the orchestrator groups by
    offline cache key) and the same horizon — lanes advance in lockstep,
    so one replay length must serve the whole batch.  Batches wider than
    64 simply span multiple packed words (lane *k* = word ``k // 64``,
    bit ``k % 64``).  Phases:

    1. *setup* — one :class:`~repro.engine.LaneEngine`; each ``stuck_at``
       scenario's fault is armed on its lane only (``lane_mask``);
    2. *golden* — **one** packed reference pass over the shared golden
       design, every lane's stimulus in its bit of the packed words;
    3. *detect* — one packed emulation compared cycle by cycle against
       the packed golden PO words, with a per-lane early exit: the run
       stops the moment every live lane has diverged (lanes that never
       diverge keep it going to the full horizon, so ``undetected``
       verdicts are unchanged);
    4. *localize* — a batched frontier walk: each detected lane runs its
       own :func:`~repro.campaign.localize.divergence_walk` generator,
       and every observe+replay turn serves all still-active lanes at
       once (each lane observing its *own* frontier batch via per-lane
       select parameters); lanes retire as their walks converge.

    Per-scenario timing fields report the batch phase time divided by the
    batch size — the amortized cost actually paid per scenario, keeping
    the campaign's summed ``online_s`` equal to wall clock spent.  The
    deterministic outcome fields are byte-identical at every batch size.
    ``store`` persists compiled programs.  Never raises: per-lane
    failures degrade to ``status="error"`` results for their lane only.
    """
    trace = Trace()
    n = len(scenarios)
    results = [
        ScenarioResult(
            scenario=sc.name,
            design=sc.spec.name,
            kind=sc.kind,
            status="error",
            truth=sc.fault_signal or "",
            lane=lane,
            lane_batch=n,
        )
        for lane, sc in enumerate(scenarios)
    ]
    if not scenarios:
        return results
    horizon = scenarios[0].horizon
    live: list[int] = []

    try:
        # a golden design is a pure function of (spec, design_seed) and a
        # stimulus of (golden, stimulus_seed): generate each distinct one
        # once and share it (read-only) among its lanes
        by_design: dict[tuple, LogicNetwork] = {}
        goldens: list[LogicNetwork] = []
        for sc in scenarios:
            key = (sc.spec, sc.design_seed)
            if key not in by_design:
                by_design[key] = sc.golden_network()
            goldens.append(by_design[key])
        for lane, sc in enumerate(scenarios):
            if sc.kind == "mutation":
                bug = sc.reproduce_bug(goldens[lane].copy())
                results[lane].truth = bug.node_name
            if sc.horizon != horizon:
                raise ValueError("batched scenarios must share one horizon")

        with trace.span("setup"):
            engine = LaneEngine(
                offline,
                n_lanes=n,
                trace_depth=max(horizon, offline.config.trace_depth),
                program_store=store,
            )
            by_stim: dict[tuple, list[dict[str, int]]] = {}
            stims: list[list[dict[str, int]]] = []
            for lane, sc in enumerate(scenarios):
                key = (sc.spec, sc.design_seed, sc.stimulus_seed)
                if key not in by_stim:
                    by_stim[key] = stimulus_script(
                        goldens[lane], horizon, sc.stimulus_seed
                    )
                stims.append(by_stim[key])
                engine.bind_stimulus(lane, stims[lane])
                try:
                    if sc.kind == "stuck_at":
                        assert sc.fault_signal is not None
                        engine.force(
                            sc.fault_signal,
                            sc.fault_value,
                            lane=lane,
                            first_cycle=sc.fault_from_cycle,
                        )
                except Exception as exc:  # noqa: BLE001 — isolate the lane
                    results[lane].error = f"{type(exc).__name__}: {exc}"
                    continue
                live.append(lane)

        design = engine.design
        tap_names = [design.network.node_name(t) for t in design.taps]
        trace_names = tap_names + engine.user_po_names

        with trace.span("golden"):
            # lanes sharing a golden design share one packed reference
            # pass — the common all-stuck-at batch pays for exactly one
            packed_golden: list[dict[str, np.ndarray] | None] = [None] * n
            by_golden: dict[tuple, list[int]] = {}
            for lane in live:
                sc = scenarios[lane]
                by_golden.setdefault((sc.spec, sc.design_seed), []).append(lane)
            for lanes in by_golden.values():
                packed = packed_signal_traces(
                    goldens[lanes[0]],
                    [stims[l] for l in lanes],
                    trace_names,
                )
                for l, golden in zip(lanes, _lane_slices(packed, len(lanes))):
                    packed_golden[l] = golden

        with trace.span("detect"):
            po_names = engine.user_po_names
            # word-packed golden PO values per (cycle, po), built from the
            # per-lane slices so lanes from different golden groups land
            # on their own bits; po_lane_masks[j] marks the lanes whose
            # golden model drives that PO at all (absent ⇒ cannot diverge)
            n_pos = len(po_names)
            golden_words = [[0] * n_pos for _ in range(horizon)]
            po_lane_masks = [0] * n_pos
            for j, po in enumerate(po_names):
                for lane in live:
                    exp = packed_golden[lane].get(po)
                    if exp is None:
                        continue
                    po_lane_masks[j] |= 1 << lane
                    lane_bit = 1 << lane
                    for c in np.flatnonzero(exp[:horizon]):
                        golden_words[int(c)][j] |= lane_bit

            undiverged = 0
            for lane in live:
                undiverged |= 1 << lane
            first_div: dict[int, tuple[int, int]] = {}

            def _all_diverged(c: int, row_ints: "list[int]") -> bool:
                # scanning POs in order and retiring a lane at its first
                # hit records its earliest (cycle, po), ties by PO order
                nonlocal undiverged
                gw = golden_words[c]
                for j, got in enumerate(row_ints):
                    d = (got ^ gw[j]) & po_lane_masks[j] & undiverged
                    while d:
                        low = d & -d
                        first_div[low.bit_length() - 1] = (c, j)
                        undiverged &= ~low
                        d ^= low
                return undiverged == 0

            engine.run_outputs(horizon, lanes=live, stop=_all_diverged)
            detected: list[int] = []
            for lane in live:
                hit = first_div.get(lane)
                if hit is None:
                    results[lane].status = "undetected"
                else:
                    cyc, j = hit
                    results[lane].fail_cycle = cyc
                    results[lane].failing_po = po_names[j]
                    detected.append(lane)

        with trace.span("localize"):
            engine.reset()
            walks = {}
            mapped_frontier = mapped_frontier_fn(engine)
            for lane in detected:
                walks[lane] = divergence_walk(
                    design,
                    packed_golden[lane],
                    results[lane].failing_po,
                    horizon,
                    max_turns=max_turns,
                    # forced faults propagate along mapped LUT connectivity
                    frontier_fn=mapped_frontier
                    if scenarios[lane].kind == "stuck_at"
                    else None,
                )

            def finish(lane: int, loc) -> None:
                r = results[lane]
                r.suspect = loc.suspect
                r.region_size = len(loc.region)
                r.turns = loc.turns
                r.signals_checked = loc.signals_checked
                hit = r.truth == loc.suspect or r.truth in loc.region
                r.status = "localized" if hit else "missed"

            pending: dict[int, list[str]] = {}
            for lane in detected:
                try:
                    pending[lane] = walks[lane].send(None)
                except StopIteration as stop:
                    finish(lane, stop.value)
            while pending:
                for lane, batch in pending.items():
                    engine.observe(batch, lane=lane)
                engine.reset()
                # charge the replay's cycles only to the lanes that took a
                # turn — retired lanes' accounting matches a solo session's
                engine.run(horizon, lanes=list(pending))
                advanced: dict[int, list[str]] = {}
                for lane in pending:
                    waves = engine.waveforms(lane)
                    try:
                        advanced[lane] = walks[lane].send(waves)
                    except StopIteration as stop:
                        finish(lane, stop.value)
                pending = advanced

        for lane in live:
            results[lane].modeled_overhead_s = engine.total_modeled_overhead_s(
                lane
            )
            results[lane].frames_touched = sum(
                t.frames_touched for t in engine.turns[lane]
            )
    except Exception as exc:  # noqa: BLE001 — campaign must survive any batch
        for lane in range(n):
            if results[lane].status == "error" and not results[lane].error:
                results[lane].error = f"{type(exc).__name__}: {exc}"

    share = 1.0 / max(1, n)
    secs = trace.seconds()
    for r in results:
        r.setup_s = secs.get("setup", 0.0) * share
        r.golden_s = secs.get("golden", 0.0) * share
        r.detect_s = secs.get("detect", 0.0) * share
        r.localize_s = secs.get("localize", 0.0) * share
        r.online_s = sum(secs.values()) * share
    return results
