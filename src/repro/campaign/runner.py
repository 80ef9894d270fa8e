"""Scenario execution: detection + localization as lanes of one engine.

:func:`run_scenario_batch` is the only code that runs the online loop.
It binds any number of scenarios *sharing one offline artifact, one golden
design and one horizon* to the lanes of a single
:class:`~repro.engine.LaneEngine` — 64 per packed word, further words
added beyond that — then runs one packed golden pass
(:func:`~repro.workloads.scenarios.packed_signal_traces`), one packed
detection run through the shared detector
(:func:`~repro.workloads.scenarios.first_divergence`, which stops the
moment every live lane has diverged) and a batched frontier walk where
every observe+replay turn advances every still-active lane, retiring
lanes as their walks converge.  A lone scenario is a one-lane batch.

It is a pure function of ``(scenarios, offline artifact)`` — stimulus,
golden model and bug reproduction all derive deterministically from the
scenario — and every lane drives its own
:func:`~repro.campaign.localize.divergence_walk` decision generator,
which is what guarantees byte-identical outcomes at every lane width and
worker count.
"""

from __future__ import annotations

from repro.campaign.localize import (
    divergence_walk,
    mapped_frontier_fn,
)
from repro.campaign.results import ScenarioResult
from repro.core.flow import OfflineStage
from repro.engine import LaneEngine
from repro.util.trace import Trace
from repro.workloads.scenarios import (
    DebugScenario,
    first_divergence,
    packed_signal_traces,
    stimulus_script,
)

__all__ = ["run_scenario_batch"]


def run_scenario_batch(
    scenarios: "list[DebugScenario]",
    offline: OfflineStage,
    *,
    max_turns: int = 48,
    trace: Trace | None = None,
) -> list[ScenarioResult]:
    """Run many scenarios' online loops as lanes of one packed engine.

    Every scenario must share ``offline``, the golden design (spec and
    design seed) and the horizon — the orchestrator batches by all
    three, and lanes advance in lockstep, so one replay length must serve
    the whole batch; a mixed batch yields an error result per lane.
    Batches wider than 64 simply span multiple packed words (lane *k* =
    word ``k // 64``, bit ``k % 64``).  Phases, each one span of
    ``trace`` (the orchestrator merges them into the campaign's record
    as ``online.<phase>``):

    1. *setup* — the golden design (the first scenario's
       :meth:`~repro.workloads.scenarios.DebugScenario.golden_network`;
       generation is memoized per process, so this copies the network
       the campaign's plan already built, or builds it once in a pool
       worker that did not inherit it; every lane is checked to share
       it) and one :class:`~repro.engine.LaneEngine`, which compiles
       nothing; each ``stuck_at`` scenario's fault is armed on its lane
       only (``lane_mask``);
    2. *golden* — **one** packed reference pass over the golden design,
       lane *k*'s stimulus in bit *k* of the packed words, in blocks of
       cycles (:func:`~repro.workloads.scenarios.packed_signal_traces`);
    3. *detect* — :func:`~repro.workloads.scenarios.first_divergence`:
       one packed emulation compared cycle by cycle against the packed
       golden PO words, stopping the moment every live lane has diverged
       (lanes that never diverge keep it going to the full horizon, so
       ``undetected`` verdicts are unchanged);
    4. *localize* — a batched frontier walk: each detected lane runs its
       own :func:`~repro.campaign.localize.divergence_walk` generator,
       and every observe+replay turn serves all still-active lanes at
       once (each lane observing its *own* frontier batch via per-lane
       select parameters); lanes retire as their walks converge.

    The deterministic outcome fields are byte-identical at every batch
    size.  Never raises: per-lane failures degrade to ``status="error"``
    results for their lane only.
    """
    trace = trace if trace is not None else Trace()
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
    golden_id = (scenarios[0].spec, scenarios[0].design_seed)
    live: list[int] = []

    try:
        with trace.span("setup"):
            # the orchestrator batches by golden design and horizon: one
            # golden network (a pure function of spec and design seed)
            # and one stimulus per stimulus seed serve every lane
            golden = scenarios[0].golden_network()
            for lane, sc in enumerate(scenarios):
                if (sc.spec, sc.design_seed) != golden_id:
                    raise ValueError(
                        "batched scenarios must share one golden design"
                    )
                if sc.kind == "mutation":
                    bug = sc.reproduce_bug(golden.copy())
                    results[lane].truth = bug.node_name
                if sc.horizon != horizon:
                    raise ValueError(
                        "batched scenarios must share one horizon"
                    )

            engine = LaneEngine(
                offline,
                n_lanes=n,
                trace_depth=max(horizon, offline.config.trace_depth),
            )
            by_seed: dict[int, list[dict[str, int]]] = {}
            stims: list[list[dict[str, int]]] = []
            for lane, sc in enumerate(scenarios):
                if sc.stimulus_seed not in by_seed:
                    by_seed[sc.stimulus_seed] = stimulus_script(
                        golden, horizon, sc.stimulus_seed
                    )
                stims.append(by_seed[sc.stimulus_seed])
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
        po_names = engine.user_po_names

        with trace.span("golden"):
            # one packed pass: lane k's golden values are bit k, the
            # layout of the engine the detector compares against
            packed = packed_signal_traces(golden, stims, tap_names + po_names)

        with trace.span("detect"):
            hits = first_divergence(engine, packed, live, horizon)
            detected: list[int] = []
            for lane in live:
                hit = hits.get(lane)
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
                    packed,
                    lane,
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
    return results
