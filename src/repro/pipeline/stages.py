"""The debug flow declared as a stage graph (§IV-A, end to end).

Eleven stages — ``validate``, ``cleanup``, ``initial-map``,
``signal-parameterisation``, ``tcon-map`` (the generic flow),
``emulation`` (the mapped network's compiled program and the lowered
virtual PConf the online stage runs) and ``pack``, ``rr-graph``,
``place``, ``route``, ``bitgen`` (the physical back-end, where
``rr-graph`` and ``place`` both hang off ``pack`` and are independent of
each other) — each declaring
exactly the :class:`~repro.core.flow.DebugFlowConfig` fields it reads, so
the derived keys encode the paper's incrementality:

* ``trace_depth`` is read by no stage (it is an online-session knob):
  changing it invalidates **nothing**;
* ``fold_polarity`` is read only by ``tcon-map``: changing it reuses
  cleanup/initial-map/parameterisation and rebuilds from TCON mapping;
* an explicit tap-selection override (``params={"taps": [...]}``) enters
  at ``signal-parameterisation``: only parameterisation-downstream stages
  re-run;
* a changed design (or even a renamed one — the source key hashes names)
  re-runs everything;
* ``emulation`` is versioned by
  :data:`~repro.netlist.compiled.PROGRAM_VERSION`: bumping it rebuilds
  only the emulation artifact.

Debug campaigns and :func:`~repro.campaign.cache.resolve_offline` build
:func:`debug_stages` (the generic flow plus ``emulation``, and the
physical back-end on request); ``run_generic_stage`` stops at the generic
flow, because the §V area experiments never emulate.

:func:`compile_design` runs the graph (optionally against an
:class:`~repro.pipeline.store.ArtifactStore`) through the one executor,
:func:`~repro.pipeline.scheduler.submit_compile`;
:func:`assemble_offline` / :func:`assemble_physical` fold the artifacts
back into the historical :class:`~repro.core.flow.OfflineStage` /
:class:`~repro.physical.PhysicalStage` containers the rest of the system
consumes — which is what lets ``run_generic_stage`` and
``run_physical_stage`` stay API-compatible façades.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.core.flow import DebugFlowConfig, OfflineStage, build_emulation
from repro.core.muxnet import build_trace_network
from repro.errors import DebugFlowError
from repro.mapping import AbcMap, TconMap
from repro.netlist.compiled import PROGRAM_VERSION
from repro.netlist.network import LogicNetwork
from repro.netlist.transforms import cleanup
from repro.netlist.validate import validate_network
from repro.pipeline.graph import CompileResult, Stage, StageContext, StageGraph
from repro.pipeline.scheduler import (
    DataflowScheduler,
    ScheduledTask,
    submit_compile,
)

__all__ = [
    "GENERIC_STAGES",
    "PHYSICAL_STAGES",
    "DEBUG_FLOW_GRAPH",
    "submit_design",
    "compile_design",
    "debug_stages",
    "assemble_offline",
    "assemble_physical",
]

GENERIC_STAGES = (
    "validate",
    "cleanup",
    "initial-map",
    "signal-parameterisation",
    "tcon-map",
)
PHYSICAL_STAGES = ("pack", "rr-graph", "place", "route", "bitgen")


def debug_stages(with_physical: bool = False) -> tuple[str, ...]:
    """The stages a debug session's offline artifact is built from: the
    generic flow, ``emulation`` and, ``with_physical``, the back-end."""
    return (
        GENERIC_STAGES
        + ("emulation",)
        + (PHYSICAL_STAGES if with_physical else ())
    )


# -- generic-flow stage bodies -------------------------------------------------


def _validate(ctx: StageContext) -> LogicNetwork:
    net = ctx["source"]
    validate_network(net)
    # the artifact must not alias the caller's live object: an in-memory
    # store would otherwise serve mutated content under the original key
    return net.copy()


def _cleanup(ctx: StageContext) -> LogicNetwork:
    net = ctx["validate"]
    return cleanup(net) if ctx.config.run_cleanup else net


def _initial_map(ctx: StageContext) -> dict[str, Any]:
    work = ctx["cleanup"]
    initial = AbcMap(
        k=ctx.config.k,
        cut_limit=ctx.config.cut_limit,
        area_rounds=ctx.config.area_rounds,
    ).map(work)
    # the initial mapping's LUT roots (plus latch outputs) are the default
    # observable signal set — the nets that physically exist on the emulator
    taps = sorted(initial.luts.keys()) + [l.q for l in work.latches]
    if not taps:
        raise DebugFlowError("design has no observable signals after mapping")
    return {"mapping": initial, "taps": taps}


def _effective_taps(ctx: StageContext) -> list[int]:
    override = ctx.params.get("taps")
    if override is None:
        return ctx["initial-map"]["taps"]
    return list(override)


def _parameterise(ctx: StageContext):
    return build_trace_network(
        ctx["cleanup"],
        _effective_taps(ctx),
        n_buffer_inputs=ctx.config.n_buffer_inputs,
        with_triggers=False,
    )


def _tcon_map(ctx: StageContext):
    instrumented = ctx["signal-parameterisation"]
    return TconMap(
        k=ctx.config.k,
        cut_limit=ctx.config.cut_limit,
        area_rounds=ctx.config.area_rounds,
        params=instrumented.param_ids,
        taps=set(instrumented.taps),
        fold_polarity=ctx.config.fold_polarity,
    ).map(instrumented.network)


def _emulation(ctx: StageContext):
    return build_emulation(ctx["tcon-map"], ctx["signal-parameterisation"])


# -- physical back-end stage bodies (lazy imports, see repro.physical) ---------


def _arch(ctx: StageContext):
    from repro.arch.virtex5 import VIRTEX5_LIKE

    return ctx.params.get("arch") or VIRTEX5_LIKE


def _pack(ctx: StageContext):
    from repro.physical import pack_stage

    return pack_stage(
        ctx["tcon-map"], ctx["signal-parameterisation"], _arch(ctx)
    )


def _rr_graph(ctx: StageContext):
    from repro.physical import rr_graph_stage

    return rr_graph_stage(ctx["pack"])


def _place(ctx: StageContext):
    from repro.physical import place_stage

    return place_stage(
        ctx["pack"],
        seed=ctx.params.get("seed", 2016),
        effort=ctx.params.get("effort", 4.0),
    )


def _route(ctx: StageContext):
    from repro.physical import route_stage

    return route_stage(
        ctx["place"],
        ctx["rr-graph"],
        max_route_iterations=ctx.params.get("max_route_iterations", 40),
    )


def _bitgen(ctx: StageContext):
    from repro.physical import bitgen_stage

    rr, routing = ctx["route"]
    return bitgen_stage(
        ctx["pack"], ctx["place"], rr, routing, ctx["signal-parameterisation"]
    )


#: The full flow as one declared graph.  ``config_fields`` are the exact
#: read sets — the invalidation tests pin them down field by field.
DEBUG_FLOW_GRAPH = StageGraph(
    [
        Stage("validate", _validate, inputs=("source",)),
        Stage(
            "cleanup",
            _cleanup,
            inputs=("validate",),
            config_fields=("run_cleanup",),
        ),
        Stage(
            "initial-map",
            _initial_map,
            inputs=("cleanup",),
            config_fields=("k", "cut_limit", "area_rounds"),
        ),
        Stage(
            "signal-parameterisation",
            _parameterise,
            inputs=("cleanup", "initial-map"),
            config_fields=("n_buffer_inputs",),
            param_fields=("taps",),
        ),
        Stage(
            "tcon-map",
            _tcon_map,
            inputs=("initial-map", "signal-parameterisation"),
            config_fields=("k", "cut_limit", "area_rounds", "fold_polarity"),
        ),
        Stage(
            "emulation",
            _emulation,
            inputs=("tcon-map", "signal-parameterisation"),
            version=PROGRAM_VERSION,
        ),
        Stage(
            "pack",
            _pack,
            inputs=("tcon-map", "signal-parameterisation"),
            param_fields=("arch",),
            # v2: a LUT whose output is also a debug-mux option keeps its
            # own BLE output instead of fusing into its FF's BLE
            version=2,
        ),
        # depends only on pack, so it runs concurrently with the placement
        # anneal under the dataflow scheduler (the grid is a pure function
        # of the pack output — see repro.physical.grid_for_packed)
        Stage("rr-graph", _rr_graph, inputs=("pack",)),
        Stage(
            "place",
            _place,
            inputs=("pack",),
            param_fields=("seed", "effort"),
            # v4: the region-parallel annealer and its place_regions key
            # discriminator are gone; v3 added them; v2: incremental-HPWL
            # annealer (PR 5)
            version=4,
        ),
        Stage(
            "route",
            _route,
            inputs=("place", "rr-graph"),
            param_fields=("max_route_iterations",),
            # v2: array-backed PathFinder (PR 5) — different tie-breaking,
            # so persisted v1 routings are unreachable
            version=2,
        ),
        Stage(
            "bitgen",
            _bitgen,
            inputs=("pack", "place", "route", "signal-parameterisation"),
        ),
    ]
)


def submit_design(
    sched: DataflowScheduler,
    net: LogicNetwork,
    config: DebugFlowConfig | None = None,
    *,
    stages: Sequence[str],
    on_complete: Callable[[CompileResult | None, str | None], None],
    store=None,
    params: Mapping[str, Any] | None = None,
    preset: Mapping[str, tuple[str, Any]] | None = None,
    **task: Any,
) -> list[ScheduledTask]:
    """Plan one design's compile over ``stages`` and register it on ``sched``.

    How every caller reaches the stage bodies: :func:`compile_design`
    drains a fresh unpooled scheduler, a campaign registers each design on
    its shared one.  ``task`` carries
    :func:`~repro.pipeline.scheduler.submit_compile`'s task options
    (``pooled``, ``label``, ``timeout_s``, ``max_retries``).
    """
    plan = DEBUG_FLOW_GRAPH.plan(
        net, config, params=params, stages=stages, preset=preset
    )
    return submit_compile(
        sched,
        DEBUG_FLOW_GRAPH,
        net,
        plan,
        store=store,
        on_complete=on_complete,
        **task,
    )


def compile_design(
    net: LogicNetwork | None,
    config: DebugFlowConfig | None = None,
    *,
    store=None,
    with_physical: bool = False,
    params: Mapping[str, Any] | None = None,
    stages: Sequence[str] | None = None,
    preset: Mapping[str, tuple[str, Any]] | None = None,
) -> CompileResult:
    """Run the debug-flow stage graph on a synthesized network.

    ``stages`` defaults to the generic flow, or the full graph when
    ``with_physical``.  Pass an
    :class:`~repro.pipeline.store.ArtifactStore` to reuse every stage
    whose derived key is unchanged — a warm single-knob config change
    rebuilds only the invalidated suffix.  ``preset`` injects upstream
    artifacts (see :meth:`~repro.pipeline.graph.StageGraph.plan`); ``net``
    may be ``None`` when no stage to run reads the source.

    The design runs on a fresh unpooled
    :class:`~repro.pipeline.scheduler.DataflowScheduler`, in this process.
    A failing stage's own exception propagates, and none of its segment's
    stages are stored.
    """
    if stages is None:
        stages = debug_stages(True) if with_physical else GENERIC_STAGES
    sched = DataflowScheduler()
    results: list[CompileResult | None] = []  # on_complete fires once
    tasks = submit_design(
        sched,
        net,
        config,
        stages=stages,
        store=store,
        params=params,
        preset=preset,
        on_complete=lambda result, _err: results.append(result),
    )
    sched.run()
    [result] = results
    if result is None:
        failed = next(t for t in tasks if t.done and t.result[0] == "err")
        raise failed.result[2]
    return result


def assemble_offline(result: CompileResult) -> OfflineStage:
    """Fold a compile result into the historical ``OfflineStage`` artifact.

    An ``emulation`` artifact is bound to the instrumented design's
    parameter space (:meth:`~repro.core.flow.Emulation.bind`)."""
    instrumented = result.value("signal-parameterisation")
    emulation = result.artifacts.get("emulation")
    offline = OfflineStage(
        source=result.value("cleanup"),
        config=result.config,
        initial=result.value("initial-map")["mapping"],
        instrumented=instrumented,
        mapping=result.value("tcon-map"),
        annotation=instrumented.annotation(),
        stage_keys=result.keys(),
        trace=result.trace,
        emulation=(
            emulation.value.bind(instrumented) if emulation is not None else None
        ),
    )
    if "bitgen" in result.artifacts:
        offline.physical = assemble_physical(result)
    return offline


def assemble_physical(result: CompileResult):
    """Fold the physical-stage artifacts into a ``PhysicalStage``."""
    from repro.arch.virtex5 import VIRTEX5_LIKE
    from repro.physical import PhysicalStage

    placement = result.value("place")
    rr, routing = result.value("route")
    layout, bitstream = result.value("bitgen")
    return PhysicalStage(
        arch=result.params.get("arch") or VIRTEX5_LIKE,
        packed=result.value("pack"),
        grid=placement.grid,
        placement=placement,
        rr=rr,
        routing=routing,
        layout=layout,
        bitstream=bitstream,
        trace=result.trace,
    )
