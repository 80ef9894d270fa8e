"""Stage-graph compilation pipeline with per-stage content-addressed caching.

The compile flow as an explicit DAG (:data:`DEBUG_FLOW_GRAPH`): each phase
— validate, cleanup, initial-map, signal-parameterisation, tcon-map,
emulation, pack, rr-graph, place, route, bitgen — is a declared
:class:`Stage` with typed input/output artifacts and a content-addressed
key derived from the config fields it reads plus its upstream artifacts'
keys.  Running the graph against an :class:`ArtifactStore` makes
recompilation incremental: a warm single-knob change rebuilds only the
invalidated suffix of the graph, a cold design runs everything — the
architectural form of the paper's "change the instrumentation without
recompiling the design".

Quick start::

    from repro.pipeline import ArtifactStore, assemble_offline, compile_design

    store = ArtifactStore(cache_dir=".repro-cache")
    offline = assemble_offline(compile_design(net, config, store=store))
    # ... change only fold_polarity: everything up to the TCON mapping hits
    offline2 = assemble_offline(compile_design(net, config2, store=store))
    print(store.stats.as_dict()["per_stage"])

``run_generic_stage`` / ``run_physical_stage`` in :mod:`repro.core.flow`
are thin façades over this graph.  Every compile — a façade, a
``compile_design`` call or a campaign's build — runs through the one
executor, :func:`submit_compile` on a :class:`DataflowScheduler`; the
campaign layer threads an :class:`ArtifactStore` through whole debug
campaigns.
"""

from repro.pipeline.graph import (
    SOURCE,
    Artifact,
    CompileResult,
    Stage,
    StageContext,
    StageGraph,
    StagePlan,
    canonical_param,
    source_key,
)
from repro.pipeline.scheduler import (
    DataflowScheduler,
    ScheduledTask,
    submit_compile,
)
from repro.pipeline.stages import (
    DEBUG_FLOW_GRAPH,
    GENERIC_STAGES,
    PHYSICAL_STAGES,
    assemble_offline,
    assemble_physical,
    compile_design,
    debug_stages,
    submit_design,
)
from repro.pipeline.store import ArtifactStore, StageStats, StoreStats

__all__ = [
    "SOURCE",
    "Artifact",
    "CompileResult",
    "Stage",
    "StageContext",
    "StageGraph",
    "StagePlan",
    "DataflowScheduler",
    "ScheduledTask",
    "submit_compile",
    "source_key",
    "canonical_param",
    "DEBUG_FLOW_GRAPH",
    "GENERIC_STAGES",
    "PHYSICAL_STAGES",
    "assemble_offline",
    "assemble_physical",
    "compile_design",
    "debug_stages",
    "submit_design",
    "ArtifactStore",
    "StageStats",
    "StoreStats",
]
