"""Offline-artifact resolution for campaigns.

The paper's amortization argument (§IV-A) is that the expensive generic
stage runs *once per design* while every debugging turn pays only the
microsecond-scale online specialization.  The stage-granular
:class:`~repro.pipeline.ArtifactStore` lifts that from "once per process"
to "once per content": each compile stage (cleanup, initial-map,
signal-parameterisation, tcon-map, pack, place, route, bitgen) is keyed
by exactly the config fields it reads plus its upstream keys, so a warm
single-knob change rebuilds only the invalidated suffix of the graph.

:func:`resolve_offline` is the one public entry point that returns a
design's offline artifact — what the orchestrator, the CLI and library
users call.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.flow import DebugFlowConfig, OfflineStage
from repro.netlist.network import LogicNetwork
from repro.pipeline import ArtifactStore, StoreStats

__all__ = ["ArtifactStore", "StoreStats", "resolve_offline"]


def resolve_offline(
    net: LogicNetwork,
    config: DebugFlowConfig | None = None,
    *,
    cache: ArtifactStore | None = None,
    with_physical: bool = False,
    params: Mapping[str, Any] | None = None,
) -> tuple[OfflineStage, bool]:
    """Resolve the offline artifact for ``net`` through the stage store.

    Runs the compile stage graph — the generic flow, plus the physical
    back-end with ``with_physical`` — against ``cache``, reusing every
    stage whose content-addressed key is unchanged; ``cache=None`` builds
    every stage cold.  ``params`` (per-stage parameters — a ``taps``
    override, placement ``seed``...) fold into the affected stage keys.

    Returns ``(artifact, was_hit)``; ``was_hit`` means *every* stage was
    served from the store (a partial reuse counts as a build, with the
    store's per-stage stats telling the detailed story).
    """
    from repro.pipeline import assemble_offline, compile_design

    result = compile_design(
        net,
        config or DebugFlowConfig(),
        store=cache,
        with_physical=with_physical,
        params=params,
    )
    return assemble_offline(result), result.full_hit
