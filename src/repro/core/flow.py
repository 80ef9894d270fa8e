"""The offline ("generic") stage of the proposed debug flow (§IV-A).

``run_generic_stage`` executes, once per design:

1. **Synthesis front-end** — the caller provides a synthesized gate-level
   :class:`~repro.netlist.network.LogicNetwork` (from BLIF or a workload
   generator); we run the light cleanup conventional flows apply.
2. **Initial mapping** — the ABC-style K-LUT mapping of the *un-instrumented*
   design; its LUT roots define the observable signal set (these are the
   nets that physically exist on the emulator) and its metrics are the
   "Initial"/"Golden" reference columns of Tables I/II.
3. **Signal parameterisation** — :func:`~repro.core.muxnet.build_trace_network`
   inserts the parameterized mux network toward the trace buffers and emits
   the ``.par`` annotation.
4. **TCON technology mapping** — :class:`~repro.mapping.tconmap.TconMap`
   maps logic to LUTs/TLUTs and the mux network to TCONs.

The physical back-end (TPaR placement/routing and PConf bitstream
generation) lives in :func:`run_physical_stage`, which imports the physical
design subpackages lazily so mapping-level users don't pay for them.

Both entry points are thin façades over the **stage graph** of
:mod:`repro.pipeline`: each phase is a declared stage with a
content-addressed key, so passing ``store=ArtifactStore(...)`` makes
recompilation incremental — a changed ``fold_polarity`` reuses the
cleanup/initial-map/parameterisation artifacts and rebuilds only the TCON
mapping onward.  Without a store the graph simply runs every stage, which
is byte-for-byte the historical behavior.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.annotate import ParAnnotation
from repro.core.muxnet import InstrumentedDesign
from repro.mapping import MappingResult
from repro.netlist.blif import write_blif
from repro.netlist.network import LogicNetwork
from repro.util.timing import PhaseTimer

__all__ = [
    "DebugFlowConfig",
    "OfflineStage",
    "FLOW_CACHE_VERSION",
    "offline_cache_key",
    "run_generic_stage",
    "run_physical_stage",
]

#: Bump whenever the offline flow's semantics change in a way that makes
#: previously cached :class:`OfflineStage` artifacts stale (mapper changes,
#: new instrumentation, different tap selection...).  The version is folded
#: into :func:`offline_cache_key`, so stale disk caches miss instead of
#: returning artifacts from an older flow.
FLOW_CACHE_VERSION = 2
"""v2: PR 5's vectorized placer/router — whole-artifact entries built by
the v1 physical back-end carry a different placement/routing and must
miss rather than be served alongside v2 builds."""


@dataclass(frozen=True)
class DebugFlowConfig:
    """Knobs of the offline stage."""

    k: int = 6
    cut_limit: int = 8
    area_rounds: int = 2
    n_buffer_inputs: int | None = None
    """Trace-buffer inputs; default = #taps // 4."""
    run_cleanup: bool = True
    fold_polarity: bool = True
    trace_depth: int = 1024
    """Trace-buffer sample depth used by online sessions."""


@dataclass
class OfflineStage:
    """Everything the online stage needs, produced once per design."""

    source: LogicNetwork
    config: DebugFlowConfig
    initial: MappingResult
    instrumented: InstrumentedDesign
    mapping: MappingResult
    annotation: ParAnnotation
    timers: PhaseTimer = field(default_factory=PhaseTimer)
    physical: Any | None = None
    """Filled by :func:`run_physical_stage` (a PhysicalStage)."""
    cache_key: str | None = None
    """Content key identifying this artifact.

    Set to the terminal generic stage's (``tcon-map``) content key by the
    pipeline assembler.  The whole dataclass is picklable (networks, mappings and timers are plain
    containers), which is what lets campaign workers receive the artifact
    and what the disk caches serialize.
    """
    stage_keys: dict[str, str] | None = None
    """Graph-native per-stage content keys this artifact was assembled
    from (set by the pipeline assembler; ``None`` for artifacts unpickled
    from older caches).  :func:`run_physical_stage` reuses them so its
    physical-stage cache entries are shared with full-graph compiles."""

    @property
    def taps(self) -> list[int]:
        return self.instrumented.taps

    def summary(self) -> str:
        m = self.mapping
        return (
            f"{self.source.name}: initial {self.initial.n_luts} LUTs "
            f"depth {self.initial.depth()}; proposed {m.n_luts} LUTs "
            f"({m.n_tluts} TLUTs, {m.n_tcons} TCONs) depth {m.depth()}; "
            f"{len(self.taps)} observable signals on "
            f"{self.instrumented.n_buffer_inputs} buffer inputs"
        )


def offline_cache_key(
    net: LogicNetwork,
    config: DebugFlowConfig | None = None,
    *,
    extra: tuple = (),
) -> str:
    """Content key identifying the offline artifact for ``(net, config)``.

    The key is a SHA-256 over the BLIF serialization of the network, every
    :class:`DebugFlowConfig` field, the flow version
    (:data:`FLOW_CACHE_VERSION`) and any ``extra`` discriminators (the
    campaign layer adds ``"physical"`` when the cached artifact includes the
    physical back-end).  Designs that serialize identically — e.g. every
    regeneration of a workload from the same ``(spec, seed)``, or repeated
    bug scenarios on one design — share one key, which is what lets a debug
    campaign pay the generic stage once per design.  The serialization
    includes model and signal *names*, so a renamed-but-structurally-equal
    design conservatively misses (and rebuilds) rather than risking a wrong
    hit.
    """
    config = config or DebugFlowConfig()
    h = hashlib.sha256()
    h.update(f"repro-offline-v{FLOW_CACHE_VERSION}\n".encode())
    h.update(write_blif(net).encode())
    for key, value in sorted(asdict(config).items()):
        h.update(f"{key}={value!r}\n".encode())
    for item in extra:
        h.update(f"extra={item!r}\n".encode())
    return h.hexdigest()


def run_generic_stage(
    net: LogicNetwork, config: DebugFlowConfig | None = None, *, store=None
) -> OfflineStage:
    """Run the offline flow on a synthesized network.

    The input network is not modified; all artifacts reference fresh
    copies.  A façade over :func:`repro.pipeline.compile_design`: pass an
    :class:`~repro.pipeline.ArtifactStore` via ``store`` and every stage
    whose content key is unchanged is reused instead of re-run.
    """
    from repro.pipeline import assemble_offline, compile_design

    return assemble_offline(
        compile_design(net, config or DebugFlowConfig(), store=store)
    )


def run_physical_stage(offline: OfflineStage, arch=None, *, store=None):
    """TPaR + bitstream generation: pack, place, route, emit the PConf.

    Returns the :class:`~repro.physical.PhysicalStage` and stores it on
    ``offline.physical``.  A façade over the physical sub-graph of
    :mod:`repro.pipeline` (imported lazily so mapping-level users don't
    pay for the physical subpackages); ``store`` enables per-stage
    caching keyed off the offline artifact's content key.
    """
    from repro.pipeline import run_physical_stages

    stage = run_physical_stages(offline, arch=arch, store=store)
    offline.physical = stage
    return stage
