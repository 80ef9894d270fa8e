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

What the online stage runs — the mapped network's compiled program and
the virtual PConf with its specialization plan — is the ``emulation``
stage's :class:`Emulation` (:func:`build_emulation`).  Debug campaigns
build and store it with the generic flow; an :class:`OfflineStage`
assembled without it builds it on first use
(:meth:`OfflineStage.ensure_emulation`).

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
from typing import Any, Mapping

from repro.core.annotate import ParAnnotation
from repro.core.muxnet import InstrumentedDesign
from repro.core.virtual import VirtualPConf, build_virtual_pconf
from repro.errors import DebugFlowError
from repro.mapping import MappingResult
from repro.netlist.blif import write_blif
from repro.netlist.compiled import CompiledProgram, program_for
from repro.netlist.network import LogicNetwork
from repro.util.trace import Trace

__all__ = [
    "DebugFlowConfig",
    "Emulation",
    "OfflineStage",
    "build_emulation",
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
class Emulation:
    """The ``emulation`` stage's artifact: what a lane engine runs.

    ``program`` is the mapped LUT network's compiled program, split at the
    select parameters (so a block pass that changes only what is observed
    re-runs only the select cone); ``pconf`` is the virtual PConf with its
    specialization plan lowered.  The program's kernels are generated when
    they are linked — ``clean`` when a simulator is built, ``forced`` on
    the first armed gate override — or when the artifact pickles (a store
    put or a pool payload), which generates both kinds first.  Both parts
    pickle their generated code (see
    :class:`~repro.netlist.compiled.KernelCode`), so an engine over a
    store-loaded or shipped artifact lowers and compiles nothing.
    """

    program: CompiledProgram
    pconf: VirtualPConf

    def __getstate__(self) -> dict:
        self.program.code.generate("clean", "forced")
        return self.__dict__

    def bind(self, design: InstrumentedDesign) -> "Emulation":
        """Give the PConf ``design``'s parameter space.

        ``specialize`` accepts only assignments over the PConf's own
        space object, and a PConf unpickled apart from its design holds
        a copy; the copy is replaced once its names are checked.
        """
        pb = self.pconf.bitstream
        if pb.space is not design.param_space:
            if pb.space.names != design.param_space.names:
                raise DebugFlowError(
                    "emulation artifact's parameters differ from the "
                    "instrumented design's"
                )
            pb.space = design.param_space
        return self


def build_emulation(
    mapping: MappingResult, design: InstrumentedDesign
) -> Emulation:
    """The ``emulation`` stage body, paid once per design: lower the
    mapped network to its program, with the design's select parameters
    as its late sources, and lower its virtual PConf.  No kernel code is
    generated here (see :class:`Emulation`)."""
    net = mapping.to_lut_network()
    program = program_for(
        net, late=[net.require(name) for name in design.param_space.names]
    )
    pconf = build_virtual_pconf(mapping, design)
    pconf.bitstream.lower()
    return Emulation(program=program, pconf=pconf)


@dataclass
class OfflineStage:
    """Everything the online stage needs, produced once per design."""

    source: LogicNetwork
    config: DebugFlowConfig
    initial: MappingResult
    instrumented: InstrumentedDesign
    mapping: MappingResult
    annotation: ParAnnotation
    stage_keys: dict[str, str]
    """Graph-native per-stage content keys this artifact was assembled
    from; ``stage_keys["tcon-map"]`` identifies the artifact.
    :func:`run_physical_stage` reuses them so its physical-stage cache
    entries are shared with full-graph compiles.  The whole dataclass is
    picklable (networks, mappings and the trace are plain containers),
    which is what lets campaign workers receive the artifact."""
    trace: Trace = field(default_factory=Trace)
    """The compile's record: one ``stage.<name>`` span per stage built
    (none for stages the store served)."""
    physical: Any | None = None
    """Filled by :func:`run_physical_stage` (a PhysicalStage)."""
    emulation: Emulation | None = None
    """The ``emulation`` stage's artifact, when the compile ran that stage
    (see :meth:`ensure_emulation`)."""

    @property
    def taps(self) -> list[int]:
        return self.instrumented.taps

    def ensure_emulation(self) -> Emulation:
        """The emulation artifact, built through the stage body on first
        use when this artifact was assembled without it."""
        if self.emulation is None:
            self.emulation = build_emulation(self.mapping, self.instrumented)
        return self.emulation

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


def run_physical_stage(
    offline: OfflineStage,
    arch=None,
    *,
    store=None,
    params: Mapping[str, Any] | None = None,
):
    """TPaR + bitstream generation: pack, place, route, emit the PConf.

    Returns the :class:`~repro.physical.PhysicalStage` and stores it on
    ``offline.physical``.  A façade over the physical sub-graph of
    :mod:`repro.pipeline` (imported lazily so mapping-level users don't
    pay for the physical subpackages).  The offline artifact's mapping
    and instrumented design are injected as preset upstream artifacts
    under their graph-native keys (``offline.stage_keys``), so with a
    ``store`` the physical stages share cache entries with full-graph
    compiles.  ``params`` are per-stage parameters (placement ``seed``,
    ``effort``, ``max_route_iterations``).
    """
    from repro.pipeline import (
        PHYSICAL_STAGES,
        assemble_physical,
        compile_design,
    )

    run_params = dict(params or {})
    if arch is not None:
        run_params["arch"] = arch
    keys = offline.stage_keys
    result = compile_design(
        offline.source,
        offline.config,
        store=store,
        params=run_params,
        stages=PHYSICAL_STAGES,
        preset={
            "signal-parameterisation": (
                keys["signal-parameterisation"],
                offline.instrumented,
            ),
            "tcon-map": (keys["tcon-map"], offline.mapping),
        },
    )
    offline.physical = assemble_physical(result)
    return offline.physical
