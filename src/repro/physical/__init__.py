"""Physical design orchestration: TPaR + bitstream generation.

The stage bodies of the physical back-end (``pack``, ``rr-graph``,
``place``, ``route``, ``bitgen``), which the stage graph of
:mod:`repro.pipeline` runs, and the :class:`PhysicalStage` container it
assembles from their artifacts.  :func:`physical_from_mapping` takes any
mapping result through that sub-graph — the data behind the compile-time
experiment (§V-C.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config_cells import ConfigLayout, build_config_layout
from repro.arch.device import DeviceGrid
from repro.arch.routing_graph import RRGraph, build_rr_graph
from repro.arch.spec import ArchSpec
from repro.bitgen.genbit import GeneratedBitstream, generate_bitstream
from repro.core.muxnet import InstrumentedDesign
from repro.mapping.result import MappingResult
from repro.pack.cluster import build_atoms
from repro.pack.tpack import PackedDesign, pack_design
from repro.place.tplace import Placement, place_design
from repro.route.troute import RoutingResult, route_design
from repro.util.trace import Trace

__all__ = [
    "PhysicalStage",
    "physical_from_mapping",
    "grid_for_packed",
    "pack_stage",
    "place_stage",
    "route_stage",
    "rr_graph_stage",
    "bitgen_stage",
]


@dataclass
class PhysicalStage:
    """All physical-design artifacts of one flow run."""

    arch: ArchSpec
    packed: PackedDesign
    grid: DeviceGrid
    placement: Placement
    rr: RRGraph
    routing: RoutingResult
    layout: ConfigLayout
    bitstream: GeneratedBitstream
    trace: Trace = field(default_factory=Trace)
    """The compile's record: a ``stage.<name>`` span per stage built."""

    @property
    def n_clbs_used(self) -> int:
        return self.packed.n_clusters

    @property
    def wires_used(self) -> int:
        return self.routing.total_wires_used()

    def summary(self) -> dict[str, float]:
        from repro.pipeline.stages import PHYSICAL_STAGES

        s = self.routing.summary()
        s.update(
            {
                "clbs": float(self.n_clbs_used),
                "bles": float(self.packed.n_bles),
                "placement_hpwl": self.placement.cost,
                "config_bits": float(self.layout.n_bits),
                "tunable_bits": float(self.bitstream.pconf.n_tunable),
                "pnr_runtime_s": sum(
                    secs
                    for name, secs in self.trace.seconds("stage.").items()
                    if name in PHYSICAL_STAGES
                ),
            }
        )
        return s


def pack_stage(
    mapping: MappingResult,
    design: InstrumentedDesign | None,
    arch: ArchSpec,
) -> PackedDesign:
    """The ``pack`` stage body: atoms + clustering."""
    return pack_design(build_atoms(mapping, design), arch)


def grid_for_packed(
    packed: PackedDesign, *, utilization: float = 0.7
) -> DeviceGrid:
    """The device grid a packed design places onto.

    A pure function of the pack output — exactly the grid
    :func:`repro.place.tplace.place_design` derives internally when no
    grid is supplied.  Exposed so the ``rr-graph`` pipeline stage can
    build the routing-resource graph from ``pack`` alone, concurrently
    with placement (the two produce value-identical grids).
    """
    physical = packed.physical
    n_pads = len(physical.pi_signals) + len(physical.po_signals)
    return DeviceGrid.for_design(
        packed.arch,
        n_clbs=max(1, packed.n_clusters),
        n_pads=n_pads,
        utilization=utilization,
    )


def place_stage(
    packed: PackedDesign, *, seed: int = 2016, effort: float = 4.0
) -> Placement:
    """The ``place`` stage body: simulated-annealing placement."""
    return place_design(packed, seed=seed, effort=effort)


def rr_graph_stage(packed: PackedDesign) -> RRGraph:
    """The ``rr-graph`` stage body: device grid + routing-resource graph.

    Depends only on ``pack``, so the dataflow scheduler runs it in
    parallel with the (much longer) placement anneal of the same design.
    """
    return build_rr_graph(grid_for_packed(packed))


def route_stage(
    placement: Placement, rr: RRGraph, *, max_route_iterations: int = 40
) -> tuple[RRGraph, RoutingResult]:
    """The ``route`` stage body: PathFinder over the ``rr-graph`` artifact
    (built from the identical, pack-derived grid)."""
    return rr, route_design(placement, rr, max_iterations=max_route_iterations)


def bitgen_stage(
    packed: PackedDesign,
    placement: Placement,
    rr: RRGraph,
    routing: RoutingResult,
    design: InstrumentedDesign | None,
) -> tuple[ConfigLayout, GeneratedBitstream]:
    """The ``bitgen`` stage body: config layout + bitstream generation."""
    layout = build_config_layout(rr)
    return layout, generate_bitstream(packed, placement, routing, layout, design)


def physical_from_mapping(
    mapping: MappingResult,
    design: InstrumentedDesign | None = None,
    *,
    arch: ArchSpec | None = None,
    seed: int = 2016,
    effort: float = 4.0,
    max_route_iterations: int = 40,
) -> PhysicalStage:
    """Pack, place, route and generate bits for any mapping result.

    Serves both flows of the compile-time experiment: the proposed one
    (``design`` is the instrumented design the mapping implements) and the
    conventional one (``design=None``).  Runs the stage graph's physical
    sub-graph with ``mapping`` and ``design`` preset as the ``tcon-map``
    and ``signal-parameterisation`` artifacts, without a store — so their
    keys are placeholders.
    """
    from repro.pipeline.stages import (
        PHYSICAL_STAGES,
        assemble_physical,
        compile_design,
    )

    result = compile_design(
        None,
        params={
            "arch": arch,
            "seed": seed,
            "effort": effort,
            "max_route_iterations": max_route_iterations,
        },
        stages=PHYSICAL_STAGES,
        preset={
            "tcon-map": ("", mapping),
            "signal-parameterisation": ("", design),
        },
    )
    return assemble_physical(result)
