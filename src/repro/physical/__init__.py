"""Physical design orchestration: TPaR + bitstream generation.

:func:`build_physical_stage` takes an offline-stage artifact (or any
mapping result) through packing, placement, routing and configuration-bit
generation, returning a :class:`PhysicalStage` with every intermediate
plus phase timings — the data behind the compile-time experiment
(§V-C.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.arch.config_cells import ConfigLayout, build_config_layout
from repro.arch.device import DeviceGrid
from repro.arch.routing_graph import RRGraph, build_rr_graph
from repro.arch.spec import ArchSpec
from repro.arch.virtex5 import VIRTEX5_LIKE
from repro.bitgen.genbit import GeneratedBitstream, generate_bitstream
from repro.core.muxnet import InstrumentedDesign
from repro.mapping.result import MappingResult
from repro.pack.cluster import build_atoms
from repro.pack.tpack import PackedDesign, pack_design
from repro.place.tplace import Placement, place_design
from repro.route.troute import RoutingResult, route_design
from repro.util.timing import PhaseTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.flow import OfflineStage

__all__ = [
    "PhysicalStage",
    "build_physical_stage",
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
    timers: PhaseTimer = field(default_factory=PhaseTimer)

    @property
    def n_clbs_used(self) -> int:
        return self.packed.n_clusters

    @property
    def wires_used(self) -> int:
        return self.routing.total_wires_used()

    def summary(self) -> dict[str, float]:
        s = self.routing.summary()
        s.update(
            {
                "clbs": float(self.n_clbs_used),
                "bles": float(self.packed.n_bles),
                "placement_hpwl": self.placement.cost,
                "config_bits": float(self.layout.n_bits),
                "tunable_bits": float(self.bitstream.pconf.n_tunable),
                "pnr_runtime_s": self.timers.total(),
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
    packed: PackedDesign,
    grid: DeviceGrid | None = None,
    *,
    seed: int = 2016,
    effort: float = 4.0,
) -> Placement:
    """The ``place`` stage body: simulated-annealing placement."""
    return place_design(packed, grid, seed=seed, effort=effort)


def rr_graph_stage(packed: PackedDesign) -> RRGraph:
    """The ``rr-graph`` stage body: device grid + routing-resource graph.

    Depends only on ``pack``, so the dataflow scheduler runs it in
    parallel with the (much longer) placement anneal of the same design.
    """
    return build_rr_graph(grid_for_packed(packed))


def route_stage(
    placement: Placement,
    rr: RRGraph | None = None,
    *,
    max_route_iterations: int = 40,
) -> tuple[RRGraph, RoutingResult]:
    """The ``route`` stage body: PathFinder over the RR graph.

    ``rr`` is normally the ``rr-graph`` stage's artifact (built from the
    identical, pack-derived grid); when absent it is built here — the
    historical single-call path.
    """
    if rr is None:
        rr = build_rr_graph(placement.grid)
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
    grid: DeviceGrid | None = None,
    seed: int = 2016,
    effort: float = 4.0,
    max_route_iterations: int = 40,
) -> PhysicalStage:
    """Pack, place, route and generate bits for any mapping result.

    This is the direct, uncached path (conventional-flow experiments, ad
    hoc mapping results); the same stage bodies run behind the stage graph
    of :mod:`repro.pipeline` for cached/incremental compilation.
    """
    arch = arch or VIRTEX5_LIKE
    timers = PhaseTimer()

    with timers.phase("pack"):
        packed = pack_stage(mapping, design, arch)
    with timers.phase("place"):
        placement = place_stage(packed, grid, seed=seed, effort=effort)
    with timers.phase("route"):
        rr, routing = route_stage(
            placement, max_route_iterations=max_route_iterations
        )
    with timers.phase("bitgen"):
        layout, bitstream = bitgen_stage(packed, placement, rr, routing, design)
    return PhysicalStage(
        arch=arch,
        packed=packed,
        grid=placement.grid,
        placement=placement,
        rr=rr,
        routing=routing,
        layout=layout,
        bitstream=bitstream,
        timers=timers,
    )


def build_physical_stage(offline: "OfflineStage", arch: ArchSpec | None = None) -> PhysicalStage:
    """Physical back-end for an offline-stage artifact (the proposed flow).

    A façade over the stage graph's physical sub-graph — see
    :func:`repro.pipeline.run_physical_stages`, which also accepts an
    artifact store for per-stage caching.
    """
    from repro.pipeline import run_physical_stages

    return run_physical_stages(offline, arch=arch)
