"""TRoute: build routing jobs from a placement and run PathFinder.

The tunable-connection machinery lives here: every TCON tree becomes a
*family* of connections — one per alternative leaf driver — all carrying
the same sharing key and each tagged with its parameter activation
condition.  Mutually-exclusive branches overlap freely on wires, which is
what produces the paper's ≈3× wiring reduction (§V-C.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.arch.routing_graph import RRGraph, RRNodeType, build_rr_graph
from repro.core.boolfunc import BoolExpr, bf_const
from repro.errors import RoutingError
from repro.place.tplace import Placement
from repro.route.pathfinder import ConnectionRequest, PathFinder, RouteTree

__all__ = ["RoutedConnection", "RoutingResult", "route_design"]


@dataclass
class RoutedConnection:
    """A routed connection plus its activation condition."""

    request: ConnectionRequest
    tree: RouteTree
    condition: BoolExpr
    signal: int
    group: int | None = None


@dataclass
class RoutingResult:
    """All routed connections and derived metrics."""

    rr: RRGraph
    placement: Placement
    connections: list[RoutedConnection] = field(default_factory=list)
    iterations: int = 0
    runtime_s: float = 0.0

    def total_wires_used(self) -> int:
        """Distinct channel wires used by any connection (shared count once)."""
        used: set[int] = set()
        for c in self.connections:
            for n in c.tree.nodes:
                if self.rr.is_wire(n):
                    used.add(n)
        return len(used)

    def total_wire_visits(self) -> int:
        """Wire usage *without* sharing (what a conventional router pays)."""
        visits = 0
        for c in self.connections:
            visits += sum(1 for n in c.tree.nodes if self.rr.is_wire(n))
        return visits

    def used_switch_edges(self) -> dict[int, BoolExpr]:
        """Programmable edge → activation condition (OR over connections)."""
        out: dict[int, BoolExpr] = {}
        for c in self.connections:
            for e in c.tree.edges:
                if not self.rr.edge_programmable[e]:
                    continue
                prev = out.get(e)
                if prev is None:
                    out[e] = c.condition
                else:
                    out[e] = prev | c.condition
        return out

    def summary(self) -> dict[str, float]:
        return {
            "connections": float(len(self.connections)),
            "wires_used": float(self.total_wires_used()),
            "wire_visits": float(self.total_wire_visits()),
            "iterations": float(self.iterations),
            "runtime_s": self.runtime_s,
        }


def _signal_source_node(
    rr: RRGraph, placement: Placement, packed, sig: int
) -> int:
    """RR SOURCE node of the producer of ``sig``."""
    physical = packed.physical
    c_idx = packed.cluster_of_signal.get(sig)
    if c_idx is not None:
        x, y = placement.cluster_site(c_idx)
        cluster = packed.clusters[c_idx]
        for b_pos, ble in enumerate(cluster.bles):
            if ble.output == sig:
                return rr.source_of[(x, y, b_pos)]
        raise RoutingError(
            f"signal {physical.signal_name(sig)!r} not a BLE output of its cluster"
        )
    # primary input pad
    x, y, k = placement.pad_site(sig, "ipad")
    return rr.pad_source[(x, y, k)]


def route_design(
    placement: Placement,
    rr: RRGraph | None = None,
    *,
    max_iterations: int = 40,
    pathfinder: type = PathFinder,
) -> RoutingResult:
    """Route a placed design; returns the full routing result.

    ``pathfinder`` selects the router class — the default array-backed
    :class:`~repro.route.pathfinder.PathFinder`, or the pre-optimization
    ``PathFinderRef`` (``benchmarks/ref_route.py``) when benchmarks and
    tests need the baseline on identical requests.
    """
    packed = placement.packed
    physical = packed.physical
    grid = placement.grid
    if rr is None:
        rr = build_rr_graph(grid)

    # reader sinks per signal
    reader_sinks: dict[int, list[int]] = {}
    for c in packed.clusters:
        x, y = placement.cluster_site(c.index)
        sink = rr.sink_of[(x, y)]
        for s in c.external_inputs():
            reader_sinks.setdefault(s, []).append(sink)
    for s in physical.po_signals:
        x, y, k = placement.pad_site(s, "opad")
        reader_sinks.setdefault(s, []).append(rr.pad_sink[(x, y, k)])

    groups = physical.tunable_groups
    requests: list[ConnectionRequest] = []
    meta: dict[int, tuple[BoolExpr, int, int | None]] = {}
    key_counter = 0
    key_of_signal: dict[int, int] = {}
    conn_id = 0
    true_expr = bf_const(1)

    for sig in sorted(reader_sinks):
        sinks = tuple(sorted(set(reader_sinks[sig])))
        if sig in groups:
            key_counter += 1
            gkey = key_counter
            for leaf, cond in groups[sig].options:
                if leaf in groups:
                    raise RoutingError("tunable options must be leaf signals")
                src = _signal_source_node(rr, placement, packed, leaf)
                req = ConnectionRequest(
                    conn_id=conn_id,
                    key=gkey,
                    source=src,
                    sinks=sinks,
                    label=f"tcon:{physical.signal_name(sig)}<-{physical.signal_name(leaf)}",
                )
                requests.append(req)
                meta[conn_id] = (cond, leaf, sig)
                conn_id += 1
            continue
        if sig not in key_of_signal:
            key_counter += 1
            key_of_signal[sig] = key_counter
        src = _signal_source_node(rr, placement, packed, sig)
        req = ConnectionRequest(
            conn_id=conn_id,
            key=key_of_signal[sig],
            source=src,
            sinks=sinks,
            label=f"net:{physical.signal_name(sig)}",
        )
        requests.append(req)
        meta[conn_id] = (true_expr, sig, None)
        conn_id += 1

    pf = pathfinder(rr, max_iterations=max_iterations)
    t0 = time.perf_counter()
    trees = pf.route(requests)
    runtime = time.perf_counter() - t0

    result = RoutingResult(
        rr=rr,
        placement=placement,
        iterations=pf.iterations_run,
        runtime_s=runtime,
    )
    for req in requests:
        cond, sig, group = meta[req.conn_id]
        result.connections.append(
            RoutedConnection(
                request=req,
                tree=trees[req.conn_id],
                condition=cond,
                signal=sig,
                group=group,
            )
        )
    return result
