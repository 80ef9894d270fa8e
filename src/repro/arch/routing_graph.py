"""Routing-resource graph (RRG).

The RRG is the classic VPR representation: every physical routing object —
logic-block output pin (OPIN), channel wire (CHANX/CHANY), input pin
(IPIN) and the per-block SOURCE/SINK aggregation nodes — is a graph node,
and every programmable switch is a directed edge.  The router works purely
on this graph; the bitstream generator assigns one configuration bit per
programmable edge.

Storage is flat numpy arrays plus CSR adjacency (per the HPC guides: dense
integer indexing, no per-node Python objects), with dictionaries only at
the lookup boundary (pin/wire coordinates → node id).

Wire model: bidirectional single-length segments.  A wire at (x, y, t) in a
horizontal channel connects through switch boxes to the collinear wire in
the next tile and to crossing vertical wires via a Wilton-style permutation
(three connections per wire end, ``spec.switch_fanout``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from repro.arch.device import DeviceGrid, TileType
from repro.errors import ArchitectureError

__all__ = ["RRNodeType", "RRGraph", "build_rr_graph"]


class RRNodeType(IntEnum):
    SOURCE = 0
    OPIN = 1
    CHANX = 2
    CHANY = 3
    IPIN = 4
    SINK = 5


#: Hoisted plain-int values: ``RRNodeType.X`` goes through
#: ``enum.__getattr__`` on every access, which is measurable when node
#: kinds are tested millions of times in routing inner loops.
_CHANX = int(RRNodeType.CHANX)
_CHANY = int(RRNodeType.CHANY)


@dataclass
class RRGraph:
    """The routing-resource graph with CSR adjacency in both directions."""

    grid: DeviceGrid
    ntype: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))
    xs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    ys: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    ptc: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    capacity: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int16))
    # CSR out-edges
    edge_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    edge_dst: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    edge_programmable: np.ndarray = field(
        default_factory=lambda: np.zeros(0, np.bool_)
    )
    # lookups
    source_of: dict = field(default_factory=dict)   # (x,y,ble) -> node
    opin_of: dict = field(default_factory=dict)     # (x,y,ble) -> node
    sink_of: dict = field(default_factory=dict)     # (x,y) -> node
    ipins_of: dict = field(default_factory=dict)    # (x,y) -> [nodes]
    pad_source: dict = field(default_factory=dict)  # (x,y,i) -> node (input pad)
    pad_opin: dict = field(default_factory=dict)
    pad_ipin: dict = field(default_factory=dict)    # (x,y,i) -> node (output pad)
    pad_sink: dict = field(default_factory=dict)
    chanx_id: dict = field(default_factory=dict)    # (x,y,t) -> node
    chany_id: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return int(self.ntype.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edge_dst.shape[0])

    def out_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """(edge indices, destination nodes) leaving ``node``."""
        a, b = int(self.edge_offsets[node]), int(self.edge_offsets[node + 1])
        return np.arange(a, b), self.edge_dst[a:b]

    def edge_src_array(self) -> np.ndarray:
        """Source node per edge (derived from the CSR offsets)."""
        src = np.zeros(self.n_edges, dtype=np.int32)
        counts = np.diff(self.edge_offsets)
        src = np.repeat(np.arange(self.n_nodes, dtype=np.int32), counts)
        return src

    def node_str(self, node: int) -> str:
        t = RRNodeType(int(self.ntype[node]))
        return (
            f"{t.name}({int(self.xs[node])},{int(self.ys[node])},"
            f"{int(self.ptc[node])})"
        )

    def is_wire(self, node: int) -> bool:
        t = self.ntype[node]
        return t == _CHANX or t == _CHANY


def _spread(n_choose: int, total: int, offset: int) -> list[int]:
    """Deterministically pick ``n_choose`` of ``total`` indices, offset-rotated."""
    if n_choose >= total:
        return list(range(total))
    step = total / n_choose
    return sorted({(offset + int(i * step)) % total for i in range(n_choose)})


def build_rr_graph(grid: DeviceGrid) -> RRGraph:
    """Construct the full routing-resource graph for a device."""
    spec = grid.spec
    W = spec.channel_width
    width, height = grid.width, grid.height

    g = RRGraph(grid=grid)
    ntypes: list[int] = []
    xs: list[int] = []
    ys: list[int] = []
    ptcs: list[int] = []
    caps: list[int] = []

    def new_node(t: RRNodeType, x: int, y: int, ptc: int, cap: int = 1) -> int:
        nid = len(ntypes)
        ntypes.append(int(t))
        xs.append(x)
        ys.append(y)
        ptcs.append(ptc)
        caps.append(cap)
        return nid

    # ---- block pins ------------------------------------------------------
    for (x, y) in grid.clb_positions():
        g.sink_of[(x, y)] = new_node(
            RRNodeType.SINK, x, y, 0, cap=spec.n_cluster_inputs
        )
        g.ipins_of[(x, y)] = [
            new_node(RRNodeType.IPIN, x, y, i)
            for i in range(spec.n_cluster_inputs)
        ]
        for b in range(spec.n_ble):
            # SOURCE/OPIN carry one signal but may belong to several route
            # trees of that same signal (e.g. a tapped net plus its tunable
            # branch), so they are exempt from congestion via high capacity.
            g.source_of[(x, y, b)] = new_node(
                RRNodeType.SOURCE, x, y, b, cap=1024
            )
            g.opin_of[(x, y, b)] = new_node(RRNodeType.OPIN, x, y, b, cap=1024)

    for (x, y) in grid.io_positions():
        for i in range(spec.io_capacity):
            g.pad_source[(x, y, i)] = new_node(
                RRNodeType.SOURCE, x, y, i, cap=1024
            )
            g.pad_opin[(x, y, i)] = new_node(RRNodeType.OPIN, x, y, i, cap=1024)
            g.pad_ipin[(x, y, i)] = new_node(RRNodeType.IPIN, x, y, i)
            g.pad_sink[(x, y, i)] = new_node(RRNodeType.SINK, x, y, i)

    # ---- channel wires ------------------------------------------------------
    # chanx(x, y): horizontal wire in the channel above row y, tile column x
    for y in range(0, height - 1):
        for x in range(1, width - 1):
            for t in range(W):
                g.chanx_id[(x, y, t)] = new_node(RRNodeType.CHANX, x, y, t)
    # chany(x, y): vertical wire in the channel right of column x, row y
    for x in range(0, width - 1):
        for y in range(1, height - 1):
            for t in range(W):
                g.chany_id[(x, y, t)] = new_node(RRNodeType.CHANY, x, y, t)

    edges: list[tuple[int, int, bool]] = []

    def connect(a: int, b: int, programmable: bool) -> None:
        edges.append((a, b, programmable))

    def connect_bidir(a: int, b: int, programmable: bool) -> None:
        edges.append((a, b, programmable))
        edges.append((b, a, programmable))

    # ---- intra-block hardwired edges ---------------------------------------
    for (x, y) in grid.clb_positions():
        sink = g.sink_of[(x, y)]
        for ip in g.ipins_of[(x, y)]:
            connect(ip, sink, False)
        for b in range(spec.n_ble):
            connect(g.source_of[(x, y, b)], g.opin_of[(x, y, b)], False)
    for key, src in g.pad_source.items():
        connect(src, g.pad_opin[key], False)
    for key, ip in g.pad_ipin.items():
        connect(ip, g.pad_sink[key], False)

    # ---- connection boxes -----------------------------------------------------
    n_in = max(1, round(spec.fc_in * W))
    n_out = max(1, round(spec.fc_out * W))

    def adjacent_channels(x: int, y: int) -> list[tuple[dict, tuple[int, int]]]:
        """Channels bordering tile (x, y): [(wire-dict, (cx, cy)), ...]."""
        out = []
        if 0 <= y - 1 and (x, y - 1, 0) in g.chanx_id:
            out.append((g.chanx_id, (x, y - 1)))
        if (x, y, 0) in g.chanx_id:
            out.append((g.chanx_id, (x, y)))
        if (x - 1, y, 0) in g.chany_id:
            out.append((g.chany_id, (x - 1, y)))
        if (x, y, 0) in g.chany_id:
            out.append((g.chany_id, (x, y)))
        return out

    for (x, y) in grid.clb_positions():
        chans = adjacent_channels(x, y)
        for i, ip in enumerate(g.ipins_of[(x, y)]):
            wires, (cx, cy) = chans[i % len(chans)]
            for t in _spread(n_in, W, i):
                connect(wires[(cx, cy, t)], ip, True)
        for b in range(spec.n_ble):
            op = g.opin_of[(x, y, b)]
            for j, (wires, (cx, cy)) in enumerate(chans):
                for t in _spread(n_out, W, b + j):
                    connect(op, wires[(cx, cy, t)], True)

    for (x, y) in grid.io_positions():
        chans = adjacent_channels(x, y)
        if not chans:
            raise ArchitectureError(f"I/O tile ({x},{y}) has no channel")
        for i in range(spec.io_capacity):
            op = g.pad_opin[(x, y, i)]
            ip = g.pad_ipin[(x, y, i)]
            for j, (wires, (cx, cy)) in enumerate(chans):
                for t in _spread(n_out, W, i + j):
                    connect(op, wires[(cx, cy, t)], True)
                for t in _spread(n_in, W, i + j + 1):
                    connect(wires[(cx, cy, t)], ip, True)

    # ---- switch boxes -----------------------------------------------------------
    # Straight-through connections between collinear wires.
    for (x, y, t), a in g.chanx_id.items():
        b = g.chanx_id.get((x + 1, y, t))
        if b is not None:
            connect_bidir(a, b, True)
    for (x, y, t), a in g.chany_id.items():
        b = g.chany_id.get((x, y + 1, t))
        if b is not None:
            connect_bidir(a, b, True)
    # Wilton-style turns at each switch point (x, y): between chanx(x, y)/
    # chanx(x+1, y) and chany(x, y)/chany(x, y+1).
    for x in range(0, width - 1):
        for y in range(0, height - 1):
            for t in range(W):
                hx = g.chanx_id.get((x, y, t)) or g.chanx_id.get((x + 1, y, t))
                if hx is None:
                    continue
                turns = [
                    g.chany_id.get((x, y, (W - t) % W)),
                    g.chany_id.get((x, y + 1, (t + 1) % W)),
                ]
                for v in turns:
                    if v is not None:
                        connect_bidir(hx, v, True)

    # ---- freeze into CSR --------------------------------------------------------
    n = len(ntypes)
    g.ntype = np.array(ntypes, dtype=np.uint8)
    g.xs = np.array(xs, dtype=np.int32)
    g.ys = np.array(ys, dtype=np.int32)
    g.ptc = np.array(ptcs, dtype=np.int32)
    g.capacity = np.array(caps, dtype=np.int16)

    if edges:
        e_src = np.array([e[0] for e in edges], dtype=np.int64)
        e_dst = np.array([e[1] for e in edges], dtype=np.int32)
        e_prog = np.array([e[2] for e in edges], dtype=np.bool_)
        order = np.argsort(e_src, kind="stable")
        e_src = e_src[order]
        g.edge_dst = e_dst[order]
        g.edge_programmable = e_prog[order]
        g.edge_offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(g.edge_offsets, e_src + 1, 1)
        np.cumsum(g.edge_offsets, out=g.edge_offsets)
    else:  # pragma: no cover - a device always has edges
        g.edge_offsets = np.zeros(n + 1, dtype=np.int64)

    return g
