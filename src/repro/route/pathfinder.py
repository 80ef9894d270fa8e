"""PathFinder: negotiated-congestion routing on the RR graph.

Implements the classic iterative scheme (McMurchie & Ebeling): every
connection is routed by A* through the routing-resource graph with node
costs inflated by present congestion and accumulated history; iterations
rip up and re-route everything until no node is over capacity.

**Tunable-connection sharing** — the paper's key routing mechanism — enters
through the ``key`` of each :class:`ConnectionRequest`: occupancy counts
*distinct keys* per node.  All alternative branches of one TCON tree carry
the same key (they are mutually exclusive under the parameter values), so
their overlapping wires count once; ordinary nets use their own key.

The expansion loop is the single hottest path of the offline flow, so the
router works on flat array state instead of per-node dictionaries:

* the CSR adjacency, coordinates, capacities and node kinds are mirrored
  into plain Python lists once per :class:`PathFinder` (C-speed indexed
  loads, no numpy scalar boxing);
* the congestion-inflated cost of every node is kept in one flat table,
  rebuilt vectorized when ``pres_fac`` changes at an iteration boundary
  and patched in O(1) whenever a node's occupancy changes — so a
  relaxation reads exactly one list entry (the same-key self-sharing
  discount is applied to the table before a connection routes and
  restored after);
* per-search state (g-cost, backtrack, visited) lives in preallocated
  arrays validated by a search-id stamp — no clearing, no dictionaries;
* the priority queue is :mod:`heapq` with lazy deletion (stale entries
  are skipped via the visited stamp) instead of a pure-Python
  decrease-key heap.

The dictionary-based implementation this was rewritten from (and is
quality-gated against) is ``PathFinderRef`` in ``benchmarks/ref_route.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.arch.routing_graph import RRGraph, RRNodeType
from repro.errors import RoutingError, UnroutableError

__all__ = ["ConnectionRequest", "RouteTree", "PathFinder"]

#: Enum members hoisted to plain ints — the expansion loop compares node
#: kinds millions of times per route and ``IntEnum.__getattr__`` was a
#: measurable fraction of total routing time.
_SOURCE = int(RRNodeType.SOURCE)
_OPIN = int(RRNodeType.OPIN)
_IPIN = int(RRNodeType.IPIN)
_SINK = int(RRNodeType.SINK)


def _tolist(a) -> list:
    """Plain-list view of a numpy array or any sequence."""
    return a.tolist() if hasattr(a, "tolist") else list(a)


@dataclass(frozen=True)
class ConnectionRequest:
    """One source→sinks routing job.

    ``key`` is the congestion-sharing identity (net id for ordinary nets,
    tunable-group id for TCON branches).
    """

    conn_id: int
    key: int
    source: int
    sinks: tuple[int, ...]
    label: str = ""


@dataclass
class RouteTree:
    """Routed result of one connection: nodes and the edges between them."""

    conn_id: int
    nodes: list[int] = field(default_factory=list)
    edges: list[int] = field(default_factory=list)
    #: per sink: the path (node list) from the tree to that sink
    sink_paths: dict[int, list[int]] = field(default_factory=dict)


def _grow_tree(
    conn_id: int,
    source: int,
    sinks,
    off: list[int],
    dst: list[int],
    xs: list[int],
    ys: list[int],
    cost: list[float],
    is_sink: list[bool],
    gcost: list[float],
    gstamp: list[int],
    vstamp: list[int],
    back_node: list[int],
    back_edge: list[int],
    sid: int,
    astar: float,
    label: str,
    node_str,
) -> tuple[RouteTree, int]:
    """Grow one connection's route tree by repeated A* (sink by sink).

    Pure function of its arguments plus the scratch arrays (validated by
    the ``sid`` stamp, so stale contents never leak between searches).
    Returns ``(tree, new_sid)``.
    """
    tree = RouteTree(conn_id=conn_id)
    src = source
    tree_nodes: set[int] = {src}
    tree.nodes.append(src)

    # nearest sink first (manhattan from the source — cheap proxy)
    sx, sy = xs[src], ys[src]
    remaining = sorted(sinks, key=lambda s: abs(xs[s] - sx) + abs(ys[s] - sy))
    for target in remaining:
        tx, ty = xs[target], ys[target]
        sid += 1
        heap: list[tuple[float, int]] = []
        for n in tree_nodes:
            gstamp[n] = sid
            gcost[n] = 0.0
            heappush(heap, (astar * (abs(xs[n] - tx) + abs(ys[n] - ty)), n))
        found = False
        while heap:
            _prio, node = heappop(heap)
            if vstamp[node] == sid:
                continue
            vstamp[node] = sid
            if node == target:
                found = True
                break
            g_here = gcost[node]
            for e in range(off[node], off[node + 1]):
                nxt = dst[e]
                if vstamp[nxt] == sid:
                    continue
                # sinks other than the target are dead ends
                if is_sink[nxt] and nxt != target:
                    continue
                c = g_here + cost[nxt]
                if gstamp[nxt] != sid:
                    gstamp[nxt] = sid
                elif c >= gcost[nxt]:
                    continue
                gcost[nxt] = c
                back_node[nxt] = node
                back_edge[nxt] = e
                heappush(
                    heap,
                    (c + astar * (abs(xs[nxt] - tx) + abs(ys[nxt] - ty)), nxt),
                )
        if not found:
            raise UnroutableError(
                f"connection {label or conn_id}: no path to {node_str(target)}"
            )
        # unwind path into the tree
        path = [target]
        node = target
        while node not in tree_nodes:
            tree.edges.append(back_edge[node])
            node = back_node[node]
            path.append(node)
        path.reverse()
        for n in path:
            if n not in tree_nodes:
                tree_nodes.add(n)
                tree.nodes.append(n)
        tree.sink_paths[target] = path
    return tree, sid


class PathFinder:
    """Negotiated-congestion router over one RR graph."""

    def __init__(
        self,
        rr: RRGraph,
        *,
        max_iterations: int = 40,
        pres_fac_first: float = 0.6,
        pres_fac_mult: float = 1.6,
        acc_fac: float = 1.0,
        astar_fac: float = 1.0,
    ) -> None:
        self.rr = rr
        self.max_iterations = max_iterations
        self.pres_fac_first = pres_fac_first
        self.pres_fac_mult = pres_fac_mult
        self.acc_fac = acc_fac
        self.astar_fac = astar_fac

        n = rr.n_nodes
        t = _tolist(rr.ntype)
        base = [1.0] * n
        for i, ti in enumerate(t):
            if ti == _OPIN or ti == _IPIN:
                base[i] = 0.6
            elif ti == _SOURCE or ti == _SINK:
                base[i] = 0.2
        self.base_cost = np.asarray(base, dtype=np.float64)
        self.acc_cost = np.zeros(n, dtype=np.float64)
        self.occ = np.zeros(n, dtype=np.int32)
        # occupancy bookkeeping: per node the sharing keys using it, and
        # per key the nodes it uses (for the self-sharing discount)
        self._users: dict[int, dict[int, int]] = {}
        self._key_nodes: dict[int, dict[int, int]] = {}
        self.iterations_run = 0

        # flat list mirrors of the static RR graph (C-speed scalar access)
        self._off: list[int] = _tolist(rr.edge_offsets)
        self._dst: list[int] = _tolist(rr.edge_dst)
        self._xs: list[int] = _tolist(rr.xs)
        self._ys: list[int] = _tolist(rr.ys)
        self._cap: list[int] = _tolist(rr.capacity)
        self._is_sink: list[bool] = [ti == _SINK for ti in t]
        self._base: list[float] = base
        self._acc: list[float] = _tolist(self.acc_cost)
        self._occ: list[int] = [0] * n
        #: congestion-inflated cost per node under the current ``pres_fac``
        #: (no self-sharing discount); kept in sync incrementally
        self._cost: list[float] = self._base[:]
        self._pres_fac = pres_fac_first

        # per-search scratch, validated by the search-id stamp
        self._gcost = [0.0] * n
        self._gstamp = [0] * n
        self._vstamp = [0] * n
        self._back_node = [0] * n
        self._back_edge = [0] * n
        self._sid = 0

    # -- occupancy ---------------------------------------------------------

    def _cost_value(self, node: int) -> float:
        """Congestion cost of ``node`` under the current ``pres_fac``."""
        over = self._occ[node] + 1 - self._cap[node]
        if over > 0:
            return (
                self._base[node] * (1.0 + self._pres_fac * over)
                + self._acc[node]
            )
        return self._base[node] + self._acc[node]

    def _add_usage(self, node: int, key: int) -> None:
        users = self._users.setdefault(node, {})
        if key in users:
            users[key] += 1
        else:
            users[key] = 1
            self._occ[node] += 1
            self._cost[node] = self._cost_value(node)
        kn = self._key_nodes.setdefault(key, {})
        kn[node] = kn.get(node, 0) + 1

    def _remove_usage(self, node: int, key: int) -> None:
        users = self._users.get(node)
        if not users or key not in users:
            raise RoutingError(f"usage underflow at node {node}")
        users[key] -= 1
        if users[key] == 0:
            del users[key]
            self._occ[node] -= 1
            self._cost[node] = self._cost_value(node)
        kn = self._key_nodes[key]
        kn[node] -= 1
        if kn[node] == 0:
            del kn[node]
            if not kn:
                del self._key_nodes[key]

    def _node_cost(self, node: int, key: int, pres_fac: float) -> float:
        """Cost of ``node`` for a connection carrying ``key`` (kept for
        introspection/tests; the routing loop reads ``_cost`` directly)."""
        occ = self._occ[node]
        users = self._users.get(node)
        if users and key in users:
            occ -= 1  # sharing with ourselves (same key) is free
        over = occ + 1 - self._cap[node]
        pres = 1.0 + pres_fac * over if over > 0 else 1.0
        return self._base[node] * pres + self._acc[node]

    def _rebuild_cost(self) -> None:
        """Recompute the cost table, vectorized (pres_fac/acc changed at
        an iteration boundary)."""
        occ = np.asarray(self._occ, dtype=np.int64)
        cap = np.asarray(self._cap, dtype=np.int64)
        over = occ + 1 - cap
        pres = np.where(over > 0, 1.0 + self._pres_fac * over, 1.0)
        self._acc = self.acc_cost.tolist()
        self._cost = (self.base_cost * pres + self.acc_cost).tolist()

    # -- search -------------------------------------------------------------

    def _route_connection(self, req: ConnectionRequest) -> RouteTree:
        tree, self._sid = _grow_tree(
            req.conn_id,
            req.source,
            req.sinks,
            self._off,
            self._dst,
            self._xs,
            self._ys,
            self._cost,
            self._is_sink,
            self._gcost,
            self._gstamp,
            self._vstamp,
            self._back_node,
            self._back_edge,
            self._sid,
            self.astar_fac,
            req.label,
            self.rr.node_str,
        )
        return tree

    # -- main loop ------------------------------------------------------------

    def _reroute_one(
        self, req: ConnectionRequest, trees: dict[int, RouteTree]
    ) -> RouteTree:
        """Rip up and re-route one request against the live cost table."""
        old = trees.get(req.conn_id)
        if old is not None:
            for n in old.nodes:
                self._remove_usage(n, req.key)
        # same-key sharing is free: discount nodes this key
        # already uses for the duration of the search
        kn = self._key_nodes.get(req.key)
        saved: list[tuple[int, float]] = []
        if kn:
            cost = self._cost
            for node in kn:
                saved.append((node, cost[node]))
                self._occ[node] -= 1
                cost[node] = self._cost_value(node)
                self._occ[node] += 1
        tree = self._route_connection(req)
        if saved:
            cost = self._cost
            for node, c in saved:
                cost[node] = c
        for n in tree.nodes:
            self._add_usage(n, req.key)
        trees[req.conn_id] = tree
        return tree

    def _overused(self) -> list[int]:
        """Publish ``self.occ`` and return the over-capacity node ids."""
        self.occ = np.asarray(self._occ, dtype=np.int32)
        return np.nonzero(self.occ > self.rr.capacity)[0].tolist()

    def _end_iteration(self, over: list[int]) -> None:
        """Bump history on overused nodes and sharpen ``pres_fac``."""
        self.acc_cost[over] += self.acc_fac
        self._pres_fac *= self.pres_fac_mult

    def route(
        self, requests: list[ConnectionRequest]
    ) -> dict[int, RouteTree]:
        """Route all requests to legality; returns trees keyed by conn_id.

        Raises :class:`UnroutableError` if congestion persists after
        ``max_iterations``.
        """
        if not requests:
            return {}
        trees: dict[int, RouteTree] = {}
        self._pres_fac = self.pres_fac_first
        n_over = 0
        for iteration in range(1, self.max_iterations + 1):
            self.iterations_run = iteration
            self._rebuild_cost()
            # one rip-up-and-reroute sweep over all requests, in order
            for req in requests:
                self._reroute_one(req, trees)
            over = self._overused()
            if not over:
                return trees
            n_over = len(over)
            self._end_iteration(over)
        raise UnroutableError(
            f"{n_over} overused nodes after {self.max_iterations} iterations"
        )
