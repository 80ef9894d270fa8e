"""Reference PathFinder (the pre-optimization implementation).

The dictionary-based negotiated-congestion router exactly as it shipped
before the array-backed rewrite of :mod:`repro.route.pathfinder`: per-node
cost computed through attribute/dict traffic on every relaxation, search
state in per-search dictionaries, and a pure-Python indexed heap.  Kept as
the *quality and speed baseline*:

* ``tests/test_physical_perf.py`` gates the rewritten router's wirelength
  and overuse against this implementation on the paper-suite design;
* ``benchmarks/bench_offline.py`` measures the physical-stage speedup by
  routing identical placements through both.

Not part of the package — the compile pipeline routes through
:class:`repro.route.pathfinder.PathFinder`.
"""

from __future__ import annotations

import numpy as np

from repro.arch.routing_graph import RRGraph, RRNodeType
from repro.errors import RoutingError, UnroutableError
from repro.route.pathfinder import ConnectionRequest, RouteTree
from repro.util.pq import IndexedMinHeap

__all__ = ["PathFinderRef"]


class PathFinderRef:
    """Negotiated-congestion router over one RR graph (reference)."""

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
        t = rr.ntype
        self.base_cost = np.ones(n, dtype=np.float64)
        self.base_cost[t == RRNodeType.OPIN] = 0.6
        self.base_cost[t == RRNodeType.IPIN] = 0.6
        self.base_cost[t == RRNodeType.SOURCE] = 0.2
        self.base_cost[t == RRNodeType.SINK] = 0.2
        self.acc_cost = np.zeros(n, dtype=np.float64)
        # occupancy bookkeeping: per node, the set of sharing keys using it
        self._users: dict[int, dict[int, int]] = {}
        self.occ = np.zeros(n, dtype=np.int32)
        self.iterations_run = 0

    # -- occupancy ---------------------------------------------------------

    def _add_usage(self, node: int, key: int) -> None:
        users = self._users.setdefault(node, {})
        if key in users:
            users[key] += 1
        else:
            users[key] = 1
            self.occ[node] += 1

    def _remove_usage(self, node: int, key: int) -> None:
        users = self._users.get(node)
        if not users or key not in users:
            raise RoutingError(f"usage underflow at node {node}")
        users[key] -= 1
        if users[key] == 0:
            del users[key]
            self.occ[node] -= 1

    def _node_cost(self, node: int, key: int, pres_fac: float) -> float:
        cap = int(self.rr.capacity[node])
        occ = int(self.occ[node])
        users = self._users.get(node)
        if users and key in users:
            occ -= 1  # sharing with ourselves (same key) is free
        over = occ + 1 - cap
        pres = 1.0 + pres_fac * over if over > 0 else 1.0
        return float(self.base_cost[node]) * pres + float(self.acc_cost[node])

    # -- search -------------------------------------------------------------

    def _route_connection(
        self, req: ConnectionRequest, pres_fac: float
    ) -> RouteTree:
        rr = self.rr
        tree = RouteTree(conn_id=req.conn_id)
        tree_nodes: set[int] = {req.source}
        tree.nodes.append(req.source)

        remaining = list(req.sinks)
        xs, ys = rr.xs, rr.ys
        while remaining:
            # nearest sink first (manhattan from any tree node — cheap proxy:
            # from the source)
            remaining.sort(
                key=lambda s: abs(int(xs[s]) - int(xs[req.source]))
                + abs(int(ys[s]) - int(ys[req.source]))
            )
            target = remaining.pop(0)
            tx, ty = int(xs[target]), int(ys[target])

            heap = IndexedMinHeap()
            back_node: dict[int, int] = {}
            back_edge: dict[int, int] = {}
            gcost: dict[int, float] = {}
            for n in tree_nodes:
                gcost[n] = 0.0
                h = self.astar_fac * (abs(int(xs[n]) - tx) + abs(int(ys[n]) - ty))
                heap.push(n, h)
            found = False
            visited: set[int] = set()
            while heap:
                node, _prio = heap.pop()
                if node in visited:
                    continue
                visited.add(node)
                if node == target:
                    found = True
                    break
                eidx, dsts = rr.out_edges(node)
                g_here = gcost[node]
                for k in range(len(dsts)):
                    nxt = int(dsts[k])
                    if nxt in visited:
                        continue
                    # sinks other than the target are dead ends
                    if rr.ntype[nxt] == RRNodeType.SINK and nxt != target:
                        continue
                    c = g_here + self._node_cost(nxt, req.key, pres_fac)
                    if c < gcost.get(nxt, float("inf")):
                        gcost[nxt] = c
                        back_node[nxt] = node
                        back_edge[nxt] = int(eidx[k])
                        h = self.astar_fac * (
                            abs(int(xs[nxt]) - tx) + abs(int(ys[nxt]) - ty)
                        )
                        heap.push(nxt, c + h)
            if not found:
                raise UnroutableError(
                    f"connection {req.label or req.conn_id}: no path to "
                    f"{rr.node_str(target)}"
                )
            # unwind path into the tree
            path = [target]
            node = target
            while node not in tree_nodes:
                prev = back_node[node]
                tree.edges.append(back_edge[node])
                path.append(prev)
                node = prev
            path.reverse()
            for n in path:
                if n not in tree_nodes:
                    tree_nodes.add(n)
                    tree.nodes.append(n)
            tree.sink_paths[target] = path
        return tree

    # -- main loop ------------------------------------------------------------

    def route(
        self, requests: list[ConnectionRequest]
    ) -> dict[int, RouteTree]:
        """Route all requests to legality; returns trees keyed by conn_id."""
        if not requests:
            return {}
        trees: dict[int, RouteTree] = {}
        pres_fac = self.pres_fac_first
        for iteration in range(1, self.max_iterations + 1):
            self.iterations_run = iteration
            for req in requests:
                old = trees.get(req.conn_id)
                if old is not None:
                    for n in old.nodes:
                        self._remove_usage(n, req.key)
                tree = self._route_connection(req, pres_fac)
                for n in tree.nodes:
                    self._add_usage(n, req.key)
                trees[req.conn_id] = tree

            over = np.nonzero(self.occ > self.rr.capacity)[0]
            if over.size == 0:
                return trees
            self.acc_cost[over] += self.acc_fac
            pres_fac *= self.pres_fac_mult
        raise UnroutableError(
            f"{over.size} overused nodes after {self.max_iterations} iterations"
        )
