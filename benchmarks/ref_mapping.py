"""Reference set-based priority-cuts mapper (pre-flat-engine).

This module preserves the original ``frozenset``-based cut enumeration and
the original :class:`PriorityCutMapper` forward pass exactly as they were
before the flat bitset engine replaced them in :mod:`repro.mapping.cuts`
and :mod:`repro.mapping.mapper_base`.  It exists for three reasons:

* ``benchmarks/bench_mapping.py`` measures the flat engine's speedup
  against this implementation (the acceptance floor is relative to it);
* the cut-algebra property tests compare the bitset subsumption/merge
  operators against these set-based originals;
* the engine-equality test pins that the flat engine chooses the same
  mapping, which is the argument for not bumping the ``initial-map`` /
  ``tcon-map`` stage versions.

Like ``ref_place.py`` and ``ref_route.py`` beside it, nothing in the
package imports this module — it is a frozen baseline, not a fallback.
"""

from __future__ import annotations

from typing import Callable, Collection

from repro.errors import MappingError
from repro.mapping.result import LutImpl, MappingResult
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.truthtable import TruthTable

__all__ = [
    "ref_cut_size",
    "ref_prune",
    "ref_merge_cut_lists",
    "ref_enumerate_cuts",
    "RefPriorityCutMapper",
    "RefAbcMap",
]

RefCut = frozenset
"""A reference cut is a frozenset of leaf node ids."""


def ref_cut_size(cut: frozenset, free_leaves: Collection[int]) -> int:
    """Physical input count of a cut: leaves minus parameter leaves."""
    if not free_leaves:
        return len(cut)
    return sum(1 for l in cut if l not in free_leaves)


def ref_prune(
    cuts: list[frozenset],
    limit: int,
    rank: Callable[[frozenset], tuple],
) -> list[frozenset]:
    """Dedup, drop dominated cuts, keep the ``limit`` best by ``rank``."""
    uniq = list(dict.fromkeys(cuts))
    uniq.sort(key=rank)
    kept: list[frozenset] = []
    for c in uniq:
        dominated = False
        for k in kept:
            if k <= c:  # an existing cut with a subset of leaves is better
                dominated = True
                break
        if not dominated:
            kept.append(c)
            if len(kept) >= limit:
                break
    return kept


def ref_merge_cut_lists(
    lists: list[list[frozenset]],
    k: int,
    limit: int,
    free_leaves: Collection[int],
    rank: Callable[[frozenset], tuple],
    max_total_leaves: int,
) -> list[frozenset]:
    """Pairwise-merge fan-in cut lists under the size limits."""
    if not lists:
        return [frozenset()]
    current = lists[0]
    for nxt in lists[1:]:
        merged: list[frozenset] = []
        for a in current:
            for b in nxt:
                u = a | b
                if len(u) > max_total_leaves:
                    continue
                if ref_cut_size(u, free_leaves) > k:
                    continue
                merged.append(u)
        if not merged:
            return []
        current = ref_prune(merged, limit, rank)
    return current


def ref_enumerate_cuts(
    net: LogicNetwork,
    k: int = 6,
    cut_limit: int = 8,
    *,
    boundary: Collection[int] = (),
    free_leaves: Collection[int] = (),
    rank: Callable[[frozenset], tuple] | None = None,
    max_total_leaves: int | None = None,
) -> dict[int, list[frozenset]]:
    """Enumerate priority cuts for every node of ``net`` (set-based)."""
    if k < 2:
        raise MappingError(f"K must be >= 2, got {k}")
    free = frozenset(free_leaves)
    bset = frozenset(boundary)
    cap = max_total_leaves if max_total_leaves is not None else k + 6
    if rank is None:
        rank = lambda c: (ref_cut_size(c, free), len(c))  # noqa: E731

    cuts: dict[int, list[frozenset]] = {}
    for nid in net.topo_order():
        trivial = frozenset((nid,))
        if net.kind(nid) != NodeKind.GATE or nid in free:
            cuts[nid] = [trivial]
            continue
        fanins = net.fanins(nid)
        if not fanins:  # constant gate
            cuts[nid] = [trivial]
            continue
        if nid in bset:
            cuts[nid] = [trivial]
            continue
        merged = ref_merge_cut_lists(
            [cuts[f] for f in fanins], k, cut_limit, free, rank, cap
        )
        result = [trivial] + [c for c in merged if c != trivial]
        cuts[nid] = ref_prune(result, cut_limit + 1, rank)
        if trivial not in cuts[nid]:
            cuts[nid].append(trivial)
    return cuts


def ref_cone_function(
    net: LogicNetwork, root: int, leaves: tuple[int, ...]
) -> TruthTable:
    """Collapse the cone between ``leaves`` and ``root`` (no memo)."""
    n_vars = len(leaves)
    var_of = {leaf: i for i, leaf in enumerate(leaves)}
    memo: dict[int, TruthTable] = {}

    def build(nid: int) -> TruthTable:
        if nid in var_of:
            return TruthTable.var(var_of[nid], n_vars)
        got = memo.get(nid)
        if got is not None:
            return got
        if net.kind(nid) != NodeKind.GATE:
            raise MappingError(
                f"cone of {net.node_name(root)!r} escapes its cut at "
                f"{net.node_name(nid)!r}"
            )
        func = net.func(nid)
        assert func is not None
        if func.n_vars == 0:
            tt = TruthTable.const(func.bits & 1, n_vars)
        else:
            children = [build(f) for f in net.fanins(nid)]
            tt = func.compose(children, n_vars=n_vars)
        memo[nid] = tt
        return tt

    return build(root)


_INF = float("inf")


class RefPriorityCutMapper:
    """The original set-based priority-cuts mapper, preserved verbatim."""

    name = "ref-priority-cuts"

    def __init__(
        self,
        k: int = 6,
        cut_limit: int = 8,
        area_rounds: int = 2,
        *,
        free_leaves: Collection[int] = (),
        boundary: Collection[int] = (),
        forced_roots: Collection[int] = (),
        macro_nodes: Collection[int] = (),
        max_total_leaves: int | None = None,
    ) -> None:
        if k < 2:
            raise MappingError(f"K must be >= 2, got {k}")
        self.k = k
        self.cut_limit = cut_limit
        self.area_rounds = area_rounds
        self.free = frozenset(free_leaves)
        self.macro_nodes = frozenset(macro_nodes)
        self.boundary = frozenset(boundary) | self.macro_nodes
        self.forced_roots = frozenset(forced_roots)
        self.cap = max_total_leaves if max_total_leaves is not None else k + 6

        self._net: LogicNetwork | None = None
        self._order: list[int] = []
        self._cuts: dict[int, list[frozenset]] = {}
        self._best: dict[int, frozenset] = {}
        self._arrival: dict[int, float] = {}
        self._est_refs: dict[int, float] = {}

    # -- hooks ---------------------------------------------------------------

    def _is_source_like(self, nid: int) -> bool:
        net = self._net
        assert net is not None
        return net.kind(nid) != NodeKind.GATE or nid in self.free

    def _forced_roots(self) -> set[int]:
        return set(self.boundary) | set(self.forced_roots)

    def _handle_special(self, nid: int, result: MappingResult) -> bool:
        return False

    def _special_deps(self, nid: int) -> tuple[int, ...]:
        return ()

    # -- cost functions ------------------------------------------------------

    def _cut_arrival(self, cut: frozenset) -> float:
        arr = 0.0
        for leaf in cut:
            a = self._arrival.get(leaf, 0.0)
            if a > arr:
                arr = a
        return arr + 1.0

    def _cut_area_flow(self, cut: frozenset) -> float:
        af = 1.0
        for leaf in cut:
            if leaf in self.free:
                continue
            laf = self._leaf_af.get(leaf, 0.0)
            refs = max(1.0, self._est_refs.get(leaf, 1.0))
            af += laf / refs
        return af

    def _rank_depth(self, cut: frozenset):
        return (
            self._cut_arrival(cut),
            ref_cut_size(cut, self.free),
            self._cut_area_flow(cut),
        )

    def _rank_area(self, cut: frozenset):
        return (
            self._cut_area_flow(cut),
            self._cut_arrival(cut),
            ref_cut_size(cut, self.free),
        )

    # -- main entry ----------------------------------------------------------

    def map(self, net: LogicNetwork) -> MappingResult:
        self._net = net
        self._order = net.topo_order()
        self._est_refs = {
            nid: float(c) for nid, c in enumerate(net.fanout_counts())
        }
        self._leaf_af: dict[int, float] = {}

        self._forward_pass(depth_mode=True)
        self._target_arrival = dict(self._arrival)
        result = self._cover()

        for _ in range(self.area_rounds):
            required = self._compute_required(result)
            refs = self._cover_refs(result)
            self._est_refs = {
                nid: float(max(1, refs.get(nid, 0))) for nid in net.nodes()
            }
            self._recover_area(required)
            result = self._cover()
        return result

    # -- passes --------------------------------------------------------------

    def _forward_pass(self, depth_mode: bool) -> None:
        net = self._net
        assert net is not None
        self._cuts = {}
        self._best = {}
        self._arrival = {}
        self._leaf_af = {}
        rank = self._rank_depth if depth_mode else self._rank_area

        for nid in self._order:
            trivial = frozenset((nid,))
            if self._is_source_like(nid):
                self._cuts[nid] = [trivial]
                self._arrival[nid] = 0.0
                self._leaf_af[nid] = 0.0
                continue
            fanins = net.fanins(nid)
            if not fanins:
                self._cuts[nid] = [trivial]
                self._best[nid] = frozenset()
                self._arrival[nid] = 0.0
                self._leaf_af[nid] = 1.0
                continue

            if nid in self.macro_nodes:
                direct = frozenset(fanins)
                if ref_cut_size(direct, self.free) > self.k:
                    raise MappingError(
                        f"macro node {net.node_name(nid)!r} exceeds K inputs"
                    )
                merged = [direct]
            else:
                merged = ref_merge_cut_lists(
                    [self._cuts[f] for f in fanins],
                    self.k,
                    self.cut_limit,
                    self.free,
                    rank,
                    self.cap,
                )
                if not merged:
                    direct = frozenset(fanins)
                    if ref_cut_size(direct, self.free) > self.k:
                        raise MappingError(
                            f"node {net.node_name(nid)!r} has unmappable fan-in"
                        )
                    merged = [direct]
            best = min(merged, key=rank)
            self._best[nid] = best
            self._arrival[nid] = self._cut_arrival(best)
            self._leaf_af[nid] = self._cut_area_flow(best)

            if nid in self.boundary:
                visible = [trivial]
            else:
                visible = merged + [trivial]
            self._cuts[nid] = visible

    def _recover_area(self, required: dict[int, float]) -> None:
        net = self._net
        assert net is not None
        for nid in self._order:
            if self._is_source_like(nid) or nid in self.macro_nodes:
                continue
            fanins = net.fanins(nid)
            if not fanins:
                continue
            merged = ref_merge_cut_lists(
                [self._cuts[f] for f in fanins],
                self.k,
                self.cut_limit,
                self.free,
                self._rank_area,
                self.cap,
            )
            prev_best = self._best.get(nid)
            if prev_best is not None and prev_best not in merged:
                merged = merged + [prev_best]
            if not merged:
                continue
            req = required.get(nid, _INF)
            feasible = [c for c in merged if self._cut_arrival(c) <= req]
            if feasible:
                best = min(feasible, key=self._rank_area)
            elif prev_best is not None:
                best = prev_best
            else:
                best = min(merged, key=self._rank_area)
            self._best[nid] = best
            self._arrival[nid] = self._cut_arrival(best)
            self._leaf_af[nid] = self._cut_area_flow(best)
            trivial = frozenset((nid,))
            if nid in self.boundary:
                self._cuts[nid] = [trivial]
            else:
                self._cuts[nid] = merged + [trivial]

    # -- covering ------------------------------------------------------------

    def _roots(self) -> set[int]:
        net = self._net
        assert net is not None
        roots: set[int] = set()
        for po in net.po_names:
            roots.add(net.require(po))
        for latch in net.latches:
            if latch.driver >= 0:
                roots.add(latch.driver)
        roots |= self._forced_roots()
        return {r for r in roots if not self._is_source_like(r)}

    def _cover(self) -> MappingResult:
        net = self._net
        assert net is not None
        result = MappingResult(network=net, k=self.k, params=self.free)
        stack = sorted(self._roots())
        visited: set[int] = set()
        while stack:
            nid = stack.pop()
            if nid in visited or self._is_source_like(nid):
                continue
            visited.add(nid)
            if self._handle_special(nid, result):
                stack.extend(self._special_deps(nid))
                continue
            cut = self._best.get(nid)
            if cut is None:
                raise MappingError(
                    f"no cut chosen for {net.node_name(nid)!r}"
                )
            leaves = tuple(sorted(cut))
            func = ref_cone_function(net, nid, leaves)
            params = tuple(l for l in leaves if l in self.free)
            result.luts[nid] = LutImpl(
                root=nid, leaves=leaves, func=func, param_leaves=params
            )
            stack.extend(l for l in leaves if l not in visited)
        return result

    # -- timing/refs over a cover --------------------------------------------

    def _compute_required(self, result: MappingResult) -> dict[int, float]:
        target = float(result.depth())
        required: dict[int, float] = {}
        for r in self._roots():
            required[r] = self._target_arrival.get(r, target)
        for nid in reversed(self._order):
            if nid not in result.luts:
                continue
            req = required.get(nid, target)
            lut = result.luts[nid]
            for leaf in lut.leaves:
                if self._is_source_like(leaf):
                    continue
                cur = required.get(leaf, _INF)
                required[leaf] = min(cur, req - 1.0)
        return required

    def _cover_refs(self, result: MappingResult) -> dict[int, int]:
        refs: dict[int, int] = {}
        for lut in result.luts.values():
            for leaf in lut.leaves:
                refs[leaf] = refs.get(leaf, 0) + 1
        for t in result.tcons.values():
            for s in (t.source0, t.source1):
                refs[s] = refs.get(s, 0) + 1
        return refs


class RefAbcMap(RefPriorityCutMapper):
    """Reference counterpart of :class:`repro.mapping.abc_map.AbcMap`."""

    name = "ref-abc"
