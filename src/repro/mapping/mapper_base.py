"""Generic priority-cuts technology mapper (flat bitset engine).

:class:`PriorityCutMapper` implements the classical two-phase scheme:

1. **Forward pass** — enumerate priority cuts per node in topological order,
   tracking arrival times (LUT levels); choose a depth-optimal cut per node.
2. **Area recovery** (optional, ``area_rounds`` > 0) — compute per-node
   required times and reference counts from the current cover, then
   re-choose cuts minimizing area flow wherever slack permits, and re-cover.
3. **Covering** — walk from the required roots (PO drivers, latch drivers,
   observability boundaries) emitting one :class:`LutImpl` per needed node.

Subclasses configure ranking (SimpleMap ranks by depth only; AbcMap adds
area flow and recovery rounds) and may override node handling (TconMap
diverts parameter-muxes to TCONs).

Observability boundaries: node ids in ``boundary`` expose only their trivial
cut to fan-outs, so no downstream LUT can absorb them — this models debug
flows in which an instrumented signal must remain physically present.

**Engine notes.**  Per-run state lives in flat lists indexed by the dense
node id (cut arrays, arrivals, area flows, reference estimates); cut leaf
sets are integer bitmasks (see :mod:`repro.mapping.cuts`).  Cut costs are
memoized on the cut object under a per-pass stamp: within one forward or
recovery pass a cut's leaf values are final before any fan-out ranks it
(leaves precede users in topological order), so arrival and area flow are
computed once per cut per pass instead of once per ranking.  Cone truth
tables are memoized per ``(root, leaves)`` for the whole ``map()`` run —
the depth cover, every recovery cover and TconMap's TLUT emission reuse
them — and the underlying ``compose`` calls are value-cached process-wide,
so re-mapping after a parameterisation change reuses unchanged cut
functions.  The chosen mapping is a pure function of the network and the
mapper configuration.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection

from repro.errors import MappingError
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.truthtable import TruthTable
from repro.mapping.cuts import Cut, merge_ranked
from repro.mapping.result import LutImpl, MappingResult

__all__ = ["PriorityCutMapper", "cone_function"]

_INF = float("inf")


@lru_cache(maxsize=4096)
def _compose_cached(
    func: TruthTable, children: tuple[TruthTable, ...], n_vars: int
) -> TruthTable:
    """Value-keyed compose cache shared by every cone collapse in the
    process.  Truth tables hash by content, so structurally identical
    cones hit regardless of which network (or which stage run) asks."""
    return func.compose(children, n_vars=n_vars)


def cone_function(
    net: LogicNetwork, root: int, leaves: tuple[int, ...]
) -> TruthTable:
    """Collapse the cone between ``leaves`` and ``root`` into one function.

    Variable ``i`` of the result corresponds to ``leaves[i]``.  Raises
    :class:`MappingError` if the cone escapes the leaf set (i.e. ``leaves``
    is not actually a cut of ``root``).
    """
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
            children = tuple(build(f) for f in net.fanins(nid))
            tt = _compose_cached(func, children, n_vars)
        memo[nid] = tt
        return tt

    return build(root)


class PriorityCutMapper:
    """Configurable priority-cuts LUT mapper.

    Parameters
    ----------
    k:
        LUT input count (physical pins).
    cut_limit:
        Priority cuts kept per node.
    area_rounds:
        Area-flow recovery rounds after the depth-oriented pass.
    free_leaves:
        Parameter node ids that do not count toward ``k`` (TLUT folding).
    boundary:
        Observability boundaries (see module docstring).
    max_total_leaves:
        Cap on total cut leaves including free ones (truth-table width).
    """

    name = "priority-cuts"

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
        # macro nodes (pre-synthesized debug cores) are both boundaries and
        # pinned to their structural 1:1 implementation
        self.macro_nodes = frozenset(macro_nodes)
        self.boundary = frozenset(boundary) | self.macro_nodes
        # forced roots: signals that must exist physically (observability),
        # yet may still be duplicated into readers' cones
        self.forced_roots = frozenset(forced_roots)
        self.cap = max_total_leaves if max_total_leaves is not None else k + 6

        # per-run state (flat arrays indexed by dense node id)
        self._net: LogicNetwork | None = None
        self._order: list[int] = []
        self._gate_order: list[int] = []
        self._trivial_order: list[int] = []
        self._recover_order: list[int] = []
        self._cuts: list[list[Cut] | None] = []
        self._best: list[Cut | None] = []
        self._arrival: list[float] = []
        self._leaf_af: list[float] = []
        self._laf_norm: list[float] = []
        self._est_refs: list[float] = []
        self._stamp = 0
        self._cone_cache: dict[tuple[int, tuple[int, ...]], TruthTable] = {}
        self._lut_memo: dict[int, LutImpl] = {}

    # -- hooks for subclasses ------------------------------------------------

    def _is_source_like(self, nid: int) -> bool:
        """Nodes treated as mapping inputs (no LUT emitted)."""
        net = self._net
        assert net is not None
        return net.kind(nid) != NodeKind.GATE or nid in self.free

    def _forced_roots(self) -> set[int]:
        """Extra nodes that must appear as LUT roots besides POs/latches."""
        return set(self.boundary) | set(self.forced_roots)

    def _handle_special(self, nid: int, result: MappingResult) -> bool:
        """Covering hook: return True if the node was emitted specially
        (e.g. as a TCON) and its own dependencies were pushed by the caller
        via :meth:`_special_deps`."""
        return False

    def _special_deps(self, nid: int) -> tuple[int, ...]:
        return ()

    # -- cost functions ---------------------------------------------------------

    def _compute_costs(self, cut: Cut) -> Cut:
        """Arrival/area-flow/size of ``cut``, memoized per pass stamp.

        Safe because leaves precede every user of a cut in topological
        order: by the time any node ranks the cut, all of its leaves'
        values are final for the running pass.  Cuts built by
        :func:`~repro.mapping.cuts.merge_ranked` arrive pre-stamped; this
        lazy path serves the rest (trivial cuts, direct-fan-in fallbacks,
        single-fan-in pass-throughs, previous-pass bests).
        """
        if cut.stamp == self._stamp:
            return cut
        free = self.free
        arrival = self._arrival
        laf_norm = self._laf_norm
        arr = 0.0
        af = 1.0
        size = 0
        for leaf in cut.leaves:
            a = arrival[leaf]
            if a > arr:
                arr = a
            if leaf in free:
                continue
            size += 1
            af += laf_norm[leaf]
        cut.arr = arr + 1.0
        cut.af = af
        cut.size = size
        cut.stamp = self._stamp
        return cut

    def _cut_arrival(self, cut: Cut) -> float:
        return self._compute_costs(cut).arr

    def _cut_area_flow(self, cut: Cut) -> float:
        return self._compute_costs(cut).af

    def _rank_depth(self, cut: Cut):
        c = self._compute_costs(cut)
        return (c.arr, c.size, c.af)

    def _rank_area(self, cut: Cut):
        c = self._compute_costs(cut)
        return (c.af, c.arr, c.size)

    # merge_ranked-mode counterparts of the Cut-based ranks above; a
    # subclass overriding _rank_depth/_rank_area must keep this mapping
    # consistent (see cuts.RANK_MODES) so in-merge pruning and the final
    # ranked choice order cuts the same way.  The multi-fan-in best comes
    # straight off the sorted merge output, so the merge's rank mode IS
    # the pass's rank there; the Cut-based ranks serve the single-fan-in
    # pass-through and fallback paths.
    def _merge_rank_mode(self, depth_mode: bool) -> str:
        return "depth" if depth_mode else "area"

    def _merge_fanins(self, fanins, depth_mode: bool) -> list[Cut]:
        return merge_ranked(
            [self._cuts[f] for f in fanins],
            self.k,
            self.cut_limit,
            self.cap,
            self._arrival,
            self._laf_norm,
            self.free,
            self._merge_rank_mode(depth_mode),
            self._stamp,
        )

    def _direct_cut(self, fanins) -> Cut | None:
        """The structural 1:1 cut, or None if it exceeds K physical pins."""
        direct = Cut.from_leaves(fanins)
        if sum(1 for l in direct.leaves if l not in self.free) > self.k:
            return None
        return direct

    # -- main entry -------------------------------------------------------------

    def map(self, net: LogicNetwork) -> MappingResult:
        """Map ``net``; returns a verified-structure :class:`MappingResult`."""
        self._net = net
        self._order = net.topo_order()
        self._est_refs = [float(c) for c in net.fanout_counts()]
        self._leaf_af = [0.0] * net.n_nodes
        self._cone_cache = {}
        self._lut_memo = {}
        # split the topological order once: every pass walks the same
        # gate/trivial partition, so the kind checks run once per map()
        self._gate_order = []
        self._trivial_order = []
        for nid in self._order:
            if self._is_source_like(nid) or not net.fanins(nid):
                self._trivial_order.append(nid)
            else:
                self._gate_order.append(nid)
        self._recover_order = [
            nid for nid in self._gate_order if nid not in self.macro_nodes
        ]

        self._forward_pass(depth_mode=True)
        # depth-optimal arrivals anchor the required times of every later
        # area-recovery round, so recovery can never worsen any root's depth
        self._target_arrival = list(self._arrival)
        result = self._cover()

        for rnd in range(self.area_rounds):
            required = self._compute_required(result)
            refs = self._cover_refs(result)
            self._est_refs = [
                float(max(1, refs.get(nid, 0))) for nid in range(net.n_nodes)
            ]
            # new reference counts re-normalize every leaf's area flow,
            # including nodes the recovery pass skips (sources, macros)
            self._laf_norm = [
                af / (r if r > 1.0 else 1.0)
                for af, r in zip(self._leaf_af, self._est_refs)
            ]
            # Hybrid recovery: the first round re-merges cuts under the
            # area rank (fresh area-oriented candidates); later rounds only
            # re-select among each node's stored priority cuts under the
            # updated reference counts.  Re-merging every round buys ~no
            # further area (<0.3% on the paper suite) at ~2x the runtime.
            self._recover_area(required, remerge=(rnd == 0))
            result = self._cover()
        return result

    # -- per-node kernels ----------------------------------------------------
    #
    # Each is a pure function of the committed fan-in state.

    def _enumerate_node(self, nid: int, depth_mode: bool) -> tuple[Cut, list[Cut]]:
        """Forward-pass cut choice for one gate node: ``(best, visible)``."""
        net = self._net
        assert net is not None
        fanins = net.fanins(nid)
        rank = self._rank_depth if depth_mode else self._rank_area
        if nid in self.macro_nodes:
            # pre-synthesized macros keep their structural 1:1 shape
            direct = self._direct_cut(fanins)
            if direct is None:
                raise MappingError(
                    f"macro node {net.node_name(nid)!r} exceeds K inputs"
                )
            merged = [direct]
        else:
            merged = self._merge_fanins(fanins, depth_mode)
            if not merged:
                # fall back: direct fan-in cut (always legal for fanin<=k)
                direct = self._direct_cut(fanins)
                if direct is None:
                    raise MappingError(
                        f"node {net.node_name(nid)!r} has unmappable fan-in"
                    )
                merged = [direct]
        if len(fanins) >= 2 and len(merged) > 1:
            # merge_ranked sorts multi-list output by this pass's rank mode
            # (first-occurrence ties, same as min()), so element 0 is the
            # ranked choice.  Single-fan-in pass-throughs keep the fan-in's
            # own order and still need the explicit min().
            best = merged[0]
        else:
            best = min(merged, key=rank)
        if nid in self.boundary:
            visible = [Cut((nid,))]
        else:
            visible = merged + [Cut((nid,))]
        return best, visible

    def _recover_node(
        self, nid: int, req: float
    ) -> tuple[Cut, list[Cut]] | None:
        """Area-recovery cut choice for one gate node, or ``None`` to keep
        the node's current choice untouched."""
        net = self._net
        assert net is not None
        fanins = net.fanins(nid)
        merged = self._merge_fanins(fanins, depth_mode=False)
        prev_best = self._best[nid]
        prev_appended = prev_best is not None and all(
            c.leaves != prev_best.leaves for c in merged
        )
        if prev_appended:
            merged = merged + [prev_best]
        if not merged:
            return None
        if len(fanins) >= 2:
            # The merge output is sorted by the area rank, so the first
            # element meeting the deadline is the feasible minimum; the
            # appended previous best sits past the sorted prefix and —
            # like min() keeping the earlier element on ties — only wins
            # with a strictly better rank.
            best = None
            scan = merged[:-1] if prev_appended else merged
            for c in scan:
                if self._compute_costs(c).arr <= req:
                    best = c
                    break
            if prev_appended and self._compute_costs(prev_best).arr <= req:
                if best is None or self._rank_area(prev_best) < self._rank_area(
                    best
                ):
                    best = prev_best
            if best is None:
                # No cut meets the deadline (area pruning lost the fast
                # ones): keep the previous depth-optimal choice so
                # recovery can never worsen the mapping's depth.
                best = prev_best if prev_best is not None else merged[0]
        else:
            feasible = [
                c for c in merged if self._compute_costs(c).arr <= req
            ]
            if feasible:
                best = min(feasible, key=self._rank_area)
            elif prev_best is not None:
                best = prev_best
            else:
                best = min(merged, key=self._rank_area)
        if nid in self.boundary:
            visible = [Cut((nid,))]
        else:
            visible = merged + [Cut((nid,))]
        return best, visible

    def _commit_node(self, nid: int, best: Cut, visible: list[Cut]) -> None:
        c = self._compute_costs(best)
        refs = self._est_refs[nid]
        self._best[nid] = best
        self._arrival[nid] = c.arr
        self._leaf_af[nid] = c.af
        self._laf_norm[nid] = c.af / (refs if refs > 1.0 else 1.0)
        self._cuts[nid] = visible

    def _commit_trivial(self, nid: int) -> None:
        """Source-like or constant node: trivial cut, no enumeration."""
        self._cuts[nid] = [Cut((nid,))]
        if self._is_source_like(nid):
            self._arrival[nid] = 0.0
            self._leaf_af[nid] = 0.0
            self._laf_norm[nid] = 0.0
        else:  # constant gate: a 0-input LUT
            refs = self._est_refs[nid]
            self._best[nid] = Cut(())
            self._arrival[nid] = 0.0
            self._leaf_af[nid] = 1.0
            self._laf_norm[nid] = 1.0 / (refs if refs > 1.0 else 1.0)

    # -- passes -----------------------------------------------------------------

    def _forward_pass(self, depth_mode: bool) -> None:
        net = self._net
        assert net is not None
        n = net.n_nodes
        self._cuts = [None] * n
        self._best = [None] * n
        self._arrival = [0.0] * n
        self._leaf_af = [0.0] * n
        self._laf_norm = [0.0] * n
        self._stamp += 1
        for nid in self._trivial_order:
            self._commit_trivial(nid)
        for nid in self._gate_order:
            best, visible = self._enumerate_node(nid, depth_mode)
            self._commit_node(nid, best, visible)

    def _recover_area(
        self, required: dict[int, float], remerge: bool = True
    ) -> None:
        """Re-choose cuts minimizing area flow where timing slack permits.

        ``remerge=True`` re-enumerates cuts under the area rank mode;
        ``remerge=False`` only re-selects among each node's stored priority
        cuts (cheap: no merging), which is what later hybrid rounds run.
        """
        net = self._net
        assert net is not None
        self._stamp += 1
        if remerge:
            for nid in self._recover_order:
                out = self._recover_node(nid, required.get(nid, _INF))
                if out is not None:
                    self._commit_node(nid, *out)
            return
        for nid in self._recover_order:
            best = self._reselect_node(nid, required.get(nid, _INF))
            if best is not None:
                self._commit_node(nid, best, self._cuts[nid])

    def _reselect_node(self, nid: int, req: float) -> Cut | None:
        """Pick the best stored cut under current reference counts.

        Candidates are the node's priority cuts from the last enumerating
        pass (minus its own trivial cut, which cannot implement it) plus
        the current best; no new cuts are merged.
        """
        cands = [c for c in self._cuts[nid] if c.leaves != (nid,)]
        prev_best = self._best[nid]
        if prev_best is not None and all(
            c.leaves != prev_best.leaves for c in cands
        ):
            cands = cands + [prev_best]
        if not cands:
            return None
        feasible = [c for c in cands if self._compute_costs(c).arr <= req]
        if feasible:
            return min(feasible, key=self._rank_area)
        if prev_best is not None:
            return prev_best
        return min(cands, key=self._rank_area)

    # -- covering ----------------------------------------------------------------

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

    def _cone(self, root: int, leaves: tuple[int, ...]) -> TruthTable:
        """Per-run memo over :func:`cone_function` — the depth cover, every
        recovery cover and the TLUT path reuse unchanged cut functions."""
        key = (root, leaves)
        got = self._cone_cache.get(key)
        if got is None:
            assert self._net is not None
            got = cone_function(self._net, root, leaves)
            self._cone_cache[key] = got
        return got

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
            cut = self._best[nid]
            if cut is None:
                raise MappingError(
                    f"no cut chosen for {net.node_name(nid)!r}"
                )
            leaves = cut.leaves
            lut = self._lut_memo.get(nid)
            if lut is None or lut.leaves != leaves:
                # LutImpl is frozen, so covers may share instances; the
                # depth cover and every recovery cover mostly re-emit the
                # same (root, cut) pairs
                func = self._cone(nid, leaves)
                params = tuple(l for l in leaves if l in self.free)
                lut = LutImpl(
                    root=nid, leaves=leaves, func=func, param_leaves=params
                )
                self._lut_memo[nid] = lut
            result.luts[nid] = lut
            stack.extend(l for l in leaves if l not in visited)
        return result

    # -- timing/refs over a cover -----------------------------------------------

    def _compute_required(self, result: MappingResult) -> dict[int, float]:
        """Required times: every root pinned to its depth-optimal arrival."""
        target = float(result.depth())
        required: dict[int, float] = {}
        for r in self._roots():
            required[r] = self._target_arrival[r]
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
        """How many LUTs of the current cover reference each node."""
        refs: dict[int, int] = {}
        for lut in result.luts.values():
            for leaf in lut.leaves:
                refs[leaf] = refs.get(leaf, 0) + 1
        for t in result.tcons.values():
            for s in (t.source0, t.source1):
                refs[s] = refs.get(s, 0) + 1
        return refs
