"""Priority-cut enumeration over flat integer bitsets.

A *cut* of node ``n`` is a set of nodes (leaves) such that every path from
the combinational sources to ``n`` passes through a leaf; the logic between
the leaves and ``n`` (the cone) can then be collapsed into one LUT.  We use
the standard priority-cuts scheme: per node, keep only the ``cut_limit``
best cuts under the active cost mode, merging fan-in cut sets pairwise.

The enumeration is parameter-aware: leaves in ``free_leaves`` (debug
parameters) do not count toward the K-input limit, because parameters are
folded into LUT configuration bits rather than occupying physical pins —
the TLUT mechanism of the paper (§IV-A.3).

**Representation.**  All hot set algebra runs on integer bitmasks: union is
``a | b``, deduplication keys on the mask, subsumption is ``a & b == a``
and physical size is ``(mask & phys_mask).bit_count()``.  The crucial
detail is *which* bit domain.  A mask over global node ids costs
``O(n_nodes/64)`` machine words per operation — on an 8 000-node design
every union touches ~140 words for a 6-leaf cut.  :func:`merge_ranked`
therefore builds a **per-merge local domain**: the union of all fan-in cut
leaves (a few dozen nodes at most) is indexed in first-encounter order, so
every mask fits in one or two machine words and per-leaf costs (arrival,
area-flow contribution, freeness) become flat local arrays.  Only the few
surviving cuts are materialized back to global leaf tuples.

A :class:`Cut` stores its sorted global leaf tuple; the global bitmask is
derived lazily (``.mask``) for the cold paths that want whole-network
subsumption.  The cost slots (``size``/``arr``/``af``/``stamp``) are a
per-pass memo owned by :class:`~repro.mapping.mapper_base.PriorityCutMapper`
(:func:`merge_ranked` fills them for the cuts it builds, under the stamp
the caller supplies).  Cuts still behave as read-only sets (``in``,
``len``, iteration, ``==`` against ``frozenset``), so existing set-based
callers keep working; ``benchmarks/ref_mapping.py`` preserves the
original frozenset implementation the property tests compare against.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Collection, Iterable

from repro.errors import MappingError
from repro.netlist.network import LogicNetwork, NodeKind

_rank_of = itemgetter(0)

__all__ = [
    "Cut",
    "cut_size",
    "leaves_mask",
    "merge_cut_lists",
    "merge_ranked",
    "enumerate_cuts",
]


class Cut:
    """One cut: an immutable leaf set plus mapper-owned cost memo slots."""

    __slots__ = ("leaves", "_mask", "size", "stamp", "arr", "af")

    def __init__(self, leaves: tuple[int, ...], mask: int | None = None):
        self.leaves = leaves
        self._mask = mask
        self.size = -1     # physical leaf count; cached by the mapper
        self.stamp = 0     # pass stamp of the cached costs below
        self.arr = 0.0     # arrival (LUT level) under the stamped pass
        self.af = 0.0      # area flow under the stamped pass

    @classmethod
    def from_leaves(cls, leaves: Iterable[int]) -> "Cut":
        return cls(tuple(sorted(set(leaves))))

    @property
    def mask(self) -> int:
        """Global-domain bitmask over node ids (bit ``i`` = node ``i`` is a
        leaf).  Built lazily: the hot merge path never needs it."""
        m = self._mask
        if m is None:
            m = 0
            for l in self.leaves:
                m |= 1 << l
            self._mask = m
        return m

    # pickling ships only the leaves — cost slots are pass-local state and
    # the global mask is denser to serialize than to rebuild
    def __reduce__(self):
        return (Cut, (self.leaves,))

    # -- read-only set protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.leaves)

    def __iter__(self):
        return iter(self.leaves)

    def __contains__(self, nid: object) -> bool:
        return isinstance(nid, int) and nid >= 0 and (self.mask >> nid) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cut):
            return self.leaves == other.leaves
        if isinstance(other, (frozenset, set)):
            return len(other) == len(self.leaves) and all(
                l in other for l in self.leaves
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.leaves)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cut{self.leaves}"


def leaves_mask(leaves: Iterable[int]) -> int:
    """Global-domain bitmask over node ids for an iterable of leaves."""
    mask = 0
    for l in leaves:
        mask |= 1 << l
    return mask


def _as_cut(c) -> Cut:
    return c if type(c) is Cut else Cut.from_leaves(c)


def cut_size(cut, free_leaves: Collection[int]) -> int:
    """Physical input count of a cut: leaves minus parameter leaves."""
    if not free_leaves:
        return len(cut)
    if type(cut) is Cut and type(free_leaves) is int:
        return (cut.mask & ~free_leaves).bit_count()
    return sum(1 for l in cut if l not in free_leaves)


# -- hot path: local-domain ranked merge ------------------------------------


#: Rank modes understood by :func:`merge_ranked`.  Candidates order by the
#: corresponding tuple (smaller = better): ``depth`` = (arrival, physical
#: size); ``area`` = (area flow, arrival, physical size); ``depth-size`` =
#: (arrival, total leaves) — SimpleMap's structural rank.  Remaining ties
#: break on first occurrence in pair order.  Depth-oriented modes exclude
#: area flow from the rank so the pair loop skips its arithmetic; area
#: recovery is where area flow decides.
RANK_MODES = ("depth", "area", "depth-size")


def merge_ranked(
    lists: list[list[Cut]],
    k: int,
    limit: int,
    cap: int,
    arrival: list[float],
    laf_norm: list[float],
    free: Collection[int],
    rank_mode: str,
    stamp: int,
) -> list[Cut]:
    """Pairwise-merge fan-in cut lists in a per-merge local bit domain.

    ``rank_mode`` (see :data:`RANK_MODES`) orders candidate cuts by their
    arrival, physical size, area flow and total leaf count; per-leaf costs
    come from the flat ``arrival``/``laf_norm`` arrays (indexed by node id;
    ``laf_norm`` is the leaf's area flow already divided by its reference
    estimate, zero for free/source leaves) and the ``free`` parameter set.
    Surviving cuts are returned as :class:`Cut` objects with their cost
    slots filled under ``stamp``, so the caller's ranked choice never
    recomputes them.
    Intermediate results are pruned to ``limit`` after every pairwise merge
    (standard priority-cuts practice: slightly lossy, massively faster than
    the full cross product for 3+ fan-ins).

    Candidate costs compose incrementally from the pair being merged: a
    union's arrival is ``max`` of the parts (exact), and its leaf count,
    physical size and area flow are the sums corrected by the overlap
    (``a & b``), so no candidate ever needs a full leaf walk.

    Cost determinism: arrival composes as a max (order-free); area flow
    composes as ``af(a) + af(b) - 1 - overlap`` with the overlap summed in
    local-index order — every term is fully determined by the order of
    ``lists`` and of the cuts within them, so repeated runs produce
    bit-identical floats.

    With two or more lists the result is sorted by the rank mode (best
    first, first-occurrence tie-break) — callers may take element 0 as the
    ranked choice.  The single-list pass-through keeps the fan-in's own
    (differently-ranked) order.
    """
    if rank_mode not in RANK_MODES:
        raise MappingError(f"unknown rank mode {rank_mode!r}")
    if not lists:
        return [Cut(())]
    if len(lists) == 1:
        # nothing to merge: hand back the fan-in's list (costs left to the
        # caller's lazy per-pass memo, as these objects are shared)
        return lists[0]

    # local leaf table in first-encounter order
    loc: dict[int, int] = {}
    glob: list[int] = []
    for lst in lists:
        for c in lst:
            for leaf in c.leaves:
                if leaf not in loc:
                    loc[leaf] = len(glob)
                    glob.append(leaf)
    n_loc = len(glob)
    phys_local = (1 << n_loc) - 1
    if free:
        for i, leaf in enumerate(glob):
            if leaf in free:
                phys_local ^= 1 << i
    laf = [laf_norm[leaf] for leaf in glob]

    def localize(c: Cut) -> tuple:
        """(mask, arr, size, af, n_leaves) of an input cut.

        Costs are memoized on the cut under ``stamp`` (shared fan-in lists
        are localized by every fan-out, but costed once per pass); the sum
        runs in sorted-leaf order, identical wherever it is first computed.
        """
        m = 0
        if c.stamp == stamp:
            for leaf in c.leaves:
                m |= 1 << loc[leaf]
            return (m, c.arr, c.size, c.af, len(c.leaves))
        arr = 0.0
        af = 1.0
        for leaf in c.leaves:
            m |= 1 << loc[leaf]
            a = arrival[leaf]
            if a > arr:
                arr = a
            af += laf[loc[leaf]]
        size = (m & phys_local).bit_count()
        c.arr = arr + 1.0
        c.size = size
        c.af = af
        c.stamp = stamp
        return (m, c.arr, size, af, len(c.leaves))

    no_free = phys_local == (1 << n_loc) - 1
    by_depth = rank_mode == "depth"
    by_area = rank_mode == "area"

    current = [localize(c) for c in lists[0]]
    if not by_area:
        # depth/depth-size modes rank without area flow, so the pair loop
        # skips the af arithmetic entirely; survivors get their af from the
        # final masks below.  Drop the slot so the loop unpacks 4-tuples.
        current = [(m, arr, size, nl) for m, arr, size, _af, nl in current]
    for nxt in lists[1:]:
        nxt_local = [localize(c) for c in nxt]
        seen: set[int] = set()
        seen_add = seen.add
        merged: list[tuple] = []
        madd = merged.append
        if no_free and cap >= k:
            # Fast loops for the all-physical domain: every leaf counts, so
            # nl == size, the size check subsumes the cap check (unions are
            # at most 2k <= cap+k leaves but must pass size <= k anyway),
            # and depth-size rank (arr, nl) degenerates to depth (arr, size).
            if by_area:
                for am, aarr, asize, aaf, _anl in current:
                    af_a = aaf - 1.0
                    for bm, barr, bsize, baf, _bnl in nxt_local:
                        m = am | bm
                        ov = am & bm
                        if ov:
                            size = asize + bsize - ov.bit_count()
                            if size > k or m in seen:
                                continue
                            seen_add(m)
                            af = af_a + baf
                            while ov:  # subtract double-counted overlap
                                b = ov & -ov
                                af -= laf[b.bit_length() - 1]
                                ov ^= b
                        else:
                            size = asize + bsize
                            if size > k or m in seen:
                                continue
                            seen_add(m)
                            af = af_a + baf
                        arr = aarr if aarr >= barr else barr
                        madd(((af, arr, size), m, arr, size, af, size))
            else:
                for am, aarr, asize, _anl in current:
                    for bm, barr, bsize, _baf, _bnl in nxt_local:
                        m = am | bm
                        size = asize + bsize - (am & bm).bit_count()
                        if size > k or m in seen:
                            continue
                        seen_add(m)
                        arr = aarr if aarr >= barr else barr
                        madd(((arr, size), m, arr, size, size))
        elif by_area:
            for am, aarr, asize, aaf, anl in current:
                cap_a = cap - anl
                k_a = k - asize
                af_a = aaf - 1.0
                for bm, barr, bsize, baf, bnl in nxt_local:
                    m = am | bm
                    if m in seen:
                        continue
                    seen_add(m)
                    ov = am & bm
                    if ov:
                        ovc = ov.bit_count()
                        nl = anl + bnl - ovc
                        if bnl - ovc > cap_a:
                            continue
                        if no_free:
                            size = nl
                            if bsize - ovc > k_a:
                                continue
                        else:
                            size = asize + bsize - (ov & phys_local).bit_count()
                            if size > k:
                                continue
                        af = af_a + baf
                        while ov:  # subtract double-counted overlap leaves
                            b = ov & -ov
                            af -= laf[b.bit_length() - 1]
                            ov ^= b
                    else:
                        if bnl > cap_a:
                            continue
                        nl = anl + bnl
                        if bsize > k_a:
                            continue
                        size = asize + bsize
                        af = af_a + baf
                    arr = aarr if aarr >= barr else barr
                    madd(((af, arr, size), m, arr, size, af, nl))
        else:
            for am, aarr, asize, anl in current:
                cap_a = cap - anl
                k_a = k - asize
                for bm, barr, bsize, _baf, bnl in nxt_local:
                    m = am | bm
                    if m in seen:
                        continue
                    seen_add(m)
                    ov = am & bm
                    if ov:
                        ovc = ov.bit_count()
                        nl = anl + bnl - ovc
                        if bnl - ovc > cap_a:
                            continue
                        if no_free:
                            size = nl
                            if bsize - ovc > k_a:
                                continue
                        else:
                            size = asize + bsize - (ov & phys_local).bit_count()
                            if size > k:
                                continue
                    else:
                        if bnl > cap_a:
                            continue
                        nl = anl + bnl
                        if bsize > k_a:
                            continue
                        size = asize + bsize
                    arr = aarr if aarr >= barr else barr
                    if by_depth:
                        madd(((arr, size), m, arr, size, nl))
                    else:
                        madd(((arr, nl), m, arr, size, nl))
        if not merged:
            return []
        # prune: stable sort on the precomputed rank keeps first-occurrence
        # order on ties, then drop cuts dominated by an already-kept subset
        merged.sort(key=_rank_of)
        kept: list[tuple] = []
        kept_masks: list[int] = []
        for cand in merged:
            m = cand[1]
            for km in kept_masks:
                if km & m == km:
                    break
            else:
                kept.append(cand)
                kept_masks.append(m)
                if len(kept) >= limit:
                    break
        current = [cand[1:] for cand in kept]

    out: list[Cut] = []
    if by_area:
        for m, arr, size, af, _nl in current:
            leaves = []
            mm = m
            while mm:
                b = mm & -mm
                leaves.append(glob[b.bit_length() - 1])
                mm ^= b
            c = Cut(tuple(sorted(leaves)))
            c.arr = arr
            c.size = size
            c.af = af
            c.stamp = stamp
            out.append(c)
    else:
        for m, arr, size, _nl in current:
            leaves = []
            af = 1.0
            mm = m
            while mm:
                b = mm & -mm
                i = b.bit_length() - 1
                leaves.append(glob[i])
                af += laf[i]
                mm ^= b
            c = Cut(tuple(sorted(leaves)))
            c.arr = arr
            c.size = size
            c.af = af
            c.stamp = stamp
            out.append(c)
    return out


# -- compatibility path: global-domain merge over explicit rank --------------


def _prune(
    cuts: list[Cut],
    limit: int,
    rank: Callable[[Cut], tuple],
) -> list[Cut]:
    """Dedup, drop dominated cuts, keep the ``limit`` best by ``rank``.

    Leaf-keyed dedup preserves first occurrence and the sort is stable, so
    tie-breaking matches the set-based reference exactly.
    """
    seen: dict[tuple[int, ...], Cut] = {}
    for c in cuts:
        if c.leaves not in seen:
            seen[c.leaves] = c
    uniq = list(seen.values())
    uniq.sort(key=rank)
    kept: list[Cut] = []
    kept_masks: list[int] = []
    for c in uniq:
        cm = c.mask
        dominated = False
        for km in kept_masks:
            if km & cm == km:  # an existing cut with a subset of leaves wins
                dominated = True
                break
        if not dominated:
            kept.append(c)
            kept_masks.append(cm)
            if len(kept) >= limit:
                break
    return kept


def _merge_masked(
    lists: list[list[Cut]],
    k: int,
    limit: int,
    free_mask: int,
    rank: Callable[[Cut], tuple],
    cap: int,
) -> list[Cut]:
    """Pairwise-merge fan-in cut lists under the size limits (global masks).

    Serves callers with an arbitrary :class:`Cut`-valued ``rank`` (the
    standalone :func:`enumerate_cuts` and :func:`merge_cut_lists` API);
    the mapper's hot path uses :func:`merge_ranked` instead.
    """
    if not lists:
        return [Cut(())]
    current = lists[0]
    for nxt in lists[1:]:
        merged: list[Cut] = []
        seen: set[int] = set()
        for a in current:
            am = a.mask
            for b in nxt:
                m = am | b.mask
                if m in seen:
                    continue
                seen.add(m)
                if m.bit_count() > cap:
                    continue
                if (m & ~free_mask).bit_count() > k:
                    continue
                if m == am:
                    merged.append(a)
                elif m == b.mask:
                    merged.append(b)
                else:
                    merged.append(
                        Cut(tuple(sorted({*a.leaves, *b.leaves})), m)
                    )
        if not merged:
            return []
        current = _prune(merged, limit, rank)
    return current


def merge_cut_lists(
    lists: list[list],
    k: int,
    limit: int,
    free_leaves: Collection[int],
    rank: Callable[[Cut], tuple],
    max_total_leaves: int,
) -> list[Cut]:
    """Pairwise-merge fan-in cut lists under the size limits.

    Accepts cuts as :class:`Cut` objects or as plain ``frozenset`` leaf
    sets (normalized on entry); ``rank`` sees :class:`Cut` objects, which
    support ``len``/iteration like the sets they replace.
    """
    norm = [
        lst if all(type(c) is Cut for c in lst)
        else [_as_cut(c) for c in lst]
        for lst in lists
    ]
    return _merge_masked(
        norm, k, limit, leaves_mask(free_leaves), rank, max_total_leaves
    )


def enumerate_cuts(
    net: LogicNetwork,
    k: int = 6,
    cut_limit: int = 8,
    *,
    boundary: Collection[int] = (),
    free_leaves: Collection[int] = (),
    rank: Callable[[Cut], tuple] | None = None,
    max_total_leaves: int | None = None,
) -> dict[int, list[Cut]]:
    """Enumerate priority cuts for every node of ``net``.

    Parameters
    ----------
    boundary:
        Nodes that expose only their trivial cut to fan-outs (mapping may
        not absorb through them) — used for observability constraints.
    free_leaves:
        Parameter nodes that don't count toward ``k``.
    rank:
        Cut ranking (smaller = better); default ranks by physical size.
    max_total_leaves:
        Hard cap on total leaves (including free ones) to bound truth-table
        width; defaults to ``k + 6``.

    Returns the *fan-out-visible* cut lists (trivial cut always included).
    """
    if k < 2:
        raise MappingError(f"K must be >= 2, got {k}")
    free = frozenset(free_leaves)
    free_mask = leaves_mask(free)
    bset = frozenset(boundary)
    cap = max_total_leaves if max_total_leaves is not None else k + 6
    if rank is None:
        rank = lambda c: (  # noqa: E731
            (c.mask & ~free_mask).bit_count(), len(c.leaves)
        )

    # preallocated per-node cut array, indexed by dense node id
    cuts: list[list[Cut] | None] = [None] * net.n_nodes
    order = net.topo_order()
    for nid in order:
        trivial = Cut((nid,), 1 << nid)
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
        merged = _merge_masked(
            [cuts[f] for f in fanins], k, cut_limit, free_mask, rank, cap
        )
        result = [trivial] + [c for c in merged if c.leaves != trivial.leaves]
        pruned = _prune(result, cut_limit + 1, rank)
        if all(c.leaves != trivial.leaves for c in pruned):
            pruned.append(trivial)
        cuts[nid] = pruned
    return {nid: cuts[nid] for nid in order}
