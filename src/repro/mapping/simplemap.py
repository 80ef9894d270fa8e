"""SimpleMap: a structural, depth-oriented mapper without area recovery.

This models the "SM (SimpleMap)" conventional mapper of the paper's Table I:
cuts are chosen purely for depth (ties broken on cut size), no area-flow
recovery rounds run, and duplication along reconvergent paths is accepted.
On fan-out-heavy instrumented netlists this inflates area noticeably —
exactly the behaviour the paper's comparison relies on.
"""

from __future__ import annotations

from typing import Collection

from repro.mapping.mapper_base import PriorityCutMapper
from repro.mapping.cuts import Cut, cut_size

__all__ = ["SimpleMap"]


class SimpleMap(PriorityCutMapper):
    """Depth-only structural mapper (no area recovery)."""

    name = "simplemap"

    def __init__(
        self,
        k: int = 6,
        cut_limit: int = 6,
        *,
        boundary: Collection[int] = (),
        free_leaves: Collection[int] = (),
        forced_roots: Collection[int] = (),
        macro_nodes: Collection[int] = (),
    ) -> None:
        super().__init__(
            k=k,
            cut_limit=cut_limit,
            area_rounds=0,
            boundary=boundary,
            free_leaves=free_leaves,
            forced_roots=forced_roots,
            macro_nodes=macro_nodes,
        )

    def _rank_depth(self, cut: Cut):
        # Structural mapping ignores area flow entirely: depth, then the
        # *smallest* cut wins ties.  Small cuts keep the priority lists
        # depth-accurate but fragment the cover into many LUTs — the
        # no-area-recovery behaviour the SM column exhibits in the paper.
        return (self._cut_arrival(cut), len(cut))

    def _merge_rank_mode(self, depth_mode: bool) -> str:
        return "depth-size" if depth_mode else "area"
