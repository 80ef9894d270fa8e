"""ABC-style mapper: depth-optimal with area-flow recovery.

Models the "ABC" column of Table I — the priority-cuts mapper of ABC's
``if -K 6`` command as integrated in the VTR flow: a depth-oriented first
pass followed by area-flow recovery rounds that re-choose cuts off the
critical path to minimize shared-logic duplication.
"""

from __future__ import annotations

from typing import Collection

from repro.mapping.mapper_base import PriorityCutMapper

__all__ = ["AbcMap"]


class AbcMap(PriorityCutMapper):
    """Depth-oriented priority-cuts mapping with area-flow recovery."""

    name = "abc"

    def __init__(
        self,
        k: int = 6,
        cut_limit: int = 8,
        area_rounds: int = 2,
        *,
        boundary: Collection[int] = (),
        free_leaves: Collection[int] = (),
        forced_roots: Collection[int] = (),
        macro_nodes: Collection[int] = (),
    ) -> None:
        super().__init__(
            k=k,
            cut_limit=cut_limit,
            area_rounds=area_rounds,
            boundary=boundary,
            free_leaves=free_leaves,
            forced_roots=forced_roots,
            macro_nodes=macro_nodes,
        )
