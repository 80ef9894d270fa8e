"""Vectorized numpy execution backend for compiled programs.

The python backend of :mod:`repro.netlist.compiled` evaluates each op as
big-int arithmetic — per-step cost is dominated by interpreter dispatch
(one bytecode sequence per literal), nearly flat in ``n_words``.  This
module lowers the *same* topo-ordered op list onto whole-array numpy
kernels over a dense ``uint64`` state matrix, so the per-op dispatch is
amortized across every word: at 512+ lanes the per-cycle cost drops well
below the big-int kernel's (``benchmarks/bench_kernels.py`` pins the
floor), and lane widths of 1024+ stop being interpreter-bound.

Lowering (:func:`build_plan`)
-----------------------------
State is one ``(2 * n_nodes + 2, n_words)`` matrix: row ``i`` holds node
*i*'s value, row ``n + i`` its complement (maintained only for nodes some
literal reads inverted, so inverted literals are plain row gathers — no
per-literal XOR pass), plus an all-ones and an all-zeros row that
normalize tautology cubes and empty covers into ordinary gathers.

Ops are grouped by logic level.  Within a level the AND stage sorts cubes
by literal count (descending) and lays literals out *position-major*:
one ``np.take`` gathers every literal row of the level, then position
*j*'s block ANDs into the accumulator's *prefix* of cubes still holding
``> j`` literals — exact literal counts, no padding, every operand
contiguous.  One permutation scatter drops the cube values into OR
layout (position-major by op, ops sorted by cube count descending), and
the OR stage runs the same prefix trick over cube positions.  Per level
that is ``1`` gather + ``K-1`` ANDs + ``1`` scatter + ``M-1`` ORs + the
output scatters, independent of op count.

Cycle batching (:class:`VectorState` with ``n_words > engine words``)
---------------------------------------------------------------------
The simulator evaluates *blocks* of ``C`` cycles as one extra-wide pass
(cycle *c* occupies word columns ``[c * NW, (c+1) * NW)``), amortizing
gather and dispatch overhead ``C``-fold.  Combinational cycles are
independent; a sequential program's later cycles are fed recorded latch
states that :class:`~repro.netlist.compiled.CompiledSimulator` checks
after the pass (the prediction and its check sit above this module, so
both backends batch sequential programs the same way).

All buffers (state, per-level literal/cube/complement scratch) are
allocated once at construction; the clean evaluation path performs zero
per-cycle allocation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VectorPlan", "VectorState", "build_plan", "plan_for"]


class _Level:
    """One logic level's precomputed index arrays (see module docs)."""

    __slots__ = (
        "src",
        "kcounts",
        "perm",
        "mcounts",
        "n_cubes",
        "n_ops",
        "out_nodes",
        "inv_sel",
        "inv_rows",
    )

    def __init__(self, src, kcounts, perm, mcounts, n_cubes, n_ops,
                 out_nodes, inv_sel, inv_rows):
        self.src = src
        self.kcounts = kcounts
        self.perm = perm
        self.mcounts = mcounts
        self.n_cubes = n_cubes
        self.n_ops = n_ops
        self.out_nodes = out_nodes
        self.inv_sel = inv_sel
        self.inv_rows = inv_rows


class VectorPlan:
    """A compiled program lowered to per-level numpy index arrays.

    Width-independent: one plan serves every :class:`VectorState` width
    (per-cycle and cycle-batched alike).  Cached per program by
    :func:`plan_for`.
    """

    def __init__(self, program) -> None:
        n = program.n_nodes
        self.program = program
        self.n_nodes = n
        self.ones_row = 2 * n
        self.zeros_row = 2 * n + 1
        self.n_state_rows = 2 * n + 2

        needs_inv = np.zeros(n, dtype=bool)
        for _node, fanins, cubes in program.ops:
            for cmask, cpol in cubes:
                for pos, src in enumerate(fanins):
                    if (cmask >> pos) & 1 and not ((cpol >> pos) & 1):
                        needs_inv[src] = True
        self.needs_inv = needs_inv

        # group ops by logic level (sources/consts are level 0)
        level = [0] * n
        by_level: dict[int, list] = {}
        self.op_level: dict[int, int] = {}
        for node, fanins, cubes in program.ops:
            lv = 1 + max((level[f] for f in fanins), default=0)
            level[node] = lv
            cube_lits = []
            for cmask, cpol in cubes:
                lits = [
                    src + (0 if (cpol >> pos) & 1 else n)
                    for pos, src in enumerate(fanins)
                    if (cmask >> pos) & 1
                ]
                # tautology cube → gather the all-ones row
                cube_lits.append(lits or [self.ones_row])
            if not cube_lits:  # empty cover (constant 0, defensively)
                cube_lits = [[self.zeros_row]]
            by_level.setdefault(lv, []).append((node, cube_lits))

        self.levels: list[_Level] = []
        for lv in sorted(by_level):
            ops = by_level[lv]
            for node, _ in ops:
                self.op_level[node] = len(self.levels)
            self.levels.append(self._lower_level(ops, needs_inv))

    def _lower_level(self, ops, needs_inv) -> _Level:
        n = self.n_nodes
        # OR layout: ops sorted by cube count desc, cubes position-major
        # by op so the OR stage reduces over exact prefixes
        ops.sort(key=lambda t: -len(t[1]))
        n_ops = len(ops)
        out_nodes = np.array([node for node, _ in ops], dtype=np.intp)
        mcounts = []
        j = 0
        while True:
            c = sum(1 for _, cl in ops if len(cl) > j)
            if c == 0:
                break
            mcounts.append(c)
            j += 1
        oroff = [0]
        for c in mcounts:
            oroff.append(oroff[-1] + c)
        n_cubes = oroff[-1]

        # AND layout: cubes sorted by literal count desc, literals
        # position-major so the AND stage reduces over exact prefixes
        cubes = []  # (k, or_slot, lit_rows)
        for i, (_node, cube_lits) in enumerate(ops):
            for j, lits in enumerate(cube_lits):
                cubes.append((len(lits), oroff[j] + i, lits))
        cubes.sort(key=lambda t: -t[0])
        kcounts = []
        j = 0
        while True:
            c = sum(1 for k, _, _ in cubes if k > j)
            if c == 0:
                break
            kcounts.append(c)
            j += 1
        src = [
            lits[j]
            for j in range(len(kcounts))
            for k, _, lits in cubes
            if k > j
        ]
        inv_sel = np.array(
            [i for i, (node, _) in enumerate(ops) if needs_inv[node]],
            dtype=np.intp,
        )
        return _Level(
            src=np.array(src, dtype=np.intp),
            kcounts=tuple(kcounts),
            perm=np.array([slot for _, slot, _ in cubes], dtype=np.intp),
            mcounts=tuple(mcounts),
            n_cubes=n_cubes,
            n_ops=n_ops,
            out_nodes=out_nodes,
            inv_sel=inv_sel,
            inv_rows=out_nodes[inv_sel] + n,
        )


def build_plan(program) -> VectorPlan:
    """Lower ``program`` into a :class:`VectorPlan` (uncached)."""
    return VectorPlan(program)


def plan_for(program) -> VectorPlan:
    """The (cached) vector plan of a compiled program.

    Cached on the program object the way generated python kernels are —
    dropped on pickling (plans rebuild from the op list in one pass) and
    never shared across structural signatures, so an in-place rewire that
    recompiles the program can never be served a stale plan.
    """
    plan = getattr(program, "_vector_plan", None)
    if plan is None:
        plan = build_plan(program)
        program._vector_plan = plan
    return plan


class VectorState:
    """Dense evaluation state + scratch buffers for one word width.

    ``eval_levels`` runs one combinational settle over the full state
    width with zero allocation.  ``fixups`` optionally carries gate-level
    override blends, grouped by level index: each entry is applied right
    after its level's outputs land, so downstream levels see the forced
    value — the vector analogue of the python backend's forced kernel.
    """

    def __init__(self, plan: VectorPlan, n_words: int) -> None:
        self.plan = plan
        self.n_words = int(n_words)
        W = self.n_words
        self.state = np.zeros((plan.n_state_rows, W), dtype=np.uint64)
        self.state[plan.ones_row] = ~np.uint64(0)
        # Per level: the cube accumulator, the op accumulator, one gather
        # scratch sized for the largest non-leading position chunk, the
        # complement scratch, and the inverse cube permutation (orb
        # position -> accumulator row).  Gathers happen chunk by chunk so
        # each chunk is consumed while still cache-hot, instead of
        # materializing every literal row up front.
        self._scratch = []
        for lv in plan.levels:
            kc, mc = lv.kcounts, lv.mcounts
            tmp_rows = max(kc[1] if len(kc) > 1 else 0, mc[1] if len(mc) > 1 else 0)
            inv_perm = np.empty(lv.n_cubes, dtype=np.intp)
            inv_perm[lv.perm] = np.arange(lv.n_cubes, dtype=np.intp)
            self._scratch.append(
                (
                    np.empty((lv.n_cubes, W), dtype=np.uint64),
                    np.empty((lv.n_ops, W), dtype=np.uint64),
                    np.empty((tmp_rows, W), dtype=np.uint64),
                    np.empty((lv.inv_sel.size, W), dtype=np.uint64),
                    inv_perm,
                )
            )
        self.reset_consts()

    def reset_consts(self) -> None:
        """(Re)fold constant nodes into the state (values + complements)."""
        n = self.plan.n_nodes
        for node, const in self.plan.program.const_nodes:
            self.state[node] = ~np.uint64(0) if const else np.uint64(0)
            self.state[node + n] = ~self.state[node]

    def set_source(self, node: int, row: np.ndarray) -> None:
        """Write a source row (and its complement when some literal
        reads it inverted)."""
        state = self.state
        state[node] = row
        if self.plan.needs_inv[node]:
            np.invert(state[node], out=state[self.plan.n_nodes + node])

    def blend(self, node: int, forced: np.ndarray, notmask: np.ndarray) -> None:
        """In-place override blend: ``state[node] = (v & ~mask) | forced``
        (``forced`` pre-masked), complement refreshed when maintained."""
        row = self.state[node]
        np.bitwise_and(row, notmask, out=row)
        np.bitwise_or(row, forced, out=row)
        if self.plan.needs_inv[node]:
            np.invert(row, out=self.state[self.plan.n_nodes + node])

    def eval_levels(
        self, fixups: "dict[int, list[tuple[int, np.ndarray, np.ndarray]]] | None" = None
    ) -> None:
        state = self.state
        for li, (lv, (acc, oacc, tmp, invb, inv_perm)) in enumerate(
            zip(self.plan.levels, self._scratch)
        ):
            kc = lv.kcounts
            np.take(state, lv.src[: kc[0]], axis=0, out=acc)
            off = kc[0]
            for c in kc[1:]:
                t = tmp[:c]
                np.take(state, lv.src[off : off + c], axis=0, out=t)
                np.bitwise_and(acc[:c], t, out=acc[:c])
                off += c
            mc = lv.mcounts
            np.take(acc, inv_perm[: mc[0]], axis=0, out=oacc)
            off = mc[0]
            for c in mc[1:]:
                t = tmp[:c]
                np.take(acc, inv_perm[off : off + c], axis=0, out=t)
                np.bitwise_or(oacc[:c], t, out=oacc[:c])
                off += c
            state[lv.out_nodes] = oacc
            if lv.inv_sel.size:
                np.take(oacc, lv.inv_sel, axis=0, out=invb)
                np.invert(invb, out=invb)
                state[lv.inv_rows] = invb
            if fixups:
                for node, forced, notmask in fixups.get(li, ()):
                    self.blend(node, forced, notmask)
