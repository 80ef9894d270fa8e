"""Simulated-annealing placement (the TPlace step of TPaR).

Classic VPR-style annealing: blocks are CLB clusters and I/O pads, the
cost is the half-perimeter wirelength (HPWL) summed over nets, moves swap
two blocks (or move one to a free site) of the same type, and the schedule
starts hot enough to accept most moves, cooling geometrically until
improvements dry up.

Tunable (TCON) trees contribute placement nets spanning their leaf drivers
and root readers, pulling the shared routing region together — placement's
view of the paper's resource sharing.

The anneal's inner loop is the offline flow's hottest code, so it runs on
flat tables instead of the result dictionaries: block coordinates live in
plain lists indexed by block, sites are integer ids with a ``block_at``
occupancy table, randomness is drawn in one vectorized batch per
temperature step, and every net carries an **incremental bounding box**
(min/max per axis plus the count of members sitting on each boundary).  A
trial move then updates each affected net in O(1) — a full member rescan
happens only when a block leaves a boundary it alone occupied.  The
reference implementation this was rewritten from (and is quality-gated
against) is ``place_design_ref`` in ``benchmarks/ref_place.py``.

The setup half of the anneal (blocks, grid, initial assignment, net
tables, incremental state, the ``try_move`` evaluator) lives in
:class:`_PlacerState`; :func:`place_design` drives its move loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp

from repro.arch.device import DeviceGrid
from repro.errors import PlacementError
from repro.pack.tpack import PackedDesign
from repro.util.rng import RngHub

__all__ = ["Placement", "place_design"]


@dataclass
class _Block:
    index: int
    kind: str       # "clb" | "ipad" | "opad"
    payload: int    # cluster index or signal id


@dataclass
class Placement:
    """Result: block locations plus net bookkeeping."""

    packed: PackedDesign
    grid: DeviceGrid
    blocks: list[_Block] = field(default_factory=list)
    loc_of: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    """block index -> (x, y, subtile)."""
    nets: list[list[int]] = field(default_factory=list)
    """per net: [driver block, reader blocks...] (for cost)."""
    net_signal: list[int] = field(default_factory=list)
    cost: float = 0.0
    moves_tried: int = 0
    moves_accepted: int = 0

    def cluster_site(self, cluster_index: int) -> tuple[int, int]:
        for b in self.blocks:
            if b.kind == "clb" and b.payload == cluster_index:
                x, y, _ = self.loc_of[b.index]
                return (x, y)
        raise PlacementError(f"cluster {cluster_index} not placed")

    def pad_site(self, signal: int, kind: str) -> tuple[int, int, int]:
        for b in self.blocks:
            if b.kind == kind and b.payload == signal:
                return self.loc_of[b.index]
        raise PlacementError(f"{kind} for signal {signal} not placed")

    def hpwl(self) -> float:
        return self.cost


def _build_nets(packed: PackedDesign, blocks: list[_Block]) -> tuple[list[list[int]], list[int]]:
    """Placement nets: driver block followed by reader blocks, per signal."""
    physical = packed.physical
    block_of_cluster = {
        b.payload: b.index for b in blocks if b.kind == "clb"
    }
    block_of_ipad = {b.payload: b.index for b in blocks if b.kind == "ipad"}
    block_of_opad = {b.payload: b.index for b in blocks if b.kind == "opad"}

    def producer_block(sig: int) -> int | None:
        c = packed.cluster_of_signal.get(sig)
        if c is not None:
            return block_of_cluster[c]
        return block_of_ipad.get(sig)

    readers: dict[int, set[int]] = {}
    for c in packed.clusters:
        blk = block_of_cluster[c.index]
        for s in c.external_inputs():
            readers.setdefault(s, set()).add(blk)
    for s, blk in block_of_opad.items():
        readers.setdefault(s, set()).add(blk)

    nets: list[list[int]] = []
    net_signal: list[int] = []
    groups = physical.tunable_groups
    for sig in sorted(readers):
        if sig in groups:
            # tunable tree: net spans every leaf producer and all readers
            members: set[int] = set(readers[sig])
            for leaf, _cond in groups[sig].options:
                p = producer_block(leaf)
                if p is None and leaf in groups:
                    continue  # nested tree contributes through its own net
                if p is None:
                    raise PlacementError(
                        f"tunable leaf {physical.signal_name(leaf)!r} has no producer"
                    )
                members.add(p)
            nets.append(sorted(members))
            net_signal.append(sig)
            continue
        p = producer_block(sig)
        if p is None:
            raise PlacementError(
                f"signal {physical.signal_name(sig)!r} has no producer"
            )
        members = set(readers[sig]) | {p}
        if len(members) > 1:
            nets.append(sorted(members))
            net_signal.append(sig)
    return nets, net_signal


def _bbox_scan(members: tuple[int, ...], bx: list[int], by: list[int]):
    """Full bounding-box state of one net: boundaries plus boundary counts."""
    b0 = members[0]
    xmn = xmx = bx[b0]
    ymn = ymx = by[b0]
    nxmn = nxmx = nymn = nymx = 1
    for m in members[1:]:
        x = bx[m]
        if x < xmn:
            xmn, nxmn = x, 1
        elif x == xmn:
            nxmn += 1
        if x > xmx:
            xmx, nxmx = x, 1
        elif x == xmx:
            nxmx += 1
        y = by[m]
        if y < ymn:
            ymn, nymn = y, 1
        elif y == ymn:
            nymn += 1
        if y > ymx:
            ymx, nymx = y, 1
        elif y == ymx:
            nymx += 1
    return [xmn, nxmn, xmx, nxmx, ymn, nymn, ymx, nymx]


def _axis_move(mn: int, nmn: int, mx: int, nmx: int, old: int, new: int):
    """Incremental one-axis bbox update for one member moving old → new.

    Returns the new ``(mn, nmn, mx, nmx)`` or ``None`` when the move
    vacates a boundary the member alone occupied — the one case that
    needs a member rescan to find the new boundary.
    """
    if new < mn:
        mn, nmn = new, 1
    elif new == mn:
        nmn += 1
    if new > mx:
        mx, nmx = new, 1
    elif new == mx:
        nmx += 1
    if old == mn:
        nmn -= 1
        if nmn == 0:
            return None
    if old == mx:
        nmx -= 1
        if nmx == 0:
            return None
    return mn, nmn, mx, nmx


class _PlacerState:
    """Everything the annealer needs, built from the packed design.

    Blocks, grid, the seed-derived RNG stream, the random initial
    assignment, net tables, the incremental bounding-box state and the
    ``try_move`` evaluator — same seed ⇒ same initial placement, same
    temperature estimate.
    """

    def __init__(
        self,
        packed: PackedDesign,
        grid: DeviceGrid | None,
        seed: int,
        utilization: float,
    ) -> None:
        self.packed = packed
        physical = packed.physical

        blocks: list[_Block] = []
        for c in packed.clusters:
            blocks.append(_Block(index=len(blocks), kind="clb", payload=c.index))
        for s in physical.pi_signals:
            blocks.append(_Block(index=len(blocks), kind="ipad", payload=s))
        for s in physical.po_signals:
            blocks.append(_Block(index=len(blocks), kind="opad", payload=s))
        self.blocks = blocks

        n_pads = sum(1 for b in blocks if b.kind != "clb")
        if grid is None:
            grid = DeviceGrid.for_design(
                packed.arch,
                n_clbs=max(1, packed.n_clusters),
                n_pads=n_pads,
                utilization=utilization,
            )
        if grid.n_clbs < packed.n_clusters or grid.n_pads < n_pads:
            raise PlacementError(
                f"device {grid!r} too small: need {packed.n_clusters} CLBs, "
                f"{n_pads} pads"
            )
        self.grid = grid

        rng = self.rng = RngHub(seed).stream(f"place/{physical.network.name}")

        # sites as integer ids: CLB sites first, then I/O subtiles
        clb_sites = [(x, y, 0) for (x, y) in grid.clb_positions()]
        io_sites = [
            (x, y, k)
            for (x, y) in grid.io_positions()
            for k in range(grid.spec.io_capacity)
        ]
        sites = self.sites = clb_sites + io_sites
        n_clb_sites = self.n_clb_sites = len(clb_sites)
        self.n_io_sites = len(io_sites)
        site_x = self.site_x = [s[0] for s in sites]
        site_y = self.site_y = [s[1] for s in sites]
        n_sites = self.n_sites = len(sites)

        self.placement = Placement(packed=packed, grid=grid, blocks=blocks)
        n_blocks = self.n_blocks = len(blocks)
        site_of = self.site_of = [-1] * n_blocks
        block_at = self.block_at = [-1] * n_sites
        bx = self.bx = [0] * n_blocks
        by = self.by = [0] * n_blocks
        self.is_clb = [b.kind == "clb" for b in blocks]

        def assign(block: int, site: int) -> None:
            site_of[block] = site
            block_at[site] = block
            bx[block] = site_x[site]
            by[block] = site_y[site]

        clb_blocks = [b for b in blocks if b.kind == "clb"]
        pad_blocks = [b for b in blocks if b.kind != "clb"]
        for b, site in zip(clb_blocks, rng.permutation(n_clb_sites)[: len(clb_blocks)]):
            assign(b.index, int(site))
        for b, site in zip(pad_blocks, rng.permutation(len(io_sites))[: len(pad_blocks)]):
            assign(b.index, n_clb_sites + int(site))

        nets, net_signal = _build_nets(packed, blocks)
        self.placement.nets = nets
        self.placement.net_signal = net_signal
        members = self.members = [tuple(net) for net in nets]
        self.n_nets = n_nets = len(nets)

        nets_of_block: list[list[int]] = [[] for _ in range(n_blocks)]
        for ni, net in enumerate(members):
            for b in net:
                nets_of_block[b].append(ni)
        self.nets_of_block = nets_of_block

        # nets below the threshold are cheaper to rescan outright (a handful
        # of list reads) than to keep boundary counts for: a mover on a tiny
        # net is nearly always alone on a boundary, forcing the rescan
        # fallback anyway.  Large nets (TCON trees spanning many leaf
        # drivers) keep the incremental state.
        SMALL_NET = 10
        big = self.big = [len(m) > SMALL_NET for m in members]
        state = self.state = [
            _bbox_scan(m, bx, by) if b else None for m, b in zip(members, big)
        ]
        net_cost = self.net_cost = [0.0] * n_nets
        for ni, m in enumerate(members):
            s = state[ni] or _bbox_scan(m, bx, by)
            net_cost[ni] = float(s[2] - s[0] + s[6] - s[4])
        self.total = sum(net_cost)

        self.movable = [b.index for b in blocks if nets_of_block[b.index]]
        self.n_movable = len(self.movable)

        # scratch for one trial move: affected nets, their candidate states
        net_stamp = [0] * n_nets
        move_id = 0
        ups: list[tuple] = []
        self.ups = ups

        def try_move(
            moved,
            # bind the hot lookups once; the loop below runs ~300k times/anneal
            nets_of_block=nets_of_block,
            members=members,
            state=state,
            net_cost=net_cost,
            net_stamp=net_stamp,
            big=big,
            bx=bx,
            by=by,
            ups=ups,
        ) -> float:
            """Delta HPWL of a tentative move (coords already updated in
            ``bx``/``by``); fills ``ups`` with per-net replacement states."""
            nonlocal move_id
            move_id += 1
            mid = move_id
            ups.clear()
            d = 0.0
            for entry in moved:
                b0 = entry[0]
                for ni in nets_of_block[b0]:
                    if net_stamp[ni] == mid:
                        continue
                    net_stamp[ni] = mid
                    m = members[ni]
                    if not big[ni]:
                        # small net: direct bounding-box rescan, no counts
                        xmn = ymn = 1 << 30
                        xmx = ymx = -1
                        for mb in m:
                            v = bx[mb]
                            if v < xmn:
                                xmn = v
                            if v > xmx:
                                xmx = v
                            v = by[mb]
                            if v < ymn:
                                ymn = v
                            if v > ymx:
                                ymx = v
                        new_cost = float(xmx - xmn + ymx - ymn)
                        ups.append((ni, None, new_cost))
                        d += new_cost - net_cost[ni]
                        continue
                    xmn, nxmn, xmx, nxmx, ymn, nymn, ymx, nymx = state[ni]
                    ok = True
                    for b, ox, oy, nx, ny in moved:
                        if b != b0 and ni not in nets_of_block[b]:
                            continue
                        r = _axis_move(xmn, nxmn, xmx, nxmx, ox, nx)
                        if r is None:
                            ok = False
                            break
                        xmn, nxmn, xmx, nxmx = r
                        r = _axis_move(ymn, nymn, ymx, nymx, oy, ny)
                        if r is None:
                            ok = False
                            break
                        ymn, nymn, ymx, nymx = r
                    if ok:
                        new_state = [xmn, nxmn, xmx, nxmx, ymn, nymn, ymx, nymx]
                    else:
                        new_state = _bbox_scan(m, bx, by)
                        xmn, _n1, xmx, _n2, ymn, _n3, ymx, _n4 = new_state
                    new_cost = float(xmx - xmn + ymx - ymn)
                    d += new_cost - net_cost[ni]
                    ups.append((ni, new_state, new_cost))
            return d

        self.try_move = try_move

    def export(self) -> Placement:
        site_of = self.site_of
        self.placement.loc_of = {
            b.index: self.sites[site_of[b.index]] for b in self.blocks
        }
        return self.placement

    def estimate_temp(self) -> float:
        """Initial temperature: std of random move deltas (trials reverted).

        Draws from the seed-derived stream in a fixed order, so a given
        seed always starts from the same temperature.
        """
        movable = self.movable
        site_of, block_at = self.site_of, self.block_at
        bx, by = self.bx, self.by
        site_x, site_y = self.site_x, self.site_y
        is_clb, n_clb_sites = self.is_clb, self.n_clb_sites
        rng = self.rng
        deltas = []
        n_est = min(100, 10 * self.n_movable)
        est_blocks = rng.integers(0, self.n_movable, size=n_est).tolist()
        est_clb = rng.integers(0, n_clb_sites, size=n_est).tolist()
        est_io = rng.integers(0, self.n_io_sites, size=n_est).tolist()
        for i in range(n_est):
            bi = movable[est_blocks[i]]
            s = est_clb[i] if is_clb[bi] else n_clb_sites + est_io[i]
            old_s = site_of[bi]
            if s == old_s:
                continue
            other = block_at[s]
            ox, oy = bx[bi], by[bi]
            nx, ny = site_x[s], site_y[s]
            bx[bi], by[bi] = nx, ny
            if other >= 0:
                bx[other], by[other] = ox, oy
                moved = ((bi, ox, oy, nx, ny), (other, nx, ny, ox, oy))
            else:
                moved = ((bi, ox, oy, nx, ny),)
            deltas.append(self.try_move(moved))
            bx[bi], by[bi] = ox, oy
            if other >= 0:
                bx[other], by[other] = nx, ny
        if deltas:
            mean = sum(deltas) / len(deltas)
            std = (sum((v - mean) ** 2 for v in deltas) / len(deltas)) ** 0.5
        else:
            std = 1.0
        return 20.0 * std or 1.0

    def min_temp(self) -> float:
        return 0.005 * max(1.0, self.total) / max(1, self.n_nets)


def place_design(
    packed: PackedDesign,
    grid: DeviceGrid | None = None,
    *,
    seed: int = 2016,
    effort: float = 4.0,
    utilization: float = 0.7,
) -> Placement:
    """Anneal a placement for ``packed``; returns the final placement."""
    st = _PlacerState(packed, grid, seed, utilization)
    placement = st.placement
    total = st.total

    movable = st.movable
    if not movable:
        placement.cost = total
        return st.export()
    n_movable = st.n_movable
    n_clb_sites = st.n_clb_sites
    n_io_sites = st.n_io_sites
    site_of, block_at = st.site_of, st.block_at
    bx, by = st.bx, st.by
    site_x, site_y = st.site_x, st.site_y
    is_clb = st.is_clb
    state, net_cost = st.state, st.net_cost
    try_move, ups, rng = st.try_move, st.ups, st.rng

    n_moves = max(64, int(effort * st.n_blocks ** (4.0 / 3.0)))
    temp = st.estimate_temp()

    tried = 0
    accepted_total = 0
    min_temp = st.min_temp()
    while temp > min_temp:
        accepted = 0
        pick_b = rng.integers(0, n_movable, size=n_moves).tolist()
        pick_clb = rng.integers(0, n_clb_sites, size=n_moves).tolist()
        pick_io = rng.integers(0, n_io_sites, size=n_moves).tolist()
        accept_u = rng.random(n_moves).tolist()
        inv_temp = -1.0 / temp
        for i in range(n_moves):
            bi = movable[pick_b[i]]
            s = pick_clb[i] if is_clb[bi] else n_clb_sites + pick_io[i]
            old_s = site_of[bi]
            if s == old_s:
                continue
            other = block_at[s]
            ox, oy = bx[bi], by[bi]
            nx, ny = site_x[s], site_y[s]
            # tentatively apply coordinates, then score
            bx[bi], by[bi] = nx, ny
            if other >= 0:
                bx[other], by[other] = ox, oy
                moved = ((bi, ox, oy, nx, ny), (other, nx, ny, ox, oy))
            else:
                moved = ((bi, ox, oy, nx, ny),)
            d = try_move(moved)
            tried += 1
            if d <= 0.0 or accept_u[i] < exp(d * inv_temp):
                block_at[s] = bi
                block_at[old_s] = other if other >= 0 else -1
                site_of[bi] = s
                if other >= 0:
                    site_of[other] = old_s
                for ni, new_state, new_cost in ups:
                    if new_state is not None:
                        state[ni] = new_state
                    net_cost[ni] = new_cost
                total += d
                accepted += 1
                accepted_total += 1
            else:
                bx[bi], by[bi] = ox, oy
                if other >= 0:
                    bx[other], by[other] = nx, ny
        rate = accepted / max(1, n_moves)
        # VPR-style adaptive cooling: cool slowly in the productive window
        if rate > 0.96:
            temp *= 0.5
        elif rate > 0.8:
            temp *= 0.9
        elif rate > 0.15:
            temp *= 0.95
        else:
            temp *= 0.8

    placement.moves_tried = tried
    placement.moves_accepted = accepted_total
    placement.cost = float(sum(net_cost))
    return st.export()
