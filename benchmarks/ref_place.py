"""Reference annealing placer (the pre-optimization implementation).

This is the dictionary-based simulated-annealing placer exactly as it
shipped before the vectorized rewrite of :mod:`repro.place.tplace`: every
trial move recomputes the full half-perimeter bounding box of each
affected net from the ``loc_of`` dictionary.  It is kept as the *quality
and speed baseline*:

* ``tests/test_physical_perf.py`` gates the rewritten placer's final HPWL
  against this implementation on the paper-suite design;
* ``benchmarks/bench_offline.py`` measures the physical-stage speedup by
  running both on identical packed designs.

Not part of the package — the compile pipeline places through
:func:`repro.place.tplace.place_design`.
"""

from __future__ import annotations

import numpy as np

from repro.arch.device import DeviceGrid
from repro.errors import PlacementError
from repro.pack.tpack import PackedDesign
from repro.place.tplace import Placement, _Block, _build_nets
from repro.util.rng import RngHub

__all__ = ["place_design_ref"]


def _net_hpwl(net: list[int], loc_of: dict[int, tuple[int, int, int]]) -> float:
    xs = [loc_of[b][0] for b in net]
    ys = [loc_of[b][1] for b in net]
    return float(max(xs) - min(xs) + max(ys) - min(ys))


def place_design_ref(
    packed: PackedDesign,
    grid: DeviceGrid | None = None,
    *,
    seed: int = 2016,
    effort: float = 4.0,
    utilization: float = 0.7,
) -> Placement:
    """Anneal a placement for ``packed`` (reference implementation)."""
    physical = packed.physical

    blocks: list[_Block] = []
    for c in packed.clusters:
        blocks.append(_Block(index=len(blocks), kind="clb", payload=c.index))
    for s in physical.pi_signals:
        blocks.append(_Block(index=len(blocks), kind="ipad", payload=s))
    for s in physical.po_signals:
        blocks.append(_Block(index=len(blocks), kind="opad", payload=s))

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

    rng = RngHub(seed).stream(f"place/{physical.network.name}")

    clb_sites = [(x, y, 0) for (x, y) in grid.clb_positions()]
    io_sites = [
        (x, y, k)
        for (x, y) in grid.io_positions()
        for k in range(grid.spec.io_capacity)
    ]

    placement = Placement(packed=packed, grid=grid, blocks=blocks)
    site_block: dict[tuple[int, int, int], int] = {}

    clb_blocks = [b for b in blocks if b.kind == "clb"]
    pad_blocks = [b for b in blocks if b.kind != "clb"]
    for b, site in zip(clb_blocks, rng.permutation(len(clb_sites))[: len(clb_blocks)]):
        placement.loc_of[b.index] = clb_sites[int(site)]
        site_block[clb_sites[int(site)]] = b.index
    for b, site in zip(pad_blocks, rng.permutation(len(io_sites))[: len(pad_blocks)]):
        placement.loc_of[b.index] = io_sites[int(site)]
        site_block[io_sites[int(site)]] = b.index

    nets, net_signal = _build_nets(packed, blocks)
    placement.nets = nets
    placement.net_signal = net_signal

    nets_of_block: dict[int, list[int]] = {}
    for ni, net in enumerate(nets):
        for b in net:
            nets_of_block.setdefault(b, []).append(ni)

    net_cost = np.array(
        [_net_hpwl(net, placement.loc_of) for net in nets], dtype=np.float64
    )
    total = float(net_cost.sum())

    def delta_for_move(moved: list[int]) -> tuple[float, dict[int, float]]:
        affected: set[int] = set()
        for b in moved:
            affected.update(nets_of_block.get(b, ()))
        updates: dict[int, float] = {}
        d = 0.0
        for ni in affected:
            new = _net_hpwl(nets[ni], placement.loc_of)
            d += new - net_cost[ni]
            updates[ni] = new
        return d, updates

    sites_by_kind = {"clb": clb_sites, "io": io_sites}
    movable = [b for b in blocks if nets_of_block.get(b.index)]
    if not movable:
        placement.cost = total
        return placement

    n_moves = max(64, int(effort * len(blocks) ** (4.0 / 3.0)))

    # initial temperature: std of random move deltas
    deltas = []
    for _ in range(min(100, 10 * len(movable))):
        b = movable[int(rng.integers(0, len(movable)))]
        pool = sites_by_kind["clb" if b.kind == "clb" else "io"]
        target = pool[int(rng.integers(0, len(pool)))]
        old = placement.loc_of[b.index]
        if target == old:
            continue
        other = site_block.get(target)
        placement.loc_of[b.index] = target
        if other is not None:
            placement.loc_of[other] = old
        d, _ = delta_for_move([b.index] + ([other] if other is not None else []))
        placement.loc_of[b.index] = old
        if other is not None:
            placement.loc_of[other] = target
        deltas.append(d)
    temp = 20.0 * (float(np.std(deltas)) if deltas else 1.0) or 1.0

    min_temp = 0.005 * max(1.0, total) / max(1, len(nets))
    while temp > min_temp:
        accepted = 0
        for _ in range(n_moves):
            b = movable[int(rng.integers(0, len(movable)))]
            pool = sites_by_kind["clb" if b.kind == "clb" else "io"]
            target = pool[int(rng.integers(0, len(pool)))]
            old = placement.loc_of[b.index]
            if target == old:
                continue
            other = site_block.get(target)
            if other == b.index:
                continue
            # tentatively apply
            placement.loc_of[b.index] = target
            if other is not None:
                placement.loc_of[other] = old
            moved = [b.index] + ([other] if other is not None else [])
            d, updates = delta_for_move(moved)
            placement.moves_tried += 1
            if d <= 0 or rng.random() < np.exp(-d / temp):
                site_block[target] = b.index
                if other is not None:
                    site_block[old] = other
                else:
                    site_block.pop(old, None)
                for ni, v in updates.items():
                    net_cost[ni] = v
                total += d
                accepted += 1
                placement.moves_accepted += 1
            else:
                placement.loc_of[b.index] = old
                if other is not None:
                    placement.loc_of[other] = target
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

    placement.cost = float(net_cost.sum())
    return placement
