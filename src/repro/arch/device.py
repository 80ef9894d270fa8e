"""Device grid: tile layout and sizing.

A device is a ``(size+2) × (size+2)`` grid: CLBs occupy the inner
``size × size`` square, I/O tiles line the perimeter, and the four corners
are empty.  :func:`DeviceGrid.for_design` sizes the smallest square device
fitting a given CLB and pad demand (with a utilization margin so placement
has slack — fully-packed devices are unroutable in practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
import math

from repro.arch.spec import ArchSpec
from repro.errors import ArchitectureError

__all__ = ["TileType", "DeviceGrid"]


class TileType(IntEnum):
    EMPTY = 0
    CLB = 1
    IO = 2


@dataclass(frozen=True)
class DeviceGrid:
    """A sized device: architecture + grid dimensions."""

    spec: ArchSpec
    size: int
    """CLB columns/rows (grid is (size+2)² including the I/O ring)."""

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ArchitectureError("device must have at least one CLB")

    # -- geometry ------------------------------------------------------------

    @property
    def width(self) -> int:
        return self.size + 2

    @property
    def height(self) -> int:
        return self.size + 2

    def tile_type(self, x: int, y: int) -> TileType:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ArchitectureError(f"tile ({x},{y}) outside device")
        on_x_edge = x in (0, self.width - 1)
        on_y_edge = y in (0, self.height - 1)
        if on_x_edge and on_y_edge:
            return TileType.EMPTY
        if on_x_edge or on_y_edge:
            return TileType.IO
        return TileType.CLB

    def clb_positions(self) -> list[tuple[int, int]]:
        return [
            (x, y)
            for x in range(1, self.width - 1)
            for y in range(1, self.height - 1)
        ]

    def io_positions(self) -> list[tuple[int, int]]:
        out = []
        for x in range(self.width):
            for y in range(self.height):
                if self.tile_type(x, y) == TileType.IO:
                    out.append((x, y))
        return out

    # -- capacities -------------------------------------------------------------

    @property
    def n_clbs(self) -> int:
        return self.size * self.size

    @property
    def n_io_tiles(self) -> int:
        return 4 * self.size

    @property
    def n_pads(self) -> int:
        return self.n_io_tiles * self.spec.io_capacity

    # -- sizing ------------------------------------------------------------------

    @staticmethod
    def for_design(
        spec: ArchSpec,
        n_clbs: int,
        n_pads: int,
        *,
        utilization: float = 0.7,
    ) -> "DeviceGrid":
        """Smallest square device fitting the demand at ≤ ``utilization``.

        >>> g = DeviceGrid.for_design(ArchSpec(), n_clbs=10, n_pads=8)
        >>> g.n_clbs >= 10 and g.n_pads >= 8
        True
        """
        if n_clbs < 1:
            n_clbs = 1
        if not 0.0 < utilization <= 1.0:
            raise ArchitectureError("utilization must be in (0, 1]")
        size = max(
            1,
            math.ceil(math.sqrt(n_clbs / utilization)),
            math.ceil(n_pads / (4 * spec.io_capacity)),
        )
        grid = DeviceGrid(spec, size)
        while grid.n_clbs * utilization < n_clbs or grid.n_pads < n_pads:
            size += 1
            grid = DeviceGrid(spec, size)
        return grid

    def __repr__(self) -> str:
        return (
            f"DeviceGrid({self.size}x{self.size} CLBs, "
            f"{self.n_pads} pads, W={self.spec.channel_width})"
        )
