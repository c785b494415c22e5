"""Flattened Butterfly and the paper's Partitioned FBF.

FBF (Kim, Dally & Abts, ISCA'07) places routers on a grid and fully
connects each row and each column — diameter 2 at the price of very high
radix (``k' = (cols-1) + (rows-1)``).

The paper's PFBF (section 5.1, Figure 9) partitions an FBF into smaller
identical FBFs to match Slim NoC's radix and bisection bandwidth: each
router keeps full row/column connectivity *within* its partition and adds
one port per dimension to the corresponding router of the adjacent
partition.  Diameter grows to 4 while Manhattan distances stay those of
the underlying grid.
"""

from __future__ import annotations

from .grids import _GridTopology


class FlattenedButterfly(_GridTopology):
    """Full-bandwidth FBF: every row and column is a clique (diameter 2)."""

    def __init__(self, cols: int, rows: int, concentration: int, name: str = "fbf"):
        super().__init__(cols, rows, concentration)
        self.name = name

    def _build_adjacency(self) -> list[tuple[int, ...]]:
        adjacency = []
        for router in range(self.cols * self.rows):
            x, y = self.position_of(router)
            row_peers = [self.router_at(ox, y) for ox in range(self.cols) if ox != x]
            col_peers = [self.router_at(x, oy) for oy in range(self.rows) if oy != y]
            adjacency.append(tuple(sorted(row_peers + col_peers)))
        return adjacency


class PartitionedFBF(_GridTopology):
    """PFBF: a grid of FBF partitions with mirror links between neighbors.

    Args:
        part_cols / part_rows: Router grid of one partition.
        grid_cols / grid_rows: How partitions tile the die.
        concentration: Nodes per router.
    """

    def __init__(
        self,
        part_cols: int,
        part_rows: int,
        grid_cols: int,
        grid_rows: int,
        concentration: int,
        name: str = "pfbf",
    ):
        super().__init__(part_cols * grid_cols, part_rows * grid_rows, concentration)
        self.part_cols = part_cols
        self.part_rows = part_rows
        self.grid_cols = grid_cols
        self.grid_rows = grid_rows
        self.name = name

    def _build_adjacency(self) -> list[tuple[int, ...]]:
        adjacency = []
        for router in range(self.cols * self.rows):
            x, y = self.position_of(router)
            px, py = x // self.part_cols, y // self.part_rows
            x0, y0 = px * self.part_cols, py * self.part_rows
            neighbors = set()
            for ox in range(x0, x0 + self.part_cols):  # row clique within partition
                if ox != x:
                    neighbors.add(self.router_at(ox, y))
            for oy in range(y0, y0 + self.part_rows):  # column clique within partition
                if oy != y:
                    neighbors.add(self.router_at(x, oy))
            # Mirror links: the same local position in adjacent partitions.
            local_x, local_y = x - x0, y - y0
            for dpx, dpy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                npx, npy = px + dpx, py + dpy
                if 0 <= npx < self.grid_cols and 0 <= npy < self.grid_rows:
                    neighbors.add(
                        self.router_at(
                            npx * self.part_cols + local_x,
                            npy * self.part_rows + local_y,
                        )
                    )
            adjacency.append(tuple(sorted(neighbors)))
        return adjacency
