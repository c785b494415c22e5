"""Wire placement model (paper section 3.2.1, equations 1-3).

Connected routers are wired along a shortest Manhattan path.  When the two
routers share neither row nor column there are two L-shaped candidates;
the paper breaks the tie by the *larger* coordinate span: if the X-span
exceeds the Y-span the wire leaves router ``i`` vertically first
(the "bottom-left" path through ``(x_i, y_j)``), otherwise horizontally
first (the "top-right" path through ``(x_j, y_i)``).

Equation 3 bounds, for every grid slot, the number of wires routed over
that slot by the technology limit ``W``; :func:`wire_crossing_counts` and
:func:`max_wire_crossings` evaluate the left-hand side, and
:func:`technology_wire_limit` the right-hand side.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate

from ..topos.base import Coordinate

#: Wiring density (wires per mm, single intermediate metal layer) and core
#: area (mm^2) per technology node — paper section 3.3.2 assumptions.
WIRING_DENSITY_PER_MM = {45: 3_500, 22: 7_000, 11: 14_000}
CORE_AREA_MM2 = {45: 4.0, 22: 1.0, 11: 0.25}


def x_dominant(ci: Coordinate, cj: Coordinate) -> bool:
    """The paper's Φ(i,j): True when |xi-xj| > |yi-yj|."""
    return abs(ci[0] - cj[0]) > abs(ci[1] - cj[1])


def wire_crossing_counts(
    edges: list[tuple[int, int]], coords: dict[int, Coordinate]
) -> Counter[Coordinate]:
    """Wires routed over each grid slot (left-hand side of Eq. 3).

    Wire endpoints count toward their own slots, matching the paper's
    "wires placed over a router and its attached nodes".  Each wire is
    an L of one column segment and one row segment that share a corner
    slot: when the X-span is the larger, the column is ``x_i``'s and the
    row ``y_j``'s, otherwise the row is ``y_i``'s and the column
    ``x_j``'s.  The segments go into per-column and per-row difference
    arrays, the corner is subtracted once, and prefix sums read off
    every slot, in time linear in wires plus grid slots.
    """
    counts: Counter[Coordinate] = Counter()
    if not edges:
        return counts
    x0 = min(x for x, _ in coords.values())
    y0 = min(y for _, y in coords.values())
    width = max(x for x, _ in coords.values()) - x0 + 2
    height = max(y for _, y in coords.values()) - y0 + 2
    columns = [[0] * height for _ in range(width)]
    rows = [[0] * width for _ in range(height)]
    corners: Counter[Coordinate] = Counter()
    for i, j in edges:
        ci, cj = coords[i], coords[j]
        # The column and row of the L.
        if x_dominant(ci, cj):
            x, y = ci[0], cj[1]
        else:
            x, y = cj[0], ci[1]
        low, high = sorted((ci[1], cj[1]))
        columns[x - x0][low - y0] += 1
        columns[x - x0][high - y0 + 1] -= 1
        low, high = sorted((ci[0], cj[0]))
        rows[y - y0][low - x0] += 1
        rows[y - y0][high - x0 + 1] -= 1
        corners[(x, y)] += 1
    across = [list(accumulate(row)) for row in rows]
    for dx, column in enumerate(columns):
        for dy, down in enumerate(accumulate(column)):
            wires = down + across[dy][dx]
            if wires:
                counts[(dx + x0, dy + y0)] = wires
    counts.subtract(corners)
    return counts


def max_wire_crossings(
    edges: list[tuple[int, int]], coords: dict[int, Coordinate]
) -> int:
    """The worst slot's wire count — must stay <= ``W`` (Eq. 3)."""
    counts = wire_crossing_counts(edges, coords)
    return max(counts.values()) if counts else 0


def technology_wire_limit(
    technology_nm: int, concentration: int, link_width_bits: int = 128
) -> int:
    """Maximum parallel links routable over one router tile (the ``W`` of Eq. 3).

    ``W`` = wiring density x tile side / link width: a tile holding ``p``
    cores has side ``sqrt(p * core_area)``; each link needs
    ``link_width_bits`` wires.
    """
    if technology_nm not in WIRING_DENSITY_PER_MM:
        raise ValueError(f"unknown technology node {technology_nm}nm")
    tile_side_mm = math.sqrt(concentration * CORE_AREA_MM2[technology_nm])
    raw_wires = WIRING_DENSITY_PER_MM[technology_nm] * tile_side_mm
    return int(raw_wires // link_width_bits)
