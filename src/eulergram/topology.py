"""Discrete Euler characteristic of bit grids.

Three routes to chi of a bounded lattice set M:

* local 2x2 configuration counting (corner bookkeeping),
* the V - E + F identity on the pixel complex,
* connected-component counting (set components minus bounded holes).

All three use one lattice convention: 4-connected set, 8-connected
complement.  V - E + F and component counting agree on every grid; the
corner count agrees with them on admissible grids (no X-configurations),
and the window counters expose the X-configuration counts so callers can
detect a digitization that is too coarse for its target set.

The component route counts set components by a union-find over the set's
row runs and takes its holes from the window kernel, not from a labelling
of the complement: 4-connected components minus 8-connected holes is
chi_vef, so the holes are the component count minus chi_vef.  Its
independence from the window routes lives in the tests, whose
breadth-first oracles count components and holes cell by cell.

Window convention: a window anchored at grid point z reads the four cells
a = z, b = z + e*u1 (east), c = z + e*u2 (north), d = z + e*(u1+u2).
Outward corners are (a=1, b=0, c=0), inward corners are (b=1, c=1, d=0),
X-configurations are (1,0,0,1) on the set and (0,1,1,0) on the complement.
Cells outside the grid read as background, which is only sound when no set
bit touches the grid border; every operation that relies on it enforces
that margin rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MarginViolation, NotAdmissible
from .lattice import BitGrid, _run_list

__all__ = [
    "ConfigCounts",
    "ComponentLabeling",
    "config_counts",
    "chi_local",
    "chi_vef",
    "label_components",
]


@dataclass(frozen=True)
class ConfigCounts:
    """Tally of 2x2 corner configurations over a whole grid."""

    phi_out: int
    phi_in: int
    phi_x_set: int
    phi_x_complement: int

    @property
    def admissible(self) -> bool:
        return self.phi_x_set == 0 and self.phi_x_complement == 0


@dataclass(frozen=True)
class ComponentLabeling:
    """Counts of the set's 4-connected components and of its complement's 8-connected ones.

    ``num_set_components`` counts the set's components;
    ``num_complement_bounded_components`` counts the complement's bounded
    ones (holes), excluding the single component reachable from the grid
    border.
    """

    num_set_components: int
    num_complement_bounded_components: int


def _require_margin(bits: np.ndarray) -> None:
    if bits[0, :].any() or bits[-1, :].any() or bits[:, 0].any() or bits[:, -1].any():
        raise MarginViolation(
            "set bits touch the grid border; embed the set with an empty one-cell margin"
        )


def _windows(bits: np.ndarray):
    # Pad one background cell on every side so windows anchored at border
    # points (and one row/column outside) see off-grid cells as empty.  On a
    # cell arrangement a, b, c, d are the sw, se, nw, ne quadrants of a vertex.
    # Tallies use count_nonzero: a boolean .sum() casts through int64 first.
    p = np.pad(bits, 1, constant_values=False)
    a = p[:-1, :-1]
    b = p[:-1, 1:]
    c = p[1:, :-1]
    d = p[1:, 1:]
    return a, b, c, d


def _cell_features(xs: np.ndarray, ys: np.ndarray, occ: np.ndarray) -> dict:
    """chi, per1, per2 and vol of the union of closed cells [xs[i], xs[i+1]] x
    [ys[j], ys[j+1]] with occ[j, i] set.

    chi is V - E + F of the closed cell complex, so cells meeting only at a
    corner are connected.  per1 sums boundary edges with horizontal normal,
    per2 those with vertical normal.  The floats come from integer edge
    counts per row or column and one matrix-vector product, so no float
    array of the arrangement's size is built.
    """
    a, b, c, d = _windows(occ)
    vb = b[1:] ^ a[1:]
    hb = c[:, 1:] ^ a[:, 1:]
    v = np.count_nonzero(a | b | c | d)
    e = np.count_nonzero(b[1:] | a[1:]) + np.count_nonzero(c[:, 1:] | a[:, 1:])
    dx = np.diff(xs)
    dy = np.diff(ys)
    return {
        "chi": int(v - e + np.count_nonzero(occ)),
        "per1": float(dy @ np.count_nonzero(vb, axis=1)),
        "per2": float(np.count_nonzero(hb, axis=0) @ dx),
        # einsum casts occ block by block; occ @ dx would copy all of it to float
        "vol": float(dy @ np.einsum("ij,j->i", occ, dx)),
    }


def config_counts(grid: BitGrid) -> ConfigCounts:
    """Count outward, inward and X configurations over all 2x2 windows."""
    bits = grid.bits
    _require_margin(bits)
    a, b, c, d = _windows(bits)
    out = a & ~b & ~c
    inn = b & c & ~d
    return ConfigCounts(
        phi_out=int(np.count_nonzero(out)),
        phi_in=int(np.count_nonzero(inn)),
        phi_x_set=int(np.count_nonzero(out & d)),
        phi_x_complement=int(np.count_nonzero(inn & ~a)),
    )


def chi_local(grid: BitGrid) -> int:
    """Euler characteristic as the excess of outward over inward corners.

    Only valid on admissible grids; an X-configuration means two diagonal
    cells meet at a point and component counting becomes ambiguous, so the
    grid is rejected instead of guessed at.
    """
    counts = config_counts(grid)
    if not counts.admissible:
        raise NotAdmissible(counts.phi_x_set, counts.phi_x_complement)
    return counts.phi_out - counts.phi_in


def _x_count(bits: np.ndarray) -> int:
    """X-configurations of the set and of the complement: windows (1,0,0,1) and (0,1,1,0).

    Both hold two set cells on a diagonal, so they lie inside the grid and
    the windows need no padding.
    """
    # a != b, c != d and a != c
    east = bits[:, :-1] ^ bits[:, 1:]
    x = bits[:-1, :-1] ^ bits[1:, :-1]
    x &= east[:-1]
    x &= east[1:]
    return int(np.count_nonzero(x))


def chi_vef(grid: BitGrid) -> int:
    """Euler characteristic of the pixel complex: vertices - edges + faces.

    V counts set bits, E counts 4-adjacent set-bit pairs, F counts fully
    set 2x2 blocks.  Total on any grid, no margin or admissibility needed;
    on admissible grids it agrees with chi_local.
    """
    # edges and faces lie inside the grid, so no padding is needed
    bits = grid.bits
    across = bits[:, :-1] & bits[:, 1:]
    e = np.count_nonzero(across) + np.count_nonzero(bits[:-1] & bits[1:])
    f = np.count_nonzero(across[:-1] & across[1:])
    return int(np.count_nonzero(bits) - e + f)


def _merge(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> int:
    """Join the trees of link ends ``u[i]``, ``v[i]`` in ``parent``; return the root count.

    ``parent`` is a forest in which every node points at its root, never
    at a larger index.  Each round hooks every root onto the smallest root
    linked to it, if that one is smaller, then jumps pointers until every
    node points at its root again.
    """
    while True:
        pu, pv = parent[u], parent[v]
        apart = pu != pv
        if not apart.any():
            return int(np.count_nonzero(parent == np.arange(parent.size)))
        u, v, pu, pv = u[apart], v[apart], pu[apart], pv[apart]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent[:] = up


def _component_counts(bits: np.ndarray) -> tuple[int, int]:
    """4- and 8-connected component counts of the set bits, from one union-find.

    The nodes are the set's row runs.  Each run is linked to the runs of
    the next row that meet it at least at a corner; the links sharing an
    edge are merged first (the 4-connected count), the corner-only ones
    after, into the same forest (the 8-connected count).
    """
    rows, lo, hi = _run_list(bits)
    n = rows.size
    if n == 0:
        return 0, 0
    # one key space for run ends of all rows, wide enough that a column
    # one past either end of a row never reaches a neighbouring row's keys
    w = bits.shape[1] + 2
    below = (rows + 1) * w
    first = np.searchsorted(rows * w + hi, below + lo - 1, side="right")
    stop = np.searchsorted(rows * w + lo, below + hi + 1, side="left")
    links = np.maximum(stop - first, 0)
    u = np.repeat(np.arange(n), links)
    v = np.arange(u.size) + np.repeat(first - (np.cumsum(links) - links), links)
    corner = (lo[v] == hi[u]) | (hi[v] == lo[u])
    parent = np.arange(n)
    n4 = _merge(parent, u[~corner], v[~corner])
    return n4, _merge(parent, u[corner], v[corner])


def label_components(grid: BitGrid) -> ComponentLabeling:
    """Count 4-connected components of the set and 8-connected bounded ones of its complement.

    The complement's unbounded component is the one reachable from the
    grid border, so cells off the grid count as complement and no margin
    is needed: set bits may touch the border.  The holes are read off the
    kernel: set components minus holes is chi_vef.
    """
    n4, _ = _component_counts(grid.bits)
    return ComponentLabeling(num_set_components=n4,
                             num_complement_bounded_components=n4 - chi_vef(grid))
