"""Discrete Euler characteristic of bit grids.

Three independent routes to chi of a bounded lattice set M:

* local 2x2 configuration counting (corner bookkeeping),
* the V - E + F identity on the pixel complex,
* connected-component counting (set components minus bounded holes).

On admissible grids (no X-configurations) all three agree; the window
counters also expose the X-configuration counts so callers can detect a
digitization that is too coarse for its target set.

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
from .lattice import BitGrid

__all__ = [
    "ConfigCounts",
    "ComponentLabeling",
    "config_counts",
    "chi_local",
    "chi_vef",
    "label_components",
]

# 4-connectivity stencil shared by set and complement labeling.
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


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
    """Counts of the 4-connected components on both sides of a grid.

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


def chi_vef(grid: BitGrid) -> int:
    """Euler characteristic of the pixel complex: vertices - edges + faces.

    V counts set bits, E counts 4-adjacent set-bit pairs, F counts fully
    set 2x2 blocks.  Total on any grid, no margin or admissibility needed;
    on admissible grids it agrees with chi_local.
    """
    bits = grid.bits
    a, b, c, d = _windows(bits)
    ab = a & b
    e = np.count_nonzero(ab) + np.count_nonzero(a & c)
    f = np.count_nonzero(ab & c & d)
    return int(np.count_nonzero(bits) - e + f)


def label_components(grid: BitGrid) -> ComponentLabeling:
    """Count 4-connected components of the set and bounded ones of its complement.

    The complement's unbounded component is the one reachable from the
    grid border, so cells off the grid count as complement and no margin
    is needed: set bits may touch the border.
    """
    # scipy.ndimage is imported where a grid is labelled or a distance
    # transform taken (here, in entanglement and in shapes.morph), never at
    # module level: it costs most of the start-up of ``import eulergram``,
    # and the chi kernels, perimeters and shot-noise means never call it
    from scipy import ndimage

    bits = grid.bits
    _, n_set = ndimage.label(bits, structure=_CROSS)
    # complement labeled with a one-cell True frame so everything touching
    # the border collapses into a single unbounded component
    _, n_comp = ndimage.label(np.pad(~bits, 1, constant_values=True), structure=_CROSS)
    return ComponentLabeling(
        num_set_components=int(n_set),
        num_complement_bounded_components=int(n_comp) - 1,
    )
