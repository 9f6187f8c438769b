"""Discrete Euler characteristic of bit grids.

Three routes to chi of a bounded lattice set M:

* local 2x2 configuration counting (corner bookkeeping),
* the V - E + F identity on the pixel complex,
* connected-component counting (set components minus bounded holes).

All three use one lattice convention: 4-connected set, 8-connected
complement.  V - E + F and component counting agree on every grid; the
corner count agrees with them on admissible grids (no X-configurations).
One kernel, ``_window_counts``, tallies the 2x2 windows, and every window
route reads a fixed linear form of its four tallies, as Gray's bit-quad
counts do: the corner count phi_out - phi_in, V - E + F of the pixel
complex phi_out - phi_in + phi_x_complement, and the X count phi_x_set +
phi_x_complement (a digitization too coarse for its target set).

The component route counts set components by a union-find over the set's
row runs and takes its holes from the window kernel, not from a labelling
of the complement: 4-connected components minus 8-connected holes is
chi_vef, so the holes are the component count minus chi_vef.  Its
independence from the window routes lives in the tests, whose
breadth-first oracles count components and holes cell by cell.

Unions of closed cells of an arrangement (polyrectangles, shot-noise level
sets) come as row runs, one list per strip, and one run kernel,
``_run_features``, reads their chi, perimeters and area: chi is runs minus
links, the pairs of runs in adjacent strips that touch, corners included.
The link search, ``_links``, is the one the union-find merges over.

Window convention: a window anchored at grid point z reads the four cells
a = z, b = z + e*u1 (east), c = z + e*u2 (north), d = z + e*(u1+u2).
Outward corners are (a=1, b=0, c=0), inward corners are (b=1, c=1, d=0),
X-configurations are (1,0,0,1) on the set and (0,1,1,0) on the complement.
Cells outside the grid read as background.  ``config_counts`` and
``chi_local`` refuse set bits on the grid border; chi_vef takes the bits
as the whole set.
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

    @property
    def chi(self) -> int:
        """V - E + F of the pixel complex: 4-connected set, 8-connected complement."""
        return self.phi_out - self.phi_in + self.phi_x_complement


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


def _window_counts(bits: np.ndarray) -> ConfigCounts:
    """Outward, inward and X configurations over all 2x2 windows, cells off the array empty.

    Nothing is padded: of the windows that reach off the array only outward
    corners count, the set cells that end a run of the top row or of the
    right column.  Tallies use count_nonzero: a boolean .sum() casts
    through int64 first.
    """
    a, b, c, d = bits[:-1, :-1], bits[:-1, 1:], bits[1:, :-1], bits[1:, 1:]
    ends = bits[:, :-1] > bits[:, 1:]  # set cells whose east cell is empty
    phi_out = (np.count_nonzero(ends[-1]) + np.count_nonzero(bits[:-1, -1] > bits[1:, -1])
               + bits[-1, -1])
    # one buffer of window flags, rewritten in place while it is in cache
    win = ends[:-1]
    np.greater(win, c, out=win)  # outward corners
    phi_out += np.count_nonzero(win)
    win &= d  # X-configurations of the set
    phi_x_set = np.count_nonzero(win)
    np.logical_and(b, c, out=win)
    np.greater(win, d, out=win)  # inward corners
    phi_in = np.count_nonzero(win)
    np.greater(win, a, out=win)  # X-configurations of the complement
    return ConfigCounts(phi_out=int(phi_out), phi_in=int(phi_in), phi_x_set=int(phi_x_set),
                        phi_x_complement=int(np.count_nonzero(win)))


def config_counts(grid: BitGrid) -> ConfigCounts:
    """Count outward, inward and X configurations over all 2x2 windows."""
    bits = grid.bits
    if bits[0, :].any() or bits[-1, :].any() or bits[:, 0].any() or bits[:, -1].any():
        raise MarginViolation(
            "set bits touch the grid border; embed the set with an empty one-cell margin"
        )
    return _window_counts(bits)


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
    set 2x2 blocks; the sum is read off the window tallies.  Total on any
    grid, no margin or admissibility needed; on admissible grids it agrees
    with chi_local.
    """
    return _window_counts(grid.bits).chi


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


def _links(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, width: int,
           reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (u, v) of linked runs, v in the row after u's.

    Runs are half-open column ranges in raster order.  A run is linked to
    the runs of the next row that share an edge with it, and with reach 1
    also to those that meet it only at a corner.  ``width`` exceeds the
    row length by at least two.
    """
    # one key space for run ends of all rows, wide enough that a column
    # one past either end of a row never reaches a neighbouring row's keys;
    # a half-open run widened by one column reaches its corner neighbours
    below = (rows + 1) * width
    first = np.searchsorted(rows * width + hi, below + lo - reach, side="right")
    stop = np.searchsorted(rows * width + lo, below + hi + reach, side="left")
    links = np.maximum(stop - first, 0)
    u = np.repeat(np.arange(rows.size), links)
    v = np.arange(u.size) + np.repeat(first - (np.cumsum(links) - links), links)
    return u, v


def _run_features(xs: np.ndarray, ys: np.ndarray, rows: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, x_cut=None, y_cut=None) -> list[dict]:
    """chi, per1, per2 and vol of unions of closed cells [xs[i], xs[i+1]] x
    [ys[j], ys[j+1]] listed as maximal runs: cells lo[k] <= i < hi[k] of row rows[k].

    The axes may hold a batch of arrangements side by side: arrangement r
    has the axes xs[x_cut[r]:x_cut[r + 1]] and ys[y_cut[r]:y_cut[r + 1]]
    (by default one, on the whole axes), and its runs index into them.  Row
    y_cut[r + 1] - 1, between two arrangements, holds no run, so no link
    joins two of them.  One dict per arrangement is returned.

    The runs of a strip are disjoint closed rectangles, and two strips meet
    only if adjacent, in the pairs of runs that touch, corners included
    (links).  Each run and each link is contractible, so by Mayer-Vietoris
    over the strips chi is runs minus links.  per1 counts two vertical sides
    per run; per2 counts per column two horizontal sides per occupied cell,
    less the sides that the two strips of a link share.  The integer counts
    are taken once for the batch; the floats come from them, the run lengths
    and one product per feature and arrangement, on that arrangement's own
    axes, so nothing of the arrangement's size is built.
    """
    x_cut = (0, len(xs)) if x_cut is None else x_cut
    y_cut = (0, len(ys)) if y_cut is None else y_cut
    u, v = _links(rows, lo, hi, len(xs) + 1, 1)
    a, b = np.maximum(lo[u], lo[v]), np.minimum(hi[u], hi[v])
    shared = a < b
    # difference array of occupied cells less shared sides, per column
    n = len(xs)
    cols = (np.bincount(lo, minlength=n) - np.bincount(hi, minlength=n)
            - np.bincount(a[shared], minlength=n) + np.bincount(b[shared], minlength=n))
    strip_runs = 2 * np.bincount(rows, minlength=len(ys))
    strip_vol = np.bincount(rows, weights=xs[hi] - xs[lo], minlength=len(ys))
    run_cut = np.searchsorted(rows, y_cut)
    chi = np.diff(run_cut) - np.diff(np.searchsorted(u, run_cut))
    out = []
    for r, (x0, x1, y0, y1) in enumerate(zip(x_cut[:-1], x_cut[1:], y_cut[:-1], y_cut[1:])):
        dy = np.diff(ys[y0:y1])
        out.append({
            "chi": int(chi[r]),
            "per1": float(dy @ strip_runs[y0:y1 - 1]),
            "per2": float((2 * np.cumsum(cols[x0:x1 - 1])) @ np.diff(xs[x0:x1])),
            "vol": float(dy @ strip_vol[y0:y1 - 1]),
        })
    return out


def _component_counts(bits: np.ndarray, connectivity: int) -> int:
    """Count the 4- or 8-connected components of the set bits by a union-find.

    The nodes are the set's row runs, and the edges their links to the
    runs of the next row (corner links under 8-connectivity).
    """
    rows, lo, hi = _run_list(bits)
    if rows.size == 0:
        return 0
    u, v = _links(rows, lo, hi, bits.shape[1] + 2, int(connectivity == 8))
    return _merge(np.arange(rows.size), u, v)


def label_components(grid: BitGrid) -> ComponentLabeling:
    """Count 4-connected components of the set and 8-connected bounded ones of its complement.

    The complement's unbounded component is the one reachable from the
    grid border, so cells off the grid count as complement and no margin
    is needed: set bits may touch the border.  The holes are read off the
    kernel: set components minus holes is chi_vef.
    """
    n4 = _component_counts(grid.bits, 4)
    return ComponentLabeling(num_set_components=n4,
                             num_complement_bounded_components=n4 - chi_vef(grid))
