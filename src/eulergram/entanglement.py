"""Entanglement pairs and component-count bounds for coarse digitizations.

A coarse digitization can merge distinct components of a set (thin features
sneak between sample points) or split one component into several.  Both
effects are controlled by counting entanglement pairs: coarse-lattice
neighbours x, y that miss the set while the set threads between them
(interior pairs), and pairs of sampled set points hugging the same window
edge with un-sampled set in between (boundary pairs).  The component count
of the digitization is then bounded by the true component count plus twice
the pair counts plus window-corner terms, and the discrete Euler
characteristic obeys a similar bound; this module detects the pairs against
a fine-mesh ground-truth grid and verifies those inequalities.

Ground truth is a fine BitGrid at mesh h with the coarse mesh an integer
multiple k*h (k >= 4).  Connectivity inside the test squares is taken
8-connected at mesh h, which can only over-report pairs: continuum paths may
pass between diagonal pixels, so erring this way keeps every verified upper
bound sound.  Component counts, of the windowed truth and of its coarse
digitization alike, are 8-connected too; only the coarse Euler
characteristic uses the lattice convention, 4-connected set components
minus 8-connected bounded holes, which is chi_vef.

Each detector returns its pairs as a tuple of point pairs ((x, y), (x', y'))
in length units, so ``len`` of the result is the pair count.  Both
detectors screen all candidates as arrays.  Interior candidates (each
coarse point with its east and north neighbour) pass four boolean masks:
both ends off the set, test square inside the grid, the set met on the
line from x to y (by prefix sums), both ends near the window.  The
surviving squares are stacked into one (n, 2 * half + 2, k + 1) array,
north ones transposed, each over an empty row, and their row runs go
through the union-find that counts components (``topology._links`` and
``_merge``), 8-connected: no link joins two squares, and a square is one
component iff one root lies in it.  Boundary candidates are consecutive
members of each coarse row and column, with a cumulative count of
blocking points between them, tested against every maximal window edge
in one broadcast.  Whether an intermediate coarse point lies near the set
is read from the same prefix sums: the disc of the coarse mesh around that
point is a union of column segments, and each segment's set count is a
difference of prefix sums, over the few columns within the coarse mesh of
that point only.

What does not depend on the coarse mesh is built once per truth:
``verify_bounds`` takes a list of meshes and hands both detectors the
same prepared truth and complement, whose prefix sums are computed on
first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MeshMismatch
from .lattice import BitGrid, Lattice, _run_list, _whole_multiple
from .shapes import PolyRectangle, corner_points
from .topology import _component_counts, _links, _merge, chi_vef

__all__ = [
    "BoundReport",
    "detect_interior_pairs",
    "detect_boundary_pairs",
    "verify_bounds",
]

@dataclass(frozen=True)
class BoundReport:
    num_components_digitized: int
    num_components_truth: int
    n_interior: int
    n_boundary: int
    corners: int
    bound_rhs: int
    holds: bool
    chi_abs: int
    chi_bound_rhs: int
    chi_holds: bool


def _subdivision(truth: BitGrid, coarse_epsilon: float) -> int:
    h = truth.lattice.epsilon
    k = _whole_multiple(coarse_epsilon, h)
    if k is None or k < 4:
        raise MeshMismatch(
            f"coarse mesh {coarse_epsilon} must be an integer multiple >= 4 of "
            f"the truth mesh {h}")
    if k >= 1 << 31:  # the detectors index boxes in int32
        raise MeshMismatch(f"coarse mesh {coarse_epsilon} spans {k} truth cells, "
                           "more than 2**31 - 1")
    return k


@dataclass(frozen=True, eq=False)
class _Truth:
    """A truth grid with the prefix sums both detectors read at every coarse mesh, built once."""

    lattice: Lattice
    bits: np.ndarray

    @cached_property
    def prefix(self) -> np.ndarray:
        # int32 prefix sums hold the set count of any grid under 2**31 cells
        ny, nx = self.bits.shape
        pref = np.zeros((ny + 1, nx + 1), dtype=np.int32)
        np.cumsum(self.bits, axis=0, dtype=np.int32, out=pref[1:, 1:])
        np.cumsum(pref[1:, 1:], axis=1, out=pref[1:, 1:])
        return pref

    def near(self, k: int, thr: float) -> np.ndarray:
        """Whether each coarse point ``[::k, ::k]`` lies within ``thr`` of the set.

        The distance is Euclidean, from the cell to the nearest set cell, as
        a full-grid distance transform gives it.  The cells within ``thr``
        form one segment of rows j - w..j + w in each column i +- t, where w
        is the largest reach with sqrt(w^2 + t^2) * h <= thr, so each column
        offset reads the prefix sums at two rows per coarse point.  No cell
        that near lies more than span = int(thr / h) + 1 cells off along
        either axis, and neither t nor w exceeds the grid.  Squares are
        summed in floats, exact below 2**53 and never wrapping.
        """
        h = self.lattice.epsilon
        ny, nx = self.bits.shape
        span = int(thr / h) + 1
        rows, cols = np.arange(0, ny, k), np.arange(0, nx, k)
        near = np.zeros((rows.size, cols.size), dtype=bool)
        w = min(span, ny - 1)
        for t in range(min(span, nx - 1) + 1):
            # the reach only shrinks as the offset grows
            while w >= 0 and not math.sqrt(float(w) * w + t * t) * h <= thr:
                w -= 1
            if w < 0:
                break
            # set cells of rows j - w..j + w left of each column
            seg = self.prefix[np.minimum(rows + w + 1, ny)] - self.prefix[np.maximum(rows - w, 0)]
            # an offset past the grid reads the border column, which its own
            # smaller offset already counts with a reach as long
            for off in {t, -t}:
                c = np.clip(cols + off, 0, nx - 1)
                near |= seg[:, c + 1] > seg[:, c]
        return near


def _prepared(truth) -> _Truth:
    return truth if isinstance(truth, _Truth) else _Truth(truth.lattice, truth.bits)


def _pair_tuples(ends: np.ndarray) -> tuple:
    """(n, 2, 2) endpoint coordinates as pairs of Python-float points."""
    return tuple(zip(map(tuple, ends[:, 0].tolist()), map(tuple, ends[:, 1].tolist())))


def detect_interior_pairs(truth: BitGrid, coarse_epsilon: float,
                          window: PolyRectangle | None = None) -> tuple:
    """Coarse neighbour pairs that the set threads between without touching.

    For each pair of adjacent coarse points x, y with the truth predicate
    false at both, build the coarse-pixel square having x and y as opposite
    edge midpoints, keep the truth set inside it, force the square's border
    on except at x and y, and report the pair iff the result is a single
    8-connected component at the fine mesh.  Pairs whose test square leaves
    the truth grid are skipped (the set is assumed to keep that margin).
    Pairs come in raster order of x, the east neighbour before the north one.
    """
    k = _subdivision(truth, coarse_epsilon)
    truth = _prepared(truth)
    bits = truth.bits
    ny, nx = bits.shape
    lat = truth.lattice
    half = k // 2  # box rows r-half..r+half; exact square for even k

    n_cj, n_ci = (ny - 1) // k + 1, (nx - 1) // k + 1
    cj, ci, north = np.indices((n_cj, n_ci, 2), dtype=np.int32).reshape(3, -1)
    j0, i0, north = np.stack([cj * k, ci * k, north])[
        :, np.where(north, cj + 1 < n_cj, ci + 1 < n_ci)]
    east = 1 - north
    j1, i1 = j0 + k * north, i0 + k * east
    ja, ia = j0 - half * east, i0 - half * north  # inclusive box corners
    jb, ib = j1 + half * east, i1 + half * north

    # screens, cheapest first, each narrowing the candidate indices c
    c = np.flatnonzero(~bits[j0, i0] & ~bits[j1, i1]
                       & (ja >= 0) & (ia >= 0) & (jb < ny) & (ib < nx))
    # the border's two arcs lie on either side of the line from x to y, and
    # an 8-connected path between them steps on it: if the set misses the
    # line, the box is never one component
    pref = truth.prefix
    a, b, A, B = j0[c], i0[c], j1[c] + 1, i1[c] + 1
    c = c[pref[A, B] - pref[a, B] - pref[A, b] + pref[a, b] > 0]
    ends = np.stack([lat.origin[0] + lat.epsilon * np.stack([i0[c], i1[c]], 1),
                     lat.origin[1] + lat.epsilon * np.stack([j0[c], j1[c]], 1)], 2)
    if window is not None:
        x0, x1, y0, y1 = np.array(window.rects).T
        px, py = ends[..., :1], ends[..., 1:]
        dx = np.maximum(np.maximum(x0 - px, 0.0), px - x1)
        dy = np.maximum(np.maximum(y0 - py, 0.0), py - y1)
        near = (np.hypot(dx, dy).min(axis=2) <= coarse_epsilon * (1 + 1e-12)).all(axis=1)
        c, ends = c[near], ends[near]

    if not len(c):
        return ()
    # every box in one stack over an empty row, so that no link joins two
    # boxes; a north box is transposed into the east shape, which 8-links
    # keep.  A surviving corner leaves k + half + 1 cells on one axis and
    # k + 1 on the other, so both windows fit the grid
    side = 2 * half + 1  # the box across the line from x to y
    vert = north[c] == 1
    stack = np.zeros((len(c), side + 1, k + 1), dtype=bool)
    stack[~vert, :side] = sliding_window_view(bits, (side, k + 1))[ja[c[~vert]], ia[c[~vert]]]
    stack[vert, :side] = sliding_window_view(bits, (k + 1, side))[
        ja[c[vert]], ia[c[vert]]].transpose(0, 2, 1)
    stack[:, [0, side - 1], :] = True
    stack[:, :side, [0, -1]] = True
    stack[:, half, [0, -1]] = False
    # one 8-connected union-find over the runs of all boxes: a box is one
    # component iff one root lies in it
    rows, lo, hi = _run_list(stack.reshape(-1, k + 1))
    parent = np.arange(rows.size)
    _merge(parent, *_links(rows, lo, hi, k + 3, 1))
    keep = np.bincount(rows[parent == np.arange(rows.size)] // (side + 1),
                       minlength=len(c)) == 1

    return _pair_tuples(ends[keep])


def detect_boundary_pairs(truth: BitGrid, coarse_epsilon: float,
                          window: PolyRectangle) -> tuple:
    """Sampled set points flanking un-sampled set along a window edge.

    Reports consecutive coarse points of the windowed set on one lattice
    row or column, both within the coarse mesh of the same maximal window
    edge, separated by at least one coarse point, with every strictly
    intermediate coarse point off the set yet within the coarse mesh of it
    (Euclidean distance on the fine grid, padded by half a fine diagonal
    so the fine-grid surrogate can only over-report).  Pairs come sorted.
    """
    k = _subdivision(truth, coarse_epsilon)
    truth = _prepared(truth)
    bits = truth.bits
    lat = truth.lattice
    h = lat.epsilon

    near = truth.near(k, coarse_epsilon + h / math.sqrt(2.0))
    xy = np.stack(np.meshgrid(lat.origin[0] + h * np.arange(0, lat.nx, k),
                              lat.origin[1] + h * np.arange(0, lat.ny, k)), 2)
    in_f = bits[::k, ::k]
    member = in_f & window.contains(xy[..., 0], xy[..., 1])
    # an intermediate coarse point on the set or beyond its coarse mesh
    breaks = in_f | ~near

    # consecutive members of one row, then of one column, at least two apart
    # with no break strictly between them
    cand = []
    for mem, brk, pts in ((member, breaks, xy), (member.T, breaks.T, xy.transpose(1, 0, 2))):
        line, pos = np.nonzero(mem)
        same, a, b = line[1:], pos[:-1], pos[1:]
        cum = np.cumsum(brk, axis=1)
        ok = (line[:-1] == same) & (b - a >= 2) & (cum[same, b - 1] == cum[same, a])
        cand.append(np.stack([pts[same, a], pts[same, b]], 1)[ok])
    ends = np.concatenate(cand)

    # both ends within the coarse mesh of one maximal edge, all (pair, edge) at once
    vertical, fixed, lo, hi = window._maximal_edges.T
    x, y = ends[..., :1], ends[..., 1:]
    along = np.where(vertical, y, x)
    perp = np.where(vertical, x, y) - fixed
    d = np.hypot(perp, np.maximum(np.maximum(lo - along, 0.0), along - hi))
    ends = ends[(d <= coarse_epsilon * (1 + 1e-12)).all(axis=1).any(axis=1)]

    order = np.lexsort(ends.reshape(-1, 4).T[::-1])
    return _pair_tuples(ends[order])


def _coarse_grid(truth: BitGrid, k: int, mask: np.ndarray) -> BitGrid:
    sub = truth.bits[::k, ::k] & mask[::k, ::k]
    lat = truth.lattice
    coarse = Lattice(epsilon=lat.epsilon * k, origin=lat.origin,
                     nx=sub.shape[1], ny=sub.shape[0])
    return BitGrid(lattice=coarse, bits=sub)


def verify_bounds(truth: BitGrid, coarse_epsilons,
                  window: PolyRectangle | None = None) -> list[BoundReport]:
    """Check the digitized-component and Euler-characteristic bounds at each coarse mesh.

    Returns one report per mesh of ``coarse_epsilons``, in the given
    order; every mesh must be an integer multiple >= 4 of the truth mesh,
    and all are checked before any work starts.  What does not depend on
    the mesh (the window mask, truth component counts and the per-side
    prefix sums) is computed once for all of them.

    Without a window: #components(coarse set) <= 2 * #interior pairs +
    #components(truth), and the chi bound is evaluated against the truth
    grid's own rectangular frame (4 corners, no boundary pairs can occur
    when the set keeps its margin).  With a window the windowed forms are
    used: the right side gains 2 * #boundary pairs + 2 * #window corners,
    interior pairs are restricted to the window dilated by the coarse mesh,
    and truth components are counted on the windowed set.  Both component
    counts, of the truth and of the coarse digitization, use 8-connectivity
    (continuum stand-in); only the coarse chi uses the lattice convention of
    4-connected set and 8-connected complement: it is chi_vef.
    """
    ks = [_subdivision(truth, eps) for eps in coarse_epsilons]
    lat = truth.lattice

    frame = window
    if window is None:
        # the lattice's own box, which holds every lattice point
        x0, y0 = lat.point(0, 0)
        x1, y1 = lat.point(lat.nx - 1, lat.ny - 1)
        frame = PolyRectangle(rects=((x0, x1, y0, y1),))
    w_mask = frame.contains(lat.xs()[None, :], lat.ys()[:, None])
    corners = len(corner_points(frame))
    n_truth = _component_counts(truth.bits & w_mask, 8)
    n_truth_c = _component_counts(~truth.bits & w_mask, 8)
    side, comp_side = _Truth(lat, truth.bits), _Truth(lat, ~truth.bits)

    reports = []
    for coarse_epsilon, k in zip(coarse_epsilons, ks):
        n_int_f = len(detect_interior_pairs(side, coarse_epsilon, window=frame))
        n_int_fc = len(detect_interior_pairs(comp_side, coarse_epsilon, window=frame))
        nb_f = len(detect_boundary_pairs(side, coarse_epsilon, frame))
        nb_fc = len(detect_boundary_pairs(comp_side, coarse_epsilon, frame))

        coarse = _coarse_grid(truth, k, w_mask)
        n_digitized = _component_counts(coarse.bits, 8)

        if window is not None:
            bound_rhs = 2 * n_int_f + 2 * nb_f + n_truth + 2 * corners
        else:
            bound_rhs = 2 * n_int_f + n_truth

        chi = chi_vef(coarse)
        chi_rhs = (3 * corners + 2 * max(n_int_f, n_int_fc) + 2 * max(nb_f, nb_fc)
                   + max(n_truth, n_truth_c))

        reports.append(BoundReport(
            num_components_digitized=n_digitized,
            num_components_truth=n_truth,
            n_interior=n_int_f,
            n_boundary=nb_f,
            corners=corners,
            bound_rhs=bound_rhs,
            holds=n_digitized <= bound_rhs,
            chi_abs=abs(chi),
            chi_bound_rhs=chi_rhs,
            chi_holds=abs(chi) <= chi_rhs,
        ))
    return reports
