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
bound sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import MeshMismatch
from .lattice import BitGrid, Lattice, _whole_multiple
from .shapes import PolyRectangle, corner_points
from .topology import label_components

__all__ = [
    "PairSet",
    "BoundReport",
    "detect_interior_pairs",
    "detect_boundary_pairs",
    "verify_bounds",
]

_EIGHT = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class PairSet:
    """Unordered point pairs, in length units; kind is interior or boundary."""

    pairs: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    kind: str

    def __len__(self) -> int:
        return len(self.pairs)

    def rows(self) -> list[tuple[float, float, float, float, str]]:
        return [(p[0][0], p[0][1], p[1][0], p[1][1], self.kind) for p in self.pairs]


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
    return k


def _dist_to_polyrect(px: float, py: float, w: PolyRectangle) -> float:
    best = math.inf
    for x0, x1, y0, y1 in w.rects:
        dx = max(x0 - px, 0.0, px - x1)
        dy = max(y0 - py, 0.0, py - y1)
        best = min(best, math.hypot(dx, dy))
    return best


def _prefix_counts(bits: np.ndarray) -> np.ndarray:
    c = np.zeros((bits.shape[0] + 1, bits.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(bits, axis=0), axis=1, out=c[1:, 1:])
    return c


def _box_count(pref: np.ndarray, j0: int, j1: int, i0: int, i1: int) -> int:
    # inclusive box [j0, j1] x [i0, i1]
    return int(pref[j1 + 1, i1 + 1] - pref[j0, i1 + 1] - pref[j1 + 1, i0] + pref[j0, i0])


def _connected_with_bridge(box: np.ndarray, gaps: tuple[tuple[int, int], tuple[int, int]]) -> bool:
    # force the box border on except at the two pair points, then ask
    # whether everything that is on forms a single 8-connected component
    m = box.copy()
    m[0, :] = True
    m[-1, :] = True
    m[:, 0] = True
    m[:, -1] = True
    for j, i in gaps:
        m[j, i] = False
    _, n = ndimage.label(m, structure=_EIGHT)
    return n == 1


def detect_interior_pairs(truth: BitGrid, coarse_epsilon: float,
                          window: PolyRectangle | None = None) -> PairSet:
    """Coarse neighbour pairs that the set threads between without touching.

    For each pair of adjacent coarse points x, y with the truth predicate
    false at both, build the coarse-pixel square having x and y as opposite
    edge midpoints, keep the truth set inside it, force the square's border
    on except at x and y, and report the pair iff the result is a single
    8-connected component at the fine mesh.  Pairs whose test square leaves
    the truth grid are skipped (the set is assumed to keep that margin).
    """
    k = _subdivision(truth, coarse_epsilon)
    bits = truth.bits
    ny, nx = bits.shape
    lat = truth.lattice
    pref = _prefix_counts(bits)
    half_lo = k // 2  # box rows r-half_lo..r+half_lo; exact square for even k

    pairs = []

    def try_pair(i0: int, j0: int, i1: int, j1: int) -> None:
        # fine-index endpoints of a coarse-neighbour pair, horizontal or vertical
        if bits[j0, i0] or bits[j1, i1]:
            return
        if i0 != i1:  # horizontal: box spans cols i0..i1, rows j0 +- k/2
            ja, jb = j0 - half_lo, j0 + half_lo
            ia, ib = i0, i1
            gaps = ((j0 - ja, 0), (j0 - ja, ib - ia))
        else:
            ja, jb = j0, j1
            ia, ib = i0 - half_lo, i0 + half_lo
            gaps = ((0, i0 - ia), (jb - ja, i0 - ia))
        if ja < 0 or ia < 0 or jb >= ny or ib >= nx:
            return
        if _box_count(pref, ja, jb, ia, ib) == 0:
            return  # border ring minus two gaps is two arcs, never one component
        if window is not None:
            for ii, jj in ((i0, j0), (i1, j1)):
                px, py = lat.point(ii, jj)
                if _dist_to_polyrect(px, py, window) > coarse_epsilon * (1 + 1e-12):
                    return
        if _connected_with_bridge(bits[ja:jb + 1, ia:ib + 1], gaps):
            pairs.append((lat.point(i0, j0), lat.point(i1, j1)))

    n_ci = (nx - 1) // k + 1
    n_cj = (ny - 1) // k + 1
    for cj in range(n_cj):
        for ci in range(n_ci):
            i, j = ci * k, cj * k
            if ci + 1 < n_ci:
                try_pair(i, j, i + k, j)
            if cj + 1 < n_cj:
                try_pair(i, j, i, j + k)

    return PairSet(pairs=tuple(pairs), kind="interior")


def _maximal_edges(w: PolyRectangle):
    """Boundary edges merged into maximal axis-aligned segments."""
    from .shapes import _boundary_segments

    def merge(items):
        # items: (fixed coordinate, lo, hi); merge touching intervals per line
        out = []
        by_line: dict[float, list[tuple[float, float]]] = {}
        for c, lo, hi in items:
            by_line.setdefault(c, []).append((lo, hi))
        for c, ivs in by_line.items():
            ivs.sort()
            cur_lo, cur_hi = ivs[0]
            for lo, hi in ivs[1:]:
                if lo <= cur_hi:
                    cur_hi = max(cur_hi, hi)
                else:
                    out.append((c, cur_lo, cur_hi))
                    cur_lo, cur_hi = lo, hi
            out.append((c, cur_lo, cur_hi))
        return out

    vert, horiz = [], []
    for p0, p1, n in _boundary_segments(w):
        if n[0] != 0.0:
            vert.append((p0[0], p0[1], p1[1]))
        else:
            horiz.append((p0[1], p0[0], p1[0]))
    edges = []
    for x, lo, hi in merge(vert):
        edges.append(("v", x, lo, hi))
    for y, lo, hi in merge(horiz):
        edges.append(("h", y, lo, hi))
    return edges


def _dist_to_edge(px: float, py: float, edge) -> float:
    axis, c, lo, hi = edge
    if axis == "v":
        along, perp = py, px - c
    else:
        along, perp = px, py - c
    d_along = max(lo - along, 0.0, along - hi)
    return math.hypot(perp, d_along)


def detect_boundary_pairs(truth: BitGrid, coarse_epsilon: float,
                          window: PolyRectangle) -> PairSet:
    """Sampled set points flanking un-sampled set along a window edge.

    Reports consecutive coarse points of the windowed set on one lattice
    row or column, both within the coarse mesh of the same maximal window
    edge, separated by at least one coarse point, with every strictly
    intermediate coarse point off the set yet within the coarse mesh of it
    (Euclidean distance on the fine grid, padded by half a fine diagonal
    so the fine-grid surrogate can only over-report).
    """
    k = _subdivision(truth, coarse_epsilon)
    bits = truth.bits
    ny, nx = bits.shape
    lat = truth.lattice
    h = lat.epsilon

    # distance from every fine cell to the set, in length units
    dist = ndimage.distance_transform_edt(~bits) * h
    near = dist <= coarse_epsilon + h / math.sqrt(2.0)

    edges = _maximal_edges(window)
    eps_tol = coarse_epsilon * (1 + 1e-12)

    cii = np.arange(0, nx, k)
    cjj = np.arange(0, ny, k)
    cx = lat.origin[0] + h * cii
    cy = lat.origin[1] + h * cjj
    in_f = bits[np.ix_(cjj, cii)]
    in_w = window.contains(cx[None, :], cy[:, None])
    member = in_f & in_w

    pairs = set()

    def scan_line(coords_fixed, coords_run, run_member, run_near_ok, horizontal: bool):
        # consecutive member points along one row/column
        idx = np.flatnonzero(run_member)
        for a, b in zip(idx[:-1], idx[1:]):
            if b - a < 2:
                continue
            if not run_near_ok[a + 1:b].all():
                continue
            if horizontal:
                p = (float(coords_run[a]), coords_fixed)
                q = (float(coords_run[b]), coords_fixed)
            else:
                p = (coords_fixed, float(coords_run[a]))
                q = (coords_fixed, float(coords_run[b]))
            for e in edges:
                if _dist_to_edge(*p, e) <= eps_tol and _dist_to_edge(*q, e) <= eps_tol:
                    pairs.add((p, q))
                    break

    near_coarse = near[np.ix_(cjj, cii)]
    off_f = ~in_f
    for row in range(len(cjj)):
        scan_line(float(cy[row]), cx, member[row], off_f[row] & near_coarse[row], True)
    for col in range(len(cii)):
        scan_line(float(cx[col]), cy, member[:, col], off_f[:, col] & near_coarse[:, col], False)

    return PairSet(pairs=tuple(sorted(pairs)), kind="boundary")


def _coarse_grid(truth: BitGrid, k: int, mask: np.ndarray | None = None) -> BitGrid:
    bits = truth.bits if mask is None else (truth.bits & mask)
    sub = bits[::k, ::k]
    lat = truth.lattice
    coarse = Lattice(epsilon=lat.epsilon * k, origin=lat.origin,
                     nx=sub.shape[1], ny=sub.shape[0])
    return BitGrid(lattice=coarse, bits=sub)


def _count8(bits: np.ndarray) -> int:
    _, n = ndimage.label(bits, structure=_EIGHT)
    return int(n)


def verify_bounds(truth: BitGrid, coarse_epsilon: float,
                  window: PolyRectangle | None = None) -> BoundReport:
    """Check the digitized-component and Euler-characteristic bounds.

    Without a window: #components(coarse set) <= 2 * #interior pairs +
    #components(truth), and the chi bound is evaluated against the truth
    grid's own rectangular frame (4 corners, no boundary pairs can occur
    when the set keeps its margin).  With a window the windowed forms are
    used: the right side gains 2 * #boundary pairs + 2 * #window corners,
    interior pairs are restricted to the window dilated by the coarse mesh,
    and truth components are counted on the windowed set.  True component
    counts use 8-connectivity (continuum stand-in); the coarse digitization
    uses the lattice convention of 4-connected set and complement.
    """
    k = _subdivision(truth, coarse_epsilon)
    lat = truth.lattice
    h = lat.epsilon

    if window is None:
        x0, y0 = lat.point(0, 0)
        x1, y1 = lat.point(lat.nx - 1, lat.ny - 1)
        frame = PolyRectangle(rects=((x0, x1, y0, y1),))
        w_mask = None
        corners = 4
        windowed = False
    else:
        frame = window
        cx = lat.origin[0] + h * np.arange(lat.nx)
        cy = lat.origin[1] + h * np.arange(lat.ny)
        w_mask = frame.contains(cx[None, :], cy[:, None])
        corners = len(corner_points(frame))
        windowed = True

    truth_masked = truth.bits if w_mask is None else (truth.bits & w_mask)
    n_truth = _count8(truth_masked)

    comp_truth = BitGrid(lattice=lat, bits=~truth.bits)
    n_int_f = len(detect_interior_pairs(truth, coarse_epsilon, window=frame))
    n_int_fc = len(detect_interior_pairs(comp_truth, coarse_epsilon, window=frame))
    nb_f = len(detect_boundary_pairs(truth, coarse_epsilon, frame))
    nb_fc = len(detect_boundary_pairs(comp_truth, coarse_epsilon, frame))

    coarse = _coarse_grid(truth, k, w_mask)
    n_digitized = _count8(coarse.bits)
    # subsampling can land set bits on the coarse border; an empty ring
    # changes neither component count, and restores the labeling margin
    ring = Lattice(epsilon=coarse.lattice.epsilon,
                   origin=(coarse.lattice.origin[0] - coarse.lattice.epsilon,
                           coarse.lattice.origin[1] - coarse.lattice.epsilon),
                   nx=coarse.lattice.nx + 2, ny=coarse.lattice.ny + 2)
    coarse = BitGrid(lattice=ring, bits=np.pad(coarse.bits, 1))

    if windowed:
        bound_rhs = 2 * n_int_f + 2 * nb_f + n_truth + 2 * corners
    else:
        bound_rhs = 2 * n_int_f + n_truth

    labeling = label_components(coarse)
    chi = labeling.num_set_components - labeling.num_complement_bounded_components
    comp_masked = (~truth.bits) if w_mask is None else ((~truth.bits) & w_mask)
    chi_rhs = (3 * corners + 2 * max(n_int_f, n_int_fc) + 2 * max(nb_f, nb_fc)
               + max(n_truth, _count8(comp_masked)))

    return BoundReport(
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
    )
