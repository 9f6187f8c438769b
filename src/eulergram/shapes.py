"""Test sets: polyrectangle windows, smooth shapes, ball morphology.

Polyrectangles (finite unions of axis-aligned rectangles, no two member
rectangles sharing a corner) get exact geometry from a coordinate-sweep
arrangement: collect every rectangle edge coordinate, mark the occupied
cells by their midpoints, classify each arrangement vertex by its four
quadrant cells.  The run kernel of ``topology`` reads chi, the
directional perimeters and the area off the cells' row runs, and the 2x2
window kernel of the lattice Euler characteristic gives the corner
census, both exactly.

Smooth shapes (disc, annulus, unions, implicit sets) are exposed as
predicates with a bounding box, built from plain dicts that hold each
kind's keys and no other.  Every set also lists its cells row by row
as column runs for the continuum sweep of ``variogram``, for a stack of
copies at x-offsets of their own: discs and annuli in closed form,
confirmed against the predicate's own float expression, unions by merging
the runs of their members, each asked only for the rows its box reaches,
and implicit sets by reading them off the predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CornerClash, InvalidSpec, RadiusTooSmall, _kind
from .lattice import BitGrid, IndicatorSet, _run_list
from .topology import _run_features, _window_counts

__all__ = [
    "PolyRectangle",
    "polyrect_features",
    "corner_points",
    "make_shape",
    "morph",
]


def _windows(occ: np.ndarray):
    # the quadrants sw, se, nw, ne of every arrangement vertex, border ones included
    p = np.pad(occ, 1, constant_values=False)
    return p[:-1, :-1], p[:-1, 1:], p[1:, :-1], p[1:, 1:]


@dataclass(frozen=True)
class PolyRectangle:
    """Union of closed axis-aligned rectangles (x0, x1, y0, y1)."""

    rects: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        norm = []
        for r in self.rects:
            x0, x1, y0, y1 = (float(v) for v in r)
            if not (all(map(math.isfinite, (x0, x1, y0, y1))) and x1 > x0 and y1 > y0):
                raise InvalidSpec(f"rectangle {r!r} needs finite x0 < x1 and y0 < y1")
            norm.append((x0, x1, y0, y1))
        if not norm:
            raise InvalidSpec("a polyrectangle needs at least one rectangle")
        object.__setattr__(self, "rects", tuple(norm))
        seen: dict[tuple[float, float], int] = {}
        for i, (x0, x1, y0, y1) in enumerate(self.rects):
            for c in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
                j = seen.setdefault(c, i)
                if j != i:
                    raise CornerClash(f"rectangles {j} and {i} share corner {c}")

    @property
    def bounding_box(self) -> tuple[float, float, float, float]:
        x0 = min(r[0] for r in self.rects)
        x1 = max(r[1] for r in self.rects)
        y0 = min(r[2] for r in self.rects)
        y1 = max(r[3] for r in self.rects)
        return (x0, x1, y0, y1)

    def contains(self, x, y):
        """Closed-union membership, vectorized over broadcast arrays."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for x0, x1, y0, y1 in self.rects:
            out |= (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return out

    def row_runs(self, xs, ys, dx):
        """Column runs of the union row by row, one per rectangle before merging."""
        r = np.array(self.rects)
        shifted = [xs - d for d in dx]
        lo = np.array([np.searchsorted(x, r[:, 0], "left") for x in shifted])[:, None]
        hi = np.array([np.searchsorted(x, r[:, 1], "right") for x in shifted])[:, None]
        rows = (ys[:, :, None] >= r[:, 2]) & (ys[:, :, None] <= r[:, 3])
        return _merge_runs(np.where(rows, lo, 0).reshape(-1, len(r)),
                           np.where(rows, hi, 0).reshape(-1, len(r)))

    def cells(self, xs, ys):
        """Coverage of the cells between axis values, exact if the axes hold every edge inside."""
        return self.contains(0.5 * (xs[:-1] + xs[1:])[None, :], 0.5 * (ys[:-1] + ys[1:])[:, None])

    @cached_property
    def _arrangement(self):
        rects = np.array(self.rects)
        xs, ys = np.unique(rects[:, :2]), np.unique(rects[:, 2:])
        return xs, ys, self.cells(xs, ys)

    @cached_property
    def _pieces(self) -> np.ndarray:
        """Interior-disjoint rectangles (p, 4) whose union is the set, one per row run
        of the arrangement, in raster order; the runs of one strip neither overlap
        nor touch, so no column of a strip lies in two pieces."""
        xs, ys, occ = self._arrangement
        rows, lo, hi = _run_list(occ)
        return np.stack([xs[lo], xs[hi], ys[rows], ys[rows + 1]], 1)

    @cached_property
    def _maximal_edges(self) -> np.ndarray:
        """Boundary edges merged into maximal axis-aligned segments.

        Rows are (vertical, fixed coordinate, lo, hi): a run of boundary edges
        of the arrangement along one grid line is one segment.
        """
        xs, ys, occ = self._arrangement
        sw, se, nw, _ = _windows(occ)
        rows = []
        for vertical, edge, fixed, run in ((1.0, (se[1:] ^ sw[1:]).T, xs, ys),
                                           (0.0, nw[:, 1:] ^ sw[:, 1:], ys, xs)):
            line, lo, hi = _run_list(edge)
            rows.append(np.stack([np.full(len(line), vertical), fixed[line], run[lo], run[hi]], 1))
        return np.concatenate(rows)


def polyrect_features(w: PolyRectangle) -> dict:
    """Exact chi, directional perimeters, area and corner counts.

    Outward corners are arrangement vertices whose only occupied quadrant
    is the south-west one, inward corners those whose only empty quadrant
    is the north-east one; chi, which the run kernel gives, is their
    difference.  Both are read off the window tallies, as phi_out and
    phi_in: no two rectangles share a corner, so the arrangement has no
    X-vertices.
    """
    xs, ys, occ = w._arrangement
    counts = _window_counts(occ)
    return {
        **_run_features(xs, ys, *_run_list(occ))[0],
        "out_corners": counts.phi_out,
        "in_corners": counts.phi_in,
    }


def corner_points(w: PolyRectangle) -> list[tuple[float, float]]:
    """All boundary corners: vertices with an odd number of occupied quadrants."""
    xs, ys, occ = w._arrangement
    sw, se, nw, ne = _windows(occ)
    s = sw.astype(np.int8) + se + nw + ne
    jj, ii = np.nonzero((s == 1) | (s == 3))
    return [(float(xs[i]), float(ys[j])) for j, i in zip(jj, ii)]


# ------------------------------------------------------------- row runs
# Runs are half-open column ranges, one (rows, k) array of starts and one
# of ends; see ``IndicatorSet`` for the contract.


def _merge_runs(lo, hi):
    """Maximal runs of each row's union: sort by start, fold runs that touch or overlap.

    Each row's non-empty runs come first, packed to the fullest row's
    count, so a union lists as many runs per row as its rows cross, not
    one per member; the arrays are kept when no row is narrower.
    """
    order = np.argsort(lo, axis=1)
    lo, hi = np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)
    reach = np.maximum.accumulate(hi, axis=1)
    start = np.ones(lo.shape, dtype=bool)
    start[:, 1:] = lo[:, 1:] > reach[:, :-1]
    end = np.ones(lo.shape, dtype=bool)
    end[:, :-1] = start[:, 1:]
    # starts ascend, so the running max of the starts is the open group's start
    first = np.maximum.accumulate(np.where(start, lo, 0), axis=1)
    lo, hi = np.where(end, first, 0), np.where(end, reach, 0)
    kept = hi > lo
    if kept.all():
        return lo, hi
    k = max(1, kept.sum(1).max())
    if k == lo.shape[1]:
        return lo, hi
    order = np.argsort(~kept, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)


def _intersect_runs(a, b):
    """Runs of each row's intersection; maximal when both inputs are."""
    lo = np.maximum(a[0][:, :, None], b[0][:, None, :]).reshape(len(a[0]), -1)
    hi = np.minimum(a[1][:, :, None], b[1][:, None, :]).reshape(len(a[0]), -1)
    return lo, np.maximum(lo, hi)


def _nearest(xs, d, cx):
    """The first column ``c`` whose point ``xs[c] - d`` is nearest ``cx``.

    Searching ``xs`` for ``cx + d`` lands within a rounding of the points'
    own bracket of ``cx``, and is stepped until the points bracket it.
    """
    n = xs.size
    k = int(np.searchsorted(xs, cx + d))
    while k > 0 and xs[k - 1] - d >= cx:
        k -= 1
    while k < n and xs[k] - d < cx:
        k += 1
    return k - 1 if k == n or (k > 0 and (xs[k - 1] - d - cx) ** 2 <= (xs[k] - d - cx) ** 2) else k


def _d2(x, y, cx, cy):
    """Squared distance to (cx, cy): the one float expression discs and annuli test."""
    return (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2


def _settle(p, d, n, inside):
    # move each run end p outward (its d is -1 or +1) while the next cell is
    # inside, then inward while p itself is outside; this stops at the centre cell
    while True:
        q = p + d
        out = (q >= 0) & (q < n) & inside(np.minimum(np.maximum(q, 0), n - 1))
        if not out.any():
            break
        p = np.where(out, q, p)
    while True:
        back = ~inside(p)
        if not back.any():
            return p
        p = np.where(back, p - d, p)


def _ball_run(xs, ys, dx, cx, cy, r2, within):
    """The columns i with ``within(_d2(xs[i] - dx[q], y), r2)``: one run per row y of copy q.

    Along a row ``_d2`` falls and then rises, in floats too (``xs``
    ascends and every operation is monotone), so the inside columns form
    one run around the column ``c`` whose point ``xs[c] - dx[q]`` is
    nearest ``cx``, found once per copy.  A row whose ``c`` is outside is
    empty; this probe also catches tangent rows that the closed form
    misses.  Otherwise the closed-form ends are moved until the predicate
    itself confirms them.  ``_d2``'s two terms are formed apart, the
    row's once, and added in its order, so every test is bit for bit
    ``_d2``'s.
    """
    n, m = xs.size, ys.shape[1]
    c = np.array([_nearest(xs, d, cx) for d in dx])
    lo = np.repeat(c, m)
    hi = lo.copy()
    ty = (ys - cy) ** 2
    rows = np.flatnonzero(within(((xs[c] - dx - cx) ** 2)[:, None] + ty, r2))
    if rows.size:
        ty, d, c = ty.ravel()[rows], dx[rows // m], lo[rows]
        w = np.sqrt(np.maximum(r2 - ty, 0.0))
        step = (xs[-1] - xs[0]) / (n - 1) if n > 1 else 1.0
        x0 = xs[0] - d
        first = np.minimum(np.maximum(np.ceil((cx - w - x0) / step), 0).astype(np.intp), c)
        last = np.maximum(np.minimum(np.floor((cx + w - x0) / step), n - 1).astype(np.intp), c)
        # both ends of every row settle together, the low ends moving down
        ty2, d2 = np.concatenate([ty, ty]), np.concatenate([d, d])

        def inside(cols):
            return within((xs[cols] - d2 - cx) ** 2 + ty2, r2)

        ends = _settle(np.concatenate([first, last]), np.repeat([-1, 1], rows.size), n, inside)
        lo[rows], hi[rows] = ends[:rows.size], ends[rows.size:] + 1
    return lo, hi


def _box_block(x, y, box):
    """The block of the broadcast ``(x, y)`` that can hold points of ``box``, or None.

    Returns ``(block, xb, yb)``: ``block`` slices each axis of the
    broadcast shape to the index range where the inputs varying along it
    fall inside the box's ranges (the smallest block when each axis varies
    in one input only, as for the axes ``digitize`` passes), and ``xb``,
    ``yb`` are the inputs cut to it, an axis an input broadcasts over
    staying whole.  The box is widened by a relative 1e-9 first, which
    covers the rounding of an edge such as ``cx + r``: no point beyond the
    widened box passes a disc's or an annulus's ``_d2`` test.
    """
    pad = 1e-9 * max(map(abs, box))
    shape = np.broadcast(x, y).shape
    lo, hi = [0] * len(shape), list(shape)
    for a, a0, a1 in ((x, box[0], box[1]), (y, box[2], box[3])):
        hits = np.atleast_1d((a >= a0 - pad) & (a <= a1 + pad)).nonzero()
        if not hits[0].size:
            return None
        for k, n, at in zip(range(len(shape) - a.ndim, len(shape)), a.shape, hits):
            if n > 1:
                lo[k], hi[k] = max(lo[k], at.min()), min(hi[k], at.max() + 1)
    if any(i >= j for i, j in zip(lo, hi)):
        return None
    block = tuple(map(slice, lo, hi))

    def cut(a):
        own = zip(block[len(block) - a.ndim:], a.shape)
        return a[tuple(b if n > 1 else slice(None) for b, n in own)]
    return block, cut(x), cut(y)


def _centre(spec: dict) -> tuple[float, float]:
    cx, cy = (float(v) for v in spec["center"])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise InvalidSpec(f"centre must be finite, got {spec['center']!r}")
    return cx, cy


def _box(value) -> tuple[float, float, float, float]:
    try:
        box = x0, x1, y0, y1 = tuple(float(v) for v in value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"bounding_box must be [x0, x1, y0, y1], got {value!r}") from exc
    if not (all(map(math.isfinite, box)) and x0 <= x1 and y0 <= y1):
        raise InvalidSpec(f"bounding_box needs finite x0 <= x1 and y0 <= y1, got {value!r}")
    return box


# the keys each kind of shape reads besides "type"
_SHAPE_KEYS = {"disc": ("center", "r"), "annulus": ("center", "r_in", "r_out"),
               "union": ("members",), "implicit": ("g", "bounding_box")}


def make_shape(spec: dict) -> IndicatorSet:
    """Build a membership predicate and its bounding box from a plain dict.

    Supported kinds, each with exactly these keys:
    {"type": "disc", "center": [x, y], "r": r},
    {"type": "annulus", "center": [x, y], "r_in": a, "r_out": b},
    {"type": "union", "members": [spec, ...]} and
    {"type": "implicit", "g": callable, "bounding_box": [x0, x1, y0, y1]}.
    The set is {g <= 0} for implicit specs; g must accept numpy arrays.
    Any other key raises :class:`InvalidSpec`.
    """
    kind = _kind(spec, "type", _SHAPE_KEYS, "shape")
    if kind == "disc":
        cx, cy = _centre(spec)
        r = float(spec["r"])
        if not 0 < r < math.inf:
            raise InvalidSpec(f"disc radius must be positive and finite, got {r}")

        def contains(x, y, cx=cx, cy=cy, r=r):
            return _d2(x, y, cx, cy) <= r * r

        def row_runs(xs, ys, dx, cx=cx, cy=cy, r=r):
            lo, hi = _ball_run(xs, ys, dx, cx, cy, r * r, np.less_equal)
            return lo[:, None], hi[:, None]

        return IndicatorSet(
            contains=contains,
            bounding_box=(cx - r, cx + r, cy - r, cy + r),
            row_runs=row_runs,
        )

    if kind == "annulus":
        cx, cy = _centre(spec)
        r_in = float(spec["r_in"])
        r_out = float(spec["r_out"])
        if not (0 < r_in < math.inf and 0 < r_out < math.inf):
            raise InvalidSpec(f"annulus radii must be positive and finite, got {r_in}, {r_out}")
        if r_in >= r_out:
            raise InvalidSpec(f"need r_in < r_out, got {r_in} >= {r_out}")

        def contains(x, y, cx=cx, cy=cy, a=r_in, b=r_out):
            d2 = _d2(x, y, cx, cy)
            return (d2 >= a * a) & (d2 <= b * b)

        def row_runs(xs, ys, dx, cx=cx, cy=cy, a=r_in, b=r_out):
            # {d2 <= b^2} minus the hole {d2 < a^2}, which lies inside it;
            # an empty hole moves to the outer start so the runs never touch
            lo, hi = _ball_run(xs, ys, dx, cx, cy, b * b, np.less_equal)
            hole_lo, hole_hi = _ball_run(xs, ys, dx, cx, cy, a * a, np.less)
            hole = hole_lo < hole_hi
            hole_lo, hole_hi = np.where(hole, hole_lo, lo), np.where(hole, hole_hi, lo)
            return np.stack([lo, hole_hi], 1), np.stack([hole_lo, hi], 1)

        return IndicatorSet(
            contains=contains,
            bounding_box=(cx - r_out, cx + r_out, cy - r_out, cy + r_out),
            row_runs=row_runs,
        )

    if kind == "union":
        members = [make_shape(m) for m in spec["members"]]
        if not members:
            raise InvalidSpec("union needs at least one member")

        # a member is evaluated only on its box's block of the inputs, so a
        # union relies on every member's bounding_box holding the member
        def contains(x, y, members=members):
            x, y = np.asarray(x), np.asarray(y)
            out = np.zeros(np.broadcast(x, y).shape, dtype=bool)
            for m in members:
                part = _box_block(x, y, m.bounding_box)
                if part is not None:
                    block, xb, yb = part
                    out[block] |= m.contains(xb, yb)
            return out

        boxes = [m.bounding_box for m in members]
        bbox = (min(b[0] for b in boxes), max(b[1] for b in boxes),
                min(b[2] for b in boxes), max(b[3] for b in boxes))

        # a member is asked only for the block of copies and rows that its
        # box can reach, found as contains finds it (an x on the box cuts no
        # column); its other rows are empty, and a block of all rows is the
        # call itself
        def row_runs(xs, ys, dx, members=members):
            runs = []
            for m in members:
                part = _box_block(np.float64(m.bounding_box[0]), ys, m.bounding_box)
                if part is None:
                    continue
                block, _, yb = part
                lo, hi = m.row_runs(xs, yb, dx[block[0]])
                if yb.shape != ys.shape:
                    out = np.zeros((2, *ys.shape, lo.shape[1]), dtype=lo.dtype)
                    out[(slice(None), *block)] = np.stack([lo, hi]).reshape(2, *yb.shape, -1)
                    lo, hi = out.reshape(2, ys.size, -1)
                runs.append((lo, hi))
            if not runs:
                return (np.zeros((ys.size, 1), dtype=np.intp),) * 2
            return _merge_runs(np.concatenate([lo for lo, _ in runs], 1),
                               np.concatenate([hi for _, hi in runs], 1))

        return IndicatorSet(contains=contains, bounding_box=bbox, row_runs=row_runs)

    bbox = _box(spec.get("bounding_box"))
    g = spec.get("g")
    if not callable(g):
        raise InvalidSpec("implicit shape needs a callable 'g'")

    def contains(x, y, g=g):
        return np.asarray(g(x, y)) <= 0

    return IndicatorSet(contains=contains, bounding_box=bbox)


def _ball_mask(dist: np.ndarray, r_cells: float) -> np.ndarray:
    # closed-ball threshold on squared distances; the slack absorbs the
    # float round trip through the square root without ever admitting the
    # next integer radius
    d2 = dist * dist
    return d2 <= r_cells * r_cells * (1.0 + 1e-12) + 1e-9


def morph(grid: BitGrid, radius: float, op: str) -> BitGrid:
    """Dilate or erode by a closed Euclidean ball, exactly on the lattice.

    Returns a new grid on the same lattice.  Erosion is the complement of
    dilating the complement; the complement is padded out far enough that
    everything beyond the grid counts as background, which keeps the
    duality bit-exact.
    """
    eps = grid.lattice.epsilon
    if radius < eps:
        raise RadiusTooSmall(f"radius {radius} is below the mesh {eps}")
    if op not in ("dilate", "erode"):
        raise InvalidSpec(f"op must be 'dilate' or 'erode', got {op!r}")
    r_cells = radius / eps

    # imported here, never at module level: scipy.ndimage costs most of the
    # start-up of ``import eulergram``, and no other routine calls it
    from scipy import ndimage

    if op == "dilate":
        dist = ndimage.distance_transform_edt(~grid.bits)
        bits = _ball_mask(dist, r_cells)
    else:
        pad = int(math.ceil(r_cells)) + 1
        comp = np.pad(~grid.bits, pad, constant_values=True)
        dist = ndimage.distance_transform_edt(~comp)
        grown = _ball_mask(dist, r_cells)
        bits = ~grown[pad:-pad, pad:-pad]

    return BitGrid(lattice=grid.lattice, bits=bits)
