"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written in plain Python with explicit
loops and breadth-first searches, sharing no code path with the package:
these are the oracles the fast implementations are judged against.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque

import numpy as np


def bfs_component_count(bits, connectivity: int = 4) -> int:
    """Count connected components of True cells by breadth-first search."""
    bits = np.asarray(bits, dtype=bool)
    ny, nx = bits.shape
    if connectivity == 4:
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    elif connectivity == 8:
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1),
                 (1, 1), (1, -1), (-1, 1), (-1, -1))
    else:
        raise ValueError(connectivity)
    seen = np.zeros_like(bits)
    count = 0
    for j in range(ny):
        for i in range(nx):
            if not bits[j, i] or seen[j, i]:
                continue
            count += 1
            queue = deque([(j, i)])
            seen[j, i] = True
            while queue:
                cj, ci = queue.popleft()
                for dj, di in steps:
                    nj, ni = cj + dj, ci + di
                    if 0 <= nj < ny and 0 <= ni < nx \
                            and bits[nj, ni] and not seen[nj, ni]:
                        seen[nj, ni] = True
                        queue.append((nj, ni))
    return count


def bounded_hole_count(bits, connectivity: int = 4) -> int:
    """Complement components not reachable from the border, ``connectivity``-connected."""
    bits = np.asarray(bits, dtype=bool)
    framed = np.pad(~bits, 1, constant_values=True)
    total = bfs_component_count(framed, connectivity)
    return total - 1  # the frame-connected sea is the unbounded one


def scan_config_counts(bits) -> dict:
    """2x2 window pattern counts by explicit per-anchor loops.

    Anchor z reads (a, b, c, d) = (z, z+u1, z+u2, z+u1+u2); cells off the
    grid read as background.
    """
    bits = np.asarray(bits, dtype=bool)
    ny, nx = bits.shape

    def at(j, i):
        return bool(bits[j, i]) if 0 <= j < ny and 0 <= i < nx else False

    out = inn = x_set = x_comp = 0
    for j in range(-1, ny + 1):
        for i in range(-1, nx + 1):
            a, b = at(j, i), at(j, i + 1)
            c, d = at(j + 1, i), at(j + 1, i + 1)
            if a and not b and not c:
                out += 1
            if b and c and not d:
                inn += 1
            if a and d and not b and not c:
                x_set += 1
            if b and c and not a and not d:
                x_comp += 1
    return {"phi_out": out, "phi_in": inn,
            "phi_x_set": x_set, "phi_x_complement": x_comp}


def scan_chi_vef(bits) -> int:
    """V - E + F by explicit loops over bits, adjacencies, and 2x2 blocks."""
    bits = np.asarray(bits, dtype=bool)
    ny, nx = bits.shape
    v = e = f = 0
    for j in range(ny):
        for i in range(nx):
            if not bits[j, i]:
                continue
            v += 1
            if i + 1 < nx and bits[j, i + 1]:
                e += 1
            if j + 1 < ny and bits[j + 1, i]:
                e += 1
            if i + 1 < nx and j + 1 < ny and bits[j, i + 1] \
                    and bits[j + 1, i] and bits[j + 1, i + 1]:
                f += 1
    return v - e + f


def chi_by_components(bits) -> int:
    """The lattice convention: 4-connected set components minus 8-connected holes."""
    return bfs_component_count(bits, 4) - bounded_hole_count(bits, 8)


def scan_cell_measures(xs, ys, occ) -> dict:
    """per1, per2 and vol of a union of closed arrangement cells, by loops.

    Cell (j, i) is [xs[i], xs[i+1]] x [ys[j], ys[j+1]]; off-grid cells read
    as empty.  A cell side is boundary when exactly one of its two cells is
    occupied; per1 sums the vertical sides, per2 the horizontal ones.
    """
    occ = np.asarray(occ, dtype=bool)
    ny, nx = occ.shape

    def at(j, i):
        return bool(occ[j, i]) if 0 <= j < ny and 0 <= i < nx else False

    per1 = per2 = vol = 0.0
    for j in range(ny):
        for i in range(nx + 1):
            if at(j, i - 1) != at(j, i):
                per1 += ys[j + 1] - ys[j]
    for j in range(ny + 1):
        for i in range(nx):
            if at(j - 1, i) != at(j, i):
                per2 += xs[i + 1] - xs[i]
    for j in range(ny):
        for i in range(nx):
            if occ[j, i]:
                vol += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return {"per1": per1, "per2": per2, "vol": vol}


def stamped_field_by_loop(xs, ys, rect_lists, weights):
    """Per-cell weight sums over grains, one rectangle at a time.

    Grain g covers the cells of its rectangles ``rect_lists[g]`` with weight
    ``weights[g]``.  Each rectangle, clipped to the axes, adds its weight at
    its (x0, y0) and (x1, y1) corners of a difference array and subtracts it
    at the other two, in that order; row then column running sums give the
    field on cell (j, i) = [xs[i], xs[i+1]] x [ys[j], ys[j+1]].
    """
    xs, ys = list(xs), list(ys)
    nx, ny = len(xs), len(ys)
    diff = [[0.0] * nx for _ in range(ny)]
    for rects, wgt in zip(rect_lists, weights):
        for rx0, rx1, ry0, ry1 in rects:
            cx0, cx1 = max(rx0, xs[0]), min(rx1, xs[-1])
            cy0, cy1 = max(ry0, ys[0]), min(ry1, ys[-1])
            if cx1 <= cx0 or cy1 <= cy0:
                continue
            i0, i1 = bisect_left(xs, cx0), bisect_left(xs, cx1)
            j0, j1 = bisect_left(ys, cy0), bisect_left(ys, cy1)
            diff[j0][i0] += wgt
            diff[j0][i1] -= wgt
            diff[j1][i0] -= wgt
            diff[j1][i1] += wgt
    for j in range(1, ny):
        for i in range(nx):
            diff[j][i] += diff[j - 1][i]
    for j in range(ny):
        for i in range(1, nx):
            diff[j][i] += diff[j][i - 1]
    return np.array([row[:nx - 1] for row in diff[:ny - 1]], dtype=float)


def realization_by_loop(model, domain, seed):
    """(rects, marks, count) of one shot-noise realization, drawn germ by germ.

    Repeats the sampler's draws with numpy's generator in their fixed order
    (germ count, x then y locations, grains, marks) and lays the rows out
    with plain loops: each germ's grain rectangles in grain order,
    translated by the germ, each row carrying the germ's mark.  Grains are
    a mixture of fixed polyrectangles (``components``, ``probs``) or random
    rectangles [0, A] x [0, B] with bounded edge laws (``a_law``,
    ``b_law``); marks are atomic (``values``, ``probs``) or follow a scalar
    law.  A scalar law is uniform (``low``, ``high``) or exponential
    (``scale``, ``truncate_q``): exponential draws are clamped at the
    ``truncate_q`` quantile when it is set, and below at 1e-300.  The germ
    region pads the domain by the largest grain coordinate magnitude on
    each axis.  Only the laws' attributes are read, never their methods.
    """
    grains, mark_law = model.grain_dist, model.mark_dist
    mixture = hasattr(grains, "components")

    def cap(law):
        if hasattr(law, "low"):
            return law.high
        q = law.truncate_q
        return math.inf if q is None else -law.scale * math.log1p(-q)

    if mixture:
        shapes = [list(w.rects) for w in grains.components]
        pad_x = max(abs(v) for g in shapes for r in g for v in r[:2])
        pad_y = max(abs(v) for g in shapes for r in g for v in r[2:])
    else:
        pad_x, pad_y = cap(grains.a_law), cap(grains.b_law)
    x0, x1, y0, y1 = (float(v) for v in domain)
    px0, px1, py0, py1 = x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y
    mean = model.intensity * (px1 - px0) * (py1 - py0)

    rng = np.random.default_rng(seed)
    n = int(rng.poisson(mean)) if mean > 0 else 0
    xs = rng.uniform(px0, px1, size=n)
    ys = rng.uniform(py0, py1, size=n)

    def draws(law):
        if hasattr(law, "low"):
            return list(rng.uniform(law.low, law.high, size=n))
        return [max(min(v, cap(law)), 1e-300) for v in rng.exponential(law.scale, size=n)]

    if mixture:
        picks = [0] * n if len(shapes) == 1 else \
            rng.choice(len(shapes), size=n, p=np.array(grains.probs))
        germ_rects = [shapes[k] for k in picks]
    else:
        aa, bb = draws(grains.a_law), draws(grains.b_law)
        germ_rects = [[(0.0, a, 0.0, b)] for a, b in zip(aa, bb)]
    if not hasattr(mark_law, "values"):
        marks = draws(mark_law)
    elif len(mark_law.values) == 1:
        marks = [mark_law.values[0]] * n
    else:
        marks = rng.choice(np.array(mark_law.values), size=n, p=np.array(mark_law.probs))

    rects, row_marks = [], []
    for i in range(n):
        gx, gy = float(xs[i]), float(ys[i])
        for rx0, rx1, ry0, ry1 in germ_rects[i]:
            rects.append((rx0 + gx, rx1 + gx, ry0 + gy, ry1 + gy))
            row_marks.append(float(marks[i]))
    return np.array(rects, dtype=float).reshape(-1, 4), np.array(row_marks, dtype=float), n


def densities_by_five_stamps(model, epsilon, window, replicates, seed) -> dict:
    """Finite-difference density estimates from five stamped fields per replicate.

    Replicate k is drawn by ``realization_by_loop`` with seed seed + k on
    the window grown by epsilon.  Its cell arrangement holds the window
    edges and every rectangle edge with its two epsilon-translates, clipped
    to the window.  On it, ``stamped_field_by_loop`` stamps the rectangles
    shifted by 0, -e u1, -e u2, +e u1 and +e u2, so the five fields hold f at
    a point, at its east and north translates and at its west and south
    ones.  Membership is f >= level.  Each pattern's probability is the
    area of its cells over the window's area; the areas are summed by
    numpy, as the estimator sums them, so that the floats can agree bit for
    bit.  Returns the densities and their standard errors under the keys of
    ``estimate_stationary_densities``.
    """
    e = float(epsilon)
    wx0, wx1, wy0, wy1 = (float(v) for v in window)
    w_area = (wx1 - wx0) * (wy1 - wy0)

    def axis(values, lo, hi):
        return sorted({min(max(v, lo), hi) for v in values} | {lo, hi})

    samples = []
    for k in range(replicates):
        rects, marks, _ = realization_by_loop(
            model, (wx0 - e, wx1 + e, wy0 - e, wy1 + e), seed + k)
        rows = [tuple(float(v) for v in r) for r in rects]
        xs = axis([v + o for r in rows for o in (0.0, -e, e) for v in r[:2]], wx0, wx1)
        ys = axis([v + o for r in rows for o in (0.0, -e, e) for v in r[2:]], wy0, wy1)
        inside, east_in, north_in, west_in, south_in = (
            stamped_field_by_loop(xs, ys, [[(x0 + ox, x1 + ox, y0 + oy, y1 + oy)]
                                           for x0, x1, y0, y1 in rows],
                                  marks) >= model.level
            for ox, oy in ((0.0, 0.0), (-e, 0.0), (0.0, -e), (e, 0.0), (0.0, e)))

        def frac(mask):
            cells = [(ys[j + 1] - ys[j]) * (xs[i + 1] - xs[i])
                     for j in range(len(ys) - 1) for i in range(len(xs) - 1) if mask[j, i]]
            return float(np.sum(np.array(cells, dtype=float))) / w_area

        p_out = frac(inside & ~east_in & ~north_in)
        p_in = frac(~inside & west_in & south_in)
        samples.append(((p_out - p_in) / (e * e), 2.0 * frac(inside & ~east_in) / e,
                        2.0 * frac(inside & ~north_in) / e, frac(inside)))

    out = {}
    for (density, stderr), col in zip(
            (("chi_bar", "chi_stderr"), ("per_bar_u1", "per_u1_stderr"),
             ("per_bar_u2", "per_u2_stderr"), ("vol_bar", "vol_stderr")), zip(*samples)):
        mean = math.fsum(col) / replicates
        var = math.fsum((v - mean) ** 2 for v in col) / (replicates - 1)
        out[density], out[stderr] = mean, math.sqrt(var / replicates)
    return out


def midpoint_shift_counts(contains, domain, h, specs) -> list:
    """Midpoint counts of shifted intersections, one whole-grid array per shift.

    The grid holds the cell midpoints of ``domain`` at spacing ``h``.  A shift
    within a relative 1e-9 of a whole number of cells reads the master grid at
    that integer offset, off-grid cells reading as empty; any other shift
    evaluates ``contains`` at the shifted midpoints.  ``specs`` is a list of
    (plus_shifts, minus_shifts) pairs; each count is the number of midpoints
    inside every plus copy and outside every minus copy.
    """
    x0, x1, y0, y1 = domain
    nx, ny = int(round((x1 - x0) / h)), int(round((y1 - y0) / h))
    xs = x0 + (np.arange(nx) + 0.5) * h
    ys = y0 + (np.arange(ny) + 0.5) * h
    master = np.asarray(contains(xs[None, :], ys[:, None]), dtype=bool)

    def copy_at(shift):
        qx, qy = shift[0] / h, shift[1] / h
        kx, ky = round(qx), round(qy)
        if abs(qx - kx) <= 1e-9 * max(1.0, abs(qx)) \
                and abs(qy - ky) <= 1e-9 * max(1.0, abs(qy)):
            # out[j, i] = master[j - ky, i - kx], read from a zero-padded canvas
            pad = max(abs(kx), abs(ky))
            canvas = np.pad(master, pad)
            return canvas[pad - ky:pad - ky + ny, pad - kx:pad - kx + nx]
        return np.asarray(contains(xs[None, :] - shift[0], ys[:, None] - shift[1]),
                          dtype=bool)

    counts = []
    for plus, minus in specs:
        acc = np.ones((ny, nx), dtype=bool)
        for s in plus:
            acc &= copy_at(s)
        for s in minus:
            acc &= ~copy_at(s)
        counts.append(int(acc.sum()))
    return counts


def _in_rects(rects, x, y) -> bool:
    return any(x0 <= x <= x1 and y0 <= y <= y1 for x0, x1, y0, y1 in rects)


def _dist_to_rects(rects, x, y) -> float:
    return min(math.hypot(max(x0 - x, 0.0, x - x1), max(y0 - y, 0.0, y - y1))
               for x0, x1, y0, y1 in rects)


def interior_pairs_by_loop(bits, h, origin, coarse_epsilon, rects=None) -> tuple:
    """Interior entanglement pairs, one test square and one BFS per neighbour pair.

    Coarse points sit every k = coarse_epsilon / h fine cells from cell (0, 0)
    at ``origin``.  Walking them in raster order, each point is paired with
    its east and then its north neighbour.  A pair counts when both ends are
    off the set, its test square (the ends as midpoints of two opposite
    sides, k // 2 cells to either side) lies inside the grid and holds a set
    cell, both ends lie within coarse_epsilon of ``rects`` when given, and
    the square with its border forced on except at the two ends is a single
    8-connected component.
    """
    bits = np.asarray(bits, dtype=bool)
    ny, nx = bits.shape
    k = round(coarse_epsilon / h)
    half = k // 2

    def point(i, j):
        return (origin[0] + h * i, origin[1] + h * j)

    pairs = []
    for cj in range(0, ny, k):
        for ci in range(0, nx, k):
            for i1, j1 in ((ci + k, cj), (ci, cj + k)):
                if i1 >= nx or j1 >= ny or bits[cj, ci] or bits[j1, i1]:
                    continue
                if j1 == cj:
                    ja, jb, ia, ib = cj - half, cj + half, ci, i1
                else:
                    ja, jb, ia, ib = cj, j1, ci - half, ci + half
                if ja < 0 or ia < 0 or jb >= ny or ib >= nx:
                    continue
                box = bits[ja:jb + 1, ia:ib + 1].copy()
                if not box.any():
                    continue
                if rects is not None and any(
                        _dist_to_rects(rects, *point(i, j)) > coarse_epsilon * (1 + 1e-12)
                        for i, j in ((ci, cj), (i1, j1))):
                    continue
                box[0, :] = box[-1, :] = box[:, 0] = box[:, -1] = True
                box[cj - ja, ci - ia] = box[j1 - ja, i1 - ia] = False
                if bfs_component_count(box, 8) == 1:
                    pairs.append((point(ci, cj), point(i1, j1)))
    return tuple(pairs)


def maximal_window_edges(rects) -> list:
    """Boundary of a rectangle union as maximal segments (vertical, fixed, lo, hi).

    A cell of the coordinate arrangement is occupied when its midpoint lies
    in a rectangle; a cell side is boundary when exactly one of its two cells
    is occupied (off-grid cells are empty).  Touching sides on one line merge.
    """
    xs = sorted({r[0] for r in rects} | {r[1] for r in rects})
    ys = sorted({r[2] for r in rects} | {r[3] for r in rects})

    def occ(i, j):
        return (0 <= i < len(xs) - 1 and 0 <= j < len(ys) - 1
                and _in_rects(rects, 0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])))

    lines: dict = {}
    for i in range(len(xs)):
        for j in range(len(ys) - 1):
            if occ(i - 1, j) != occ(i, j):
                lines.setdefault((True, xs[i]), []).append((ys[j], ys[j + 1]))
    for j in range(len(ys)):
        for i in range(len(xs) - 1):
            if occ(i, j - 1) != occ(i, j):
                lines.setdefault((False, ys[j]), []).append((xs[i], xs[i + 1]))
    edges = []
    for (vertical, c), spans in lines.items():
        spans.sort()
        lo, hi = spans[0]
        for a, b in spans[1:]:
            if a <= hi:
                hi = max(hi, b)
            else:
                edges.append((vertical, c, lo, hi))
                lo, hi = a, b
        edges.append((vertical, c, lo, hi))
    return edges


def boundary_pairs_by_loop(bits, h, origin, coarse_epsilon, rects) -> tuple:
    """Boundary entanglement pairs by walking every coarse row and column.

    Members are coarse points on the set and in ``rects``.  Two members that
    follow each other along a row or column count when at least one coarse
    point lies between them, every such point is off the set with a set cell
    within coarse_epsilon + h / sqrt(2) (brute force over cell offsets), and
    both members lie within coarse_epsilon of one maximal window edge.  The
    pairs are returned sorted.
    """
    bits = np.asarray(bits, dtype=bool)
    ny, nx = bits.shape
    k = round(coarse_epsilon / h)
    reach = coarse_epsilon + h / math.sqrt(2.0)
    r = int(reach / h) + 1
    tol = coarse_epsilon * (1 + 1e-12)
    edges = maximal_window_edges(rects)

    def near_set(i, j):
        return any(0 <= j + dj < ny and 0 <= i + di < nx and bits[j + dj, i + di]
                   and math.sqrt(dj * dj + di * di) * h <= reach
                   for dj in range(-r, r + 1) for di in range(-r, r + 1))

    def hugs(edge, x, y):
        vertical, c, lo, hi = edge
        along, perp = (y, x - c) if vertical else (x, y - c)
        return math.hypot(perp, max(lo - along, 0.0, along - hi)) <= tol

    rows = [[(i, j) for i in range(0, nx, k)] for j in range(0, ny, k)]
    cols = [[(i, j) for j in range(0, ny, k)] for i in range(0, nx, k)]
    pairs = []
    for line in rows + cols:
        last, between, clear = None, 0, True
        for i, j in line:
            p = (origin[0] + h * i, origin[1] + h * j)
            if bits[j, i] and _in_rects(rects, *p):
                if last is not None and between and clear and any(
                        hugs(e, *last) and hugs(e, *p) for e in edges):
                    pairs.append((last, p))
                last, between, clear = p, 0, True
            else:
                between += 1
                clear = clear and not bits[j, i] and near_set(i, j)
    return tuple(sorted(pairs))


def rect_union_area(rects) -> float:
    """Area of a union of axis rectangles by y-slab sweep with merged intervals."""
    ys = sorted({r[2] for r in rects} | {r[3] for r in rects})
    total = 0.0
    for y0, y1 in zip(ys, ys[1:]):
        mid = 0.5 * (y0 + y1)
        spans = sorted((r[0], r[1]) for r in rects if r[2] <= mid <= r[3])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in spans:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += covered * (y1 - y0)
    return total


def _merged_spans(rects, mid):
    spans = sorted((r[0], r[1]) for r in rects if r[2] <= mid <= r[3])
    merged = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def rect_union_perimeters(rects) -> tuple:
    """(per1, per2): vertical- and horizontal-normal boundary lengths.

    per1 sweeps y-slabs and counts 2 interval endpoints per merged span;
    per2 is the same sweep with the axes swapped.
    """
    def directional(rects):
        ys = sorted({r[2] for r in rects} | {r[3] for r in rects})
        total = 0.0
        for y0, y1 in zip(ys, ys[1:]):
            merged = _merged_spans(rects, 0.5 * (y0 + y1))
            total += 2 * len(merged) * (y1 - y0)
        return total

    swapped = [(r[2], r[3], r[0], r[1]) for r in rects]
    return directional(rects), directional(swapped)


def poisson_pmf(rate: float, k: int) -> float:
    return math.exp(-rate) * rate ** k / math.factorial(k)


def poisson_cdf(rate: float, k: int) -> float:
    return math.fsum(poisson_pmf(rate, i) for i in range(k + 1))


def brute_dilate(bits, r_cells: float):
    """Set every cell within Euclidean distance r_cells of a set cell."""
    bits = np.asarray(bits, dtype=bool)
    ny, nx = bits.shape
    out = np.zeros_like(bits)
    rr = int(math.ceil(r_cells))
    src = [(j, i) for j in range(ny) for i in range(nx) if bits[j, i]]
    limit = r_cells * r_cells * (1 + 1e-12) + 1e-9
    for j, i in src:
        for dj in range(-rr, rr + 1):
            for di in range(-rr, rr + 1):
                if dj * dj + di * di <= limit:
                    nj, ni = j + dj, i + di
                    if 0 <= nj < ny and 0 <= ni < nx:
                        out[nj, ni] = True
    return out


def brute_erode(bits, r_cells: float):
    """Keep cells whose whole r_cells-ball (off-grid = empty) is set."""
    bits = np.asarray(bits, dtype=bool)
    ny, nx = bits.shape
    out = np.zeros_like(bits)
    rr = int(math.ceil(r_cells))
    limit = r_cells * r_cells * (1 + 1e-12) + 1e-9
    for j in range(ny):
        for i in range(nx):
            if not bits[j, i]:
                continue
            keep = True
            for dj in range(-rr, rr + 1):
                for di in range(-rr, rr + 1):
                    if dj * dj + di * di <= limit:
                        nj, ni = j + dj, i + di
                        if not (0 <= nj < ny and 0 <= ni < nx) \
                                or not bits[nj, ni]:
                            keep = False
                            break
                if not keep:
                    break
            out[j, i] = keep
    return out


def polyvariogram_by_loop(bits, plus, minus) -> int:
    """Lattice points in every plus translate of the set and in no minus one.

    ``bits`` holds the whole set, everything off the raster being
    background; ``plus`` and ``minus`` are integer cell shifts (kx, ky), and
    point (i, j) lies in the translate by (kx, ky) iff bit (i - kx, j - ky)
    is set.  Each counted point lies in the first plus translate, so the loop
    visits only the set bits moved by that shift.
    """
    bits = np.asarray(bits, dtype=bool)
    ny, nx = bits.shape

    def member(i, j, shift):
        si, sj = i - shift[0], j - shift[1]
        return 0 <= si < nx and 0 <= sj < ny and bool(bits[sj, si])

    count = 0
    for sj in range(ny):
        for si in range(nx):
            if not bits[sj, si]:
                continue
            i, j = si + plus[0][0], sj + plus[0][1]
            if all(member(i, j, k) for k in plus[1:]) \
                    and not any(member(i, j, k) for k in minus):
                count += 1
    return count


def digitize_by_broadcast(indicator, lattice) -> np.ndarray:
    """Gauss digitization bits: the predicate asked once per lattice point.

    Both coordinates are full ``(ny, nx)`` arrays, so every point's x and
    y are formed as the lattice formula gives them, with no broadcasting
    left to the predicate.
    """
    xs = lattice.origin[0] + lattice.epsilon * np.arange(lattice.nx)
    ys = lattice.origin[1] + lattice.epsilon * np.arange(lattice.ny)
    gx, gy = np.broadcast_arrays(xs[None, :], ys[:, None])
    return np.asarray(indicator.contains(gx, gy), dtype=bool)


class LevelIndicator:
    """Pointwise f >= level inside a rectangular window, for digitization.

    A duck-typed indicator: it has ``contains`` and ``bounding_box`` and no
    row runs.  ``real`` needs ``rects`` (m, 4) and ``marks`` (m,); f is
    the sum of the marks of the closed rectangles covering a point.
    """

    def __init__(self, real, level, window):
        self.real = real
        self.level = level
        self.window = window
        self.bounding_box = window

    def contains(self, xs, ys):
        f = np.zeros(np.broadcast(xs, ys).shape)
        for (x0, x1, y0, y1), mark in zip(self.real.rects, self.real.marks):
            f += mark * ((xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1))
        wx0, wx1, wy0, wy1 = self.window
        inside = (xs >= wx0) & (xs <= wx1) & (ys >= wy0) & (ys <= wy1)
        return (f >= self.level) & inside


def row_runs_by_loop(inside) -> list:
    """Maximal runs of True in each row, as half-open (start, end) column pairs."""
    out = []
    for row in np.asarray(inside, dtype=bool):
        runs, start = [], None
        for i, v in enumerate(row):
            if v and start is None:
                start = i
            elif not v and start is not None:
                runs.append((start, i))
                start = None
        if start is not None:
            runs.append((start, len(row)))
        out.append(runs)
    return out
