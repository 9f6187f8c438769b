"""Polyvariograms and the quantities built from them.

A polyvariogram measures the volume (or lattice count) of a set intersected
with translated copies of itself and of its complement:

    vol( (A+x1) cap ... cap (A+xq) cap (A+y1)^c cap ... cap (A+ym)^c ).

Two corner volumes of this kind, taken at the axis shifts of size eps and
divided by eps^2, estimate the Euler characteristic; single-shift variograms
divided by eps estimate directional perimeters.  The continuum versions are
computed by midpoint counting on a fine sub-lattice with a row sweep that
counts whole runs of cells: every set lists its cells as a few runs per
row (``IndicatorSet.row_runs``), so the counting grows with the rows, not
the cells.  Discs, annuli, their unions and window clips give their runs
in closed form; a set without one (an implicit set) has its runs read
off its predicate cell by cell.  A copy's runs are made once, over all
rows, however many specs use its shift, and the copies at shifts off the
mesh are asked for together, stacked with their own x-offsets.  A spec's
count is exact integer inclusion-exclusion over its complemented copies,
each term intersecting run lists and summing the lengths, when its copies
hold few runs per row; otherwise it sorts the copies' run ends.  One sweep
serves every requested shift combination, so asking for several
variograms of the same set costs one sweep: ``directional_perimeters``
estimates Per_u for any list of directions at once, and every perimeter
estimate, the CLI's included, is one call to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NonLatticeShift, NotAdmissible
from .lattice import _DENSE_CELLS, BitGrid, IndicatorSet, _whole_multiple
from .shapes import _intersect_runs
from .topology import _window_counts

__all__ = [
    "ShiftSpec",
    "PerimeterEstimate",
    "discrete_polyvariogram",
    "continuous_polyvariogram",
    "chi_bicovariogram",
    "chi_bicovariogram_discrete",
    "directional_perimeters",
    "estimate_perimeter",
    "perimeter_axis_sum",
    "perimeter_variational",
]


def _as_shift_tuple(shifts) -> tuple[tuple[float, float], ...]:
    out = []
    for s in shifts:
        x, y = float(s[0]), float(s[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidSpec(f"shift {s!r} is not finite")
        out.append((x, y))
    return tuple(out)


@dataclass(frozen=True)
class ShiftSpec:
    """Shifts defining one polyvariogram: intersected and complemented copies."""

    plus_shifts: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    minus_shifts: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "plus_shifts", _as_shift_tuple(self.plus_shifts))
        object.__setattr__(self, "minus_shifts", _as_shift_tuple(self.minus_shifts))

    @property
    def all_shifts(self) -> tuple[tuple[float, float], ...]:
        return self.plus_shifts + self.minus_shifts


@dataclass(frozen=True)
class PerimeterEstimate:
    """Directional perimeter from a sequence of shrinking shift sizes."""

    direction: tuple[float, float]
    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    extrapolated: float

    def __post_init__(self):
        if len(self.epsilons) != len(self.values) or len(self.epsilons) < 2:
            raise InvalidSpec("epsilons and values must have equal length >= 2")
        if self.extrapolated < 0:
            raise InvalidSpec("extrapolated perimeter must be nonnegative")

    def rows(self) -> list[tuple[float, float]]:
        """(epsilon, value) pairs, ready for a CSV convergence table."""
        return list(zip(self.epsilons, self.values))


def _cell_steps(shift: tuple[float, float], unit: float) -> tuple[int, int] | None:
    kx, ky = _whole_multiple(shift[0], unit), _whole_multiple(shift[1], unit)
    return None if kx is None or ky is None else (kx, ky)


def discrete_polyvariogram(grid: BitGrid, shifts: ShiftSpec) -> int:
    """Count lattice points in the shifted intersection, exactly.

    The grid's set bits are the entire set; the computation pads enough
    background that every translate fits, so the count never depends on
    how much empty margin the caller happened to leave.
    """
    if not shifts.plus_shifts:
        raise InvalidSpec("at least one intersected copy is required; "
                          "a pure-complement count is infinite")
    eps = grid.lattice.epsilon
    steps = [_cell_steps(s, eps) for s in shifts.all_shifts]
    if None in steps:
        shift = shifts.all_shifts[steps.index(None)]
        raise NonLatticeShift(f"shift {shift} is not a multiple of epsilon={eps}")
    px = max(abs(k) for k, _ in steps)
    py = max(abs(k) for _, k in steps)
    ny, nx = grid.bits.shape
    # every copy lives on the grid padded by (py, px); padding the bits
    # twice as far makes each shifted copy a view of one array
    big = np.zeros((ny + 4 * py, nx + 4 * px), dtype=bool)
    big[2 * py:2 * py + ny, 2 * px:2 * px + nx] = grid.bits

    def shifted(kx, ky):
        return big[py - ky:py - ky + ny + 2 * py, px - kx:px - kx + nx + 2 * px]

    n_plus = len(shifts.plus_shifts)
    acc = shifted(*steps[0]).copy()
    for k in steps[1:n_plus]:
        acc &= shifted(*k)
    for k in steps[n_plus:]:
        acc &= ~shifted(*k)
    return int(np.count_nonzero(acc))


def _moved(runs, kx: int, ky: int, nx: int) -> tuple[np.ndarray, np.ndarray]:
    # row j of the copy shifted by whole cells is row j - ky moved by kx,
    # clipped to the grid; rows from off the grid are empty
    ny = len(runs[0])
    src = np.arange(ny) - ky
    ok = ((src >= 0) & (src < ny))[:, None]
    src = src.clip(0, ny - 1)
    return tuple(np.where(ok, np.clip(a[src] + kx, 0, nx), 0) for a in runs)


# a spec's inclusion-exclusion terms together hold at most this many runs
# per row; a costlier spec sorts its copies' run ends instead.  Both counts
# take time in proportion to the rows, so the threshold is a number of runs
# per row, whatever the height of the sweep.  Timed on disc and annulus
# unions, the expansion was the faster count at every spec up to 24 runs
_EXPAND_RUNS = 24


def _count(plus: list, minus: list) -> int:
    """Cells inside every plus copy and outside every minus copy, over all rows.

    Two exact integer counts, chosen by cost.  By inclusion-exclusion over
    the minus copies M,
    |cap P minus cup M| = sum over S in M of (-1)^|S| |cap P cap cap S|.
    A copy's runs in a row are disjoint, so the pairwise intersections of
    two copies' runs are disjoint too, and every term is the summed length
    of its runs.  With w runs per row in each copy, the terms hold
    prod_P w * prod_M (1 + w) runs per row in all: few for discs and
    annuli, but a power of the copies' runs when rows cross many union
    members or the minus copies are many.  Above ``_EXPAND_RUNS`` the count
    sorts each row's run ends instead: weighting each plus run 1 and each
    minus run -n (n plus copies) makes a cell's summed weight n exactly
    when it is counted, and the sort gives that sum between the ends.
    """
    width = math.prod(lo.shape[1] for lo, _ in plus)
    if width * math.prod(1 + lo.shape[1] for lo, _ in minus) > _EXPAND_RUNS:
        n = len(plus)
        copies = [(lo, hi, 1) for lo, hi in plus] + [(lo, hi, -n) for lo, hi in minus]
        ends = np.concatenate([a for lo, hi, _ in copies for a in (lo, hi)], axis=1)
        weights = np.concatenate([np.repeat([w, -w], lo.shape[1]) for lo, _, w in copies])
        order = np.argsort(ends, axis=1)
        cover = np.cumsum(weights[order], axis=1)
        gaps = np.diff(np.take_along_axis(ends, order, axis=1), axis=1)
        return int(gaps[cover[:, :-1] == n].sum())
    base = plus[0]
    for c in plus[1:]:
        base = _intersect_runs(base, c)

    def expand(acc, rest, sign):
        total = sign * int((acc[1] - acc[0]).sum())
        for i, m in enumerate(rest):
            total += expand(_intersect_runs(acc, m), rest[i + 1:], -sign)
        return total
    return expand(base, minus, 1)


def _sweep(indicator: IndicatorSet, specs: list[ShiftSpec], h: float,
           domain: tuple[float, float, float, float] | None = None) -> list[int]:
    """Midpoint counts of several shift specs over one fine grid of mesh ``h``.

    Every copy of the set is a list of column runs per row (see
    ``IndicatorSet.row_runs``), and each spec is counted by interval
    arithmetic on those runs (``_count``), over all rows in one call; a
    shift repeated among a spec's plus or minus copies is counted once.
    The master (shift 0) is read once, over all rows.  A shift of whole
    cells (kx, ky) reads master row j - ky moved by kx columns, off-grid
    cells reading as empty.  The other shifts are stacked, in the order
    the specs first use them, every copy with its own x-offset and
    shifted rows, into ``row_runs`` calls of at most ``_DENSE_CELLS // nx
    // ny`` copies (or one), and each copy is dropped after the last spec
    using it.  The default domain is the bounding box grown by the
    largest shift magnitude, so that every row the sweep might read
    outside it is genuinely empty.
    """
    if domain is None:
        x0, x1, y0, y1 = indicator.bounding_box
        m = max((abs(c) for spec in specs for s in spec.all_shifts for c in s), default=0.0)
        domain = (x0 - m, x1 + m, y0 - m, y1 + m)
    x0, x1, y0, y1 = domain
    if not (x1 > x0 and y1 > y0):
        raise InvalidSpec(f"degenerate sweep domain {domain}")
    if not 0 < h < math.inf:
        raise InvalidSpec(f"quad_mesh must be positive and finite, got {h}")
    wx, wy = (x1 - x0) / h, (y1 - y0) / h
    if max(wx, wy) > 1 << 31:  # refused before any allocation
        raise InvalidSpec(f"quad_mesh {h} gives a {wy:.3g} x {wx:.3g} sweep grid; "
                          "an axis holds at most 2**31 cells")
    nx, ny = int(round(wx)), int(round(wy))
    if nx < 1 or ny < 1:
        raise InvalidSpec(f"quad_mesh {h} is coarser than the sweep domain {domain}")
    for spec in specs:
        if not spec.plus_shifts:
            raise InvalidSpec("at least one intersected copy is required; "
                              "a pure-complement volume is infinite")
    xs = x0 + (np.arange(nx) + 0.5) * h
    ys = y0 + (np.arange(ny) + 0.5) * h
    steps = {s: _cell_steps(s, h) for spec in specs for s in spec.all_shifts}
    master = indicator.row_runs(xs, ys[None, :], np.zeros(1))
    unaligned = np.array([s for s, k in steps.items() if k is None]).reshape(-1, 2)

    def stacked():
        # the unaligned copies over all rows, in order of first use
        per = max(1, _DENSE_CELLS // nx // ny)
        for s in np.split(unaligned, np.arange(per, len(unaligned), per)):
            lo, hi = indicator.row_runs(xs, ys - s[:, 1:], s[:, 0])
            shape = (len(s), ny, lo.shape[1])
            yield from zip(lo.reshape(shape), hi.reshape(shape))

    # a copy is made once and dropped after the last spec using it, so a
    # sweep of thousands of unaligned shifts holds few copies at once
    last = {s: k for k, spec in enumerate(specs) for s in spec.all_shifts}
    done = [[s for s in set(spec.all_shifts) if last[s] == k] for k, spec in enumerate(specs)]
    fresh = stacked()
    copies = {}
    counts = []
    for k, spec in enumerate(specs):
        for s in spec.all_shifts:
            # a shift is missing only at its first use, so unaligned ones
            # come in the order ``stacked`` makes them
            if s not in copies:
                copies[s] = next(fresh) if steps[s] is None else _moved(master, *steps[s], nx)
        counts.append(_count([copies[s] for s in dict.fromkeys(spec.plus_shifts)],
                             [copies[s] for s in dict.fromkeys(spec.minus_shifts)]))
        for s in done[k]:
            del copies[s]
    return counts


def continuous_polyvariogram(indicator: IndicatorSet, shifts: ShiftSpec,
                             quad_mesh: float) -> float:
    """Midpoint-rule volume of the shifted intersection; error O(h * perimeter)."""
    (count,) = _sweep(indicator, [shifts], quad_mesh)
    return count * quad_mesh * quad_mesh


def _corner_specs(e: float) -> tuple[ShiftSpec, ShiftSpec]:
    # outward- and inward-corner copies at axis shifts e; their difference is chi
    return (ShiftSpec(plus_shifts=[(0.0, 0.0)], minus_shifts=[(-e, 0.0), (0.0, -e)]),
            ShiftSpec(plus_shifts=[(e, 0.0), (0.0, e)], minus_shifts=[(0.0, 0.0)]))


def _check_resolved(shift: float, quad_mesh: float) -> None:
    # a shift below the mesh moves no midpoint by a whole cell, and the
    # counts stop tracking the shifted volumes (chi -200 for a unit disc at
    # shift 0.001, mesh 0.01)
    if shift < quad_mesh:
        raise InvalidSpec(f"quad_mesh {quad_mesh!r} is coarser than the shift size "
                          f"{shift!r}; the sweep cannot resolve it")


def chi_bicovariogram(indicator: IndicatorSet, epsilon: float, quad_mesh: float) -> float:
    """Euler characteristic from two corner volumes at axis shifts of size epsilon.

    The difference of the outward-corner and inward-corner variogram volumes,
    divided by epsilon^2, is exactly chi for r-regular sets with r above the
    shift size; quadrature contributes O(quad_mesh/epsilon^2).  A shift
    size below ``quad_mesh`` is refused.
    """
    e = float(epsilon)
    if not 0 < e < math.inf:
        raise InvalidSpec(f"epsilon must be positive and finite, got {epsilon!r}")
    _check_resolved(e, quad_mesh)
    n_out, n_in = _sweep(indicator, list(_corner_specs(e)), quad_mesh)
    return (n_out - n_in) * quad_mesh * quad_mesh / (e * e)


def chi_bicovariogram_discrete(grid: BitGrid) -> int:
    """chi of an admissible grid, set bits on its border included, through lattice variograms."""
    counts = _window_counts(grid.bits)
    if not counts.admissible:
        raise NotAdmissible(counts.phi_x_set, counts.phi_x_complement)
    out_spec, in_spec = _corner_specs(grid.lattice.epsilon)
    return discrete_polyvariogram(grid, out_spec) - discrete_polyvariogram(grid, in_spec)


def _unit(direction) -> tuple[float, float]:
    ux, uy = float(direction[0]), float(direction[1])
    n = math.hypot(ux, uy)
    if n == 0 or not math.isfinite(n):
        raise InvalidSpec(f"direction {direction!r} has no length")
    return (ux / n, uy / n)


def _richardson(epsilons, values) -> float:
    # the single-shift variogram is eps*Per_u/2 + O(eps^2); a linear fit
    # through the last two points cancels the leading bias
    e1, e2 = epsilons[-2], epsilons[-1]
    v1, v2 = values[-2], values[-1]
    return max(0.0, (e1 * v2 - e2 * v1) / (e1 - e2))


def _validate_epsilons(epsilons, quad_mesh: float) -> tuple[float, ...]:
    eps = tuple(float(e) for e in epsilons)
    if len(eps) < 3:
        raise InvalidSpec("need at least 3 shift sizes")
    bad = [e for e in eps if not 0 < e < math.inf]
    if bad:
        raise InvalidSpec(f"shift size {bad[0]!r} is not positive and finite")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise InvalidSpec("shift sizes must be strictly decreasing")
    _check_resolved(eps[-1], quad_mesh)
    return eps


def _circle(n: int) -> list[tuple[float, float]]:
    # n equally spaced unit directions, starting at exactly (1, 0)
    if not 4 <= n <= 1 << 16:  # refused before the direction list is built
        raise InvalidSpec("need at least 4 and at most 2**16 directions")
    thetas = 2.0 * math.pi * np.arange(n) / n
    return [(math.cos(t), math.sin(t)) for t in thetas]


def _circle_mean(estimates: list[PerimeterEstimate]) -> float:
    # Euclidean perimeter: a quarter of the angular average of Per_u
    total = math.fsum(est.extrapolated for est in estimates)
    return 0.25 * (2.0 * math.pi / len(estimates)) * total


def directional_perimeters(indicator: IndicatorSet, directions, epsilons,
                           quad_mesh: float) -> list[PerimeterEstimate]:
    """Per_u for every direction u, from one sweep over all (u, eps) shifts.

    Per_u at eps is 2*eps^-1*vol(A minus (A + eps*u)), extrapolated to
    eps = 0.  Directions are used exactly as given and must be unit vectors
    to 1e-12: a longer u would scale Per_u by its length.  Shift sizes must
    be strictly decreasing and none below ``quad_mesh``.
    """
    eps = _validate_epsilons(epsilons, quad_mesh)
    dirs = [(float(u[0]), float(u[1])) for u in directions]
    for u in dirs:
        if not abs(math.hypot(*u) - 1.0) <= 1e-12:
            raise InvalidSpec(f"direction {u!r} is not a unit vector")
    specs = [ShiftSpec(plus_shifts=[(0.0, 0.0)], minus_shifts=[(e * u[0], e * u[1])])
             for u in dirs for e in eps]
    counts = iter(_sweep(indicator, specs, quad_mesh))
    h2 = quad_mesh * quad_mesh
    estimates = []
    for u in dirs:
        values = tuple(2.0 * next(counts) * h2 / e for e in eps)
        estimates.append(PerimeterEstimate(direction=u, epsilons=eps, values=values,
                                           extrapolated=_richardson(eps, values)))
    return estimates


def estimate_perimeter(indicator: IndicatorSet, direction, epsilons,
                       quad_mesh: float) -> PerimeterEstimate:
    """Directional perimeter 2*eps^-1*vol(A minus A shifted by eps*u), extrapolated to 0.

    ``u`` is ``direction`` normalized to unit length.
    """
    (est,) = directional_perimeters(indicator, [_unit(direction)], epsilons, quad_mesh)
    return est


def perimeter_axis_sum(indicator: IndicatorSet, epsilons, quad_mesh: float) -> float:
    """Sum of the two axis-direction perimeters (the lattice-relevant total)."""
    axes = directional_perimeters(indicator, [(1.0, 0.0), (0.0, 1.0)], epsilons, quad_mesh)
    return sum(est.extrapolated for est in axes)


def perimeter_variational(indicator: IndicatorSet, epsilons, quad_mesh: float,
                          n_directions: int = 64) -> float:
    """Euclidean perimeter as a quarter of the angular average of Per_u."""
    return _circle_mean(directional_perimeters(indicator, _circle(n_directions),
                                               epsilons, quad_mesh))
