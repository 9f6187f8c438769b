import collections
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulergram import (
    BitGrid,
    ConfigInvalid,
    CornerClash,
    InvalidSpec,
    Lattice,
    NonLatticeShift,
    NotAdmissible,
    PerimeterEstimate,
    ShiftSpec,
    chi_bicovariogram,
    chi_bicovariogram_discrete,
    chi_local,
    chi_vef,
    config_counts,
    continuous_polyvariogram,
    directional_perimeters,
    discrete_polyvariogram,
    estimate_perimeter,
    make_shape,
    perimeter_axis_sum,
    perimeter_variational,
)
from eulergram import variogram
from eulergram.cli import _clip_to_window, _polyrect
from eulergram.variogram import _circle, _circle_mean, _sweep, _unit

from gridgen import admissible_random_bits, repair_admissible
from oracles import midpoint_shift_counts, polyvariogram_by_loop


def grid_from(bits, epsilon=1.0):
    bits = np.asarray(bits, dtype=bool)
    lat = Lattice(epsilon=epsilon, origin=(0.0, 0.0),
                  nx=bits.shape[1], ny=bits.shape[0])
    return BitGrid(lattice=lat, bits=bits)


def disc(r=1.0, center=(0.0, 0.0)):
    return make_shape({"type": "disc", "center": list(center), "r": r})


# ---------------------------------------------------------------- discrete


def test_zero_shift_counts_set_bits():
    rng = np.random.default_rng(0)
    bits = np.zeros((8, 8), dtype=bool)
    bits[2:-2, 2:-2] = rng.random((4, 4)) < 0.5
    g = grid_from(bits)
    assert discrete_polyvariogram(g, ShiftSpec()) == int(bits.sum())


def test_isolated_bit_both_minus_shifts():
    bits = np.zeros((5, 5), dtype=bool)
    bits[2, 2] = True
    g = grid_from(bits, epsilon=0.5)
    spec = ShiftSpec(plus_shifts=[(0.0, 0.0)],
                     minus_shifts=[(0.5, 0.0), (0.0, 0.5)])
    assert discrete_polyvariogram(g, spec) == 1


def test_count_ignores_caller_margin():
    # translates that leave the stored raster still count correctly
    bits = np.zeros((3, 3), dtype=bool)
    bits[1, 1] = True
    g = grid_from(bits)
    spec = ShiftSpec(plus_shifts=[(0.0, 0.0)], minus_shifts=[(2.0, 0.0)])
    assert discrete_polyvariogram(g, spec) == 1


def test_inclusion_exclusion_identity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        bits = np.zeros((8, 8), dtype=bool)
        bits[1:-1, 1:-1] = rng.random((6, 6)) < 0.5
        g = grid_from(bits)
        x = (float(rng.integers(-2, 3)), float(rng.integers(-2, 3)))
        y = (float(rng.integers(-2, 3)), float(rng.integers(-2, 3)))
        both_out = discrete_polyvariogram(
            g, ShiftSpec(plus_shifts=[(0.0, 0.0)], minus_shifts=[x, y]))
        base = discrete_polyvariogram(g, ShiftSpec())
        with_x = discrete_polyvariogram(
            g, ShiftSpec(plus_shifts=[(0.0, 0.0), x]))
        with_y = discrete_polyvariogram(
            g, ShiftSpec(plus_shifts=[(0.0, 0.0), y]))
        with_xy = discrete_polyvariogram(
            g, ShiftSpec(plus_shifts=[(0.0, 0.0), x, y]))
        assert both_out == base - with_x - with_y + with_xy


def test_plus_order_is_irrelevant():
    rng = np.random.default_rng(13)
    bits = np.zeros((8, 8), dtype=bool)
    bits[2:-2, 2:-2] = rng.random((4, 4)) < 0.6
    g = grid_from(bits)
    a = ShiftSpec(plus_shifts=[(0.0, 0.0), (1.0, 0.0)], minus_shifts=[(0.0, 1.0), (1.0, 1.0)])
    b = ShiftSpec(plus_shifts=[(1.0, 0.0), (0.0, 0.0)], minus_shifts=[(1.0, 1.0), (0.0, 1.0)])
    assert discrete_polyvariogram(g, a) == discrete_polyvariogram(g, b)


@st.composite
def discrete_cases(draw):
    ny, nx = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    bits = np.array(draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)),
                    dtype=bool).reshape(ny, nx)
    # shifts reach past the grid on either axis, kx and ky drawn apart
    shift = st.tuples(st.integers(-10, 10), st.integers(-10, 10))
    plus = draw(st.lists(shift, min_size=1, max_size=3))
    minus = draw(st.lists(shift, max_size=3))
    return bits, draw(st.sampled_from([1.0, 0.5, 0.1])), plus, minus


@settings(max_examples=300, deadline=None)
@given(discrete_cases())
@example((np.array([[True, True, False], [False, True, True]]), 0.1,
          [(0, 0), (4, -1)], [(-1, 3), (2, 0), (0, -9)]))
def test_discrete_polyvariogram_matches_loop_oracle(case):
    bits, eps, plus, minus = case
    spec = ShiftSpec(plus_shifts=[(kx * eps, ky * eps) for kx, ky in plus],
                     minus_shifts=[(kx * eps, ky * eps) for kx, ky in minus])
    assert discrete_polyvariogram(grid_from(bits, epsilon=eps), spec) == \
        polyvariogram_by_loop(bits, plus, minus)


def test_non_lattice_shift_rejected():
    g = grid_from(np.zeros((4, 4), dtype=bool), epsilon=0.5)
    with pytest.raises(NonLatticeShift):
        discrete_polyvariogram(g, ShiftSpec(plus_shifts=[(0.3, 0.0)]))


def test_shift_beyond_the_floats_rejected():
    # 1e308 over the mesh 1e-10 is infinite; its rounding used to raise an OverflowError
    g = grid_from(np.zeros((4, 4), dtype=bool), epsilon=1e-10)
    with pytest.raises(NonLatticeShift):
        discrete_polyvariogram(g, ShiftSpec(plus_shifts=[(1e308, 0.0)]))


def test_empty_plus_rejected():
    g = grid_from(np.zeros((4, 4), dtype=bool))
    with pytest.raises(InvalidSpec):
        discrete_polyvariogram(g, ShiftSpec(plus_shifts=[], minus_shifts=[(1.0, 0.0)]))


def test_nonfinite_shift_rejected():
    with pytest.raises(InvalidSpec):
        ShiftSpec(plus_shifts=[(math.nan, 0.0)])


# ---------------------------------------------------------------- continuous


def test_continuous_volume_of_disc():
    vol = continuous_polyvariogram(disc(), ShiftSpec(), quad_mesh=1e-3)
    assert vol == pytest.approx(math.pi, rel=0.01)


def test_disjoint_translates_vanish():
    spec = ShiftSpec(plus_shifts=[(0.0, 0.0), (3.0, 0.0)])
    assert continuous_polyvariogram(disc(), spec, quad_mesh=1e-2) == 0.0


def test_slab_volume_of_unit_square():
    square = make_shape({"type": "implicit",
                         "g": lambda x, y: np.maximum(np.abs(x - 0.5), np.abs(y - 0.5)) - 0.5,
                         "bounding_box": [0.0, 1.0, 0.0, 1.0]})
    spec = ShiftSpec(plus_shifts=[(0.0, 0.0)], minus_shifts=[(0.1, 0.0)])
    vol = continuous_polyvariogram(square, spec, quad_mesh=1e-3)
    assert vol == pytest.approx(0.1, abs=2e-3)


@st.composite
def sweep_cases(draw):
    h = draw(st.sampled_from([0.02, 0.025, 0.04]))
    if draw(st.booleans()):
        # two members stacked vertically: the rows between them are empty
        cx = draw(st.floats(-0.6, 0.6))
        members = [{"type": "disc", "center": [cx, cy], "r": draw(st.floats(0.05, 0.25))}
                   for cy in (-0.7, 0.7)]
    else:
        members = []
        for _ in range(draw(st.integers(1, 3))):
            center = [draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6))]
            r = draw(st.floats(0.05, 0.4))
            if draw(st.booleans()):
                members.append({"type": "disc", "center": center, "r": r})
            else:
                members.append({"type": "annulus", "center": center,
                                "r_in": r * draw(st.floats(0.3, 0.8)), "r_out": r})

    def coord():
        k = draw(st.integers(-6, 6))
        return (k + 1.0 / 3.0) * h if draw(st.booleans()) else k * h

    pool = [(0.0, 0.0)] + [(coord(), coord()) for _ in range(draw(st.integers(1, 4)))]
    shifts = st.sampled_from(pool)
    specs = [(draw(st.lists(shifts, min_size=1, max_size=2)),
              draw(st.lists(shifts, max_size=2)))
             for _ in range(draw(st.integers(1, 4)))]
    # a cropped domain cuts through the set, so off-grid cells matter
    crop = draw(st.sampled_from([0.0, 0.0, 0.25]))
    return members, h, specs, crop


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
@example(([{"type": "disc", "center": [0.0, y], "r": 0.2} for y in (-0.7, 0.7)], 0.02,
          [([(0.0, 0.0)], [(0.04, 0.0), (0.0, 0.04)]),
           ([(0.04, 0.0), (0.0, -0.04)], [(0.0, 0.0)]),
           ([(0.0, 0.0), (0.02 * (3 + 1.0 / 3.0), 0.02 * (1.0 / 3.0 - 2))], []),
           ([(0.0, 0.0)], [(0.02 * (1.0 / 3.0 - 5), 0.02 * 4)])], 0.0))
def test_row_sweep_matches_whole_grid_oracle(case):
    members, h, raw_specs, crop = case
    shape = make_shape({"type": "union", "members": members})
    specs = [ShiftSpec(plus_shifts=plus, minus_shifts=minus) for plus, minus in raw_specs]
    # the default domain: the bounding box grown by the largest shift magnitude
    m = max(abs(c) for sp in specs for s in sp.all_shifts for c in s)
    x0, x1, y0, y1 = shape.bounding_box
    x0, x1, y0, y1 = x0 - m, x1 + m, y0 - m, y1 + m
    cx, cy = crop * (x1 - x0), crop * (y1 - y0)
    domain = (x0 + cx, x1 - cx, y0 + cy, y1 - cy)
    got = _sweep(shape, specs, h) if crop == 0.0 else _sweep(shape, specs, h, domain)
    assert got == midpoint_shift_counts(
        shape.contains, domain, h, [(sp.plus_shifts, sp.minus_shifts) for sp in specs])


@st.composite
def run_sweep_cases(draw):
    # a fixed domain whose midpoints are x0 + (i + 1/2) h, so centres and
    # radii on mesh multiples put midpoints exactly on (or a rounding
    # error off) the circles: tangent rows and columns
    h = draw(st.sampled_from([0.02, 0.025, 1.0 / 32.0]))
    domain = (-1.5, 1.5, -1.5, 1.5)

    def on_mesh(lo, hi):
        k = draw(st.integers(int(lo / h), int(hi / h)))
        return -1.5 + (k + draw(st.sampled_from([0.0, 0.5]))) * h

    def member():
        cx, cy = on_mesh(1.0, 2.0), on_mesh(1.0, 2.0)
        if draw(st.booleans()):
            r = draw(st.integers(2, 12)) * h
        else:
            r = draw(st.floats(0.05, 0.35))
        kind = draw(st.sampled_from(["disc", "annulus", "implicit"]))
        if kind == "disc":
            spec = {"type": "disc", "center": [cx, cy], "r": r}
        elif kind == "annulus":
            spec = {"type": "annulus", "center": [cx, cy],
                    "r_in": r * draw(st.sampled_from([0.25, 0.5, 0.75])), "r_out": r}
        else:
            # a disc known only by its predicate: its runs are read off cell by cell
            spec = {"type": "implicit",
                    "g": lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 - r ** 2,
                    "bounding_box": [cx - r, cx + r, cy - r, cy + r]}
        return spec, cx, cy, r

    members = [member() for _ in range(draw(st.integers(1, 3)))]
    if len(members) == 2 and draw(st.booleans()):
        # a second disc touching or overlapping the first one
        _, cx, cy, r = members[0]
        gap = draw(st.sampled_from([0.0, -h, -0.5 * r]))
        members[1] = ({"type": "disc", "center": [cx + 2 * r + gap, cy], "r": r}, None, None, r)
    shape = make_shape({"type": "union", "members": [m[0] for m in members]})

    if draw(st.booleans()):
        rects = []
        for _ in range(draw(st.integers(1, 2))):
            x0, y0 = on_mesh(0.8, 1.8), on_mesh(0.8, 1.8)
            rects.append([x0, x0 + draw(st.floats(0.1, 1.0)), y0, y0 + draw(st.floats(0.1, 1.0))])
        try:
            shape = _clip_to_window(shape, _polyrect({"rects": rects}))
        except (ConfigInvalid, CornerClash):
            assume(False)
    if draw(st.integers(0, 4)) == 0:
        # built without row runs: the whole set's runs are read off cell by cell
        shape = dataclasses.replace(shape, row_runs=None)

    pool = [(0.0, 0.0)] + [_mesh_shift(draw, h) for _ in range(draw(st.integers(1, 4)))]
    shifts = st.sampled_from(pool)
    specs = [(draw(st.lists(shifts, min_size=1, max_size=2)), draw(st.lists(shifts, max_size=2)))
             for _ in range(draw(st.integers(1, 4)))]
    return shape, domain, h, specs


def _mesh_shift(draw, h):
    # whole cells, a third of a cell off them, or a rounding error off them
    def coord():
        k = draw(st.integers(-6, 6))
        return draw(st.sampled_from([k * h, (k + 1.0 / 3.0) * h, (k + 1e-12) * h]))
    return coord(), coord()


@settings(max_examples=200, deadline=None)
@given(run_sweep_cases())
def test_run_sweep_matches_whole_grid_oracle(case):
    shape, domain, h, raw_specs = case
    specs = [ShiftSpec(plus_shifts=plus, minus_shifts=minus) for plus, minus in raw_specs]
    assert _sweep(shape, specs, h, domain) == midpoint_shift_counts(
        shape.contains, domain, h, raw_specs)


@st.composite
def three_copy_cases(draw):
    # run_sweep_cases' sets with specs of three plus and three minus copies:
    # a plus shift repeated, and a minus shift that is also a plus one
    shape, domain, h, _ = draw(run_sweep_cases())
    pool = [(0.0, 0.0)] + [_mesh_shift(draw, h) for _ in range(draw(st.integers(1, 3)))]
    shifts = st.sampled_from(pool)
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        plus = draw(st.lists(shifts, min_size=2, max_size=2))
        plus.append(draw(st.sampled_from(plus)))
        minus = [draw(st.sampled_from(plus))] + draw(st.lists(shifts, min_size=2, max_size=2))
        specs.append((draw(st.permutations(plus)), draw(st.permutations(minus))))
    return shape, domain, h, specs


@settings(max_examples=60, deadline=None)
@given(three_copy_cases())
def test_three_plus_three_minus_copies_match_whole_grid_oracle(case):
    shape, domain, h, raw_specs = case
    specs = [ShiftSpec(plus_shifts=plus, minus_shifts=minus) for plus, minus in raw_specs]
    want = midpoint_shift_counts(shape.contains, domain, h, raw_specs)
    assert _sweep(shape, specs, h, domain) == want
    # every spec counted by sorting run ends instead of expanding
    with mock.patch.object(variogram, "_EXPAND_RUNS", 0):
        assert _sweep(shape, specs, h, domain) == want


def _spy_intersections(monkeypatch):
    # record every intersection the inclusion-exclusion count makes
    calls = []
    intersect_runs = variogram._intersect_runs

    def intersect(a, b):
        calls.append(a[0].shape[1] * b[0].shape[1])
        return intersect_runs(a, b)

    monkeypatch.setattr(variogram, "_intersect_runs", intersect)
    return calls


def test_row_of_discs_is_counted_alike_by_both_counts(monkeypatch):
    # twelve discs in a row: rows through them hold twelve runs, so every
    # spec's expansion would hold thousands of runs per row and the sweep
    # sorts run ends instead; forcing either count gives the same numbers
    row = make_shape({"type": "union", "members": [
        {"type": "disc", "center": [0.25 * i, 0.0], "r": 0.11} for i in range(12)]})
    h = 0.01
    raw = [([(0.0, 0.0)], [(-2 * h, 0.0), (0.0, -2 * h)]),
           ([(2 * h, 0.0), (0.0, 2 * h)], [(0.0, 0.0)]),
           ([(0.0, 0.0), (h / 3, 0.5 * h), (0.0, 0.0)],
            [(-h, 0.0), (0.0, -2 * h), (-h, 0.0)])]
    specs = [ShiftSpec(plus_shifts=plus, minus_shifts=minus) for plus, minus in raw]
    domain = (-0.2, 2.95, -0.2, 0.2)
    want = midpoint_shift_counts(row.contains, domain, h, raw)
    assert want[0] > 0 and want[2] > 0
    calls = _spy_intersections(monkeypatch)
    assert _sweep(row, specs, h, domain) == want
    assert calls == []
    expand = variogram._EXPAND_RUNS
    monkeypatch.setattr(variogram, "_EXPAND_RUNS", 10 ** 9)
    assert _sweep(row, specs, h, domain) == want
    # the repeated shifts of the third spec are expanded once: its widest
    # term meets two plus and two minus copies of twelve runs, not six
    assert max(calls) == 12 ** 4

    # three annuli on a diagonal: their six runs per row pack to the two
    # that a row crosses at most, so the specs of up to three copies are
    # expanded, where six runs per row would have every spec sorted
    rings = make_shape({"type": "union", "members": [
        {"type": "annulus", "center": [0.3 * i, 0.3 * i], "r_in": 0.1, "r_out": 0.2}
        for i in range(3)]})
    domain = (-0.25, 0.85, -0.25, 0.85)
    raw = raw + [([(0.0, 0.0)], [(h / 3, 0.5 * h)])]
    specs = [ShiftSpec(plus_shifts=plus, minus_shifts=minus) for plus, minus in raw]
    want = midpoint_shift_counts(rings.contains, domain, h, raw)
    mid = -0.25 + (np.arange(110) + 0.5) * h
    assert rings.row_runs(mid, mid[None], np.zeros(1))[0].shape == (110, 2)
    monkeypatch.setattr(variogram, "_EXPAND_RUNS", expand)
    calls.clear()
    assert _sweep(rings, specs, h, domain) == want
    assert calls
    monkeypatch.setattr(variogram, "_EXPAND_RUNS", 0)
    calls.clear()
    assert _sweep(rings, specs, h, domain) == want
    assert calls == []


def test_many_minus_copies_are_sorted_not_expanded(monkeypatch):
    # twenty minus copies would make 2**20 inclusion-exclusion terms; a disc
    # has one run per row, so the expansion holds 2**20 runs per row and the
    # sweep sorts the 42 run ends of a row instead
    d = disc(0.6, (0.05, -0.1))
    h = 0.01
    # whole cells, a third of a cell off them, or a rounding error off them,
    # all to the right, so that cells on the disc's right edge stay counted
    rng = np.random.default_rng(3)
    cells = np.stack([rng.integers(1, 7, 20), rng.integers(-6, 7, 20)], axis=1)
    cells = cells + rng.choice([0.0, 1.0 / 3.0, 1e-12], size=(20, 2))
    minus = [(float(kx * h), float(ky * h)) for kx, ky in cells]
    raw = [([(0.0, 0.0)], minus), ([(0.0, 0.0), (0.0, 0.5 * h)], minus + minus[:5])]
    specs = [ShiftSpec(plus_shifts=plus, minus_shifts=m) for plus, m in raw]
    domain = (-0.7, 0.8, -0.8, 0.6)
    want = midpoint_shift_counts(d.contains, domain, h, raw)
    assert want[0] > 0 and want[1] > 0
    calls = _spy_intersections(monkeypatch)
    assert _sweep(d, specs, h, domain) == want
    assert calls == []
    # a minus shift listed twice is expanded once: {u, v} make three terms
    u, v = minus[0], minus[1]
    raw = [([(0.0, 0.0)], [u, u, v, u])]
    assert _sweep(d, [ShiftSpec(*raw[0])], h, domain) == midpoint_shift_counts(
        d.contains, domain, h, raw)
    assert len(calls) == 3


def test_each_unaligned_shift_is_read_once_per_sweep(monkeypatch):
    ring = make_shape({"type": "annulus", "center": [0.01, -0.02], "r_in": 0.25, "r_out": 0.6})
    h = 0.001
    u, v, w = (0.3 * h, 0.7 * h), (-1.6 * h, 2.0 * h), (2.5 * h, -h / 3)
    raw = [([(0.0, 0.0)], [u]), ([u], [(0.0, 0.0)]), ([(0.0, 0.0), u], [v, (h, 0.0)]),
           ([v, (0.0, h)], [u, v]), ([(2 * h, -h)], [(0.0, 0.0), w])]
    specs = [ShiftSpec(plus_shifts=plus, minus_shifts=minus) for plus, minus in raw]
    # 140 columns and 1,300 rows, more than any block the sweep ever cut
    domain = (-0.07, 0.07, -0.65, 0.65)
    calls = []

    def counting(xs, ys, dx):
        calls.append([(float(d), tuple(row)) for d, row in zip(dx, ys)])
        return ring.row_runs(xs, ys, dx)

    # a call stacks at most two copies of all rows
    per = 2
    monkeypatch.setattr(variogram, "_DENSE_CELLS", 140 * 1300 * per)
    got = _sweep(dataclasses.replace(ring, row_runs=counting), specs, h, domain)
    assert got == midpoint_shift_counts(ring.contains, domain, h, raw)
    ys = -0.65 + (np.arange(1300) + 0.5) * h
    # the master is read once, over every row
    assert calls[0] == [(0.0, tuple(ys))]
    # u, v and w are each asked for once, over every row, inside
    # ceil(3 / per) calls; the whole-cell shifts never, as they move the
    # master's runs
    assert len(calls) == 1 + math.ceil(3 / per)
    assert all(len(call) <= per for call in calls[1:])
    asked = collections.Counter(copy for call in calls[1:] for copy in call)
    assert asked == collections.Counter((s[0], tuple(ys - s[1])) for s in (u, v, w))


def test_replaced_predicate_drives_the_sweep():
    # a set built without runs reads them off its predicate, so a copy with
    # a wrapped predicate (as a tracer makes) must read them off the wrapper
    disc = make_shape({"type": "implicit", "g": lambda x, y: x ** 2 + y ** 2 - 0.36,
                       "bounding_box": [-0.6, 0.6, -0.6, 0.6]})
    points = []

    def traced(x, y):
        points.append(np.broadcast(x, y).size)
        return disc.contains(x, y)

    specs = [ShiftSpec(), ShiftSpec(plus_shifts=[(0.0, 0.0), (0.1, 0.0)])]
    expected = _sweep(disc, specs, 0.01)
    assert _sweep(dataclasses.replace(disc, contains=traced), specs, 0.01) == expected
    assert sum(points) >= 120 * 120
    # runs given in closed form do not depend on the predicate and are kept
    ball = make_shape({"type": "disc", "center": [0.0, 0.0], "r": 0.6})
    assert dataclasses.replace(ball, contains=traced).row_runs is ball.row_runs


# ---------------------------------------------------------------- chi routes


def test_chi_bicovariogram_disc_stable_across_epsilon():
    # one set component, no holes; the estimate must sit at 1 across the
    # whole stabilized shift range, not just at one lucky epsilon
    for e in (0.2, 0.1, 0.05):
        val = chi_bicovariogram(disc(), epsilon=e, quad_mesh=1e-4)
        assert val == pytest.approx(1.0, abs=0.05)


def test_chi_bicovariogram_two_discs():
    two = make_shape({"type": "union", "members": [
        {"type": "disc", "center": [0.0, 0.0], "r": 1.0},
        {"type": "disc", "center": [5.0, 0.0], "r": 1.0},
    ]})
    val = chi_bicovariogram(two, epsilon=0.1, quad_mesh=2e-4)
    assert val == pytest.approx(2.0, abs=0.1)


def test_chi_bicovariogram_annulus():
    ring = make_shape({"type": "annulus", "center": [0.0, 0.0],
                       "r_in": 1.0, "r_out": 2.0})
    val = chi_bicovariogram(ring, epsilon=0.1, quad_mesh=2e-4)
    assert val == pytest.approx(0.0, abs=0.1)


def test_chi_bicovariogram_rejects_bad_epsilon():
    with pytest.raises(InvalidSpec):
        chi_bicovariogram(disc(), epsilon=0.0, quad_mesh=1e-4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_shift_size_rejected_before_sweeping(bad, monkeypatch):
    # NaN passes "<= 0"; it must be named as a shift size, not reach a sweep
    monkeypatch.setattr("eulergram.variogram._sweep", None)
    with pytest.raises(InvalidSpec, match="epsilon"):
        chi_bicovariogram(disc(), bad, quad_mesh=1e-2)
    with pytest.raises(InvalidSpec, match="shift size"):
        directional_perimeters(disc(), [(1.0, 0.0)], (0.1, bad, 0.01), quad_mesh=1e-2)
    with pytest.raises(InvalidSpec, match="shift size"):
        perimeter_variational(disc(), (bad, 0.05, 0.01), quad_mesh=1e-2)


def test_shift_below_quad_mesh_refused():
    # at mesh 0.01 these returned chi -200 and 48 for a unit disc, and
    # Per_inf 10.6 and 10.88 against a true 8
    for e in (0.001, 0.005):
        with pytest.raises(InvalidSpec, match="coarser"):
            chi_bicovariogram(disc(), e, quad_mesh=0.01)
    for eps in ((0.004, 0.002, 0.001), (0.02, 0.01, 0.005)):
        with pytest.raises(InvalidSpec, match="coarser"):
            perimeter_axis_sum(disc(), eps, quad_mesh=0.01)
    # a shift of one whole cell is resolved
    assert chi_bicovariogram(disc(), 0.01, quad_mesh=0.01) == pytest.approx(1.0)
    assert perimeter_axis_sum(disc(), (0.04, 0.02, 0.01), quad_mesh=0.01) == pytest.approx(8.0)


@pytest.mark.parametrize("quad_mesh", [10.0, math.nan, math.inf])
def test_chi_bicovariogram_rejects_unusable_mesh(quad_mesh):
    # a mesh coarser than the sweep domain leaves no midpoint to count
    with pytest.raises(InvalidSpec):
        chi_bicovariogram(disc(), 0.05, quad_mesh=quad_mesh)


def test_discrete_route_single_bit_and_ring():
    single = np.zeros((5, 5), dtype=bool)
    single[2, 2] = True
    assert chi_bicovariogram_discrete(grid_from(single)) == 1

    ring = np.zeros((5, 5), dtype=bool)
    ring[1:4, 1:4] = True
    ring[2, 2] = False
    assert chi_bicovariogram_discrete(grid_from(ring)) == 0


def test_discrete_route_rejects_x_configuration():
    bits = np.zeros((6, 6), dtype=bool)
    bits[2, 2] = bits[3, 3] = True
    with pytest.raises(NotAdmissible):
        chi_bicovariogram_discrete(grid_from(bits))
    # also when the set touches the border, on the set or on the complement
    for bits, x in (([[1, 0], [0, 1]], (1, 0)), ([[0, 1, 1], [1, 0, 1]], (0, 1))):
        with pytest.raises(NotAdmissible) as err:
            chi_bicovariogram_discrete(grid_from(bits))
        assert (err.value.phi_x_set, err.value.phi_x_complement) == x


def test_discrete_route_takes_border_bits():
    # the polyvariograms pad the grid, so a set on the border keeps its chi
    bits = np.zeros((3, 4), dtype=bool)
    bits[0, 0] = bits[0, 1] = bits[2, 3] = True
    assert chi_bicovariogram_discrete(grid_from(bits)) == chi_vef(grid_from(bits)) == 2
    rng = np.random.default_rng(31)
    for _ in range(100):
        ny, nx = rng.integers(1, 9, size=2)
        bits = repair_admissible(rng.random((ny, nx)) < 0.5)
        assert chi_bicovariogram_discrete(grid_from(bits)) == chi_vef(grid_from(bits))


def test_discrete_route_matches_chi_local_exhaustively_4x4():
    lat = Lattice(1.0, (0.0, 0.0), 8, 8)
    for code in range(1 << 16):
        inner = np.array([(code >> k) & 1 for k in range(16)],
                         dtype=bool).reshape(4, 4)
        bits = np.zeros((8, 8), dtype=bool)
        bits[2:6, 2:6] = inner
        g = BitGrid(lattice=lat, bits=bits)
        if not config_counts(g).admissible:
            continue
        assert chi_bicovariogram_discrete(g) == chi_local(g)


def test_discrete_route_matches_chi_local_random_32x32():
    rng = np.random.default_rng(29)
    for _ in range(50):
        bits = admissible_random_bits(rng, 32, 32, margin=3, density=0.5)
        g = grid_from(bits)
        assert chi_bicovariogram_discrete(g) == chi_local(g)


# ---------------------------------------------------------------- perimeter

EPS = (0.08, 0.04, 0.02)


def test_square_axis_perimeter():
    square = make_shape({"type": "implicit",
                         "g": lambda x, y: np.maximum(np.abs(x - 0.5), np.abs(y - 0.5)) - 0.5,
                         "bounding_box": [0.0, 1.0, 0.0, 1.0]})
    per_inf = perimeter_axis_sum(square, EPS, quad_mesh=5e-4)
    assert per_inf == pytest.approx(4.0, rel=0.01)


def test_disc_axis_perimeter():
    half = disc(r=0.5)
    per_inf = perimeter_axis_sum(half, EPS, quad_mesh=5e-4)
    assert per_inf == pytest.approx(4.0, rel=0.01)


def test_disc_variational_perimeter():
    half = disc(r=0.5)
    per = perimeter_variational(half, EPS, quad_mesh=5e-4, n_directions=64)
    assert per == pytest.approx(math.pi, rel=0.02)


def test_directional_symmetry():
    # not centrally symmetric, so the forward and backward slivers differ;
    # their volumes still must not
    egg = make_shape({"type": "implicit",
                      "g": lambda x, y: x * x + y * y * (1.0 + 0.6 * x) - 0.25,
                      "bounding_box": [-0.62, 0.62, -0.62, 0.62]})
    fwd = estimate_perimeter(egg, (1.0, 0.3), EPS, quad_mesh=5e-4)
    bwd = estimate_perimeter(egg, (-1.0, -0.3), EPS, quad_mesh=5e-4)
    assert fwd.extrapolated == pytest.approx(bwd.extrapolated, rel=5e-3)


def test_estimate_rows_and_direction_normalized():
    est = estimate_perimeter(disc(r=0.5), (2.0, 0.0), EPS, quad_mesh=1e-3)
    assert est.direction == (1.0, 0.0)
    rows = est.rows()
    assert len(rows) == 3 and rows[0][0] == 0.08
    # shrinking shift sizes approach the limit from one side
    assert est.extrapolated >= 0


def test_perimeter_estimate_validation():
    with pytest.raises(InvalidSpec):
        PerimeterEstimate(direction=(1.0, 0.0), epsilons=(0.1,),
                          values=(0.2,), extrapolated=2.0)
    with pytest.raises(InvalidSpec):
        PerimeterEstimate(direction=(1.0, 0.0), epsilons=(0.1, 0.05),
                          values=(0.2, 0.2), extrapolated=-1.0)


def test_directions_must_be_unit_vectors():
    # Per_u scales with |u|: on the unit disc (2, 0) would read 8, not 4,
    # and (0, 0) would read 0
    for u in [(2.0, 0.0), (0.0, 0.0), (1.0, 1e-5), (math.nan, 0.0), (math.inf, 0.0)]:
        with pytest.raises(InvalidSpec, match="unit vector"):
            directional_perimeters(disc(), [(1.0, 0.0), u], EPS, quad_mesh=0.005)
    # the circle's directions pass, and estimate_perimeter normalizes its own
    rng = np.random.default_rng(5)
    for n in (4, 7, 64, 1000, 1 << 16):
        assert max(abs(math.hypot(*u) - 1.0) for u in _circle(n)) <= 1e-12
    for u in rng.normal(size=(200, 2)) * 10.0 ** rng.integers(-6, 6, size=(200, 1)):
        assert abs(math.hypot(*_unit(u)) - 1.0) <= 1e-12
    est = estimate_perimeter(disc(), (3.0, 4.0), EPS, quad_mesh=0.005)
    assert est.extrapolated == pytest.approx(4.0, rel=0.02)


def test_epsilon_sequence_validation():
    with pytest.raises(InvalidSpec):
        estimate_perimeter(disc(), (1, 0), (0.1, 0.2, 0.3), quad_mesh=1e-3)
    with pytest.raises(InvalidSpec):
        estimate_perimeter(disc(), (1, 0), (0.1, 0.05), quad_mesh=1e-3)
    with pytest.raises(InvalidSpec):
        estimate_perimeter(disc(), (0, 0), (0.1, 0.05, 0.02), quad_mesh=1e-3)
    with pytest.raises(InvalidSpec):
        perimeter_variational(disc(), EPS, quad_mesh=1e-3, n_directions=3)
    with pytest.raises(InvalidSpec):
        perimeter_variational(disc(), EPS, quad_mesh=1e-3, n_directions=(1 << 16) + 1)
    assert len(_circle(1 << 16)) == 1 << 16


def test_sandwich_inequality_on_fixtures():
    shapes = [
        disc(r=0.5),
        make_shape({"type": "implicit",
                    "g": lambda x, y: np.maximum(np.abs(x - 0.5), np.abs(y - 0.5)) - 0.5,
                    "bounding_box": [0.0, 1.0, 0.0, 1.0]}),
        make_shape({"type": "annulus", "center": [0.0, 0.0],
                    "r_in": 0.4, "r_out": 0.9}),
    ]
    for s in shapes:
        per = perimeter_variational(s, EPS, quad_mesh=1e-3, n_directions=32)
        per_inf = perimeter_axis_sum(s, EPS, quad_mesh=1e-3)
        tol = 1e-6 + 0.02 * max(per, per_inf)
        assert per <= per_inf + tol
        assert per_inf <= math.sqrt(2.0) * per + tol


def test_one_sweep_equals_separate_perimeter_calls():
    ring = make_shape({"type": "annulus", "center": [0.1, -0.2],
                       "r_in": 0.25, "r_out": 0.6})
    n = 8
    est1, est2, *around = directional_perimeters(
        ring, [(1.0, 0.0), (0.0, 1.0), *_circle(n)], EPS, quad_mesh=2e-3)
    assert est1 == estimate_perimeter(ring, (1.0, 0.0), EPS, quad_mesh=2e-3)
    assert est2 == estimate_perimeter(ring, (0.0, 1.0), EPS, quad_mesh=2e-3)
    assert est1.extrapolated + est2.extrapolated == perimeter_axis_sum(
        ring, EPS, quad_mesh=2e-3)
    assert _circle_mean(around) == perimeter_variational(
        ring, EPS, quad_mesh=2e-3, n_directions=n)
