import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergram import (
    BitGrid,
    CornerClash,
    InvalidSpec,
    Lattice,
    PolyRectangle,
    RadiusTooSmall,
    chi_local,
    digitize,
    lattice_covering,
    make_shape,
    morph,
    polyrect_features,
)

from eulergram.cli import _clip_to_window

from oracles import (brute_dilate, brute_erode, maximal_window_edges, rect_union_area,
                     rect_union_perimeters)


def digitized_chi(w: PolyRectangle, epsilon=0.0625) -> int:
    lat = lattice_covering(w.bounding_box, epsilon, margin=2)
    return chi_local(digitize(w, lat))


# ------------------------------------------------------------- polyrectangles


def test_single_rectangle_features():
    w = PolyRectangle(rects=[(0.0, 2.0, 0.0, 1.0)])
    f = polyrect_features(w)
    assert f["chi"] == 1
    assert f["per1"] == 2.0  # two vertical edges of height 1
    assert f["per2"] == 4.0  # two horizontal edges of width 2
    assert f["vol"] == 2.0
    assert f["out_corners"] == 1 and f["in_corners"] == 0


def test_l_shape_chi():
    w = PolyRectangle(rects=[(0.0, 2.0, 0.0, 1.0), (0.0, 1.0, 0.5, 3.0)])
    f = polyrect_features(w)
    assert f["chi"] == 1
    assert digitized_chi(w) == 1
    assert f["vol"] == pytest.approx(rect_union_area(w.rects))


def test_square_frame_chi_zero():
    w = PolyRectangle(rects=[
        (0.0, 4.0, 0.0, 1.0),
        (0.0, 4.0, 3.0, 4.0),
        (0.0, 1.0, 0.5, 3.5),
        (3.0, 4.0, 0.5, 3.5),
    ])
    f = polyrect_features(w)
    assert f["chi"] == 0
    assert digitized_chi(w) == 0


def test_corner_clash_rejected():
    with pytest.raises(CornerClash):
        PolyRectangle(rects=[(0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 1.0, 2.0)])
    with pytest.raises(CornerClash):
        # an L glued at a shared corner must be re-decomposed by the caller
        PolyRectangle(rects=[(0.0, 2.0, 0.0, 1.0), (0.0, 1.0, 0.0, 3.0)])


def test_degenerate_rectangles_rejected():
    for bad in ((0.0, 0.0, 0.0, 1.0), (0.0, math.inf, 0.0, 1.0),
                (-math.inf, 1.0, 0.0, 1.0), (0.0, 1.0, math.nan, 1.0)):
        with pytest.raises(InvalidSpec):
            PolyRectangle(rects=[bad])
    with pytest.raises(InvalidSpec):
        PolyRectangle(rects=[])


def random_polyrect(rng) -> PolyRectangle:
    while True:
        rects = []
        for _ in range(int(rng.integers(1, 5))):
            x0 = int(rng.integers(0, 12))
            y0 = int(rng.integers(0, 12))
            w = int(rng.integers(1, 6))
            h = int(rng.integers(1, 6))
            rects.append((x0 * 0.25, (x0 + w) * 0.25,
                          y0 * 0.25, (y0 + h) * 0.25))
        try:
            return PolyRectangle(rects=rects)
        except CornerClash:
            continue


def test_random_polyrect_features_match_oracles():
    rng = np.random.default_rng(101)
    for _ in range(500):
        w = random_polyrect(rng)
        f = polyrect_features(w)
        assert f["chi"] == digitized_chi(w)
        assert f["chi"] == f["out_corners"] - f["in_corners"]
        assert f["vol"] == pytest.approx(rect_union_area(w.rects), abs=1e-12)
        p1, p2 = rect_union_perimeters(w.rects)
        assert f["per1"] == pytest.approx(p1, abs=1e-12)
        assert f["per2"] == pytest.approx(p2, abs=1e-12)


def test_maximal_edges_match_oracle():
    # the windows of the pair-detector tests and of the thin-ring bounds run,
    # then random unions with touching and overlapping sides
    windows = [((3.3, 40.1, 2.9, 41.7),),
               ((3.3, 25.2, 2.9, 44.1), (25.2, 44.6, 2.4, 20.3)),
               ((0.0, 10.0, 0.0, 32.0), (20.0, 32.0, 4.0, 28.0)),
               ((-0.6, 0.2, -0.6, 0.6),)]
    rng = np.random.default_rng(7)
    polys = [PolyRectangle(rects=r) for r in windows]
    polys += [random_polyrect(rng) for _ in range(300)]
    for w in polys:
        got = sorted(map(tuple, w._maximal_edges.tolist()))
        ref = sorted((float(v), c, lo, hi) for v, c, lo, hi in maximal_window_edges(w.rects))
        assert got == ref


# ------------------------------------------------------------------- shapes


def test_disc_metadata():
    d = make_shape({"type": "disc", "center": [0.0, 0.0], "r": 1.0})
    assert bool(d.contains(0.5, 0.0)) is True
    assert bool(d.contains(1.5, 0.0)) is False
    assert d.bounding_box == (-1.0, 1.0, -1.0, 1.0)
    assert [f.name for f in dataclasses.fields(d)] == ["contains", "bounding_box", "row_runs"]


def test_annulus_metadata():
    a = make_shape({"type": "annulus", "center": [0.0, 0.0],
                    "r_in": 1.0, "r_out": 2.0})
    assert bool(a.contains(1.5, 0.0)) is True
    assert bool(a.contains(0.5, 0.0)) is False


def test_union_metadata():
    u = make_shape({"type": "union", "members": [
        {"type": "disc", "center": [0.0, 0.0], "r": 1.0},
        {"type": "disc", "center": [5.0, 0.0], "r": 1.0},
    ]})
    assert u.bounding_box == (-1.0, 6.0, -1.0, 1.0)
    assert bool(u.contains(5.5, 0.0)) is True
    assert bool(u.contains(2.5, 0.0)) is False


@st.composite
def union_contains_cases(draw):
    # dyadic meshes keep centre +- radius and the tangent rows and columns
    # exact lattice values; 0.1 rounds them
    h = draw(st.sampled_from([0.125, 0.25, 0.1]))
    nx, ny = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    x0, y0 = h * draw(st.integers(-8, 8)), h * draw(st.integers(-8, 8))
    xs, ys = x0 + h * np.arange(nx), y0 + h * np.arange(ny)
    members = []
    # centres up to 12 cells beyond the axes, so members lie partly or wholly outside
    for _ in range(draw(st.integers(1, 5))):
        cx = x0 + h * draw(st.integers(-12, nx + 12))
        cy = y0 + h * draw(st.integers(-12, ny + 12))
        a, b = sorted(draw(st.lists(st.integers(1, 9), min_size=2, max_size=2, unique=True)))
        if draw(st.booleans()):
            members.append(("disc", cx, cy, h * b))
        else:
            members.append(("annulus", cx, cy, h * a, h * b))
    # lattice points, then each member's four tangent points and their
    # neighbours one float step away along either axis
    pts = [(draw(st.sampled_from(xs)), draw(st.sampled_from(ys)))
           for _ in range(draw(st.integers(0, 20)))]
    for _, cx, cy, *radii in members:
        r = radii[-1]
        for ex, ey in ((cx - r, cy), (cx + r, cy), (cx, cy - r), (cx, cy + r)):
            pts += [(ex, ey), (np.nextafter(ex, -np.inf), ey), (np.nextafter(ex, np.inf), ey),
                    (ex, np.nextafter(ey, -np.inf)), (ex, np.nextafter(ey, np.inf))]
    px, py = np.array(pts).T
    return xs, ys, px, py, members


def union_oracle(members, x, y):
    """OR of the members' plain float tests, written out here."""
    out = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    for kind, cx, cy, *radii in members:
        d2 = (x - cx) ** 2 + (y - cy) ** 2
        if kind == "disc":
            out |= d2 <= radii[0] * radii[0]
        else:
            out |= (d2 >= radii[0] * radii[0]) & (d2 <= radii[1] * radii[1])
    return out


@settings(max_examples=200, deadline=None)
@given(union_contains_cases())
def test_union_contains_matches_its_members_pointwise(case):
    xs, ys, px, py, members = case
    specs = [{"type": "disc", "center": [cx, cy], "r": r[0]} if kind == "disc" else
             {"type": "annulus", "center": [cx, cy], "r_in": r[0], "r_out": r[1]}
             for kind, cx, cy, *r in members]
    u = make_shape({"type": "union", "members": specs})
    gx, gy = np.meshgrid(xs, ys)
    n = len(px) // 2 * 2
    inputs = [(xs[None, :], ys[:, None]),  # the axes digitize passes
              (xs, ys[:, None]),
              (gx, gy),
              (px[:n].reshape(2, -1), py[:n].reshape(2, -1)),  # scattered, not a grid
              (px, py),
              (px[::-1].reshape(-1, 1), py),
              (float(xs[0]), float(ys[-1])),
              (float(xs[-1]), ys)]
    inputs += [(float(x), float(y)) for x, y in zip(px, py)]
    for x, y in inputs:
        want = union_oracle(members, np.asarray(x), np.asarray(y))
        got = u.contains(x, y)
        assert got.dtype == bool and got.shape == want.shape
        assert np.array_equal(got, want)


def test_shape_spec_validation():
    with pytest.raises(InvalidSpec):
        make_shape({"type": "disc", "center": [0, 0], "r": 0.0})
    with pytest.raises(InvalidSpec):
        make_shape({"type": "annulus", "center": [0, 0], "r_in": 2.0, "r_out": 2.0})
    with pytest.raises(InvalidSpec):
        make_shape({"type": "annulus", "center": [0, 0], "r_in": -1.0, "r_out": 2.0})
    with pytest.raises(InvalidSpec):
        make_shape({"type": "warp", "center": [0, 0]})
    with pytest.raises(InvalidSpec):
        make_shape({"type": "implicit", "g": lambda x, y: x})
    for bad in ({"g": None}, {"g": "x"}, {"bounding_box": [0, 1]},
                {"bounding_box": [0, "nan", 0, 1]}, {"bounding_box": [0, 1, 0, math.inf]},
                {"bounding_box": [1, 0, 0, 1]}, {"bounding_box": [0, 1, 1, 0]},
                {"bounding_box": 5}, {"bounding_box": "abcd"},
                {"rho": "x"}, {"rho": -1.0}, {"rho": math.nan}, {"rho": 0.05}):
        with pytest.raises(InvalidSpec):
            make_shape({"type": "implicit", "g": lambda x, y: x, "bounding_box": [0, 1, 0, 1],
                        **bad})
    with pytest.raises(InvalidSpec):
        make_shape({"type": "union", "members": [5]})
    for bad in ({"type": "disc", "center": [0, 0], "r": math.nan},
                {"type": "disc", "center": [0, math.inf], "r": 1.0},
                {"type": "annulus", "center": [0, 0], "r_in": math.inf, "r_out": math.inf},
                {"type": "union", "members": [{"type": "disc", "center": [math.nan, 0],
                                               "r": 1.0}]},
                {"type": [1], "center": [0, 0], "r": 1.0},
                # a key the kind does not read
                {"type": "disc", "center": [0, 0], "r": 1.0, "rho": 1.0},
                {"type": "annulus", "center": [0, 0], "r_in": 1.0, "r_out": 2.0, "r": 1.0},
                {"type": "union", "members": [{"type": "disc", "center": [0, 0], "r": 1.0}],
                 "r": 1.0}):
        with pytest.raises(InvalidSpec):
            make_shape(bad)


# -------------------------------------------------------------- row runs


def runs_by_diff(inside) -> list:
    edges = np.flatnonzero(np.diff(np.concatenate([[0], inside.astype(np.int8), [0]])))
    return [(int(a), int(b)) for a, b in zip(edges[::2], edges[1::2])]


@st.composite
def row_run_cases(draw):
    cx, cy = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    r = draw(st.floats(0.1, 0.6))
    disc = {"type": "disc", "center": [cx, cy], "r": r}
    annulus = {"type": "annulus", "center": [cx, cy], "r_out": r,
               "r_in": r * draw(st.floats(0.2, 0.9))}
    # touching, overlapping or apart along x
    other = {"type": "disc", "center": [cx + 2 * r + draw(st.sampled_from([0.0, -0.05, 0.1])), cy],
             "r": r}
    # a disc above the first, in rows of its own: the union asks each member
    # only for the rows its box reaches
    above = {"type": "disc", "center": [cx + 0.3 * r, cy + 2.5 * r], "r": 0.5 * r}
    window = PolyRectangle(rects=[(cx - 0.3, cx + 0.4, cy - 0.5, cy + 0.2),
                                  (cx - 0.1, cx + 0.8, cy - 0.2, cy + 0.6)])
    shapes = [make_shape(disc), make_shape(annulus),
              make_shape({"type": "union", "members": [disc, other]}),
              make_shape({"type": "union", "members": [annulus, other]}),
              make_shape({"type": "union", "members": [disc, above]}),
              make_shape({"type": "union", "members": [annulus, above, other]}),
              _clip_to_window(make_shape({"type": "union", "members": [annulus, other]}), window),
              window,
              # built without runs: they are read off the predicate
              make_shape({"type": "implicit",
                          "g": lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 - r * r,
                          "bounding_box": [cx - r, cx + r, cy - r, cy + r]})]
    h = draw(st.sampled_from([0.01, 0.013, 1.0 / 64.0]))
    xs = -1.5 + (np.arange(int(round(4.0 / h))) + 0.5) * h - draw(st.floats(-0.1, 0.1))
    # rows through the hole, between the radii, on both circles and off the set
    ys = np.array([cy + t * r for t in draw(st.lists(st.floats(-1.3, 1.3), min_size=1,
                                                      max_size=8))]
                  + [cy - r, cy + r, cy + annulus["r_in"], cy + 2.0, cy + 2.5 * r])
    # a stack of copies, each at its own x-offset off the mesh and its own
    # rows: one offset puts a column on the centre, so the rows on the
    # circles are tangent at a column; one moves the set off every row
    i = draw(st.integers(0, xs.size - 1))
    extra = draw(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.2, 0.2)), max_size=3))
    dx = np.array([xs[i] - cx, xs[-1] - xs[0] + 2.0] + [d for d, _ in extra])
    dy = np.array([0.0, 0.0] + [d for _, d in extra])
    return shapes, xs, ys[None, :] - dy[:, None], dx


@settings(max_examples=100, deadline=None)
@given(row_run_cases())
def test_row_runs_are_the_runs_of_contains(case):
    shapes, xs, ys, dx = case
    for shape in shapes:
        lo, hi = shape.row_runs(xs, ys, dx)
        assert lo.shape == hi.shape and lo.shape[0] == ys.size
        assert (lo <= hi).all()
        for d, y, row_lo, row_hi in zip(np.repeat(dx, ys.shape[1]), ys.ravel(), lo, hi):
            got = sorted((int(a), int(b)) for a, b in zip(row_lo, row_hi) if a < b)
            assert got == runs_by_diff(np.asarray(shape.contains(xs - d, np.full(xs.size, y))))


def test_annulus_row_runs_lose_the_hole_off_the_inner_circle():
    ring = make_shape({"type": "annulus", "center": [0.0, 0.0], "r_in": 0.25, "r_out": 0.5})
    xs = -1.0 + (np.arange(200) + 0.5) * 0.01
    lo, hi = ring.row_runs(xs, np.array([[0.0, 0.3, 0.9]]), np.zeros(1))
    runs = [sorted((int(a), int(b)) for a, b in zip(ra, rb) if a < b) for ra, rb in zip(lo, hi)]
    assert [len(r) for r in runs] == [2, 1, 0]


# --------------------------------------------------------------- morphology


def lattice_grid(bits, epsilon=1.0):
    bits = np.asarray(bits, dtype=bool)
    lat = Lattice(epsilon=epsilon, origin=(0.0, 0.0),
                  nx=bits.shape[1], ny=bits.shape[0])
    return BitGrid(lattice=lat, bits=bits)


def test_single_bit_dilation_is_digital_disc():
    bits = np.zeros((7, 7), dtype=bool)
    bits[3, 3] = True
    out = morph(lattice_grid(bits), radius=2.0, op="dilate")
    assert out.count == 13
    js, iis = np.nonzero(out.bits)
    assert (((js - 3) ** 2 + (iis - 3) ** 2) <= 4).all()


def test_erode_empty_grid():
    g = lattice_grid(np.zeros((6, 6), dtype=bool))
    out = morph(g, radius=2.0, op="erode")
    assert out.count == 0


def test_radius_below_mesh_rejected():
    g = lattice_grid(np.zeros((6, 6), dtype=bool), epsilon=0.5)
    with pytest.raises(RadiusTooSmall):
        morph(g, radius=0.25, op="dilate")
    with pytest.raises(InvalidSpec):
        morph(g, radius=1.0, op="open")


def test_dilate_grows_erode_shrinks():
    rng = np.random.default_rng(17)
    for _ in range(20):
        bits = np.zeros((14, 14), dtype=bool)
        bits[4:-4, 4:-4] = rng.random((6, 6)) < 0.5
        g = lattice_grid(bits)
        grown = morph(g, 1.5, "dilate").bits
        shrunk = morph(g, 1.5, "erode").bits
        assert (grown | bits).sum() == grown.sum()   # never clears
        assert (shrunk & bits).sum() == shrunk.sum()  # never sets


def test_morph_monotonicity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        small = np.zeros((14, 14), dtype=bool)
        small[4:-4, 4:-4] = rng.random((6, 6)) < 0.4
        big = small | np.roll(small, 1, axis=1)
        a, b = lattice_grid(small), lattice_grid(big)
        assert not (morph(a, 2.0, "dilate").bits
                    & ~morph(b, 2.0, "dilate").bits).any()
        assert not (morph(a, 2.0, "erode").bits
                    & ~morph(b, 2.0, "erode").bits).any()


def test_erode_dilate_duality_bit_exact():
    rng = np.random.default_rng(23)
    for _ in range(10):
        bits = np.zeros((20, 20), dtype=bool)
        bits[6:-6, 6:-6] = rng.random((8, 8)) < 0.5
        g = lattice_grid(bits)
        eroded = morph(g, 3.2, "erode").bits
        grown_comp = morph(lattice_grid(~bits), 3.2, "dilate").bits
        assert (eroded == ~grown_comp).all()


def test_morph_matches_brute_force():
    rng = np.random.default_rng(31)
    for radius in (1.5, 2.0, 3.6):
        bits = np.zeros((12, 12), dtype=bool)
        bits[4:-4, 4:-4] = rng.random((4, 4)) < 0.6
        g = lattice_grid(bits)
        assert (morph(g, radius, "dilate").bits
                == brute_dilate(bits, radius)).all()
        assert (morph(g, radius, "erode").bits
                == brute_erode(bits, radius)).all()


def test_closing_stays_in_boundary_band():
    eps = 5e-3
    d = make_shape({"type": "disc", "center": [0.0, 0.0], "r": 0.5})
    g = digitize(d, lattice_covering(d.bounding_box, eps, margin=4))
    r = 4 * eps
    closed = morph(morph(g, r, "dilate"), r, "erode")
    diff = closed.bits ^ g.bits
    assert int(diff.sum()) <= 4 * math.pi / eps
    # every differing bit hugs the boundary: band between erosion and dilation
    inner = morph(g, 2 * eps, "erode").bits
    outer = morph(g, 2 * eps, "dilate").bits
    assert not (diff & ~(outer & ~inner)).any()


def test_opening_stays_in_boundary_band():
    eps = 5e-3
    d = make_shape({"type": "disc", "center": [0.0, 0.0], "r": 0.5})
    g = digitize(d, lattice_covering(d.bounding_box, eps, margin=4))
    r = 4 * eps
    opened = morph(morph(g, r, "erode"), r, "dilate")
    diff = opened.bits ^ g.bits
    inner = morph(g, 2 * eps, "erode").bits
    outer = morph(g, 2 * eps, "dilate").bits
    assert not (diff & ~(outer & ~inner)).any()
