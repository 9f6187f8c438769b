import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from eulergram import (
    BitGrid,
    Lattice,
    MeshMismatch,
    PolyRectangle,
    detect_boundary_pairs,
    detect_interior_pairs,
    digitize,
    lattice_covering,
    make_shape,
    verify_bounds,
)
from eulergram.entanglement import _Truth
from oracles import (
    bfs_component_count,
    boundary_pairs_by_loop,
    bounded_hole_count,
    interior_pairs_by_loop,
)


def fine_grid(bits, h=1.0):
    bits = np.asarray(bits, dtype=bool)
    lat = Lattice(epsilon=h, origin=(0.0, 0.0),
                  nx=bits.shape[1], ny=bits.shape[0])
    return BitGrid(lattice=lat, bits=bits)


# --------------------------------------------------------------- interior


def test_thin_bar_threads_a_pair():
    # vertical bar of unit width crossing the square between two adjacent
    # coarse points: the set ties the two border arcs into one piece
    bits = np.zeros((33, 33), dtype=bool)
    bits[12:21, 12] = True
    pairs = detect_interior_pairs(fine_grid(bits), coarse_epsilon=8.0)
    assert pairs == (((8.0, 16.0), (16.0, 16.0)),)


def test_broken_bar_reports_nothing():
    bits = np.zeros((33, 33), dtype=bool)
    bits[12:21, 12] = True
    bits[16, 12] = False
    pairs = detect_interior_pairs(fine_grid(bits), coarse_epsilon=8.0)
    assert len(pairs) == 0


def test_empty_set_has_no_pairs():
    g = fine_grid(np.zeros((33, 33), dtype=bool))
    assert len(detect_interior_pairs(g, 8.0)) == 0
    w = PolyRectangle(rects=[(0.0, 32.0, 0.0, 32.0)])
    assert len(detect_boundary_pairs(g, 8.0, w)) == 0


def test_boxes_wider_than_the_grid_report_nothing():
    # every test box would leave the grid, so no candidate survives and no
    # box is gathered: the run reports no pairs rather than failing
    disc = np.hypot(*np.mgrid[-12:13, -12:13]) <= 8
    g = fine_grid(disc)
    assert detect_interior_pairs(g, coarse_epsilon=32.0) == ()
    strip = fine_grid(np.eye(5, 40, 2, dtype=bool))
    assert detect_interior_pairs(strip, coarse_epsilon=8.0) == ()
    report = verify_bounds(g, [32.0])[0]
    assert (report.n_interior, report.holds) == (0, True)


def test_mesh_mismatch():
    g = fine_grid(np.zeros((33, 33), dtype=bool))
    with pytest.raises(MeshMismatch):
        detect_interior_pairs(g, coarse_epsilon=8.5)
    with pytest.raises(MeshMismatch):
        detect_interior_pairs(g, coarse_epsilon=2.0)
    # every mesh is checked before any work, so a bad one anywhere in the list raises
    for meshes in ([3.0], [8.0, 3.0], [8.0, 8.5]):
        with pytest.raises(MeshMismatch):
            verify_bounds(g, meshes)


def test_coarse_mesh_of_2_31_truth_cells_is_refused():
    # the detectors index boxes in int32: a subdivision of 2**31 cells used
    # to overflow them, so it is refused before any array work; one fewer
    # is an ordinary mesh whose boxes leave the grid
    g = fine_grid(np.zeros((33, 33), dtype=bool))
    assert detect_interior_pairs(g, coarse_epsilon=float(2 ** 31 - 1)) == ()
    for eps in (float(2 ** 31), 1e30):
        with pytest.raises(MeshMismatch):
            detect_interior_pairs(g, coarse_epsilon=eps)
        with pytest.raises(MeshMismatch):
            verify_bounds(g, [8.0, eps])


# --------------------------------------------------------------- boundary


def comb_grid():
    # three teeth touching the bottom edge, one sub-coarse gap between each
    bits = np.zeros((41, 41), dtype=bool)
    for x in (0, 16, 32):
        bits[0:7, x:x + 2] = True
    return fine_grid(bits)


def test_comb_reports_one_pair_per_gap():
    w = PolyRectangle(rects=[(0.0, 32.0, 0.0, 32.0)])
    got = set(detect_boundary_pairs(comb_grid(), 8.0, w))
    assert got == {(((0.0, 0.0)), (16.0, 0.0)), ((16.0, 0.0), (32.0, 0.0))}


def test_fat_rectangle_has_no_boundary_pairs():
    bits = np.zeros((41, 41), dtype=bool)
    bits[10:21, 10:21] = True
    w = PolyRectangle(rects=[(0.0, 32.0, 0.0, 32.0)])
    assert len(detect_boundary_pairs(fine_grid(bits), 8.0, w)) == 0


@st.composite
def sides(draw):
    """A random side of a truth: its shape, how its set cells are laid, and a seed."""
    ny, nx = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    layout = draw(st.sampled_from(["empty", "full", "border", 0.01, 0.05, 0.2, 0.6]))
    return ny, nx, layout, draw(st.integers(0, 2**32 - 1))


def side_bits(ny, nx, layout, seed):
    rng = np.random.default_rng(seed)
    if layout in ("empty", "full"):
        return np.full((ny, nx), layout == "full")
    if layout == "border":
        # set cells only on the grid's outer ring
        bits = rng.random((ny, nx)) < 0.3
        bits[1:-1, 1:-1] = False
        return bits
    return rng.random((ny, nx)) < layout


@settings(max_examples=300, deadline=None)
@given(sides(), st.sampled_from([4, 5, 7, 8, 16]), st.sampled_from([1.0, 0.5, 1.0 / 192]),
       st.booleans())
@example((9, 9, "empty", 0), 4, 1.0, True)
@example((9, 9, "full", 0), 4, 1.0, True)
@example((33, 33, "border", 1), 5, 1.0, True)
@example((40, 3, 0.05, 2), 16, 1.0, True)  # narrower than R = 17 columns
@example((1, 40, "border", 3), 7, 0.5, False)
def test_near_matches_the_distance_transform(side, k, h, padded):
    # the oracle is the full-grid Euclidean distance transform, read at the
    # coarse points with the same float test the boundary detector applies;
    # without the detector's half-diagonal pad, set cells sit at the threshold
    bits = side_bits(*side)
    lat = Lattice(epsilon=h, origin=(0.0, 0.0), nx=bits.shape[1], ny=bits.shape[0])
    thr = k * h + (h / math.sqrt(2.0) if padded else 0.0)
    near = _Truth(lat, bits).near(k, thr)
    if not bits.any():
        # with no set cell the transform measures to a point off the grid
        assert not near.any()
    else:
        dist = ndimage.distance_transform_edt(~bits)[::k, ::k]
        assert np.array_equal(near, dist * h <= thr)
    assert near.shape == bits[::k, ::k].shape


@pytest.mark.parametrize("fill", [False, True])
def test_empty_and_full_sides_report_no_boundary_pairs(fill):
    g = fine_grid(np.full((33, 33), fill))
    for w in (PolyRectangle(rects=[(0.0, 32.0, 0.0, 32.0)]),
              PolyRectangle(rects=[(0.0, 10.0, 0.0, 32.0), (20.0, 32.0, 4.0, 28.0)])):
        assert len(detect_boundary_pairs(g, 8.0, w)) == 0
        assert len(detect_boundary_pairs(g, 4.0, w)) == 0


def test_far_teeth_report_nothing():
    # two teeth so far apart that the midway coarse point falls outside
    # the coarse-mesh dilation of the set, breaking the between-chain
    bits = np.zeros((49, 49), dtype=bool)
    for x in (0, 32):
        bits[0:7, x:x + 2] = True
    w = PolyRectangle(rects=[(0.0, 48.0, 0.0, 48.0)])
    pairs = detect_boundary_pairs(fine_grid(bits), 8.0, w)
    assert len(pairs) == 0


# ------------------------------------------------------------ verify_bounds


def test_disc_bound_is_tight():
    d = make_shape({"type": "disc", "center": [0.5, 0.5], "r": 0.5})
    h = 1.0 / 64.0
    g = digitize(d, lattice_covering(d.bounding_box, h, margin=10))
    rep, = verify_bounds(g, [8 * h])
    assert rep.num_components_digitized == 1
    assert rep.num_components_truth == 1
    assert rep.n_interior == 0
    assert rep.bound_rhs == 1
    assert rep.holds and rep.chi_holds


def test_split_u_shape_bound():
    # two arms the coarse lattice sees, a bridge it cannot see
    bits = np.zeros((41, 41), dtype=bool)
    bits[8:33, 8:10] = True
    bits[8:33, 24:26] = True
    bits[9:12, 8:26] = True
    rep, = verify_bounds(fine_grid(bits), [8.0])
    assert rep.num_components_truth == 1
    assert rep.num_components_digitized == 2
    assert rep.n_interior >= 1
    assert rep.bound_rhs >= 3
    assert rep.holds and rep.chi_holds


def test_zero_pairs_below_quarter_regularity():
    d = make_shape({"type": "disc", "center": [0.5, 0.5], "r": 0.4})
    h = 1.0 / 256.0
    g = digitize(d, lattice_covering(d.bounding_box, h, margin=20))
    for k in (8, 16):  # both well under rho / 4 = 0.1
        assert len(detect_interior_pairs(g, k * h)) == 0


def test_interior_pairs_hug_the_set():
    # every endpoint of a reported pair sits off F but within the coarse
    # mesh of it, the dilated-boundary locality property
    rng = np.random.default_rng(47)
    for _ in range(10):
        bits = np.zeros((97, 97), dtype=bool)
        for _ in range(12):
            cx, cy = rng.uniform(20, 77, size=2)
            r = rng.uniform(1.0, 6.0)
            yy, xx = np.ogrid[:97, :97]
            bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        g = fine_grid(bits)
        dist = ndimage.distance_transform_edt(~bits)
        eps = 8.0
        for p, q in detect_interior_pairs(g, eps):
            for x, y in (p, q):
                assert not bits[int(y), int(x)]
                assert dist[int(y), int(x)] <= eps + np.sqrt(2.0)


def random_disc_union(rng, lo, hi, n=129):
    yy, xx = np.ogrid[:n, :n]
    bits = np.zeros((n, n), dtype=bool)
    for _ in range(int(rng.integers(3, 14))):
        cx, cy = rng.uniform(lo, hi, size=2)
        r = rng.uniform(3.0, 12.0)
        bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    return bits


def counts_match_oracles(rep, truth, k):
    """Check a report's counts on the windowed truth against BFS counts.

    Returns whether the coarse subsample has set bits on its border.
    """
    sub = truth[::k, ::k]
    assert rep.num_components_truth == bfs_component_count(truth, 8)
    assert rep.num_components_digitized == bfs_component_count(sub, 8)
    assert rep.chi_abs == abs(bfs_component_count(sub, 4) - bounded_hole_count(sub, 8))
    return bool(sub[[0, -1]].any() or sub[:, [0, -1]].any())


def test_random_disc_unions_never_violate_bounds():
    rng = np.random.default_rng(53)
    for _ in range(50):
        bits = random_disc_union(rng, 24, 105)
        rep, = verify_bounds(fine_grid(bits), [8.0])
        assert rep.holds and rep.chi_holds
        assert not counts_match_oracles(rep, bits, 8)


def test_counts_on_coarse_grids_with_set_on_the_border():
    # centres reach the lattice edge, so the subsample's border carries set
    # bits; the bounds assume a margin, so only the counts are checked
    rng = np.random.default_rng(67)
    border = 0
    for _ in range(40):
        bits = random_disc_union(rng, 0, 128)
        rep, = verify_bounds(fine_grid(bits), [8.0])
        border += counts_match_oracles(rep, bits, 8)
    assert border >= 20


def test_windowed_bounds_on_random_unions():
    rng = np.random.default_rng(59)
    w = PolyRectangle(rects=[(20.0, 100.0, 20.0, 100.0)])
    yy, xx = np.ogrid[:129, :129]
    inside = (xx >= 20) & (xx <= 100) & (yy >= 20) & (yy <= 100)
    for _ in range(20):
        bits = random_disc_union(rng, 16, 113)
        rep, = verify_bounds(fine_grid(bits), [8.0], window=w)
        assert rep.corners == 4
        assert rep.holds and rep.chi_holds
        counts_match_oracles(rep, bits & inside, 8)


@pytest.mark.parametrize("window", [None, PolyRectangle(rects=[(20.0, 100.0, 20.0, 100.0)])])
def test_one_call_per_truth_matches_one_call_per_mesh(window):
    # the shared per-truth arrays give the reports of separate calls, in order
    rng = np.random.default_rng(61)
    yy, xx = np.ogrid[:129, :129]
    for _ in range(6):
        bits = np.zeros((129, 129), dtype=bool)
        for _ in range(int(rng.integers(3, 14))):
            cx, cy = rng.uniform(16, 113, size=2)
            r = rng.uniform(1.0, 12.0)
            bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        g = fine_grid(bits)
        meshes = [16.0, 4.0, 8.0, 5.0]
        assert verify_bounds(g, meshes, window) == [
            verify_bounds(g, [eps], window)[0] for eps in meshes]
    assert verify_bounds(g, [], window) == []


# ------------------------------------------------------------------ oracles


ORIGIN, H, N = (-1.25, 0.75), 0.5, 97
WINDOWS = {
    "none": None,
    "square": ((3.3, 40.1, 2.9, 41.7),),
    "L": ((3.3, 25.2, 2.9, 44.1), (25.2, 44.6, 2.4, 20.3)),
}


def threaded_bits(seed):
    # discs, speckle and one-cell bars (vertical bars flip cells, cutting
    # channels through discs): thin features for the set and for its
    # complement to thread between coarse points
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:N, 0:N]
    bits = rng.random((N, N)) < 0.04
    for _ in range(6):
        cx, cy, r = rng.uniform(10, 87, size=3) / [1, 1, 5]
        bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    for _ in range(8):
        j, i0 = rng.integers(0, N, size=2)
        length = rng.integers(5, 40)
        if rng.random() < 0.5:
            bits[j, i0:i0 + length] = True
        else:
            bits[i0:i0 + length, j] = ~bits[i0:i0 + length, j]
    return bits


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("k", [4, 5, 8, 16])
def test_pair_detectors_match_loop_oracles(k, window):
    lat = Lattice(epsilon=H, origin=ORIGIN, nx=N, ny=N)
    rects = WINDOWS[window]
    # boundary pairs need a window; without one, verify_bounds uses the frame
    frame = rects or ((lat.point(0, 0)[0], lat.point(N - 1, 0)[0],
                       lat.point(0, 0)[1], lat.point(0, N - 1)[1]),)
    eps = k * H
    found = [0, 0]
    for seed in range(3):
        bits = threaded_bits(seed)
        for b in (bits, ~bits):
            g = BitGrid(lattice=lat, bits=b)
            w = None if rects is None else PolyRectangle(rects=rects)
            got = detect_interior_pairs(g, eps, w)
            assert got == interior_pairs_by_loop(b, H, ORIGIN, eps, rects)
            got_b = detect_boundary_pairs(g, eps, PolyRectangle(rects=frame))
            assert got_b == boundary_pairs_by_loop(b, H, ORIGIN, eps, frame)
            found[0] += len(got)
            found[1] += len(got_b)
    assert found[0] > 0 and found[1] > 0  # the comparison is not vacuous
