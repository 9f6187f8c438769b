import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulergram import (
    BitGrid,
    Lattice,
    MarginViolation,
    NotAdmissible,
    chi_local,
    chi_vef,
    config_counts,
    label_components,
)
from eulergram.lattice import _run_list
from eulergram.topology import _component_counts, _run_features, _window_counts

from gridgen import admissible_random_bits
from oracles import (
    bfs_component_count,
    bounded_hole_count,
    chi_by_components,
    scan_cell_measures,
    scan_chi_vef,
    scan_config_counts,
)


def grid_of(rows, epsilon=1.0):
    bits = np.array([[ch == "#" for ch in row] for row in rows])
    lat = Lattice(epsilon=epsilon, origin=(0.0, 0.0),
                  nx=bits.shape[1], ny=bits.shape[0])
    return BitGrid(lattice=lat, bits=bits)


RING = grid_of([
    ".....",
    ".###.",
    ".#.#.",
    ".###.",
    ".....",
])


def test_single_bit_counts():
    g = grid_of(["...", ".#.", "..."])
    c = config_counts(g)
    assert (c.phi_out, c.phi_in, c.phi_x_set, c.phi_x_complement) == (1, 0, 0, 0)
    assert chi_local(g) == 1
    assert chi_vef(g) == 1


def test_diagonal_pair_is_x_configuration():
    g = grid_of(["....", ".#..", "..#.", "...."])
    c = config_counts(g)
    assert c.phi_x_set == 1
    assert not c.admissible
    with pytest.raises(NotAdmissible) as err:
        chi_local(g)
    assert err.value.phi_x_set == 1
    assert err.value.phi_x_complement == 0


def test_ring_counts_and_chi():
    c = config_counts(RING)
    assert (c.phi_out, c.phi_in) == (1, 1)
    assert (c.phi_x_set, c.phi_x_complement) == (0, 0)
    assert chi_local(RING) == 0
    assert chi_vef(RING) == 0  # 8 - 8 + 0


def test_two_blocks_chi_two():
    g = grid_of([
        ".......",
        ".##.##.",
        ".##.##.",
        ".......",
    ])
    assert chi_local(g) == 2
    assert chi_vef(g) == 2


def test_full_block_vef():
    g = grid_of(["....", ".##.", ".##.", "...."])
    assert chi_vef(g) == 1  # 4 - 4 + 1


def test_margin_violation():
    g = grid_of(["#..", "...", "..."])
    with pytest.raises(MarginViolation):
        config_counts(g)
    # component counting has no margin requirement
    assert label_components(g).num_set_components == 1


def test_label_components_ring():
    lab = label_components(RING)
    assert lab.num_set_components == 1
    assert lab.num_complement_bounded_components == 1


def test_label_components_empty():
    g = grid_of(["...", "...", "..."])
    assert label_components(g).num_set_components == 0


def test_counts_match_oracle_on_random_grids():
    rng = np.random.default_rng(42)
    for _ in range(60):
        bits = np.zeros((9, 9), dtype=bool)
        bits[2:-2, 2:-2] = rng.random((5, 5)) < 0.5
        g = BitGrid(lattice=Lattice(1.0, (0, 0), 9, 9), bits=bits)
        c = config_counts(g)
        ref = scan_config_counts(bits)
        assert c.phi_out == ref["phi_out"]
        assert c.phi_in == ref["phi_in"]
        assert c.phi_x_set == ref["phi_x_set"]
        assert c.phi_x_complement == ref["phi_x_complement"]
        assert chi_vef(g) == scan_chi_vef(bits)
        lab = label_components(g)
        assert lab.num_set_components == bfs_component_count(bits, 4)
        assert lab.num_complement_bounded_components == bounded_hole_count(bits, 8)
    # no margin: set bits on the border, where config_counts would refuse
    touching = 0
    for _ in range(60):
        ny, nx = rng.integers(1, 10, size=2)
        bits = rng.random((ny, nx)) < 0.6
        touching += bool(bits[[0, -1]].any() or bits[:, [0, -1]].any())
        lab = label_components(BitGrid(lattice=Lattice(1.0, (0, 0), nx, ny), bits=bits))
        assert lab.num_set_components == bfs_component_count(bits, 4)
        assert lab.num_complement_bounded_components == bounded_hole_count(bits, 8)
    assert touching > 50


def test_three_routes_agree_on_admissible_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(200):
        bits = admissible_random_bits(rng, 16, 16, margin=3, density=0.55)
        g = BitGrid(lattice=Lattice(1.0, (0, 0), 16, 16), bits=bits)
        assert config_counts(g).admissible
        lab = label_components(g)
        chi_comp = lab.num_set_components - lab.num_complement_bounded_components
        assert chi_local(g) == chi_vef(g) == chi_comp == chi_by_components(bits)


def _as_grid(bits):
    bits = np.array(bits, dtype=bool)
    ny, nx = bits.shape
    return BitGrid(lattice=Lattice(1.0, (0, 0), nx, ny), bits=bits)


def _assert_component_oracles(bits):
    # the breadth-first oracles share no code with the run counter or the kernel
    g = _as_grid(bits)
    n4, n8 = bfs_component_count(g.bits, 4), bfs_component_count(g.bits, 8)
    holes = bounded_hole_count(g.bits, 8)
    assert _component_counts(g.bits, 4) == n4
    assert _component_counts(g.bits, 8) == n8
    lab = label_components(g)
    assert (lab.num_set_components, lab.num_complement_bounded_components) == (n4, holes)
    assert n4 - holes == chi_vef(g)


# four pixels N, S, E and W of an empty centre: four 4-connected components
# and no 8-connected hole, so components minus holes is chi_vef, 4, while
# the 8-connected component count is 1
NSEW = ["..#..",
        ".#.#.",
        "..#.."]


def test_nsew_components_differ_from_chi_vef():
    g = grid_of(NSEW)
    assert _component_counts(g.bits, 4) == 4
    assert _component_counts(g.bits, 8) == 1
    lab = label_components(g)
    assert lab.num_complement_bounded_components == 0
    assert lab.num_set_components - lab.num_complement_bounded_components == 4
    assert chi_vef(g) == 4


@settings(max_examples=400, deadline=None)
@given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 16), st.integers(1, 16)),
                  elements=st.booleans()))
@example(np.zeros((1, 1), dtype=bool))
@example(np.zeros((4, 7), dtype=bool))
@example(np.ones((1, 9), dtype=bool))
@example(np.ones((9, 1), dtype=bool))
@example(np.array([[1, 0, 1, 1, 0, 1]], dtype=bool))
@example(np.array([[1], [0], [1], [1], [0], [1]], dtype=bool))
@example(np.ones((5, 6), dtype=bool))
@example(np.pad(np.zeros((3, 3), dtype=bool), 1, constant_values=True))
@example(np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]], dtype=bool))
@example(np.array([[ch == "#" for ch in row] for row in NSEW]))
def test_component_counts_match_oracles(bits):
    _assert_component_oracles(bits)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24)),
                  elements=st.booleans()))
@example(np.array([[ch == "#" for ch in row] for row in NSEW]))
def test_components_minus_holes_is_chi_vef(bits):
    # the identity label_components rests on, between the oracles alone:
    # 4-connected components minus 8-connected holes is V - E + F, border
    # bits included
    assert bfs_component_count(bits, 4) - bounded_hole_count(bits, 8) == scan_chi_vef(bits)


def _spiral(n):
    """A one-cell-wide square spiral with one-cell gaps between its arms."""
    bits = np.zeros((n, n), dtype=bool)
    j, i, dj, di = 1, 1, 0, 1
    for length in [n - 3] + [m for m in range(n - 3, 0, -2) for _ in (0, 1)]:
        for _ in range(length):
            bits[j, i] = True
            j, i = j + dj, i + di
        dj, di = di, -dj
    bits[j, i] = True
    return bits


def _comb(n):
    bits = np.zeros((n, n), dtype=bool)
    bits[1:-1, 1:-1:2] = True  # teeth, one column wide
    bits[-2, 1:-1] = True  # the spine joins them in the last row
    return bits


@pytest.mark.parametrize("bits", [
    np.indices((40, 40)).sum(axis=0) % 2 == 0,
    np.indices((41, 39)).sum(axis=0) % 2 == 1,
    _comb(40),
    _comb(40)[::-1],
    _spiral(40),
], ids=["checkerboard", "checkerboard-odd", "comb", "comb-flipped", "spiral"])
def test_component_counts_on_run_dense_grids(bits):
    # every row holds many runs, and the links chain across all rows
    assert len(bits) * 8 < np.count_nonzero(bits[:, 1:] & ~bits[:, :-1])
    _assert_component_oracles(bits)


def test_component_counts_on_branched_random_grids():
    # near the site-percolation threshold components are large and branched,
    # so one merge round hooks long chains of roots
    rng = np.random.default_rng(11)
    for _ in range(10):
        _assert_component_oracles(rng.random((60, 60)) < 0.55)


def _top_row(ny, nx):
    bits = np.zeros((ny, nx), dtype=bool)
    bits[-1] = True
    return bits


def _corner_bits(ny, nx):
    bits = np.zeros((ny, nx), dtype=bool)
    bits[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    return bits


@settings(max_examples=500, deadline=None)
@given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 16), st.integers(1, 16)),
                  elements=st.booleans()))
@example(np.ones((1, 1), dtype=bool))
@example(np.array([[1, 1, 0, 1, 0, 0, 1]], dtype=bool))
@example(np.array([[1], [1], [0], [1], [0], [0], [1]], dtype=bool))
@example(_corner_bits(4, 5))
@example(_corner_bits(1, 3))
@example(_corner_bits(3, 1))
@example(_top_row(3, 4))
@example(_top_row(1, 4))
@example(np.array([[0, 1], [1, 0]], dtype=bool))
@example(np.array([[1, 0], [0, 1]], dtype=bool))
def test_window_kernel_matches_scan(bits):
    # the unpadded kernel against the padded per-anchor loop, border bits
    # included: windows reaching off the array count only as outward corners
    ref = scan_config_counts(bits)
    got = _window_counts(bits)
    assert (got.phi_out, got.phi_in, got.phi_x_set, got.phi_x_complement) == (
        ref["phi_out"], ref["phi_in"], ref["phi_x_set"], ref["phi_x_complement"])
    assert got.chi == scan_chi_vef(bits)


def test_x_count_complement_duality():
    rng = np.random.default_rng(3)
    for _ in range(40):
        bits = np.zeros((10, 10), dtype=bool)
        bits[2:-2, 2:-2] = rng.random((6, 6)) < 0.5
        g = BitGrid(lattice=Lattice(1.0, (0, 0), 10, 10), bits=bits)
        c = config_counts(g)
        # complement read off the same windows: X on the set of one grid is
        # X on the complement of the other
        ref = scan_config_counts(~bits)
        assert c.phi_x_set == ref["phi_x_complement"]
        assert c.phi_x_complement == ref["phi_x_set"]


def test_phi_in_equals_complement_rescan():
    # an inward corner of M is an outward corner of the complement seen from
    # the opposite diagonal: rescan NOT M with the anchor role reversed
    rng = np.random.default_rng(5)
    for _ in range(40):
        bits = np.zeros((10, 10), dtype=bool)
        bits[2:-2, 2:-2] = rng.random((6, 6)) < 0.45
        g = BitGrid(lattice=Lattice(1.0, (0, 0), 10, 10), bits=bits)

        comp = ~bits
        ny, nx = comp.shape

        def at(j, i):
            return bool(comp[j, i]) if 0 <= j < ny and 0 <= i < nx else True

        rescan = 0
        for j in range(-1, ny + 1):
            for i in range(-1, nx + 1):
                # anchor at the diagonal cell, looking back along both axes
                if at(j, i) and not at(j, i - 1) and not at(j - 1, i):
                    rescan += 1
        assert config_counts(g).phi_in == rescan


def test_translation_invariance():
    inner = np.zeros((12, 12), dtype=bool)
    inner[3:6, 3:7] = True
    inner[7, 5] = True
    base = BitGrid(lattice=Lattice(1.0, (0, 0), 12, 12), bits=inner)
    shifted = BitGrid(lattice=Lattice(1.0, (0, 0), 12, 12),
                      bits=np.roll(np.roll(inner, 1, axis=0), 1, axis=1))
    ca, cb = config_counts(base), config_counts(shifted)
    assert (ca.phi_out, ca.phi_in) == (cb.phi_out, cb.phi_in)
    assert chi_vef(base) == chi_vef(shifted)
    la, lb = label_components(base), label_components(shifted)
    assert la.num_set_components == lb.num_set_components
    assert la.num_complement_bounded_components == lb.num_complement_bounded_components


@st.composite
def cell_arrangements(draw):
    ny = draw(st.integers(1, 7))
    nx = draw(st.integers(1, 7))
    occ = draw(hnp.arrays(np.bool_, (ny, nx)))

    def axis(n):
        start = draw(st.floats(-10.0, 10.0))
        steps = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
        return start + np.concatenate([[0.0], np.cumsum(steps)])

    return axis(nx), axis(ny), occ


def _unit_axes(occ):
    occ = np.array(occ, dtype=bool)
    ny, nx = occ.shape
    return np.arange(nx + 1.0), np.arange(ny + 1.0), occ


@settings(max_examples=300, deadline=None)
@given(cell_arrangements())
# corner-touching cells: one closed component, and the ring encloses a hole
@example(_unit_axes([[1, 0], [0, 1]]))
@example(_unit_axes([[0, 1], [1, 0]]))
@example(_unit_axes([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
def test_cell_features_match_oracles(arrangement):
    xs, ys, occ = arrangement
    assert (np.diff(xs) > 0).all() and (np.diff(ys) > 0).all()
    got, = _run_features(xs, ys, *_run_list(occ))
    # closed cells meeting at a corner are connected, so the set is
    # 8-connected and its complement 4-connected
    assert got["chi"] == bfs_component_count(occ, 8) - bounded_hole_count(occ)
    ref = scan_cell_measures(xs, ys, occ)
    for key in ("per1", "per2", "vol"):
        assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=1e-12)
