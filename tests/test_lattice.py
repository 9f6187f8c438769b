import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergram import (
    BitGrid,
    Lattice,
    digitize,
    grid_volume,
    lattice,
    lattice_covering,
    make_shape,
    read_pgm,
    write_pgm,
)
from eulergram.lattice import IndicatorSet, _runs_of

from oracles import row_runs_by_loop


def test_lattice_points_and_axes():
    lat = Lattice(epsilon=0.5, origin=(1.0, -2.0), nx=4, ny=3)
    assert lat.point(0, 0) == (1.0, -2.0)
    assert lat.point(3, 2) == (2.5, -1.0)
    assert np.allclose(lat.xs(), [1.0, 1.5, 2.0, 2.5])
    assert np.allclose(lat.ys(), [-2.0, -1.5, -1.0])


def test_lattice_covering_margin_and_anchor():
    lat = lattice_covering((-1.0, 1.0, -1.0, 1.0), 0.25, margin=2)
    assert lat.origin == (-1.5, -1.5)
    # anchored on epsilon * Z^2
    assert lat.origin[0] / 0.25 == round(lat.origin[0] / 0.25)
    assert lat.xs()[0] <= -1.0 - 0.25 and lat.xs()[-1] >= 1.0 + 0.25


def test_digitize_empty_and_single_bit_volume():
    empty = make_shape({"type": "disc", "center": [100.0, 100.0], "r": 0.01})
    lat = lattice_covering((0, 1, 0, 1), 0.25, margin=1)
    assert grid_volume(digitize(empty, lat)) == 0.0

    dot = make_shape({"type": "disc", "center": [0.5, 0.5], "r": 0.05})
    grid = digitize(dot, lattice_covering((0, 1, 0, 1), 0.25, margin=1))
    assert grid.count == 1
    assert grid_volume(grid) == pytest.approx(0.0625)


def test_digitized_disc_area_converges():
    disc = make_shape({"type": "disc", "center": [0.0, 0.0], "r": 1.0})
    grid = digitize(disc, lattice_covering(disc.bounding_box, 1e-3, margin=1))
    assert grid_volume(grid) == pytest.approx(math.pi, rel=0.01)


def test_digitize_commutes_with_set_algebra():
    a = make_shape({"type": "disc", "center": [0.0, 0.0], "r": 1.0})
    b = make_shape({"type": "disc", "center": [0.8, 0.0], "r": 0.7})
    lat = lattice_covering((-2, 2, -2, 2), 0.05, margin=1)
    ga, gb = digitize(a, lat), digitize(b, lat)

    union = make_shape({"type": "union", "members": [
        {"type": "disc", "center": [0.0, 0.0], "r": 1.0},
        {"type": "disc", "center": [0.8, 0.0], "r": 0.7}]})
    assert digitize(union, lat) == (ga | gb)
    assert (~ga).bits.tolist() == (~ga.bits).tolist()
    assert ((ga & gb).bits == (ga.bits & gb.bits)).all()


def test_bitgrid_rejects_shape_mismatch():
    lat = Lattice(epsilon=1.0, origin=(0, 0), nx=3, ny=2)
    with pytest.raises(ValueError):
        BitGrid(lattice=lat, bits=np.zeros((3, 3), dtype=bool))


def test_bitgrid_immutable():
    lat = Lattice(epsilon=1.0, origin=(0, 0), nx=2, ny=2)
    g = BitGrid(lattice=lat, bits=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        g.bits[0, 0] = True


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    lat = Lattice(epsilon=0.125, origin=(-1.0, 2.0), nx=37, ny=21)
    grid = BitGrid(lattice=lat, bits=rng.random((21, 37)) < 0.4)
    path = tmp_path / "grid.pgm"
    write_pgm(grid, path)

    raw = path.read_bytes()
    assert raw.startswith(b"P4")
    meta = json.loads((tmp_path / "grid.json").read_text())
    assert meta == {"epsilon": 0.125, "origin": [-1.0, 2.0], "nx": 37, "ny": 21}

    back = read_pgm(path)
    assert back == grid


@st.composite
def run_rows(draw):
    nx = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "full", "empty", "one cell"]))
        if kind == "random":
            rows.append(draw(st.lists(st.booleans(), min_size=nx, max_size=nx)))
        else:
            at = draw(st.integers(0, nx - 1))
            rows.append([kind == "full" or (kind == "one cell" and i == at) for i in range(nx)])
    return np.array(rows, dtype=bool)


@settings(max_examples=200, deadline=None)
@given(run_rows(), st.integers(1, 40))
def test_runs_of_matches_loop_oracle(inside, dense_cells):
    # also through a set built without runs, evaluated a few cells at a time
    expected = row_runs_by_loop(inside)
    ny, nx = inside.shape
    ind = IndicatorSet(contains=lambda x, y: inside[y.astype(int), x.astype(int)],
                       bounding_box=(0.0, nx - 1.0, 0.0, ny - 1.0))
    with mock.patch.object(lattice, "_DENSE_CELLS", dense_cells):
        for lo, hi in (_runs_of(inside), ind.row_runs(np.arange(nx, dtype=float),
                                                      np.arange(ny, dtype=float))):
            assert lo.shape == hi.shape == (ny, max(1, max(map(len, expected))))
            assert (lo <= hi).all()
            assert [[(int(a), int(b)) for a, b in zip(row_lo, row_hi) if a < b]
                    for row_lo, row_hi in zip(lo, hi)] == expected
