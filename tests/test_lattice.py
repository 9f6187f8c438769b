import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulergram import (
    BitGrid,
    ConfigInvalid,
    CornerClash,
    Lattice,
    digitize,
    grid_volume,
    lattice,
    lattice_covering,
    make_shape,
    read_pgm,
    write_pgm,
)
from eulergram.cli import _clip_to_window, _polyrect
from eulergram.lattice import IndicatorSet, _runs_of

from oracles import LevelIndicator, digitize_by_broadcast, row_runs_by_loop


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
    assert (digitize(union, lat).bits == (ga.bits | gb.bits)).all()


@st.composite
def digitize_cases(draw):
    eps = draw(st.sampled_from([0.05, 0.1, 0.125, 0.3, 1.0 / 3.0]))

    def on_mesh(lo, hi):
        # a lattice point of epsilon * Z^2, or half way between two
        return (draw(st.integers(lo, hi)) + draw(st.sampled_from([0.0, 0.5]))) * eps

    def radius():
        # a whole number of meshes about a lattice point makes rows and
        # columns tangent to the circle
        if draw(st.booleans()):
            return draw(st.integers(1, 8)) * eps
        return draw(st.floats(0.05, 1.0))

    def member():
        cx, cy, r = on_mesh(-4, 4), on_mesh(-4, 4), radius()
        kind = draw(st.sampled_from(["disc", "annulus", "implicit"]))
        if kind == "disc":
            return {"type": "disc", "center": [cx, cy], "r": r}
        if kind == "annulus":
            return {"type": "annulus", "center": [cx, cy],
                    "r_in": r * draw(st.sampled_from([0.25, 0.5, 0.75])), "r_out": r}
        return {"type": "implicit", "g": lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 - r ** 2,
                "bounding_box": [cx - r, cx + r, cy - r, cy + r]}

    kind = draw(st.sampled_from(["shape", "clip", "half plane", "level"]))
    if kind in ("shape", "clip"):
        specs = [member() for _ in range(draw(st.integers(1, 3)))]
        shape = make_shape(specs[0] if len(specs) == 1 else {"type": "union", "members": specs})
        if kind == "clip":
            rects = []
            for _ in range(draw(st.integers(1, 2))):
                x0, y0 = on_mesh(-4, 2), on_mesh(-4, 2)
                rects.append([x0, x0 + radius(), y0, y0 + radius()])
            try:
                shape = _clip_to_window(shape, _polyrect({"rects": rects}))
            except (ConfigInvalid, CornerClash):
                assume(False)
    elif kind == "half plane":
        # a predicate that answers with the x axis's shape only
        a = on_mesh(-4, 4)
        shape = make_shape({"type": "implicit", "g": lambda x, y: np.asarray(x) - a,
                            "bounding_box": [a - 1.0, a, -1.0, 1.0]})
    else:
        rects = []
        for _ in range(draw(st.integers(1, 4))):
            x0, y0 = on_mesh(-4, 2), on_mesh(-4, 2)
            rects.append([x0, x0 + radius(), y0, y0 + radius()])
        real = SimpleNamespace(rects=np.array(rects),
                               marks=[draw(st.sampled_from([1.0, 0.5, 2.0])) for _ in rects])
        window = (on_mesh(-4, 0), on_mesh(1, 4), on_mesh(-4, 0), on_mesh(1, 4))
        shape = LevelIndicator(real, draw(st.sampled_from([0.5, 1.0, 1.5])), window)
    lat = lattice_covering(shape.bounding_box, eps, margin=draw(st.integers(0, 2)))
    # the covering lattice's origin, shifted off the mesh or kept on it
    shift = st.sampled_from([0.0, 0.5 * eps, eps / 3.0, 1e-12, -0.25 * eps])
    origin = (lat.origin[0] + draw(shift), lat.origin[1] + draw(shift))
    return shape, Lattice(epsilon=lat.epsilon, origin=origin, nx=lat.nx, ny=lat.ny)


@settings(max_examples=300, deadline=None)
@given(digitize_cases())
def test_digitize_matches_broadcast_oracle(case):
    shape, lat = case
    grid = digitize(shape, lat)
    assert grid.bits.shape == (lat.ny, lat.nx)
    assert np.array_equal(grid.bits, digitize_by_broadcast(shape, lat))


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


def test_read_pgm_refuses_a_truncated_raster(tmp_path):
    lat = Lattice(epsilon=1.0, origin=(0.0, 0.0), nx=9, ny=4)
    path = tmp_path / "grid.pgm"
    write_pgm(BitGrid(lattice=lat, bits=np.ones((4, 9), dtype=bool)), path)
    path.write_bytes(path.read_bytes()[:-3])
    # 4 rows of 2 bytes each, 3 of them cut off
    with pytest.raises(ValueError, match="need 8 bytes, the file holds 5"):
        read_pgm(path)


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
                                                      np.arange(ny, dtype=float)[None, :],
                                                      np.zeros(1))):
            assert lo.shape == hi.shape == (ny, max(1, max(map(len, expected))))
            assert (lo <= hi).all()
            assert [[(int(a), int(b)) for a, b in zip(row_lo, row_hi) if a < b]
                    for row_lo, row_hi in zip(lo, hi)] == expected
