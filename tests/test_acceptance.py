"""Acceptance checks, one test per numbered criterion.

Each test prints a single summary line; run ``pytest -s tests/test_acceptance.py``
to read the checklist.  Tolerances and seeds are pinned here on purpose.
"""

import math
import time

import numpy as np
from scipy import ndimage

from eulergram import (
    AtomicMarks,
    BitGrid,
    GrainMixture,
    Lattice,
    PolyRectangle,
    ShotNoiseModel,
    chi_bicovariogram,
    chi_bicovariogram_discrete,
    chi_local,
    chi_vef,
    config_counts,
    digitize,
    estimate_stationary_densities,
    label_components,
    lattice_covering,
    make_shape,
    mc_mean_chi,
    mean_chi_closed_form,
    morph,
    perimeter_axis_sum,
    perimeter_variational,
    stationary_density_closed_form,
    verify_bounds,
)
from gridgen import admissible_random_bits, smooth_blob_bits

E1 = math.exp(-1.0)


def _unit_square_model(level, intensity=1.0):
    grain = PolyRectangle(rects=((0.0, 1.0, 0.0, 1.0),))
    return ShotNoiseModel(intensity=intensity,
                          grain_dist=GrainMixture(components=(grain,), probs=(1.0,)),
                          mark_dist=AtomicMarks(values=(1.0,), probs=(1.0,)),
                          level=level)


def _per_tile_label_counts(mosaic, tile):
    """Count 4-connected components per tile of a square mosaic.

    Assumes no component can straddle a tile boundary, so one global label
    pass plus a first-occurrence scan gives every tile's count at once.
    """
    lab, _ = ndimage.label(mosaic)
    flat = lab.ravel()
    occupied = np.flatnonzero(flat)
    uniq, first = np.unique(flat[occupied], return_index=True)
    pos = occupied[first]
    side = mosaic.shape[1]
    tiles_per_side = side // tile
    tiles = (pos // side // tile) * tiles_per_side + (pos % side) // tile
    return np.bincount(tiles, minlength=tiles_per_side * tiles_per_side)


def test_criterion_1_exhaustive_mask_equivalence():
    """All 65536 4x4 masks: chi_local == chi_vef == components - holes."""
    t0 = time.perf_counter()

    codes = np.arange(65536, dtype=np.int64)
    bits4 = ((codes[:, None] >> np.arange(16)) & 1).astype(bool).reshape(-1, 4, 4)
    emb = np.zeros((65536, 6, 6), dtype=bool)
    emb[:, 1:5, 1:5] = bits4

    a = emb[:, :-1, :-1]
    b = emb[:, :-1, 1:]
    c = emb[:, 1:, :-1]
    d = emb[:, 1:, 1:]
    chi_window = ((a & ~b & ~c).sum(axis=(1, 2)).astype(np.int64)
                  - (b & c & ~d).sum(axis=(1, 2)))
    admissible = ((a & ~b & ~c & d) | (~a & b & c & ~d)).sum(axis=(1, 2)) == 0

    # V - E + F of the union of closed pixels
    p = np.zeros((65536, 8, 8), dtype=bool)
    p[:, 1:7, 1:7] = emb
    vq = p[:, :-1, :-1] | p[:, :-1, 1:] | p[:, 1:, :-1] | p[:, 1:, 1:]
    eh = p[:, :-1, 1:] | p[:, 1:, 1:]
    ev = p[:, 1:, :-1] | p[:, 1:, 1:]
    chi_cells = (vq.sum(axis=(1, 2)).astype(np.int64)
                 - eh[:, :, :-1].sum(axis=(1, 2))
                 - ev[:, :-1, :].sum(axis=(1, 2))
                 + emb.sum(axis=(1, 2)))

    # one global label pass each; the zero margins keep set components
    # tile-local and the True frames keep complement components tile-local
    mos = emb.reshape(256, 256, 6, 6).transpose(0, 2, 1, 3).reshape(1536, 1536)
    comps = _per_tile_label_counts(mos, 6)
    framed = np.ones((65536, 8, 8), dtype=bool)
    framed[:, 1:7, 1:7] = emb
    mos2 = framed.reshape(256, 256, 8, 8).transpose(0, 2, 1, 3).reshape(2048, 2048)
    holes = _per_tile_label_counts(~mos2, 8) - 1  # minus the moat ring
    assert (holes >= 0).all()

    topo = comps - holes
    violations = admissible & ((chi_window != chi_cells) | (chi_window != topo))
    n_bad = int(violations.sum())
    dt = time.perf_counter() - t0

    assert n_bad == 0
    assert dt < 1.0, "exhaustive sweep took %.2fs" % dt

    # untimed: the batch arithmetic must agree with the shipped functions
    lat = Lattice(epsilon=1.0, origin=(0.0, 0.0), nx=6, ny=6)
    for k in range(0, 65536, 64):
        g = BitGrid(lattice=lat, bits=emb[k])
        cc = config_counts(g)
        assert cc.admissible == bool(admissible[k])
        if cc.admissible:
            assert chi_local(g) == chi_window[k]
            assert chi_vef(g) == chi_cells[k]
            lab = label_components(g)
            assert lab.num_set_components == comps[k]
            assert lab.num_complement_bounded_components == holes[k]

    print("criterion 1: PASS - %d/65536 admissible masks, chi_local == chi_vef"
          " == components - holes, %.2fs" % (int(admissible.sum()), dt))


def test_criterion_2_discrete_bicovariogram_identity():
    """chi from shifted-difference counts equals chi_local, exactly."""
    rng = np.random.default_rng(2)
    lat = Lattice(epsilon=1.0, origin=(0.0, 0.0), nx=32, ny=32)
    n = 10000
    for k in range(n):
        if k % 2 == 0:
            bits = admissible_random_bits(rng, 32, 32)
        else:
            bits = smooth_blob_bits(rng, 32, 32, margin=4, scale=2.0, fill=0.4)
        g = BitGrid(lattice=lat, bits=bits)
        assert chi_bicovariogram_discrete(g) == chi_local(g)
    print("criterion 2: PASS - identity exact on %d random 32x32 grids" % n)


def test_criterion_3_disc_chi_plateau_and_continuum():
    disc = make_shape({"type": "disc", "center": [0, 0], "r": 1.0})
    sweep = (0.2, 0.1, 0.05, 0.02, 0.01)
    for eps in sweep:
        g = digitize(disc, lattice_covering(disc.bounding_box, eps, margin=2))
        assert config_counts(g).admissible
        assert chi_local(g) == 1
        lab = label_components(g)
        assert lab.num_set_components - lab.num_complement_bounded_components == 1

    # the quadrature step is pinned, not tunable; the run-length sweep
    # counts its ~1e10 midpoints in well under a second
    val = chi_bicovariogram(disc, 0.05, 2e-5)
    assert abs(val - 1.0) <= 0.05
    print("criterion 3: PASS - chi == 1 at eps in %s; continuum estimate %.6f"
          % (list(sweep), val))


def test_criterion_4_annulus_and_two_disc_plateaus():
    annulus = make_shape({"type": "annulus", "center": [0, 0],
                          "r_in": 0.4, "r_out": 1.0})
    two = make_shape({"type": "union", "members": [
        {"type": "disc", "center": [0, 0], "r": 1.0},
        {"type": "disc", "center": [3.0, 0], "r": 1.0}]})
    sweep = (0.2, 0.1, 0.05, 0.02, 0.01)
    for shape, target in ((annulus, 0), (two, 2)):
        values = []
        for eps in sweep:
            g = digitize(shape, lattice_covering(shape.bounding_box, eps, margin=2))
            assert config_counts(g).admissible
            values.append(chi_local(g))
        assert values[-3:] == [target] * 3  # exact for eps <= 0.05
    print("criterion 4: PASS - annulus plateau 0, two-disc plateau 2,"
          " exact for eps <= 0.05")


def test_criterion_5_perimeter_estimates():
    square = make_shape({"type": "implicit",
                         "g": lambda x, y: np.maximum(np.abs(x - 0.5),
                                                      np.abs(y - 0.5)) - 0.5,
                         "bounding_box": (-0.2, 1.2, -0.2, 1.2)})
    disc = make_shape({"type": "disc", "center": [0, 0], "r": 0.5})
    eps = (0.08, 0.04, 0.02)
    mesh = 1e-3

    sq_inf = perimeter_axis_sum(square, eps, mesh)
    d_inf = perimeter_axis_sum(disc, eps, mesh)
    sq_var = perimeter_variational(square, eps, mesh, n_directions=64)
    d_var = perimeter_variational(disc, eps, mesh, n_directions=64)

    assert abs(sq_inf - 4.0) <= 0.04
    assert abs(d_inf - 4.0) <= 0.04
    assert abs(d_var - math.pi) <= 0.02 * math.pi
    for per, per_inf in ((sq_var, sq_inf), (d_var, d_inf)):
        # the square is the tight case (Per == Per_inf), so the sandwich
        # gets the same 1% slack the estimates themselves carry
        tol = 1e-6 + 0.01 * max(per, per_inf)
        assert per <= per_inf + tol
        assert per_inf <= math.sqrt(2.0) * per + tol
    print("criterion 5: PASS - square Per_inf %.4f, disc Per_inf %.4f,"
          " disc Per %.4f (target pi), sandwich holds" % (sq_inf, d_inf, d_var))


def test_criterion_6_component_bound_stress():
    """Component and chi bounds hold on 500 random truth sets x 3 meshes."""
    rng = np.random.default_rng(6)
    lat = Lattice(epsilon=1.0, origin=(0.0, 0.0), nx=160, ny=160)
    window = PolyRectangle(rects=((40.0, 120.0, 40.0, 120.0),))
    yy, xx = np.mgrid[0:160, 0:160]
    meshes = (4.0, 8.0, 16.0)
    checks = 0
    for trial in range(500):
        if trial % 2 == 0:
            bits = np.zeros((160, 160), dtype=bool)
            for _ in range(rng.integers(1, 5)):
                cx = rng.uniform(40.0, 120.0)
                cy = rng.uniform(40.0, 120.0)
                r = rng.uniform(8.0, 26.0)
                bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        else:
            bits = smooth_blob_bits(rng, 160, 160, margin=24, scale=6.0, fill=0.35)
        g = BitGrid(lattice=lat, bits=bits)
        for win in (None, window):
            for eps, rep in zip(meshes, verify_bounds(g, meshes, win)):
                assert rep.holds, "trial %d eps %s win %s" % (trial, eps, win)
                assert rep.chi_holds, "trial %d eps %s win %s" % (trial, eps, win)
                checks += 1
    print("criterion 6: PASS - bounds held in %d/%d checks"
          " (500 truths x 3 meshes, plain and windowed)" % (checks, checks))


def test_criterion_7_shot_noise_mc_agreement():
    t0 = time.perf_counter()
    model = _unit_square_model(1.5)
    window = PolyRectangle(rects=((0.0, 10.0, 0.0, 10.0),))
    closed = mean_chi_closed_form(model, window)
    target = 1.0 + 118.0 * E1
    assert abs(closed - target) <= 1e-10

    out = mc_mean_chi(model, window, replicates=2000, seed=7)
    dev = abs(out["mean"] - closed)
    assert dev <= 3.0 * out["stderr"]
    dt = time.perf_counter() - t0
    assert dt < 600.0
    print("criterion 7: PASS - closed form %.4f, mc %.4f +/- %.4f"
          " over 2000 replicates, %.0fs" % (closed, out["mean"], out["stderr"], dt))


def test_criterion_7_boolean_regime_target():
    """Boolean-regime target vs direct simulation of the same model.

    The closed form evaluates to Miles' value 1 + 19/e ~ 7.99 on [0,10]^2
    at level 0.5: chi_bar = (1/e)(1 - 2 * 2 / 4) = 0, the window's corners
    give 1 - 1/e, and its 40 units of edge meet grain edges at rate 2/e,
    each meeting a convex corner worth 1/4, giving 20/e.  2000
    exact-geometry replicates must agree within three standard errors.
    """
    model = _unit_square_model(0.5)
    window = PolyRectangle(rects=((0.0, 10.0, 0.0, 10.0),))
    closed = mean_chi_closed_form(model, window)
    target = 1.0 + 19.0 * E1
    assert abs(closed - target) <= 1e-10

    out = mc_mean_chi(model, window, replicates=2000, seed=11)
    dev = abs(out["mean"] - closed)
    ok = dev <= 3.0 * out["stderr"]
    print("criterion 7 (boolean): %s - closed form %.4f, mc %.4f +/- %.4f"
          % ("PASS" if ok else "FAIL", closed, out["mean"], out["stderr"]))
    assert ok, ("boolean-regime closed form %.4f vs simulated %.4f +/- %.4f;"
                " see README.md, Known results" % (closed, out["mean"], out["stderr"]))


def test_criterion_8_stationary_decomposition():
    model = _unit_square_model(1.5)
    dens = stationary_density_closed_form(model)

    # three equal-area windows; solve for (area*chi_bar + vol_bar, per_u1, per_u2)
    windows = ((12.0, 12.0), (36.0, 4.0), (4.0, 36.0))
    rows = np.array([[1.0, w / 2.0, h / 2.0] for w, h in windows])
    rhs = np.array([mean_chi_closed_form(
        model, PolyRectangle(rects=((0.0, w, 0.0, h),))) for w, h in windows])
    c0, q1, q2 = np.linalg.solve(rows, rhs)
    assert abs(c0 - (144.0 * dens["chi_bar"] + dens["vol_bar"])) <= 1e-9
    assert abs(q1 - dens["per_bar_u1"]) <= 1e-9
    assert abs(q2 - dens["per_bar_u2"]) <= 1e-9
    assert abs(dens["chi_bar"] - E1) <= 1e-12
    assert abs(dens["vol_bar"] - (1.0 - 2.0 * E1)) <= 1e-12

    est = estimate_stationary_densities(model, 0.01, (0.0, 6.0, 0.0, 6.0),
                                        replicates=100, seed=11)
    z_chi = (est["chi_bar"] - E1) / est["chi_stderr"]
    z_vol = (est["vol_bar"] - (1.0 - 2.0 * E1)) / est["vol_stderr"]
    assert abs(z_chi) <= 3.0
    assert abs(z_vol) <= 3.0
    print("criterion 8: PASS - window solve matches densities to 1e-9;"
          " estimator z_chi %.2f, z_vol %.2f" % (z_chi, z_vol))


def test_criterion_9_opening_residue():
    h = 2e-3
    r = 0.2
    disc = make_shape({"type": "disc", "center": [0, 0], "r": 0.5})
    g = digitize(disc, lattice_covering(disc.bounding_box, h, margin=105))
    opened = morph(morph(g, r, "erode"), r, "dilate")

    assert not (opened.bits & ~g.bits).any()  # opening never adds pixels
    diff = g.bits ^ opened.bits
    njs, nis = np.nonzero(diff)
    lat = g.lattice
    dist = np.hypot(lat.origin[0] + lat.epsilon * nis,
                    lat.origin[1] + lat.epsilon * njs)
    count = int(diff.sum())
    cap = int(4.0 * math.pi / h * 2.0)
    if count:
        assert np.abs(dist - 0.5).max() <= 2.0 * h
    assert count <= cap
    print("criterion 9: PASS - symmetric difference %d bits (cap %d),"
          " all within 2 pixels of the circle" % (count, cap))
