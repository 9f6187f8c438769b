import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulergram import (
    AtomicMarks,
    CornerClash,
    DegenerateArrangement,
    Exponential,
    GrainMixture,
    InvalidSpec,
    PolyRectangle,
    Realization,
    RectFamily,
    ShotNoiseModel,
    UnboundedGrain,
    Uniform,
    UnsupportedMarkLaw,
    chi_local,
    digitize,
    estimate_stationary_densities,
    lattice_covering,
    level_set_features_exact,
    mc_mean_chi,
    mean_chi_closed_form,
    polyrect_features,
    sample_realization,
    stationary_density_closed_form,
)
from eulergram import randomsets
from eulergram.lattice import _run_list
from eulergram.randomsets import _level_runs
from oracles import (
    LevelIndicator,
    bfs_component_count,
    bounded_hole_count,
    densities_by_five_stamps,
    poisson_cdf,
    poisson_pmf,
    realization_by_loop,
    scan_cell_measures,
    stamped_field_by_loop,
)

E1 = math.exp(-1.0)

UNIT_SQUARE = PolyRectangle(rects=((0.0, 1.0, 0.0, 1.0),))
TEE = PolyRectangle(rects=((0.0, 1.0, 0.0, 0.4), (0.1, 0.5, 0.4, 1.0)))  # perfbench's tee
V10 = PolyRectangle(rects=((0.0, 10.0, 0.0, 10.0),))


def square_model(level, intensity=1.0, a=1.0):
    grain = PolyRectangle(rects=((0.0, a, 0.0, a),))
    return ShotNoiseModel(intensity=intensity,
                          grain_dist=GrainMixture(components=(grain,), probs=(1.0,)),
                          mark_dist=AtomicMarks(values=(1.0,), probs=(1.0,)),
                          level=level)


def hand_realization(germs, domain):
    """A realization of the given ((gx, gy), grain, mark) germs, laid out as the sampler does."""
    rows = [((gx + r0, gx + r1, gy + s0, gy + s1), mark)
            for (gx, gy), grain, mark in germs for r0, r1, s0, s1 in grain.rects]
    x0, x1, y0, y1 = domain
    return Realization(rects=np.array([r for r, _ in rows], dtype=float).reshape(-1, 4),
                       marks=np.array([m for _, m in rows], dtype=float),
                       count=len(germs), padded_domain=(x0 - 1, x1 + 1, y0 - 1, y1 + 1),
                       expected_count=float((x1 - x0 + 2) * (y1 - y0 + 2)))


# ------------------------------------------------------------ closed forms


def test_unit_square_level_three_halves_anchor():
    """Coverage count is Poisson(1); every coefficient is a multiple of 1/e."""
    model = square_model(1.5)
    d = stationary_density_closed_form(model)
    assert d["chi_bar"] == pytest.approx(E1, abs=1e-12)
    assert d["vol_bar"] == pytest.approx(1 - 2 * E1, abs=1e-12)
    assert d["per_bar_u1"] == pytest.approx(2 * E1, abs=1e-12)
    assert d["per_bar_u2"] == pytest.approx(2 * E1, abs=1e-12)
    assert mean_chi_closed_form(model, V10) == pytest.approx(1 + 118 * E1, abs=1e-12)


def test_closed_form_matches_poisson_substitution():
    # independent oracle: for grain [0,a]^2 and unit marks, f(0) ~ Poisson(t*a^2)
    # and the defining interval probabilities collapse to single pmf terms
    for a in (0.7, 1.0, math.sqrt(2.0)):
        for lam in (0.5, 1.5, 2.5, 3.5):
            for t in (0.5, 1.0, 2.0):
                model = square_model(lam, intensity=t, a=a)
                rate = t * a * a
                k = int(lam)
                # corners: one quadrant in iff g = k (p1); at a crossing one
                # quadrant in iff g = k - 1 (p2), three iff g = k (p2' = p1);
                # corners at density t, crossings at t^2 (2a)(2a), each /4
                p1 = poisson_pmf(rate, k)
                p2 = poisson_pmf(rate, k - 1) if k >= 1 else 0.0
                d = stationary_density_closed_form(model)
                assert d["chi_bar"] == pytest.approx(
                    t * p1 + t * t * a * a * (p2 - p1), abs=1e-10)
                assert d["per_bar_u1"] == pytest.approx(2 * a * t * p1, abs=1e-10)
                assert d["per_bar_u2"] == pytest.approx(2 * a * t * p1, abs=1e-10)
                assert d["vol_bar"] == pytest.approx(
                    1 - poisson_cdf(rate, k), abs=1e-10)


def test_closed_form_anchors_with_asymmetric_grain_and_intensity():
    flat = ShotNoiseModel(
        intensity=1.0,
        grain_dist=GrainMixture(
            components=(PolyRectangle(rects=((0.0, 2.0, 0.0, 0.5),)),), probs=(1.0,)),
        mark_dist=AtomicMarks(values=(1.0,), probs=(1.0,)),
        level=1.5)
    # rate 1, E Per1 = 1, E Per2 = 4: 100/e + (1 - 2/e) + (e^-1/4)(20*4 + 20*1)
    assert mean_chi_closed_form(flat, V10) == pytest.approx(1 + 123 * E1, abs=1e-12)

    dense = square_model(1.5, intensity=4.0, a=0.5)
    # rate 4 * 0.25 = 1 again, E Per_i = 1; p1 = P(g=1) = 1/e = p2' and
    # p2 = P(g=0) = 1/e, so the crossings cancel: chi_bar = 4/e,
    # per_bar_i = 4/e, and 100 * 4/e + (1 - 2/e) + (1/4)(20 * 4/e + 20 * 4/e)
    assert mean_chi_closed_form(dense, V10) == pytest.approx(1 + 438 * E1, abs=1e-12)


def test_compound_marks_against_convolution_oracle():
    """Two mark atoms: f(0) is an independent two-Poisson lattice sum."""
    model = ShotNoiseModel(intensity=1.0,
                           grain_dist=GrainMixture(components=(UNIT_SQUARE,), probs=(1.0,)),
                           mark_dist=AtomicMarks(values=(1.0, 2.0), probs=(0.5, 0.5)),
                           level=2.5)
    pmf = {}
    for n1 in range(40):
        q1 = poisson_pmf(0.5, n1)
        for n2 in range(40):
            v = n1 + 2 * n2
            pmf[v] = pmf.get(v, 0.0) + q1 * poisson_pmf(0.5, n2)

    def interval(lo, hi):
        return math.fsum(p for v, p in pmf.items() if lo <= v < hi)

    lam = 2.5
    marks = ((1.0, 0.5), (2.0, 0.5))
    p1 = math.fsum(p * interval(lam - m, lam) for m, p in marks)
    p2 = math.fsum(p * q * interval(lam - m1 - m2, lam - max(m1, m2))
                   for m1, p in marks for m2, q in marks)
    # three quadrants of a crossing are in once the lighter mark alone reaches
    p2p = math.fsum(p * q * interval(lam - min(m1, m2), lam)
                    for m1, p in marks for m2, q in marks)

    d = stationary_density_closed_form(model)
    # rate 1, E Per_i = 2: crossings weigh (1/4) * 2 * 2 = 1
    assert d["chi_bar"] == pytest.approx(p1 + (p2 - p2p), abs=1e-10)
    assert d["per_bar_u1"] == pytest.approx(2 * p1, abs=1e-10)
    assert d["vol_bar"] == pytest.approx(interval(lam, math.inf), abs=1e-10)

    v = {"vol": 100.0, "chi": 1.0, "per1": 20.0, "per2": 20.0}
    expect = (v["vol"] * d["chi_bar"] + v["chi"] * d["vol_bar"]
              + 0.25 * (v["per1"] * d["per_bar_u2"] + v["per2"] * d["per_bar_u1"]))
    assert mean_chi_closed_form(model, V10) == pytest.approx(expect, abs=1e-10)


def test_three_window_decomposition_recovers_densities():
    """Equal-area windows with distinct directional perimeters give a full-rank
    linear system whose solution must be the direct coefficient formulas."""
    model = square_model(1.5)
    windows = [((0.0, 12.0, 0.0, 12.0), 12.0, 12.0),
               ((0.0, 36.0, 0.0, 4.0), 36.0, 4.0),
               ((0.0, 4.0, 0.0, 36.0), 4.0, 36.0)]
    rows = []
    rhs = []
    for rect, w, h in windows:
        rows.append([1.0, 0.5 * w, 0.5 * h])
        rhs.append(mean_chi_closed_form(model, PolyRectangle(rects=(rect,))))
    c0, per_u1, per_u2 = np.linalg.solve(np.array(rows), np.array(rhs))

    d = stationary_density_closed_form(model)
    assert per_u1 == pytest.approx(d["per_bar_u1"], abs=1e-9)
    assert per_u2 == pytest.approx(d["per_bar_u2"], abs=1e-9)
    assert c0 == pytest.approx(144.0 * d["chi_bar"] + d["vol_bar"], abs=1e-9)


def test_boolean_regime_is_miles_formula():
    # unit marks at level 0.5: p1 = p2' = P(g=0) = 1/e, p2 = 0, so
    # chi_bar = (1/e)(1 - (1/4) * 2 * 2) = 0, and the window adds
    # (1 - 1/e) + (1/4)(1/e)(20 * 2 + 20 * 2) = 1 + 19/e (Miles)
    assert mean_chi_closed_form(square_model(0.5), V10) == pytest.approx(1 + 19 * E1, abs=1e-12)


def test_vanishing_intensity_limit():
    model = square_model(0.5, intensity=1e-12)
    # an almost empty field: every corner and crossing density carries a
    # factor rho -> 0, and vol_bar -> 0, so the mean chi vanishes
    assert mean_chi_closed_form(model, V10) == pytest.approx(0.0, abs=1e-8)


def test_non_atomic_marks_rejected_by_closed_form():
    for marks in (Exponential(scale=1.0), Uniform(low=0.5, high=1.5)):
        model = ShotNoiseModel(intensity=1.0,
                               grain_dist=GrainMixture(components=(UNIT_SQUARE,), probs=(1.0,)),
                               mark_dist=marks, level=0.75)
        with pytest.raises(UnsupportedMarkLaw):
            mean_chi_closed_form(model, V10)


def test_level_on_atom_sum_warns():
    with pytest.warns(UserWarning, match="coincides") as caught:
        stationary_density_closed_form(square_model(1.0))
        mean_chi_closed_form(square_model(1.0), V10)
    # one warning from each closed form, each pointing at its call here
    assert len({w.lineno for w in caught}) == 2
    assert all(w.filename == __file__ for w in caught)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        AtomicMarks(values=(1.0, -2.0), probs=(0.5, 0.5))
    with pytest.raises(InvalidSpec):
        AtomicMarks(values=(1.0,), probs=(0.9,))
    for values, probs in (((1.0, 2.0), (1.0,)), ((), ())):
        with pytest.raises(InvalidSpec, match="pair up"):
            AtomicMarks(values=values, probs=probs)
    with pytest.raises(InvalidSpec):
        GrainMixture(components=(UNIT_SQUARE,), probs=(0.8,))
    with pytest.raises(InvalidSpec):
        Exponential(scale=0.0)
    with pytest.raises(InvalidSpec):
        Uniform(low=-0.1, high=1.0)
    with pytest.raises(InvalidSpec):
        square_model(0.5, intensity=-1.0)
    with pytest.raises(InvalidSpec):
        square_model(0.5, intensity=math.inf)
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidSpec):
            square_model(level)


def test_from_config_layouts_and_errors():
    cfg = {"intensity": 1.0,
           "grains": [{"rects": [[0, 1, 0, 1]], "p": 1.0}],
           "marks": [{"value": 1.0, "p": 1.0}],
           "lambda": 1.5}
    model = ShotNoiseModel.from_config(cfg)
    assert model == square_model(1.5)

    fam = ShotNoiseModel.from_config({
        "intensity": 2.0,
        "grains": {"type": "rect_family",
                   "a": {"dist": "uniform", "low": 0.5, "high": 1.5},
                   "b": {"dist": "exponential", "scale": 1.0, "truncate_q": 0.99}},
        "marks": {"type": "uniform", "low": 0.5, "high": 1.5},
        "lambda": 0.75})
    assert isinstance(fam.grain_dist, RectFamily)
    assert fam.grain_dist.a_law == Uniform(0.5, 1.5)
    assert fam.grain_dist.b_law == Exponential(1.0, 0.99)
    assert fam.mark_dist == Uniform(0.5, 1.5)
    expo = ShotNoiseModel.from_config({**cfg, "marks": {"type": "exponential", "scale": 2.0}})
    assert expo.mark_dist == Exponential(2.0)

    with pytest.raises(InvalidSpec):
        ShotNoiseModel.from_config({**cfg, "grains": {"type": "disc_family"}})
    with pytest.raises(InvalidSpec):
        ShotNoiseModel.from_config({**cfg, "marks": {"type": "gamma", "shape": 2.0}})
    # the truncation quantile pads the germ domain, so it must lie in (0, 1)
    for q in (0.0, 1.0, 1.5, -0.5, math.nan):
        with pytest.raises(InvalidSpec):
            ShotNoiseModel.from_config({**cfg, "grains": {
                "type": "rect_family",
                "a": {"dist": "exponential", "scale": 1.0, "truncate_q": q},
                "b": {"dist": "uniform", "low": 0.5, "high": 1.5}}})


def test_grain_mixture_moments():
    mix = GrainMixture(
        components=(UNIT_SQUARE, PolyRectangle(rects=((0.0, 2.0, 0.0, 0.5),))),
        probs=(0.3, 0.7))
    m = mix.moments()
    assert m["chi"] == pytest.approx(1.0)
    assert m["per1"] == pytest.approx(0.3 * 2.0 + 0.7 * 1.0)
    assert m["per2"] == pytest.approx(0.3 * 2.0 + 0.7 * 4.0)
    assert m["vol"] == pytest.approx(1.0)
    assert mix.extent() == (0.0, 2.0, 0.0, 1.0)
    assert mix.min_edge() == pytest.approx(0.5)


@pytest.mark.parametrize("law", [
    partial(Exponential, 1.0, 1.0),       # math domain error in the padding bound
    partial(Exponential, 1.0, 0.0),       # zero-width grains
    partial(Exponential, 1.0, math.nan),  # NaN extent
    partial(Exponential, 0.0, 0.5),
    partial(Uniform, 1.0, 0.5),           # low above high
    partial(Uniform, 0.5, math.inf),
    partial(tuple, ("gamma", 1.0, 2.0)),  # not a law object
    partial(Uniform, 0.0, 1.0),           # a valid mark law, but edges may be zero
])
def test_rect_family_rejects_bad_laws_when_built_directly(law):
    good = Uniform(0.5, 1.5)
    with pytest.raises(InvalidSpec):
        RectFamily(a_law=law(), b_law=good)
    with pytest.raises(InvalidSpec):
        RectFamily(a_law=good, b_law=law())


def test_rect_family_moments_and_truncation():
    fam = RectFamily(a_law=Uniform(0.5, 1.5), b_law=Uniform(0.5, 1.5))
    m = fam.moments()
    assert m == {"chi": 1.0, "per1": 2.0, "per2": 2.0, "vol": 1.0}
    assert fam.extent() == (0.0, 1.5, 0.0, 1.5)

    unbounded = RectFamily(a_law=Exponential(1.0), b_law=Uniform(0.5, 1.5))
    with pytest.raises(UnboundedGrain):
        unbounded.extent()

    trunc = RectFamily(a_law=Exponential(1.0, 0.99), b_law=Uniform(0.5, 1.5))
    bound = -math.log1p(-0.99)
    assert trunc.extent()[1] == pytest.approx(bound)
    model = ShotNoiseModel(intensity=1.0, grain_dist=trunc,
                           mark_dist=AtomicMarks(values=(1.0,), probs=(1.0,)),
                           level=0.5)
    real = sample_realization(model, (0.0, 5.0, 0.0, 5.0), seed=3)
    assert real.count > 0
    assert np.all(real.rects[:, 1] - real.rects[:, 0] <= bound + 1e-12)

    # the moments describe the clamped law that is sampled: E min(X, b) =
    # scale * q, half the untruncated mean at q = 0.5
    clamped = RectFamily(a_law=Exponential(1.0, 0.5), b_law=Exponential(2.0, 0.9))
    rects, owner = clamped.sample(np.random.default_rng(11), 4000)
    assert np.array_equal(owner, np.arange(4000))
    a, b = rects[:, 1], rects[:, 3]
    for key, draws in (("per1", 2.0 * b), ("per2", 2.0 * a), ("vol", a * b)):
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(clamped.moments()[key] - draws.mean()) <= 4.0 * stderr, key
    assert clamped.min_edge() == pytest.approx(0.5)


# ------------------------------------------------------------- realizations


def test_sampling_is_deterministic_and_padded():
    model = square_model(1.5)
    a = sample_realization(model, (0.0, 10.0, 0.0, 10.0), seed=42)
    b = sample_realization(model, (0.0, 10.0, 0.0, 10.0), seed=42)
    assert a.count == b.count
    assert np.array_equal(a.rects, b.rects)
    assert np.array_equal(a.marks, b.marks)
    assert a.padded_domain == (-1.0, 11.0, -1.0, 11.0)
    assert a.expected_count == pytest.approx(144.0)
    c = sample_realization(model, (0.0, 10.0, 0.0, 10.0), seed=43)
    assert not np.array_equal(c.rects, a.rects)

    empty = sample_realization(square_model(1.5, intensity=0.0),
                               (0.0, 10.0, 0.0, 10.0), seed=42)
    assert empty.count == 0


TEE = PolyRectangle(rects=((0.0, 1.0, 0.0, 0.4), (0.1, 0.5, 0.4, 1.0)))
LAYOUT_MODELS = {
    # two mark atoms: a grain draw for one component would shift the marks
    "one-component": ShotNoiseModel(
        intensity=1.0, grain_dist=GrainMixture(components=(UNIT_SQUARE,), probs=(1.0,)),
        mark_dist=AtomicMarks(values=(1.0, 2.0), probs=(0.5, 0.5)), level=1.5),
    "square-and-tee": ShotNoiseModel(
        intensity=3.0,
        grain_dist=GrainMixture(components=(UNIT_SQUARE, TEE), probs=(0.5, 0.5)),
        mark_dist=AtomicMarks(values=(1.0, 2.0), probs=(0.7, 0.3)),
        level=2.5),
    "truncated-exponential": ShotNoiseModel(
        intensity=1.0,
        grain_dist=RectFamily(a_law=Exponential(1.0, 0.99), b_law=Uniform(0.5, 1.5)),
        mark_dist=AtomicMarks(values=(1.0,), probs=(1.0,)),
        level=0.5),
    # the same two laws as marks: exponential marks are clamped below only
    "exponential-marks": ShotNoiseModel(
        intensity=3.0,
        grain_dist=GrainMixture(components=(UNIT_SQUARE, TEE), probs=(0.5, 0.5)),
        mark_dist=Exponential(scale=1.0), level=1.5),
    "uniform-marks": ShotNoiseModel(
        intensity=1.0,
        grain_dist=RectFamily(a_law=Uniform(0.5, 1.5), b_law=Exponential(2.0, 0.9)),
        mark_dist=Uniform(low=0.0, high=2.0), level=1.0),
    "intensity-zero": square_model(1.5, intensity=0.0),
}


@pytest.mark.parametrize("name", list(LAYOUT_MODELS))
def test_sampling_layout_matches_loop_oracle(name):
    model = LAYOUT_MODELS[name]
    real = sample_realization(model, (0.0, 5.0, 0.0, 5.0), seed=9)
    rects, marks, count = realization_by_loop(model, (0.0, 5.0, 0.0, 5.0), seed=9)
    assert real.count == count
    assert (count > 0) == (model.intensity > 0)
    assert np.array_equal(real.rects, rects)
    assert np.array_equal(real.marks, marks)
    if name == "square-and-tee":
        # both grains occur, so rows of one- and two-rectangle germs interleave
        assert count < len(rects) < 2 * count


def test_germ_count_mean_matches_poisson():
    model = square_model(1.5)
    counts = [sample_realization(model, (0.0, 10.0, 0.0, 10.0), seed=s).count
              for s in range(10_000)]
    # Poisson(144): mean 144, sd 12; 3 sigma of the sample mean
    assert abs(np.mean(counts) - 144.0) <= 3 * 12.0 / 100.0


# ------------------------------------------------------ exact level sets


def test_single_germ_features():
    real = hand_realization([((0.2, 0.3), UNIT_SQUARE, 1.0)], (0.0, 2.0, 0.0, 2.0))
    window = PolyRectangle(rects=((0.0, 2.0, 0.0, 2.0),))
    f = level_set_features_exact(real, 0.5, window)
    assert f["chi"] == 1
    assert f["per1"] == pytest.approx(2.0, abs=1e-12)
    assert f["per2"] == pytest.approx(2.0, abs=1e-12)
    assert f["vol"] == pytest.approx(1.0, abs=1e-12)
    above = level_set_features_exact(real, 1.5, window)
    assert above == {"chi": 0, "per1": 0.0, "per2": 0.0, "vol": 0.0}


def test_polyrect_window_clips_exactly():
    # L-shaped window: the grain pokes out of the notch, leaving a hexagon
    real = hand_realization([((0.2, 0.3), UNIT_SQUARE, 1.0)], (0.0, 3.0, 0.0, 3.0))
    window = PolyRectangle(rects=((0.0, 2.0, 0.0, 1.0), (0.0, 1.0, 0.5, 3.0)))
    f = level_set_features_exact(real, 0.5, window)
    assert f["chi"] == 1
    assert f["per1"] == pytest.approx(2.0, abs=1e-12)
    assert f["per2"] == pytest.approx(2.0, abs=1e-12)
    assert f["vol"] == pytest.approx(0.94, abs=1e-12)


def test_overlap_counts_at_level_two():
    window = PolyRectangle(rects=((-1.0, 4.0, -1.0, 4.0),))
    overlapping = hand_realization(
        [((0.0, 0.0), UNIT_SQUARE, 1.0), ((0.5, 0.25), UNIT_SQUARE, 1.0)],
        (-1.0, 4.0, -1.0, 4.0))
    f = level_set_features_exact(overlapping, 1.5, window)
    assert f["chi"] == 1
    assert f["vol"] == pytest.approx(0.5 * 0.75, abs=1e-12)
    assert f["per1"] == pytest.approx(1.5, abs=1e-12)

    disjoint = hand_realization(
        [((0.0, 0.0), UNIT_SQUARE, 1.0), ((2.5, 2.5), UNIT_SQUARE, 1.0)],
        (-1.0, 4.0, -1.0, 4.0))
    assert level_set_features_exact(disjoint, 1.5, window)["chi"] == 0
    assert level_set_features_exact(disjoint, 0.5, window)["chi"] == 2


def test_empty_field_is_empty_set():
    real = sample_realization(square_model(0.5, intensity=0.0),
                              (0.0, 4.0, 0.0, 4.0), seed=1)
    window = PolyRectangle(rects=((0.0, 4.0, 0.0, 4.0),))
    f = level_set_features_exact(real, 0.5, window)
    assert f == {"chi": 0, "per1": 0.0, "per2": 0.0, "vol": 0.0}


def test_near_coincident_coordinates_rejected():
    real = hand_realization(
        [((0.0, 0.0), UNIT_SQUARE, 1.0), ((5e-13, 0.5), UNIT_SQUARE, 1.0)],
        (0.0, 2.0, 0.0, 2.0))
    with pytest.raises(DegenerateArrangement):
        level_set_features_exact(real, 0.5, PolyRectangle(rects=((0.0, 2.0, 0.0, 2.0),)))


def test_field_tie_on_cells_warns():
    real = hand_realization([((0.2, 0.3), UNIT_SQUARE, 1.0)], (0.0, 2.0, 0.0, 2.0))
    with pytest.warns(UserWarning, match="tie"):
        f = level_set_features_exact(real, 1.0, PolyRectangle(rects=((0.0, 2.0, 0.0, 2.0),)))
    assert f["chi"] == 1


@pytest.mark.parametrize("mark,level,warns,chi", [
    (1.0, 1.0 + 5e-14, True, 0),
    (1.0, 1.0 - 5e-14, True, 1),
    (1.0, 1.0 + 1e-9, False, 0),
    (1.0, 1.0 - 1e-9, False, 1),
    # the tolerance scales with |level|, also for a negative level
    (-1000.0, -1000.0 + 5e-10, True, 0),
    (-1000.0, -1000.0 - 5e-10, True, 1),
    (-1000.0, -1000.0 + 2e-9, False, 0),
    # the empty cells, f = 0, tie a slightly negative level
    (1.0, -5e-13, True, 1),
    (1.0, -2e-12, False, 1),
])
def test_tie_check_tolerance(monkeypatch, mark, level, warns, chi):
    real = hand_realization([((0.2, 0.3), UNIT_SQUARE, mark)], (0.0, 2.0, 0.0, 2.0))
    window = PolyRectangle(rects=((0.0, 2.0, 0.0, 2.0),))
    # the Monte Carlo and the density estimator draw this realization twice;
    # their model only gives the level
    monkeypatch.setattr(randomsets, "_realizations", lambda *args: iter([real, real]))
    model = square_model(level)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = level_set_features_exact(real, level, window)["chi"]
        mc_mean_chi(model, window, 2, 0)
        estimate_stationary_densities(model, 0.01, window.bounding_box, 2, 0)
    ties = [w for w in caught if "tie" in str(w.message)]
    # each entry point warns, and the warning points at its call here
    assert len({w.lineno for w in ties}) == (3 if warns else 0)
    assert all(w.filename == __file__ for w in ties)
    # membership is f >= level whether or not the check warns
    assert got == chi


def _germs(draw):
    """Up to six unit-square and tee germs with unequal non-dyadic marks."""
    coord = st.floats(-1.5, 4.5)
    return [((draw(coord), draw(coord)), draw(st.sampled_from([UNIT_SQUARE, TEE])),
             draw(st.sampled_from([0.7, 1.3, 2.9])))
            for _ in range(draw(st.integers(0, 6)))]


def _window(draw):
    """A rectangular, L-shaped or two-piece window."""
    x0, y0 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    w1, h1 = draw(st.floats(1.0, 4.0)), draw(st.floats(0.5, 2.0))
    rects = [(x0, x0 + w1, y0, y0 + h1)]
    second = draw(st.sampled_from(["none", "arm", "apart"]))
    if second == "arm":
        # a narrower arm that starts inside the first rectangle and rises above it
        w2 = w1 * draw(st.floats(0.3, 0.9))
        t = h1 * draw(st.floats(0.2, 0.8))
        rects.append((x0, x0 + w2, y0 + t, y0 + h1 + draw(st.floats(0.5, 2.0))))
    elif second == "apart":
        # a rectangle right of the first, a gap away, overlapping it in height or not
        x2 = x0 + w1 + draw(st.floats(0.1, 1.0))
        y2 = y0 + draw(st.floats(-1.0, 2.5))
        rects.append((x2, x2 + draw(st.floats(0.5, 2.0)), y2, y2 + draw(st.floats(0.5, 2.0))))
    return PolyRectangle(rects=tuple(rects))


# half-way between two attainable mark sums, or below zero, where every
# uncovered cell is in the level set
LEVELS = st.sampled_from([0.65, 1.45, 2.05, 3.35, -0.35])


@st.composite
def level_set_cases(draw):
    """Germs, a window and a level: see :func:`_germs`, :func:`_window` and LEVELS."""
    germs = _germs(draw)
    window = _window(draw)
    return germs, window, draw(LEVELS)


def _oracle_axis(values, lo, hi):
    axis = sorted({min(max(v, lo), hi) for v in values})
    # coordinates closer than 1e-12 are rejected by design; keep clear of them
    assume(min(b - a for a, b in zip(axis, axis[1:])) >= 1e-9)
    return axis


@settings(max_examples=200, deadline=None)
@given(level_set_cases())
@example(([((0.2, 0.3), UNIT_SQUARE, 1.3), ((0.6, 0.5), TEE, 0.7)],
          PolyRectangle(rects=((0.0, 2.0, 0.0, 1.0), (0.0, 1.0, 0.5, 3.0))), 1.45))
def test_level_set_features_match_loop_oracles(case):
    germs, window, level = case
    x0, x1, y0, y1 = window.bounding_box
    rect_lists = [[(gx + r0, gx + r1, gy + s0, gy + s1) for r0, r1, s0, s1 in grain.rects]
                  for (gx, gy), grain, _ in germs]
    edges = [r for rects in rect_lists for r in rects] + list(window.rects)
    xs = _oracle_axis([v for r in edges for v in r[:2]], x0, x1)
    ys = _oracle_axis([v for r in edges for v in r[2:]], y0, y1)

    field = stamped_field_by_loop(xs, ys, rect_lists, [mark for _, _, mark in germs])
    occ = np.zeros(field.shape, dtype=bool)
    for j in range(len(ys) - 1):
        my = 0.5 * (ys[j] + ys[j + 1])
        for i in range(len(xs) - 1):
            mx = 0.5 * (xs[i] + xs[i + 1])
            in_window = any(r[0] <= mx <= r[1] and r[2] <= my <= r[3] for r in window.rects)
            occ[j, i] = in_window and field[j, i] >= level

    real = hand_realization(germs, window.bounding_box)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no sum of marks comes near the level
        got = level_set_features_exact(real, level, window)
    assert got["chi"] == bfs_component_count(occ, 8) - bounded_hole_count(occ)
    want = scan_cell_measures(xs, ys, occ)
    for key in ("per1", "per2", "vol"):
        assert math.isclose(got[key], want[key], rel_tol=1e-12), key


@st.composite
def batch_cases(draw):
    """Replicates of level_set_cases' germs, some without any, on one window at one
    level, and a batch bound: one event, which gives each replicate with germs a
    batch of its own, a few dozen or hundred, which split the list between
    batches, or one that holds it all."""
    replicates = [_germs(draw) if draw(st.booleans()) else []
                  for _ in range(draw(st.integers(1, 7)))]
    return replicates, _window(draw), draw(LEVELS), draw(st.sampled_from([1, 40, 150, 1 << 30]))


def _batched(monkeypatch, reals, level, window, bound):
    """``_replicate_features`` on the given realizations under the batch bound, and
    the size of each batch it ran."""
    sizes = []

    def spy(batch, *args):
        sizes.append(len(batch))
        return batch_runs(batch, *args)

    batch_runs = randomsets._batch_runs
    monkeypatch.setattr(randomsets, "_BATCH_EVENTS", bound)
    monkeypatch.setattr(randomsets, "_batch_runs", spy)
    return randomsets._replicate_features(iter(reals), level, window), sizes


@settings(max_examples=150, deadline=None)
@given(batch_cases())
def test_replicate_batches_equal_one_pass_per_replicate(case):
    germ_lists, window, level, bound = case
    reals = [hand_realization(germs, window.bounding_box) for germs in germ_lists]
    try:
        want = [level_set_features_exact(real, level, window) for real in reals]
    except DegenerateArrangement as err:
        # germ edges within 1e-12 of each other or of the window's: the batch refuses too
        with pytest.MonkeyPatch.context() as mp, pytest.raises(DegenerateArrangement) as batched:
            _batched(mp, reals, level, window, bound)
        assert str(batched.value) == str(err)
        return
    with pytest.MonkeyPatch.context() as mp:
        got, sizes = _batched(mp, reals, level, window, bound)
    assert sum(sizes) == len(reals) and sizes[0] == 1
    assert got == want


def test_replicate_batches_split_and_keep_errors(monkeypatch):
    """Seeded replicates, a zero-germ one among them, split mid-list by a small
    bound; a near-coincident pair in the third replicate of a batch raises the
    error that replicate raises alone."""
    window = PolyRectangle(rects=((0.0, 4.0, 0.0, 1.0), (0.5, 1.5, 0.5, 4.0)))
    model = square_model(0.65, intensity=0.5)
    reals = [sample_realization(model, window.bounding_box, seed) for seed in range(8)]
    reals.insert(3, sample_realization(square_model(0.65, intensity=0.0), window.bounding_box, 0))
    got, sizes = _batched(monkeypatch, reals, 0.65, window, 400)
    assert sizes[0] == 1 and max(sizes) > 1 and len(sizes) > 2
    assert got == [level_set_features_exact(real, 0.65, window) for real in reals]

    bad = hand_realization([((0.0, 0.0), UNIT_SQUARE, 1.0), ((5e-13, 0.5), UNIT_SQUARE, 1.0)],
                           window.bounding_box)
    with pytest.raises(DegenerateArrangement) as alone:
        level_set_features_exact(bad, 0.65, window)
    with pytest.raises(DegenerateArrangement) as batched:
        # the first batch is one replicate; bad is the third of the second
        _batched(monkeypatch, reals[:3] + [bad] + reals[3:], 0.65, window, 1 << 30)
    assert str(batched.value) == str(alone.value)


def test_replicate_features_do_not_depend_on_the_batch(monkeypatch):
    """Marks 0.1 and 0.7 sum to 0.7999999999999999, a tie of level 0.8 that the
    rounding of a band strip's sum decides: each replicate's bands are its own,
    so a batch of several replicates sums each one as it is summed alone."""
    model = ShotNoiseModel(0.8, GrainMixture((UNIT_SQUARE,), (1.0,)),
                           AtomicMarks((0.1, 0.7), (0.5, 0.5)), 0.8)
    window = PolyRectangle(rects=((0.0, 6.0, 0.0, 6.0),))
    reals = [sample_realization(model, window.bounding_box, seed) for seed in range(20)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = [level_set_features_exact(real, 0.8, window) for real in reals]
        got, sizes = _batched(monkeypatch, reals, 0.8, window, randomsets._BATCH_EVENTS)
    assert max(sizes) > 1
    assert got == want


def test_strips_between_replicates_hold_no_cells(monkeypatch):
    """A rectangle [-1, 3]^2 covers the window [0, 2]^2, so no cell of a replicate
    has value 0; at a level 5e-13 below 0, which only uncovered cells would tie,
    neither one replicate nor a batch of three warns."""
    window = PolyRectangle(rects=((0.0, 2.0, 0.0, 2.0),))
    grain = PolyRectangle(rects=((0.0, 4.0, 0.0, 4.0),))
    real = hand_realization([((-1.0, -1.0), grain, 1.0)], window.bounding_box)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = level_set_features_exact(real, -5e-13, window)
        got, sizes = _batched(monkeypatch, [real] * 3, -5e-13, window, 1 << 30)
    assert sizes == [1, 2]
    assert got == [alone] * 3 and alone == {"chi": 1, "per1": 4.0, "per2": 4.0, "vol": 4.0}


def test_closed_form_inputs_keep_their_bits():
    # report.json carries these; the values are pinned by repr so that a change
    # to the cell kernel cannot move its bytes unnoticed
    assert repr(polyrect_features(UNIT_SQUARE)) == (
        "{'chi': 1, 'per1': 2.0, 'per2': 2.0, 'vol': 1.0, 'out_corners': 1, 'in_corners': 0}")
    assert repr(polyrect_features(TEE)) == (
        "{'chi': 1, 'per1': 2.0, 'per2': 2.0, 'vol': 0.64, 'out_corners': 2, 'in_corners': 1}")
    assert repr(polyrect_features(PolyRectangle(rects=((0, 7, 0, 7),)))) == (
        "{'chi': 1, 'per1': 14.0, 'per2': 14.0, 'vol': 49.0, 'out_corners': 1, 'in_corners': 0}")
    assert repr(polyrect_features(V10)) == (
        "{'chi': 1, 'per1': 20.0, 'per2': 20.0, 'vol': 100.0, 'out_corners': 1, "
        "'in_corners': 0}")
    dense = ShotNoiseModel(
        intensity=3.0,
        grain_dist=GrainMixture(components=(UNIT_SQUARE, TEE), probs=(0.5, 0.5)),
        mark_dist=AtomicMarks(values=(1.0, 2.0), probs=(0.7, 0.3)), level=2.5)
    assert repr(mean_chi_closed_form(dense, PolyRectangle(rects=((0, 7, 0, 7),)))) == \
        "6.276785003246712"


def test_exact_chi_matches_fine_digitization():
    """Arrangement route vs lattice route on random fields.

    A mesh below half the smallest coordinate gap leaves every arrangement
    slab at least two lattice lines wide, so the digitized topology is the
    continuum one; realizations with tighter gaps are skipped.
    """
    window = (0.25, 1.95, 0.25, 1.95)
    window_rect = PolyRectangle(rects=(window,))
    checked = 0
    skipped = 0
    for level, intensity, base_seed in ((0.5, 0.5, 100), (1.5, 1.0, 300)):
        model = square_model(level, intensity=intensity)
        for seed in range(base_seed, base_seed + 100):
            real = sample_realization(model, window, seed)
            coords_x = {window[0], window[1], *real.rects[:, :2].ravel().tolist()}
            coords_y = {window[2], window[3], *real.rects[:, 2:].ravel().tolist()}
            gap = min(min(np.diff(np.unique(np.clip(sorted(coords_x),
                                                    window[0], window[1])))),
                      min(np.diff(np.unique(np.clip(sorted(coords_y),
                                                    window[2], window[3])))))
            if gap < 1.8e-3:
                skipped += 1
                continue
            h = min(5e-3, gap / 2.2)
            grid = digitize(LevelIndicator(real, level, window),
                            lattice_covering(window, h, margin=2))
            assert chi_local(grid) == level_set_features_exact(real, level, window_rect)["chi"]
            checked += 1
    assert checked >= 150
    assert skipped <= 50


# ---------------------------------------------------------------- sampling MC


# a grain whose two rectangles overlap: its union has chi 1, per1 2, per2 3, vol 1.25
OVERLAPPING = PolyRectangle(rects=((0.0, 1.0, 0.0, 1.0), (0.5, 1.5, 0.25, 0.75)))


def test_overlapping_grain_takes_its_mark_once():
    rects, _ = GrainMixture(components=(OVERLAPPING,), probs=(1.0,)).sample(
        np.random.default_rng(0), 1)
    real = Realization(rects=rects + (0.2, 0.2, 0.3, 0.3), marks=np.ones(len(rects)), count=1,
                       padded_domain=(-1.5, 3.5, -1.0, 3.0), expected_count=1.0)
    window = PolyRectangle(rects=((0.0, 2.0, 0.0, 2.0),))
    assert level_set_features_exact(real, 1.5, window) == {
        "chi": 0, "per1": 0.0, "per2": 0.0, "vol": 0.0}
    got, want = level_set_features_exact(real, 0.5, window), polyrect_features(OVERLAPPING)
    assert got["chi"] == want["chi"] == 1
    for key in ("per1", "per2", "vol"):
        assert got[key] == pytest.approx(want[key], abs=1e-12), key
    # the tee's pieces are its rectangles, and min_edge reads the given ones
    mixture = GrainMixture(components=(OVERLAPPING, TEE), probs=(0.5, 0.5))
    assert np.array_equal(mixture._table[-2:], TEE.rects)
    assert GrainMixture(components=(OVERLAPPING,), probs=(1.0,)).min_edge() == 0.5


def test_overlapping_grain_mc_matches_closed_form():
    model = ShotNoiseModel(intensity=0.2,
                           grain_dist=GrainMixture(components=(OVERLAPPING,), probs=(1.0,)),
                           mark_dist=AtomicMarks(values=(1.0,), probs=(1.0,)), level=1.5)
    window = PolyRectangle(rects=((0.0, 5.0, 0.0, 5.0),))
    feats = randomsets._replicate_features(
        randomsets._realizations(model, window.bounding_box, 200, 0), model.level, window)
    chi = randomsets._mean_stderr([f["chi"] for f in feats])
    vol = randomsets._mean_stderr([f["vol"] for f in feats])
    assert abs(chi["mean"] - mean_chi_closed_form(model, window)) <= 4 * chi["stderr"]
    want = 25.0 * stationary_density_closed_form(model)["vol_bar"]
    assert abs(vol["mean"] - want) <= 4 * vol["stderr"]


def test_overlapping_grain_density_matches_closed_form():
    # the level runs of densities give the overlap one mark too
    model = ShotNoiseModel(intensity=0.2,
                           grain_dist=GrainMixture(components=(OVERLAPPING,), probs=(1.0,)),
                           mark_dist=AtomicMarks(values=(1.0,), probs=(1.0,)), level=1.5)
    est = estimate_stationary_densities(model, epsilon=0.02, window=(0.0, 5.0, 0.0, 5.0),
                                        replicates=200, seed=0)
    want = stationary_density_closed_form(model)["vol_bar"]
    assert abs(est["vol_bar"] - want) <= 4 * est["vol_stderr"]


def _overlapping(rects) -> bool:
    """Whether two of the rectangles (x0, x1, y0, y1) share interior points."""
    r = np.array(rects)
    lo = np.maximum(r[:, None, ::2], r[None, :, ::2])
    hi = np.minimum(r[:, None, 1::2], r[None, :, 1::2])
    # every rectangle shares interior points with itself
    return np.count_nonzero((hi > lo).all(axis=2)) > len(r)


def _random_model(rng) -> ShotNoiseModel:
    # one or two components of one to three rectangles with corners on a
    # 0.25 grid and sides 0.25 to 1, overlaps allowed (a component whose
    # rectangles share a corner is drawn again); one or two mark atoms
    # from {1, 2, 3} and a level between them, so no mark sum ties it
    comps, n_comps = [], rng.integers(1, 3)
    while len(comps) < n_comps:
        rects = []
        for _ in range(rng.integers(1, 4)):
            (x0, y0), (w, h) = rng.integers(0, 4, 2), rng.integers(1, 5, 2)
            rects.append((0.25 * x0, 0.25 * (x0 + w), 0.25 * y0, 0.25 * (y0 + h)))
        try:
            comps.append(PolyRectangle(rects=tuple(rects)))
        except CornerClash:
            continue

    def probs(n):
        p = rng.dirichlet(np.ones(n))
        return (*p[:-1], 1.0 - p[:-1].sum())
    atoms = tuple(float(v) for v in rng.choice([1, 2, 3], rng.integers(1, 3), replace=False))
    return ShotNoiseModel(intensity=float(rng.choice([0.5, 1.0, 2.0, 3.0])),
                          grain_dist=GrainMixture(components=tuple(comps),
                                                  probs=probs(len(comps))),
                          mark_dist=AtomicMarks(values=atoms, probs=probs(len(atoms))),
                          level=float(rng.choice([0.5, 1.5, 2.5, 3.5])))


def test_random_mixtures_match_window_closed_forms():
    """Random grain mixtures, overlapping rectangles among them: the Monte
    Carlo means of chi, per1, per2 and vol in the window sit within 4.5
    stderr of E chi (mean_chi_closed_form), E Per_i = Vol(V) per_bar_ui +
    Per_i(V) vol_bar and E Vol = Vol(V) vol_bar."""
    rng = np.random.default_rng(2027)
    window = PolyRectangle(rects=((0.0, 5.0, 0.0, 5.0),))
    v = polyrect_features(window)
    overlapping = 0
    for k in range(20):
        model = _random_model(rng)
        d = stationary_density_closed_form(model)
        want = {"chi": mean_chi_closed_form(model, window),
                "per1": v["vol"] * d["per_bar_u1"] + v["per1"] * d["vol_bar"],
                "per2": v["vol"] * d["per_bar_u2"] + v["per2"] * d["vol_bar"],
                "vol": v["vol"] * d["vol_bar"]}
        feats = randomsets._replicate_features(
            randomsets._realizations(model, window.bounding_box, 200, 1000 * k), model.level,
            window)
        for key, target in want.items():
            got = randomsets._mean_stderr([f[key] for f in feats])
            assert abs(got["mean"] - target) <= 4.5 * got["stderr"], (k, key)
        overlapping += any(_overlapping(w.rects)
                           for w in model.grain_dist.components)
    assert overlapping >= 3




def test_mc_matches_closed_form_at_rate_one():
    # rate intensity*EVol = 1: the level-1.5 mean is exact for the sampler too
    model = square_model(1.5)
    window = PolyRectangle(rects=((0.0, 6.0, 0.0, 6.0),))
    out = mc_mean_chi(model, window, replicates=400, seed=7)
    target = mean_chi_closed_form(model, window)
    assert target == pytest.approx(1 + 46 * E1, abs=1e-12)
    assert out["stderr"] < 0.5
    assert abs(out["mean"] - target) <= 4 * out["stderr"]


def test_mc_matches_closed_form_off_rate_one():
    """Intensity and unequal marks reach the closed form only away from the
    rate-one anchor: rho = 4 puts rho on corners and rho^2 on crossings, and
    marks {1, 2} make p2' (three quadrants in) hinge on the lighter mark."""
    window = PolyRectangle(rects=((0.0, 6.0, 0.0, 6.0),))
    dense = square_model(1.5, intensity=4.0, a=0.5)
    two_atoms = ShotNoiseModel(intensity=1.0,
                               grain_dist=GrainMixture(components=(UNIT_SQUARE,),
                                                       probs=(1.0,)),
                               mark_dist=AtomicMarks(values=(1.0, 2.0), probs=(0.5, 0.5)),
                               level=2.5)
    for model, replicates, seed in ((dense, 400, 21), (two_atoms, 800, 23)):
        out = mc_mean_chi(model, window, replicates=replicates, seed=seed)
        target = mean_chi_closed_form(model, window)
        assert out["stderr"] < 0.5
        assert abs(out["mean"] - target) <= 4 * out["stderr"]


def test_mc_zero_intensity():
    model = square_model(1.5, intensity=0.0)
    out = mc_mean_chi(model, V10, replicates=8, seed=0)
    assert out == {"mean": 0.0, "stderr": 0.0}


def test_mc_replicate_guard():
    with pytest.raises(InvalidSpec):
        mc_mean_chi(square_model(1.5), V10, replicates=1, seed=0)


def test_mean_geometry_identities():
    """E Vol(F cap V) = Vol(V) vol_bar and E Per_i(F cap V) =
    Vol(V) per_bar_i + Per_i(V) vol_bar; both exact by stationarity."""
    model = square_model(1.5)
    window = PolyRectangle(rects=((0.0, 8.0, 0.0, 8.0),))
    feats = []
    for seed in range(200):
        real = sample_realization(model, (0.0, 8.0, 0.0, 8.0), seed)
        f = level_set_features_exact(real, 1.5, window)
        feats.append((f["vol"], f["per1"], f["per2"]))
    arr = np.array(feats)
    means = arr.mean(axis=0)
    errs = arr.std(axis=0, ddof=1) / math.sqrt(len(arr))
    targets = (64.0 * (1 - 2 * E1),
               64.0 * 2 * E1 + 16.0 * (1 - 2 * E1),
               64.0 * 2 * E1 + 16.0 * (1 - 2 * E1))
    for got, err, want in zip(means, errs, targets):
        assert abs(got - want) <= 4 * err


def test_window_shift_leaves_chi_distribution_unchanged():
    model = square_model(1.5)
    w1 = PolyRectangle(rects=((0.0, 6.0, 0.0, 6.0),))
    w2 = PolyRectangle(rects=((2.0, 8.0, 1.0, 7.0),))
    s1 = np.array([level_set_features_exact(
        sample_realization(model, w1.bounding_box, s), 1.5, w1)["chi"]
        for s in range(200)])
    s2 = np.array([level_set_features_exact(
        sample_realization(model, w2.bounding_box, 500 + s), 1.5, w2)["chi"]
        for s in range(200)])
    pooled = math.hypot(s1.std(ddof=1), s2.std(ddof=1)) / math.sqrt(200)
    assert abs(s1.mean() - s2.mean()) <= 4 * pooled
    # two-sample KS distance, integer-valued samples
    support = np.unique(np.concatenate([s1, s2]))
    d = max(abs(np.searchsorted(np.sort(s1), v, side="right") / 200
                - np.searchsorted(np.sort(s2), v, side="right") / 200)
            for v in support)
    assert d <= 0.2


# ----------------------------------------------------------- level runs


@st.composite
def stamp_cases(draw):
    """Axes, grains of one to three rectangles, and one weight per grain.

    Rectangle edges are axis coordinates or arbitrary values up to 3 beyond
    either end, so rectangles fall inside, across or wholly outside the axes.
    """
    def axis():
        start = draw(st.floats(-5.0, 5.0))
        steps = draw(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=6))
        return start + np.concatenate([[0.0], np.cumsum(steps)])

    def span(ax):
        edge = st.one_of(st.sampled_from(list(ax)), st.floats(ax[0] - 3.0, ax[-1] + 3.0))
        return sorted((draw(edge), draw(edge)))

    xs, ys = axis(), axis()
    n = draw(st.integers(0, 6))
    grains = [[tuple(span(xs) + span(ys)) for _ in range(draw(st.integers(1, 3)))]
              for _ in range(n)]
    weights = draw(st.lists(st.floats(0.001, 10.0), min_size=n, max_size=n))
    return xs, ys, grains, weights


@st.composite
def level_run_cases(draw):
    """A stamp case and a level: any, at or below zero, where uncovered cells
    are inside, or the first grain's weight, which the cells it alone covers tie."""
    xs, ys, grains, weights = draw(stamp_cases())
    level = draw(st.one_of(st.floats(-1.0, 30.0), st.sampled_from([-1.0, 0.0] + weights[:1])))
    return xs, ys, grains, weights, level


@settings(max_examples=300, deadline=None)
@given(level_run_cases())
@example((np.arange(4.0), np.arange(3.0), [], [], -1.0))
@example((np.arange(4.0), np.arange(3.0), [], [], 0.5))
# rectangles clipped at each window edge and at all four, non-integer marks
@example((np.arange(4.0), np.arange(3.0),
          [[(-1.0, 5.0, -2.0, 4.0)], [(-2.0, 1.5, 0.5, 1.0)], [(2.0, 9.0, 1.0, 2.5)],
           [(0.5, 2.5, -1.0, 1.0)], [(1.0, 2.0, 1.0, 7.0)]],
          [0.1, 0.7, 1.3, 0.2, 2.9], 1.35))
@example((np.arange(4.0), np.arange(3.0),
          [[(-1.0, 5.0, -2.0, 4.0)], [(-2.0, 1.5, 0.5, 1.0)], [(2.0, 9.0, 1.0, 2.5)]],
          [0.1, 0.7, 1.3], -0.5))
def test_level_runs_match_loop_oracle(case):
    xs, ys, grains, weights, level = case
    rects = np.array([r for g in grains for r in g], dtype=float).reshape(-1, 4)
    marks = np.array([wgt for g, wgt in zip(grains, weights) for _ in g], dtype=float)
    field = stamped_field_by_loop(xs, ys, grains, weights)
    gap = np.abs(field - level)
    tol = 1e-12 * max(1.0, abs(level))
    # strip sums and the loop's running sums round apart: keep clear of the tolerance's edge
    assume(not ((gap > 0.5 * tol) & (gap < 1e-9)).any())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # one arrangement, whose strips all hold the columns 0 to len(xs) - 1;
        # each rectangle, clipped to the axes, spans the axis indices of its
        # edges, and one between two coordinates of ys covers no strip
        i0, i1 = (np.searchsorted(xs, np.clip(rects[:, k], xs[0], xs[-1])) for k in (0, 1))
        j0, j1 = (np.searchsorted(ys, np.clip(rects[:, k], ys[0], ys[-1])) for k in (2, 3))
        some = j1 > j0
        got = _level_runs(i0[some], i1[some], j0[some], j1[some], marks[some],
                          np.zeros(len(ys) - 1, dtype=int), np.full(len(ys) - 1, len(xs) - 1),
                          level)[:3]
    ties = bool((gap <= 0.5 * tol).any())
    assert any("ties the level" in str(w.message) for w in caught) is ties
    if not ties:
        want = _run_list(field >= level)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@st.composite
def side_by_side_cases(draw):
    """Arrangements side by side as :func:`randomsets._batch_runs` lays out a
    batch: each has its own strips and columns, one column and one strip with
    no cells (first == stop) lie between two, and its index-box rectangles,
    mostly one or two columns wide with some across many bands, stay inside
    it.  Weights are integers or not; levels are at or below zero too."""
    first, stop, boxes, weights, parts = [], [], [], [], []
    col = 0
    for a in range(draw(st.integers(1, 4))):
        if a:
            first.append(col)
            stop.append(col)
            col += 1
        ncol, nrow = draw(st.integers(1, 30)), draw(st.integers(1, 6))
        row0 = len(first)
        first += [col] * nrow
        stop += [col + ncol] * nrow
        own = []
        for _ in range(draw(st.integers(0, 10))):
            i0 = draw(st.integers(0, ncol))
            i1 = draw(st.integers(i0, min(ncol, i0 + 2)) if draw(st.booleans())
                      else st.integers(i0, ncol))
            j0 = draw(st.integers(0, nrow - 1))
            j1 = draw(st.integers(j0 + 1, nrow))
            own.append((i0, i1, j0, j1))
            boxes.append((col + i0, col + i1, row0 + j0, row0 + j1))
            weights.append(draw(st.sampled_from([1.0, 2.0, 0.7, 1.3, 2.9])))
        parts.append((col, ncol, row0, nrow, own, weights[len(weights) - len(own):]))
        col += ncol
    level = draw(st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.65, 1.0, 1.45, 2.05, 3.35]),
                           st.floats(-1.0, 8.0)))
    return np.array(first), np.array(stop), boxes, weights, parts, level


@settings(max_examples=300, deadline=None)
@given(side_by_side_cases())
# nine unit-wide squares and one across all 20 columns, four bands of six:
# the wide one's runs cross three band cuts, and at level 2 the runs of two
# squares that meet at the cut at column 6, [4, 6) and [6, 8), are one run
@example((np.zeros(2, dtype=int), np.full(2, 20),
          [(k, k + 1, 0, 1) for k in range(9)] + [(0, 20, 0, 2)]
          + [(4, 6, 1, 2), (6, 8, 1, 2)],
          [1.0] * 12,
          [(0, 20, 0, 2, [(k, k + 1, 0, 1) for k in range(9)] + [(0, 20, 0, 2)]
            + [(4, 6, 1, 2), (6, 8, 1, 2)], [1.0] * 12)],
          2.0))
def test_level_runs_of_side_by_side_arrangements_match_loop_oracle(case):
    first, stop, boxes, weights, parts, level = case
    want_rows, want_lo, want_hi, gaps = [], [], [], []
    for col, ncol, row0, nrow, own, own_weights in parts:
        field = stamped_field_by_loop(np.arange(ncol + 1.0), np.arange(nrow + 1.0),
                                      [[box] for box in own], own_weights)
        gaps.append(np.abs(field - level).ravel())
        rows, lo, hi = _run_list(field >= level)
        want_rows.append(rows + row0)
        want_lo.append(lo + col)
        want_hi.append(hi + col)
    gap = np.concatenate(gaps)
    tol = 1e-12 * max(1.0, abs(level))
    # band sums and the loop's running sums round apart: keep clear of the tolerance's edge
    assume(not ((gap > 0.5 * tol) & (gap < 1e-9)).any())
    i0, i1, j0, j1 = (np.array([box[k] for box in boxes], dtype=int) for k in range(4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _level_runs(i0, i1, j0, j1, np.array(weights), first, stop, level)[:3]
    ties = bool((gap <= 0.5 * tol).any())
    assert any("ties the level" in str(w.message) for w in caught) is ties
    if not ties:
        want = [np.concatenate(part) for part in (want_rows, want_lo, want_hi)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ----------------------------------------------------------- density estimates


def test_density_estimator_at_rate_one_anchor():
    model = square_model(1.5)
    est = estimate_stationary_densities(model, epsilon=0.02,
                                        window=(0.0, 6.0, 0.0, 6.0),
                                        replicates=60, seed=5)
    assert 0.0 <= est["vol_bar"] <= 1.0
    assert abs(est["chi_bar"] - E1) <= 4 * est["chi_stderr"]
    assert abs(est["vol_bar"] - (1 - 2 * E1)) <= 4 * est["vol_stderr"]
    assert abs(est["per_bar_u1"] - 2 * E1) <= 4 * est["per_u1_stderr"]
    assert abs(est["per_bar_u2"] - 2 * E1) <= 4 * est["per_u2_stderr"]
    # the two directions estimate the same number for a square grain
    assert abs(est["per_bar_u1"] - est["per_bar_u2"]) <= 3 * (est["per_u1_stderr"]
                                                        + est["per_u2_stderr"])


def test_density_estimator_off_rate_one():
    # random rectangles at intensity 2 with two mark atoms: every density the
    # estimator reports sits within 4 stderr of its closed form; the O(eps)
    # bias needs eps <= 0.005 here (chi read z = -5.2 at eps 0.02)
    model = ShotNoiseModel(intensity=2.0,
                           grain_dist=RectFamily(a_law=Uniform(0.5, 1.5),
                                                 b_law=Uniform(0.2, 1.0)),
                           mark_dist=AtomicMarks(values=(1.0, 2.0), probs=(0.6, 0.4)),
                           level=1.5)
    est = estimate_stationary_densities(model, epsilon=0.005,
                                        window=(0.0, 6.0, 0.0, 6.0),
                                        replicates=100, seed=0)
    closed = stationary_density_closed_form(model)
    for density, stderr in (("chi_bar", "chi_stderr"), ("per_bar_u1", "per_u1_stderr"),
                            ("per_bar_u2", "per_u2_stderr"), ("vol_bar", "vol_stderr")):
        assert abs(est[density] - closed[density]) <= 4 * est[stderr], density


def test_density_estimator_guards():
    model = square_model(1.5)
    with pytest.raises(InvalidSpec):
        estimate_stationary_densities(model, epsilon=0.02,
                                      window=(0.0, 2.0, 0.0, 2.0),
                                      replicates=1, seed=0)
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidSpec):
            estimate_stationary_densities(model, epsilon=epsilon,
                                          window=(0.0, 2.0, 0.0, 2.0),
                                          replicates=4, seed=0)
    # positive, but its square underflows to 0 and chi is read per epsilon**2
    with pytest.raises(InvalidSpec, match="underflows"):
        estimate_stationary_densities(model, epsilon=1e-162,
                                      window=(0.0, 2.0, 0.0, 2.0),
                                      replicates=4, seed=0)
    for window in ((6.0, 0.0, 0.0, 6.0), (0.0, 6.0, 6.0, 0.0),
                   (0.0, 0.0, 0.0, 6.0), (0.0, 6.0, 2.0, 2.0),
                   (0.0, math.inf, 0.0, 6.0), (-math.inf, 6.0, 0.0, 6.0)):
        with pytest.raises(InvalidSpec):
            estimate_stationary_densities(model, epsilon=0.02, window=window,
                                          replicates=4, seed=0)
    with pytest.warns(UserWarning, match="bias"):
        estimate_stationary_densities(model, epsilon=0.3,
                                      window=(0.0, 2.0, 0.0, 2.0),
                                      replicates=2, seed=0)


# the untied models: unit squares, random rectangles with two atoms, uniform and
# exponential marks (the last on an off-origin window), a coarse epsilon, and the
# square-and-tee mixture at an epsilon that two tee edges are apart
FIVE_STAMP_CASES = {
    "unit-squares": (square_model(1.5), 0.01, (0.0, 2.0, 0.0, 2.0)),
    "rect-family": (ShotNoiseModel(2.0, RectFamily(Uniform(0.5, 1.5), Uniform(0.2, 1.0)),
                                   AtomicMarks((1.0, 2.0), (0.6, 0.4)), 1.5),
                    0.005, (0.0, 2.0, 0.0, 2.0)),
    "uniform-marks": (ShotNoiseModel(1.5, RectFamily(Uniform(0.5, 1.5), Uniform(0.2, 1.0)),
                                     Uniform(0.2, 1.0), 0.7), 0.01, (0.0, 2.0, 0.0, 2.0)),
    "exponential-marks": (ShotNoiseModel(1.5, RectFamily(Uniform(0.5, 1.5),
                                                         Uniform(0.2, 1.0)),
                                         Exponential(1.0), 0.9),
                          0.01, (0.5, 2.3, -1.0, 0.8)),
    "epsilon-0.3": (square_model(1.5), 0.3, (0.0, 2.0, 0.0, 2.0)),
    # fl(fl(x + 0.1) - 0.1) and x can fall an ulp apart on the fine axes
    "square-and-tee": (LAYOUT_MODELS["square-and-tee"], 0.1, (0.0, 3.0, 0.0, 3.0)),
}


@pytest.mark.parametrize("name", FIVE_STAMP_CASES)
def test_densities_match_five_stamp_oracle(name):
    model, epsilon, window = FIVE_STAMP_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the finite-mesh bias warning at epsilon 0.3
        assert (estimate_stationary_densities(model, epsilon, window, 3, 11)
                == densities_by_five_stamps(model, epsilon, window, 3, 11))


@settings(max_examples=40, deadline=None)
@given(epsilon=st.floats(0.001, 0.4), x0=st.floats(-3.0, 3.0), y0=st.floats(-3.0, 3.0),
       side=st.floats(0.5, 2.0), seed=st.integers(0, 2 ** 16),
       grain=st.sampled_from([UNIT_SQUARE, TEE]))
# a window edge whose epsilon-translate rounds inward: fl(fl(0.91 - 0.316) + 0.316) > 0.91
@example(epsilon=0.316, x0=0.91, y0=0.0, side=1.5, seed=4, grain=UNIT_SQUARE)
# tee edges epsilon and 2 epsilon apart put fine coordinates an ulp apart
@example(epsilon=0.1, x0=0.0, y0=0.0, side=2.0, seed=0, grain=TEE)
def test_densities_match_five_stamp_oracle_integer_marks(epsilon, x0, y0, side, seed, grain):
    # integer marks and a half-integer level: no field value comes near the level
    model = ShotNoiseModel(1.5, GrainMixture((grain,), (1.0,)),
                           AtomicMarks((1.0, 2.0), (0.5, 0.5)), 1.5)
    window = (x0, x0 + side, y0, y0 + side)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = estimate_stationary_densities(model, epsilon, window, 2, seed)
    assert got == densities_by_five_stamps(model, epsilon, window, 2, seed)


def test_densities_stamp_once_per_replicate(monkeypatch):
    """One strip-run pass per batch, and every replicate in exactly one batch."""
    sizes = []

    def counted(i0, i1, j0, j1, w, first, stop, level):
        # the strips of each replicate start at its own first column
        sizes.append(len(np.unique(first)))
        return level_runs(i0, i1, j0, j1, w, first, stop, level)

    level_runs = randomsets._level_runs
    monkeypatch.setattr(randomsets, "_level_runs", counted)
    monkeypatch.setattr(randomsets, "_BATCH_EVENTS", 300)
    estimate_stationary_densities(square_model(1.5), 0.01, (0.0, 2.0, 0.0, 2.0), 12, 0)
    assert sum(sizes) == 12 and len(sizes) > 2 and max(sizes) > 1, sizes


@pytest.mark.parametrize("level", [-1.0, 0.0])
def test_densities_at_levels_below_zero_fill_the_window(monkeypatch, level):
    """At a level <= 0 every cell is in the level set, covered or not, in batches
    of several replicates too: no cell has a translate outside, and all of the
    window is inside.  Uncovered cells tie level 0; the closed set keeps them."""
    monkeypatch.setattr(randomsets, "_BATCH_EVENTS", 600)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_stationary_densities(square_model(level), 0.01, (0.0, 2.0, 0.0, 2.0),
                                            12, 0)
    for key in ("chi_bar", "chi_stderr", "per_bar_u1", "per_u1_stderr",
                "per_bar_u2", "per_u2_stderr"):
        assert est[key] == 0.0, key
    assert abs(est["vol_bar"] - 1.0) <= 1e-12


def test_densities_do_not_depend_on_batches(monkeypatch):
    # uniform marks: the strip sums are not exact, and still agree batch for batch
    model = ShotNoiseModel(1.5, RectFamily(Uniform(0.5, 1.5), Uniform(0.2, 1.0)),
                           Uniform(0.2, 1.0), 0.7)
    got = []
    for bound in (1, 1 << 30):
        monkeypatch.setattr(randomsets, "_BATCH_EVENTS", bound)
        got.append(estimate_stationary_densities(model, 0.01, (0.0, 2.0, 0.0, 2.0), 8, 3))
    assert got[0] == got[1]


@pytest.mark.parametrize("level,warns", [(0.8, True), (0.85, False)])
def test_densities_warn_on_level_ties(level, warns):
    # 0.1 + 0.7 is 0.7999999999999999: cells covered by one grain of each mark tie 0.8
    model = ShotNoiseModel(0.8, GrainMixture((UNIT_SQUARE,), (1.0,)),
                           AtomicMarks((0.1, 0.7), (0.5, 0.5)), level)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate_stationary_densities(model, 0.01, (0.0, 2.0, 0.0, 2.0), 4, 0)
    ties = [w for w in caught if "ties the level" in str(w.message)]
    assert bool(ties) is warns
    # the warning points at the caller, as level_set_features_exact's does
    assert all(w.filename == __file__ for w in ties)
