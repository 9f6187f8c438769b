import contextlib
import copy
import functools
import io
import json
import math
import operator
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulergram import (cli, estimate_perimeter, make_shape, perimeter_variational,
                       randomsets, variogram)
from eulergram.cli import main
from thin_bounds import THIN_BOUNDS_CFG, THIN_BOUNDS_CSV

E1 = math.exp(-1.0)

SHOT_CFG = {
    "model": {"intensity": 1.0,
              "grains": [{"rects": [[0, 1, 0, 1]], "p": 1.0}],
              "marks": [{"value": 1.0, "p": 1.0}],
              "lambda": 1.5},
    "window": {"rects": [[0, 6, 0, 6]]},
    "replicates": 200,
    "seed": 3,
}


def run_cli(tmp_path, name, subcommand, cfg, extra=()):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / name
    code = main([subcommand, "--config", str(cfg_path), "--out", str(out_dir),
                 *extra])
    report = None
    if (out_dir / "report.json").exists():
        report = json.loads((out_dir / "report.json").read_text())
    return code, out_dir, report


def test_chi_subcommand_on_disc(tmp_path):
    cfg = {"shape": {"type": "disc", "center": [0, 0], "r": 1.0},
           "epsilon": 0.01, "dump_grid": True}
    code, out_dir, report = run_cli(tmp_path, "chi", "chi", cfg)
    assert code == 0
    res = report["results"]
    assert res["admissible"] is True
    assert res["chi_local"] == 1
    assert res["chi_vef"] == 1
    assert res["num_components"] == 1
    assert res["num_bounded_holes"] == 0
    assert res["chi_components"] == 1
    # resolved config is embedded in the header
    assert report["config"]["epsilon"] == 0.01
    assert report["subcommand"] == "chi"
    assert (out_dir / "grid.pgm").exists()


def test_sweep_detects_annulus_plateau(tmp_path):
    cfg = {"shape": {"type": "annulus", "center": [0, 0], "r_in": 1.0, "r_out": 2.0},
           "epsilons": [0.2, 0.1, 0.05, 0.02, 0.01]}
    code, out_dir, report = run_cli(tmp_path, "sweep", "sweep", cfg)
    assert code == 0
    res = report["results"]
    assert res["chi_values"][-3:] == [0, 0, 0]
    assert res["stabilized"] is True
    assert res["plateau"] == 0
    assert res["x_configurations"][-3:] == [0, 0, 0]
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,chi,x_configurations"
    assert len(lines) == 6


# two discs 1.018 apart, chi 2: at meshes 0.04 to 0.02 their digitizations
# hold X-configurations, where the 4-connected count of holes would make
# chi negative
TWO_DISCS = {"type": "union", "members": [
    {"type": "disc", "center": [0, 0], "r": 0.5},
    {"type": "disc", "center": [0.72, 0.72], "r": 0.5}]}


def test_chi_subcommand_on_two_discs_with_x_configurations(tmp_path):
    code, _, report = run_cli(tmp_path, "chi", "chi", {"shape": TWO_DISCS, "epsilon": 0.03})
    assert code == 0
    res = report["results"]
    assert res["admissible"] is False
    assert res["chi_local"] is None
    assert (res["num_components"], res["num_bounded_holes"]) == (2, 0)
    assert res["chi_components"] == res["chi_vef"] == 2


def test_sweep_needs_admissible_meshes_for_a_plateau(tmp_path):
    cfg = {"shape": TWO_DISCS, "epsilons": [0.04, 0.03, 0.02]}
    code, out_dir, report = run_cli(tmp_path, "coarse", "sweep", cfg)
    assert code == 0
    res = report["results"]
    assert res["chi_values"] == [2, 2, 2]
    assert res["x_configurations"] == [4, 6, 4]
    assert res["stabilized"] is False
    assert res["plateau"] is None
    assert (out_dir / "sweep.csv").read_text() == (
        "epsilon,chi,x_configurations\n0.04,2,4\n0.03,2,6\n0.02,2,4\n")

    cfg["epsilons"] += [0.01, 0.005, 0.004]
    code, _, report = run_cli(tmp_path, "fine", "sweep", cfg)
    assert code == 0
    res = report["results"]
    assert res["chi_values"] == [2] * 6
    assert res["x_configurations"][-3:] == [0, 0, 0]
    assert res["stabilized"] is True
    assert res["plateau"] == 2


def test_perimeter_subcommand_on_disc(tmp_path):
    cfg = {"shape": {"type": "disc", "center": [0, 0], "r": 0.5},
           "epsilons": [0.08, 0.04, 0.02], "quad_mesh": 1e-3, "directions": 8}
    code, out_dir, report = run_cli(tmp_path, "per", "perimeter", cfg)
    assert code == 0
    res = report["results"]
    # every directional perimeter of a disc of radius r is 4r
    assert res["per_u1"] == pytest.approx(2.0, rel=0.02)
    assert res["per_u2"] == pytest.approx(2.0, rel=0.02)
    assert res["per_inf"] == pytest.approx(4.0, rel=0.02)
    assert res["per"] == pytest.approx(math.pi, rel=0.05)
    assert res["sandwich_ok"] is True
    assert (out_dir / "per_u1.csv").exists()
    assert (out_dir / "per_u2.csv").exists()


def test_perimeter_runs_one_sweep_with_library_values(tmp_path, monkeypatch):
    built = []
    sweep = variogram._sweep

    def counting_sweep(*args):
        built.append(args)
        return sweep(*args)

    cfg = {"shape": {"type": "annulus", "center": [0, 0], "r_in": 0.2, "r_out": 0.5},
           "epsilons": [0.08, 0.04, 0.02], "quad_mesh": 2e-3, "directions": 12}
    monkeypatch.setattr(variogram, "_sweep", counting_sweep)
    code, out_dir, report = run_cli(tmp_path, "per", "perimeter", cfg)
    assert code == 0
    assert len(built) == 1
    monkeypatch.undo()

    ring, eps, mesh = make_shape(cfg["shape"]), cfg["epsilons"], cfg["quad_mesh"]
    est1 = estimate_perimeter(ring, (1.0, 0.0), eps, mesh)
    est2 = estimate_perimeter(ring, (0.0, 1.0), eps, mesh)
    res = report["results"]
    assert res["per_u1"] == est1.extrapolated
    assert res["per_u2"] == est2.extrapolated
    assert res["per_inf"] == est1.extrapolated + est2.extrapolated
    assert res["per"] == perimeter_variational(ring, eps, mesh, n_directions=12)
    rows = (out_dir / "per_u1.csv").read_text().strip().splitlines()[1:]
    assert [tuple(map(float, r.split(","))) for r in rows] == est1.rows()


def test_bounds_subcommand(tmp_path):
    cfg = {"truth": {"type": "disc", "center": [0, 0], "r": 0.5},
           "h": 1.0 / 64.0, "margin": 10, "epsilons": [8.0 / 64.0, 16.0 / 64.0]}
    code, out_dir, report = run_cli(tmp_path, "bounds", "bounds", cfg)
    assert code == 0
    assert report["results"]["all_bounds_hold"] is True
    assert report["results"]["trials"] == 2
    lines = (out_dir / "bounds.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_bounds_with_boxes_wider_than_the_truth_grid(tmp_path):
    # a 25 x 25 truth grid and 33 x 33 test boxes: no pair can be tested,
    # and the run reports none
    cfg = {"truth": {"type": "disc", "center": [0, 0], "r": 0.5}, "h": 0.0625,
           "epsilons": [2.0]}
    code, out_dir, report = run_cli(tmp_path, "wide", "bounds", cfg)
    assert code == 0
    assert report["results"]["all_bounds_hold"] is True
    rows = (out_dir / "bounds.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [["2.0", "0", "0"]]


def test_bounds_on_thin_features_reports_pairs(tmp_path):
    code, out_dir, report = run_cli(tmp_path, "thin", "bounds", THIN_BOUNDS_CFG,
                                    extra=("--no-timestamp",))
    assert code == 0
    assert report["results"]["all_bounds_hold"] is True
    assert (out_dir / "bounds.csv").read_text() == THIN_BOUNDS_CSV


def test_shotnoise_table_and_determinism(tmp_path):
    code, out1, report = run_cli(tmp_path, "shot1", "shotnoise", SHOT_CFG,
                                 extra=("--no-timestamp",))
    assert code == 0
    res = report["results"]
    assert res["closed_form"] == pytest.approx(1 + 46 * E1, abs=1e-12)
    assert "boolean_closed_form" not in res
    assert res["within_3_stderr"] is True
    assert "timestamp" not in report
    rows = (out1 / "replicates.csv").read_text().strip().splitlines()
    assert len(rows) == 201

    code2, out2, _ = run_cli(tmp_path, "shot2", "shotnoise", SHOT_CFG,
                             extra=("--no-timestamp",))
    assert code2 == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "replicates.csv").read_bytes() == (out2 / "replicates.csv").read_bytes()

    code3, out3, stamped = run_cli(tmp_path, "shot3", "shotnoise", SHOT_CFG)
    assert code3 == 0
    assert "timestamp" in stamped


def test_densities_subcommand(tmp_path):
    cfg = {"model": SHOT_CFG["model"], "window": [0, 4, 0, 4],
           "epsilon": 0.05, "replicates": 8, "seed": 1}
    code, out_dir, report = run_cli(tmp_path, "dens", "densities", cfg)
    assert code == 0
    res = report["results"]
    densities = ["chi_bar", "per_bar_u1", "per_bar_u2", "vol_bar"]
    assert set(res) == {"epsilon", "closed_form_reference", *densities, "chi_stderr",
                        "per_u1_stderr", "per_u2_stderr", "vol_stderr"}
    assert set(res["closed_form_reference"]) == set(densities)
    assert res["closed_form_reference"]["chi_bar"] == pytest.approx(E1, abs=1e-12)
    assert res["epsilon"] == 0.05
    assert res["chi_stderr"] > 0
    assert 0.0 <= res["vol_bar"] <= 1.0
    lines = (out_dir / "densities.csv").read_text().strip().splitlines()
    assert lines[0] == "quantity,estimate,stderr"
    assert [line.split(",")[0] for line in lines[1:]] == densities
    assert lines[1] == f"chi_bar,{res['chi_bar']!r},{res['chi_stderr']!r}"


def test_missing_config_key_reports_json_error(tmp_path, capsys):
    code, _, report = run_cli(tmp_path, "badchi", "chi",
                              {"shape": {"type": "disc", "center": [0, 0], "r": 1.0}})
    assert code == 1
    assert report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert "epsilon" in err["message"]
    assert err["context"]["subcommand"] == "chi"


@pytest.mark.parametrize("replicates", [0, 1])
def test_shotnoise_rejects_too_few_replicates(tmp_path, capsys, replicates):
    # a standard error needs at least two replicates
    cfg = {**SHOT_CFG, "replicates": replicates}
    code, _, report = run_cli(tmp_path, "fewreps", "shotnoise", cfg)
    assert code == 1
    assert report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec"
    assert "replicates" in err["message"]
    assert err["context"]["subcommand"] == "shotnoise"


TRUNCATED = {"type": "rect_family",
             "a": {"dist": "exponential", "scale": 1.0, "truncate_q": 1.0},
             "b": {"dist": "uniform", "low": 0.5, "high": 1.5}}


@pytest.mark.parametrize("subcommand,cfg", [
    ("shotnoise", {**SHOT_CFG, "model": {**SHOT_CFG["model"], "grains": TRUNCATED}}),
    ("shotnoise", {**SHOT_CFG, "model": {**SHOT_CFG["model"], "grains": {
        **TRUNCATED, "a": {**TRUNCATED["a"], "truncate_q": 1.5}}}}),
    ("shotnoise", {**SHOT_CFG, "model": {**SHOT_CFG["model"], "grains": {
        **TRUNCATED, "a": {**TRUNCATED["a"], "truncate_q": 0.0}}}}),
    ("shotnoise", {**SHOT_CFG, "model": {**SHOT_CFG["model"], "lambda": math.nan}}),
    ("shotnoise", {**SHOT_CFG, "model": {**SHOT_CFG["model"], "lambda": math.inf}}),
    ("densities", {"model": SHOT_CFG["model"], "window": [6, 0, 0, 6],
                   "epsilon": 0.05, "replicates": 8, "seed": 1}),
    ("chi", {"shape": {"type": "disc", "center": [0, 0], "r": math.nan}, "epsilon": 0.1}),
    ("chi", {"shape": {"type": "disc", "center": [0, 0], "r": math.inf}, "epsilon": 0.1}),
    ("chi", {"shape": {"type": "disc", "center": [math.nan, 0], "r": 1.0}, "epsilon": 0.1}),
    ("sweep", {"shape": {"type": "annulus", "center": [0, 0], "r_in": 0.5, "r_out": math.inf},
               "epsilons": [0.2, 0.1, 0.05], "quad_mesh": 1e-2}),
    ("bounds", {"truth": {"type": "annulus", "center": [0, -math.inf], "r_in": 0.5,
                          "r_out": 1.0}, "h": 0.05, "epsilons": [0.2]}),
    ("chi", {"shape": {"type": "union", "members": [
        {"type": "disc", "center": [0, 0], "r": 1.0},
        {"type": "annulus", "center": [3, 0], "r_in": math.nan, "r_out": 1.0}]},
        "epsilon": 0.1}),
    ("chi", {"shape": {"type": "implicit", "g": "x", "bounding_box": [0, 1, 0, 1]},
             "epsilon": 0.1}),
    ("chi", {"shape": {"type": "union", "members": [
        {"type": "disc", "center": [0, 0], "r": 1.0},
        {"type": "implicit", "g": "x", "bounding_box": [0, 1, 0, 1]}]}, "epsilon": 0.1}),
    ("chi", {"shape": {"type": "implicit", "g": "x", "bounding_box": [0, 1]},
             "epsilon": 0.1}),
    ("chi", {"shape": {"type": "implicit", "g": "x", "bounding_box": [0, "nan", 0, 1]},
             "epsilon": 0.1}),
    ("shotnoise", {**SHOT_CFG, "window": {"rects": [[0, math.inf, 0, 5]]}}),
    ("densities", {"model": SHOT_CFG["model"], "window": [0, math.inf, 0, 5],
                   "epsilon": 0.05, "replicates": 8, "seed": 1}),
    ("shotnoise", {**SHOT_CFG, "model": {**SHOT_CFG["model"], "grains": {
        **TRUNCATED, "a": [1]}}}),
    # a mesh of 1e308 put the lattice's origin at -inf: chi exited 0 and
    # sweep wrote chi 0 for that mesh
    ("chi", {"shape": {"type": "disc", "center": [0, 0], "r": 0.5}, "epsilon": 1e308}),
    ("sweep", {"shape": {"type": "disc", "center": [0, 0], "r": 0.5},
               "epsilons": [1e308, 0.1, 0.05]}),
], ids=["truncate-q-one", "truncate-q-above-one", "truncate-q-zero", "lambda-nan",
        "lambda-infinite", "densities-window-reversed", "disc-radius-nan",
        "disc-radius-infinite", "disc-centre-nan", "annulus-outer-radius-infinite",
        "annulus-centre-infinite", "union-member-radius-nan", "implicit-g-text",
        "union-member-implicit-g-text", "implicit-box-two-numbers", "implicit-box-nan",
        "shotnoise-window-infinite", "densities-window-infinite",
        "rect-family-law-not-object", "chi-epsilon-1e308", "sweep-epsilon-1e308"])
def test_degenerate_model_or_window_exits_one(tmp_path, capsys, subcommand, cfg):
    # these used to exit 2 from a numpy/math error, or report on a meaningless model
    code, _, report = run_cli(tmp_path, "degenerate", subcommand, cfg)
    assert code == 1
    assert report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec"
    assert err["context"]["subcommand"] == subcommand


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("subcommand,model,missing", [
    ("shotnoise", _without(SHOT_CFG["model"], "grains"), "grains"),
    ("shotnoise", {**SHOT_CFG["model"], "grains": [{"rects": [[0, 1, 0, 1]]}]}, "p"),
    ("densities", _without(SHOT_CFG["model"], "lambda"), "lambda"),
])
def test_malformed_model_reports_config_error(tmp_path, capsys, subcommand, model,
                                              missing):
    if subcommand == "shotnoise":
        cfg = {**SHOT_CFG, "model": model}
    else:
        cfg = {"model": model, "window": [0, 4, 0, 4], "epsilon": 0.05,
               "replicates": 8, "seed": 1}
    code, _, report = run_cli(tmp_path, "badmodel", subcommand, cfg)
    assert code == 1
    assert report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert missing in err["message"]
    assert err["context"]["subcommand"] == subcommand


@pytest.mark.parametrize("value", ["no", 1, None])
def test_dump_grid_must_be_a_boolean(tmp_path, capsys, value):
    cfg = {"shape": {"type": "disc", "center": [0, 0], "r": 1.0},
           "epsilon": 0.1, "dump_grid": value}
    code, out_dir, report = run_cli(tmp_path, "dump", "chi", cfg)
    assert code == 1
    assert report is None
    assert not (out_dir / "grid.pgm").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert "dump_grid" in err["message"]


def test_module_error_surfaces_with_name(tmp_path, capsys):
    # fewer than three epsilons is a variogram-module error, not a CLI one
    cfg = {"shape": {"type": "disc", "center": [0, 0], "r": 0.5},
           "epsilons": [0.1], "quad_mesh": 1e-2}
    code, _, _ = run_cli(tmp_path, "badper", "perimeter", cfg)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec"
    assert err["context"]["subcommand"] == "perimeter"


def test_argument_errors(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("{}")

    assert main([]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"

    assert main(["warp", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "unknown subcommand" in json.loads(capsys.readouterr().err)["message"]

    assert main(["chi", "--config", str(cfg_path), "--frobnicate"]) == 1
    assert "unknown flag" in json.loads(capsys.readouterr().err)["message"]

    assert main(["chi", "--config"]) == 1
    assert "needs a value" in json.loads(capsys.readouterr().err)["message"]

    assert main(["chi", "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()


def test_unreadable_and_malformed_configs(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["chi", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["chi", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "JSON" in json.loads(capsys.readouterr().err)["message"]

    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    assert main(["chi", "--config", str(scalar), "--out", str(tmp_path / "o")]) == 1
    assert "object" in json.loads(capsys.readouterr().err)["message"]


DISC = {"type": "disc", "center": [0, 0], "r": 1.0}
DENS_CFG = {"model": SHOT_CFG["model"], "window": [0, 4, 0, 4], "epsilon": 0.05,
            "replicates": 8, "seed": 1}
HALF_DISC = {"type": "disc", "center": [0, 0], "r": 0.5}
PER_CFG = {"shape": HALF_DISC, "epsilons": [0.08, 0.04, 0.02], "quad_mesh": 1e-2,
           "directions": 8}
SWEEP_CFG = {"shape": HALF_DISC, "epsilons": [0.2, 0.1, 0.05], "quad_mesh": 1e-2}


@pytest.mark.parametrize("subcommand,cfg", [
    ("densities", {**DENS_CFG, "window": 5}),
    ("shotnoise", {**SHOT_CFG, "window": {"rects": [[0, 6, 0]]}}),
    ("shotnoise", {**SHOT_CFG, "window": {"rects": 5}}),
    ("shotnoise", {**SHOT_CFG, "replicates": "x"}),
    ("chi", {"shape": DISC, "epsilon": "abc"}),
    ("chi", {"shape": DISC, "epsilon": 0}),
    ("chi", {"shape": DISC, "epsilon": -0.1}),
    ("chi", {"shape": DISC, "epsilon": math.inf}),
    ("sweep", {"shape": DISC, "epsilons": 5}),
    # stabilized with plateau 1 on this annulus (chi 0) when read in this order
    ("sweep", {"shape": {"type": "annulus", "center": [0.13, 0.17], "r_in": 0.03,
                         "r_out": 1.0}, "epsilons": [0.01, 0.05, 0.1, 0.2, 0.4]}),
    ("bounds", {"truth": DISC, "h": 0.05, "epsilons": 5}),
    ("perimeter", {**PER_CFG, "quad_mesh": math.nan}),
    ("perimeter", {**PER_CFG, "quad_mesh": math.inf}),
    ("sweep", {**SWEEP_CFG, "quad_mesh": math.nan}),
    ("sweep", {**SWEEP_CFG, "quad_mesh": math.inf}),
    ("sweep", {**SWEEP_CFG, "window": {"rects": [[5, 6, 5, 6]]}}),
    ("bounds", {"truth": DISC, "h": 0.05, "epsilons": [0.2],
                "window": {"rects": [[5, 6, 5, 6]]}}),
    ("chi", {"shape": DISC, "epsilon": 0.1, "margin": -100}),
    ("sweep", {**SWEEP_CFG, "margin": -100}),
    ("bounds", {"truth": DISC, "h": 0.05, "epsilons": [0.2], "margin": -3}),
    ("chi", {"shape": DISC, "epsilon": 0.1, "margin": 2.5}),
    ("perimeter", {**PER_CFG, "directions": 4.9}),
    ("perimeter", {**PER_CFG, "directions": True}),
    ("shotnoise", {**SHOT_CFG, "replicates": 2.5}),
    ("densities", {**DENS_CFG, "replicates": True}),
    ("densities", {**DENS_CFG, "replicates": math.inf}),
    ("shotnoise", {**SHOT_CFG, "seed": 3.7}),
    ("shotnoise", {**SHOT_CFG, "seed": -1}),
    ("densities", {**DENS_CFG, "seed": -1}),
    ("bounds", {"truth": DISC, "h": 0.05, "epsilons": []}),
    ("chi", {"shape": DISC, "epsilon": 0.1, "seed": {"not": "a seed"}}),
    ("chi", {"shape": DISC, "epsilon": 0.1, "seed": -1}),
    ("sweep", {**SWEEP_CFG, "seed": "x"}),
    ("perimeter", {**PER_CFG, "seed": 2.5}),
    ("bounds", {"truth": DISC, "h": 0.05, "epsilons": [0.2], "seed": True}),
], ids=["densities-window-scalar", "shotnoise-rect-3-numbers", "shotnoise-rects-scalar",
        "shotnoise-replicates-text", "chi-epsilon-text", "chi-epsilon-zero",
        "chi-epsilon-negative", "chi-epsilon-infinite", "sweep-epsilons-scalar",
        "sweep-epsilons-increasing",
        "bounds-epsilons-scalar", "perimeter-quad-mesh-nan", "perimeter-quad-mesh-infinite",
        "sweep-quad-mesh-nan", "sweep-quad-mesh-infinite", "sweep-window-misses-shape",
        "bounds-window-misses-truth",
        "chi-margin-negative", "sweep-margin-negative", "bounds-margin-negative",
        "chi-margin-fraction", "perimeter-directions-fraction", "perimeter-directions-bool",
        "shotnoise-replicates-fraction", "densities-replicates-bool",
        "densities-replicates-infinite", "shotnoise-seed-fraction",
        "shotnoise-seed-negative", "densities-seed-negative", "bounds-epsilons-empty",
        "chi-seed-object", "chi-seed-negative", "sweep-seed-text",
        "perimeter-seed-fraction", "bounds-seed-bool"])
def test_malformed_config_value_exits_one(tmp_path, capsys, subcommand, cfg):
    code, _, report = run_cli(tmp_path, "badvalue", subcommand, cfg)
    assert code == 1
    assert report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert err["context"]["subcommand"] == subcommand


@pytest.mark.parametrize("subcommand,cfg", [
    ("perimeter", {**PER_CFG, "quad_mesh": 5.0}),
    ("sweep", {**SWEEP_CFG, "quad_mesh": 5.0}),
    ("perimeter", {**PER_CFG, "shape": DISC, "epsilons": [0.004, 0.002, 0.001]}),
    ("perimeter", {**PER_CFG, "shape": DISC, "epsilons": [0.02, 0.01, 0.005]}),
    ("sweep", {**SWEEP_CFG, "shape": DISC, "continuum_epsilon": 0.001}),
    ("sweep", {**SWEEP_CFG, "shape": DISC, "continuum_epsilon": 0.005}),
], ids=["perimeter", "sweep", "perimeter-shift-0.001", "perimeter-shift-0.005",
        "sweep-shift-0.001", "sweep-shift-0.005"])
def test_mesh_coarser_than_shape_exits_one(tmp_path, capsys, subcommand, cfg):
    # these reported a perimeter and a continuum chi of 0.0 (a mesh coarser
    # than the shape), and Per_inf 10.6 and 10.88 and chi -200 and 48 for a
    # unit disc (a mesh coarser than the shifts)
    code, _, report = run_cli(tmp_path, "coarse", subcommand, cfg)
    assert code == 1
    assert report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec"
    assert "coarser" in err["message"]


@pytest.mark.parametrize("subcommand,cfg", [
    ("chi", {"shape": DISC, "epsilon": 1e-6}),
    ("sweep", {"shape": DISC, "epsilons": [1e-300]}),
    ("bounds", {"truth": DISC, "h": 1e-300, "epsilons": [4e-300]}),
    ("sweep", {**SWEEP_CFG, "quad_mesh": 1e-300}),
], ids=["chi-epsilon", "sweep-epsilon", "bounds-h", "sweep-quad-mesh"])
def test_mesh_too_fine_to_allocate_exits_one(tmp_path, capsys, subcommand, cfg):
    # these used to exit 2 from a MemoryError (29.1 TiB for the chi grid) or
    # numpy's "Maximum allowed size exceeded"; now nothing grid-sized is allocated
    message = refused_before_allocating(tmp_path, capsys, subcommand, cfg)
    assert "2**31" in message and " x " in message


# a small valid run of each subcommand: a refused run is traced after one,
# so the modules that a first call imports (numpy.ma, inspect) do not count
# against its bound
WARM_CFG = {
    "chi": {"shape": DISC, "epsilon": 0.1},
    "sweep": {"shape": DISC, "epsilons": [0.2, 0.1, 0.05]},
    "bounds": {"truth": DISC, "h": 0.0625, "epsilons": [0.25]},
    "perimeter": PER_CFG,
    "shotnoise": {**SHOT_CFG, "replicates": 4},
    "densities": DENS_CFG,
}


def refused_before_allocating(tmp_path, capsys, subcommand, cfg) -> str:
    """The message of a run that exits 1 with InvalidSpec, tracing under 1 MiB at peak."""
    assert run_cli(tmp_path, "warm", subcommand, WARM_CFG[subcommand])[0] == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code, _, report = run_cli(tmp_path, "huge", subcommand, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert report is None
    assert peak < 1 << 20
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec"
    return err["message"]


def _model(**changes) -> dict:
    return {**SHOT_CFG["model"], **changes}


@pytest.mark.parametrize("subcommand,cfg", [
    ("shotnoise", {**SHOT_CFG, "model": _model(intensity=1e300)}),
    ("densities", {**DENS_CFG, "model": _model(intensity=1e300)}),
    ("shotnoise", {**SHOT_CFG, "model": _model(intensity=1e13)}),
    ("shotnoise", {**SHOT_CFG, "model": _model(grains=[{"rects": [[0, 1e300, 0, 1]],
                                                        "p": 1.0}])}),
], ids=["shotnoise-intensity", "densities-intensity", "shotnoise-intensity-1e13",
        "shotnoise-grain-extent"])
def test_germ_count_too_large_to_draw_exits_one(tmp_path, capsys, subcommand, cfg):
    # these used to exit 2 from numpy's "lam value too large" or a MemoryError
    # (10.2 PiB at intensity 1e13); now the count is refused before any draw
    message = refused_before_allocating(tmp_path, capsys, subcommand, cfg)
    assert "germ count" in message and "2**31" in message


def test_germ_count_beyond_host_memory_exits_one(tmp_path, capsys, monkeypatch):
    # 1.6e9 expected germs pass the 2**31 check but used to exit 2 with a
    # MemoryError; the host's memory is pinned so the refusal does not depend on it
    assert 0 < randomsets._physical_memory()
    monkeypatch.setattr(randomsets, "_physical_memory", lambda: 8.0 * 2**30)
    cfg = {**SHOT_CFG, "window": {"rects": [[0, 40000, 0, 40000]]}}
    message = refused_before_allocating(tmp_path, capsys, "shotnoise", cfg)
    assert "germ count" in message and "GiB" in message


@pytest.mark.parametrize("subcommand,cfg", [
    ("shotnoise", {**SHOT_CFG, "replicates": 1e308}),
    ("densities", {**DENS_CFG, "replicates": 1e308}),
], ids=["shotnoise", "densities"])
def test_replicates_beyond_host_memory_exit_one(tmp_path, capsys, monkeypatch, subcommand, cfg):
    # 1e308 replicates used to be accepted, and the run kept one result per
    # replicate until memory ran out; the host's memory is pinned so the
    # refusal does not depend on it
    monkeypatch.setattr(randomsets, "_physical_memory", lambda: 8.0 * 2**30)
    start = time.perf_counter()
    message = refused_before_allocating(tmp_path, capsys, subcommand, cfg)
    assert time.perf_counter() - start < 1.0
    assert "replicates" in message and "GiB" in message


FAR_DISC = {"type": "disc", "center": [1e308, 0], "r": 1.0}


@pytest.mark.parametrize("subcommand,cfg", [
    ("chi", {"shape": FAR_DISC, "epsilon": 0.1}),
    ("sweep", {"shape": FAR_DISC, "epsilons": [0.2, 0.1, 0.05]}),
    ("bounds", {"truth": FAR_DISC, "h": 0.05, "epsilons": [0.1]}),
], ids=["chi", "sweep", "bounds"])
def test_box_the_mesh_cannot_resolve_exits_one(tmp_path, capsys, subcommand, cfg):
    # a disc centred at 1e308 used to exit 2 with an OverflowError from the
    # lattice's integer bounds: its box over the mesh is not finite
    message = refused_before_allocating(tmp_path, capsys, subcommand, cfg)
    assert "cannot resolve" in message


def test_bounds_mesh_beyond_the_floats_exits_one(tmp_path, capsys):
    # 1e308 over the truth mesh is infinite; its rounding used to raise an
    # OverflowError and exit 2
    cfg = {"truth": HALF_DISC, "h": 0.0625, "epsilons": [1e308]}
    code, _, report = run_cli(tmp_path, "far", "bounds", cfg)
    assert code == 1
    assert report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MeshMismatch"


@pytest.mark.parametrize("coarse", [67108864.0, 1e30], ids=["2**31_cells", "1e30"])
def test_bounds_mesh_of_2_31_truth_cells_exits_one(tmp_path, capsys, coarse):
    # 67108864 over the truth mesh 2**-5 is 2**31 cells: the int32 box
    # indices used to overflow and exit 2
    cfg = {"truth": {"type": "disc", "center": [0, 0], "r": 0.5}, "h": 0.03125,
           "epsilons": [coarse]}
    code, _, report = run_cli(tmp_path, "wide", "bounds", cfg)
    assert code == 1
    assert report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MeshMismatch"


@pytest.mark.parametrize("epsilon", [1e-162, 1e-300])
def test_densities_epsilon_whose_square_underflows_exits_one(tmp_path, capsys, epsilon):
    # chi is read per epsilon**2, which is 0 here: the division used to
    # exit 2 with a ZeroDivisionError
    code, _, report = run_cli(tmp_path, "tiny", "densities", {**DENS_CFG, "epsilon": epsilon})
    assert code == 1
    assert report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec"
    assert "underflows" in err["message"]


FAMILY = {"type": "rect_family",
          "a": {"dist": "exponential", "scale": 1.0, "truncate_q": 0.99},
          "b": {"dist": "uniform", "low": 0.5, "high": 1.5}}


@pytest.mark.parametrize("subcommand,cfg,error,key", [
    ("shotnoise", {**SHOT_CFG, "model": _model(marks={
        "type": "exponential", "scale": 1.0, "truncate_q": 0.5})}, "InvalidSpec", "truncate_q"),
    ("shotnoise", {**SHOT_CFG, "model": _model(marks={
        "type": "uniform", "low": 0.5, "high": 1.5, "scale": 1.0})}, "InvalidSpec", "scale"),
    ("shotnoise", {**SHOT_CFG, "model": _model(grains={
        **FAMILY, "b": {**FAMILY["b"], "truncate_q": 0.5}})}, "InvalidSpec", "truncate_q"),
    ("shotnoise", {**SHOT_CFG, "model": _model(grains={
        **FAMILY, "a": {**FAMILY["a"], "low": 0.5}})}, "InvalidSpec", "low"),
    ("shotnoise", {**SHOT_CFG, "model": _model(grains=[
        {"rects": [[0, 1, 0, 1]], "p": 1.0, "q": 1.0}])}, "InvalidSpec", "q"),
    ("chi", {"shape": {**DISC, "rho": 7}, "epsilon": 0.1}, "InvalidSpec", "rho"),
    ("chi", {"shape": {"type": "annulus", "center": [0, 0], "r_in": 0.5, "r_out": 1.0,
                       "r": 1.0}, "epsilon": 0.1}, "InvalidSpec", "r"),
    ("chi", {"shape": {"type": "union", "members": [DISC], "r": 1.0}, "epsilon": 0.1},
     "InvalidSpec", "r"),
    ("chi", {"shape": DISC, "epsilon": 0.1, "dump_grd": True}, "ConfigInvalid", "dump_grd"),
    ("sweep", {"shape": HALF_DISC, "epsilons": [0.2, 0.1, 0.05], "continuum_epsilon": 0.05},
     "ConfigInvalid", "continuum_epsilon"),
], ids=["exponential-marks-truncate-q", "uniform-marks-scale", "uniform-edge-truncate-q",
        "exponential-edge-low", "grain-entry-q", "disc-rho", "annulus-r", "union-r",
        "chi-dump-grd", "sweep-continuum-epsilon-without-quad-mesh"])
def test_spec_refuses_keys_it_does_not_read(tmp_path, capsys, subcommand, cfg, error, key):
    # each of these keys used to be ignored, yet echoed in the report
    code, out_dir, report = run_cli(tmp_path, "unread", subcommand, cfg)
    assert code == 1
    assert report is None
    assert not (out_dir / "grid.pgm").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert repr(key) in err["message"]


@pytest.mark.parametrize("directions", [1e300, (1 << 16) + 1])
def test_directions_too_many_to_build_exits_one(tmp_path, capsys, directions):
    # 1e300 used to exit 2 with numpy's "Maximum allowed size exceeded"
    message = refused_before_allocating(tmp_path, capsys, "perimeter",
                                        {**PER_CFG, "directions": directions})
    assert "2**16 directions" in message


def test_unexpected_exception_exits_two(tmp_path, capsys, monkeypatch):
    # a library failure is not a config error, even when it is a ValueError
    def boom(grid):
        raise ValueError("unexpected failure inside the library")

    monkeypatch.setattr(cli, "config_counts", boom)
    code, _, _ = run_cli(tmp_path, "boom", "chi", {"shape": DISC, "epsilon": 0.1})
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["context"]["subcommand"] == "chi"


# ------------------------------------------------------------- config fuzzer

# one valid config per kind of run; every fuzz case mutates one of them
FUZZ_BASES = {
    "chi": ("chi", {"shape": HALF_DISC, "epsilon": 0.1}),
    "sweep": ("sweep", {"shape": {"type": "union", "members": [
                            {"type": "disc", "center": [-0.7, 0], "r": 0.5},
                            {"type": "disc", "center": [0.7, 0], "r": 0.5}]},
                        "window": {"rects": [[-1, 1, -0.3, 0.3]]},
                        "epsilons": [0.1, 0.05, 0.025], "quad_mesh": 0.01,
                        "continuum_epsilon": 0.05}),
    "perimeter": ("perimeter", PER_CFG),
    "bounds": ("bounds", {"truth": HALF_DISC, "h": 0.03125, "epsilons": [0.125, 0.25],
                          "window": {"rects": [[-0.6, 0.2, -0.6, 0.6]]}}),
    "mixture": ("shotnoise", {**SHOT_CFG, "model": _model(grains=[
                    {"rects": [[0, 1, 0, 1]], "p": 0.5},
                    {"rects": [[0, 1, 0, 0.4], [0.1, 0.5, 0.4, 1]], "p": 0.5}]),
                              "replicates": 4}),
    "family": ("shotnoise", {**SHOT_CFG, "model": _model(grains=FAMILY), "replicates": 4}),
    "densities": ("densities", {**DENS_CFG, "window": [0, 2, 0, 2], "replicates": 4}),
}
# the leaf values of the fuzzer; each one that only scales the work (1e308,
# 1e-300, 10**30 as a count, mesh or replicate number) is refused up front,
# so none is left out
FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1e308, 1e-300, -1e-9, "x", "", [], {},
               None, True, False, 10 ** 30, [0], [1, 0.5], [0, 1, 0, 1],
               {"type": "disc"}]
DELETE = object()


def _paths(node, path=()):
    # every key or index below the root, parents before their children
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(cfg, edits):
    cfg = copy.deepcopy(cfg)
    for path, value in edits:
        try:
            node = functools.reduce(operator.getitem, path[:-1], cfg)
            if value is DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit replaced or removed this path
    return cfg


_FUZZ_CASES = st.sampled_from(sorted(FUZZ_BASES)).flatmap(lambda name: st.tuples(
    st.just(name),
    st.lists(st.tuples(st.sampled_from(list(_paths(FUZZ_BASES[name][1]))),
                       st.sampled_from([*FUZZ_VALUES, DELETE])), min_size=1, max_size=2)))


@given(_FUZZ_CASES)
@example(("bounds", [(("epsilons", 0), 10 ** 30)]))
@example(("densities", [(("epsilon",), 1e-300)]))
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
def test_mutated_config_exits_zero_or_one(case):
    # a config with one or two leaves replaced or keys deleted either runs
    # or is refused with a JSON error line; it never exits 2
    name, edits = case
    subcommand, base = FUZZ_BASES[name]
    cfg = _mutated(base, edits)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", str(cfg_path), "--out", str(Path(tmp) / "o"),
                         "--no-timestamp"])
    assert code in (0, 1), (subcommand, cfg, err.getvalue())
    if code == 1:
        assert set(json.loads(err.getvalue().splitlines()[-1])) == {
            "error", "message", "context"}
