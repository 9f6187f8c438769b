"""Experiment runner: one JSON config in, reproducible report files out.

Every subcommand reads a single JSON config, runs one experiment, and
writes ``report.json`` plus CSV tables into the output directory; ``chi``
can also dump its grid as ``grid.pgm``, a binary P4 (PBM) bitmap despite
the extension.  The report header embeds the fully resolved config
and the seed, so a report is reproducible from itself alone; with
``--no-timestamp`` two runs of the same config+seed are byte-identical.

Replicate loops run serially with derived seeds (seed + index) and
order-independent reductions, so a parallel runner would produce the same
report content.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import sys
from pathlib import Path

from .entanglement import verify_bounds
from .errors import ConfigInvalid, EulergramError, UnsupportedMarkLaw, _only_keys
from .lattice import IndicatorSet, digitize, lattice_covering, write_pgm
from .randomsets import (
    _DENSITY_KEYS,
    ShotNoiseModel,
    _mean_stderr,
    _realizations,
    _replicate_features,
    estimate_stationary_densities,
    mean_chi_closed_form,
    stationary_density_closed_form,
)
from .shapes import PolyRectangle, _intersect_runs, make_shape
from .topology import _component_counts, _window_counts, config_counts
from .variogram import _circle, _circle_mean, chi_bicovariogram, directional_perimeters

__all__ = ["main"]

_USAGE = "usage: eulergram <subcommand> --config path.json --out dir/ [--no-timestamp]"


# ------------------------------------------------------------ config access

def _read(cfg: dict, key: str, parse):
    """``parse(cfg[key])``; a missing key or a Key/Type/Value/OverflowError is ConfigInvalid."""
    if key not in cfg:
        raise ConfigInvalid(f"config is missing required key {key!r}")
    try:
        return parse(cfg[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"malformed {key!r}: {type(exc).__name__} {exc}") from exc


def _positive(value) -> float:
    if not 0 < float(value) < math.inf:
        raise ValueError(f"must be positive and finite, got {value!r}")
    return float(value)


def _positives(values) -> list[float]:
    if not values:
        raise ValueError("must be a nonempty list")
    return [_positive(v) for v in values]


def _decreasing(values) -> list[float]:
    eps = _positives(values)
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError(f"must be strictly decreasing, got {values!r}")
    return eps


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _whole(value) -> int:
    if isinstance(value, bool) or int(value) != float(value):
        raise ValueError(f"must be a whole number, got {value!r}")
    return int(value)


def _nonnegative(value) -> int:
    n = _whole(value)
    if n < 0:
        raise ValueError(f"must be a nonnegative whole number, got {value!r}")
    return n


def _rect(value) -> tuple[float, float, float, float]:
    x0, x1, y0, y1 = (float(v) for v in value)
    return x0, x1, y0, y1


def _polyrect(spec) -> PolyRectangle:
    _only_keys(spec, ("rects",), "window", ConfigInvalid)
    return PolyRectangle(rects=tuple(_rect(r) for r in spec["rects"]))


def _window_box(ind: IndicatorSet, w: PolyRectangle) -> tuple[float, float, float, float]:
    """The intersection of the set's and the window's bounding boxes; ConfigInvalid if empty."""
    bx0, bx1, by0, by1 = ind.bounding_box
    wx0, wx1, wy0, wy1 = w.bounding_box
    box = (max(bx0, wx0), min(bx1, wx1), max(by0, wy0), min(by1, wy1))
    if box[0] > box[1] or box[2] > box[3]:
        raise ConfigInvalid(f"window misses the shape's bounding box {ind.bounding_box}")
    return box


def _clip_to_window(ind: IndicatorSet, w: PolyRectangle) -> IndicatorSet:
    def contains(x, y):
        return ind.contains(x, y) & w.contains(x, y)

    def row_runs(xs, ys, dx):
        return _intersect_runs(ind.row_runs(xs, ys, dx), w.row_runs(xs, ys, dx))

    return IndicatorSet(contains=contains, bounding_box=_window_box(ind, w), row_runs=row_runs)


def _digitize_at(ind: IndicatorSet, epsilon: float, margin: int = 2):
    return digitize(ind, lattice_covering(ind.bounding_box, epsilon, margin=margin))


# ---------------------------------------------------------------- reporting

def _write_report(out_dir: Path, subcommand: str, resolved: dict, seed,
                  timestamp: bool, results: dict, tables: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"subcommand": subcommand, "config": resolved, "seed": seed,
              "results": results}
    if timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds")
    text = json.dumps(report, indent=2, sort_keys=True)
    (out_dir / "report.json").write_text(text + "\n")
    for name, (header, rows) in tables.items():
        with open(out_dir / name, "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(header)
            wr.writerows(rows)


# -------------------------------------------------------------- subcommands

def _run_chi(cfg: dict, out_dir: Path, timestamp: bool) -> None:
    resolved = {"margin": 2, "dump_grid": False, **cfg}
    epsilon = _read(resolved, "epsilon", _positive)
    dump_grid = _read(resolved, "dump_grid", _flag)
    grid = _digitize_at(_read(resolved, "shape", make_shape), epsilon,
                        margin=_read(resolved, "margin", _nonnegative))
    # one pass of the window kernel gives chi_vef; the holes are components minus chi_vef
    counts = config_counts(grid)
    n4 = _component_counts(grid.bits, 4)
    results = {
        "epsilon": epsilon,
        "admissible": counts.admissible,
        "phi_out": counts.phi_out,
        "phi_in": counts.phi_in,
        "chi_local": counts.phi_out - counts.phi_in if counts.admissible else None,
        "chi_vef": counts.chi,
        "num_components": n4,
        "num_bounded_holes": n4 - counts.chi,
        "chi_components": counts.chi,
    }
    _write_report(out_dir, "chi", resolved, resolved.get("seed"), timestamp,
                  results, {})
    if dump_grid:
        write_pgm(grid, out_dir / "grid.pgm")


def _run_sweep(cfg: dict, out_dir: Path, timestamp: bool) -> None:
    resolved = {"margin": 2, **cfg}
    ind = _read(resolved, "shape", make_shape)
    if "window" in resolved:
        ind = _clip_to_window(ind, _read(resolved, "window", _polyrect))
    # the plateau is read at the finest meshes, the end of the list
    epsilons = _read(resolved, "epsilons", _decreasing)
    margin = _read(resolved, "margin", _nonnegative)
    rows = []
    for eps in epsilons:
        counts = _window_counts(_digitize_at(ind, eps, margin=margin).bits)
        rows.append((eps, counts.chi, counts.phi_x_set + counts.phi_x_complement))
    chis = [row[1] for row in rows]
    xs = [row[2] for row in rows]
    # a plateau needs admissible meshes: at an X-configuration two cells meet
    # only at a corner, and the mesh has not resolved the shape there
    stabilized = len(chis) >= 3 and len(set(chis[-3:])) == 1 and not any(xs[-3:])
    results = {
        "epsilons": epsilons,
        "chi_values": chis,
        "x_configurations": xs,
        "stabilized": stabilized,
        "plateau": chis[-1] if stabilized else None,
    }
    if "quad_mesh" in resolved:
        resolved.setdefault("continuum_epsilon", min(epsilons))
        cont_eps = _read(resolved, "continuum_epsilon", _positive)
        results["chi_continuum"] = chi_bicovariogram(
            ind, cont_eps, _read(resolved, "quad_mesh", _positive))
        results["continuum_epsilon"] = cont_eps
    elif "continuum_epsilon" in resolved:
        raise ConfigInvalid("'continuum_epsilon' is read only with 'quad_mesh'")
    _write_report(out_dir, "sweep", resolved, resolved.get("seed"), timestamp,
                  results, {"sweep.csv": (("epsilon", "chi", "x_configurations"), rows)})


def _run_perimeter(cfg: dict, out_dir: Path, timestamp: bool) -> None:
    resolved = {"directions": 64, **cfg}
    ind = _read(resolved, "shape", make_shape)
    epsilons = _read(resolved, "epsilons", _positives)
    quad_mesh = _read(resolved, "quad_mesh", _positive)
    n_dir = _read(resolved, "directions", _whole)
    est1, est2, *around = directional_perimeters(
        ind, [(1.0, 0.0), (0.0, 1.0), *_circle(n_dir)], epsilons, quad_mesh)
    per_inf = est1.extrapolated + est2.extrapolated
    per = _circle_mean(around)
    # Per <= Per_inf <= sqrt(2) Per, with quadrature slack
    tol = 1e-6 + 0.01 * max(per, per_inf)
    results = {
        "per_u1": est1.extrapolated,
        "per_u2": est2.extrapolated,
        "per_inf": per_inf,
        "per": per,
        "directions": n_dir,
        "sandwich_ok": (per <= per_inf + tol) and (per_inf <= math.sqrt(2) * per + tol),
    }
    tables = {
        "per_u1.csv": (("epsilon", "value"), est1.rows()),
        "per_u2.csv": (("epsilon", "value"), est2.rows()),
    }
    _write_report(out_dir, "perimeter", resolved, resolved.get("seed"),
                  timestamp, results, tables)


def _run_bounds(cfg: dict, out_dir: Path, timestamp: bool) -> None:
    resolved = {"margin": 4, **cfg}
    ind = _read(resolved, "truth", make_shape)
    h = _read(resolved, "h", _positive)
    epsilons = _read(resolved, "epsilons", _positives)
    window = _read(resolved, "window", _polyrect) if "window" in resolved else None
    if window is not None:
        _window_box(ind, window)
    grid = _digitize_at(ind, h, margin=_read(resolved, "margin", _nonnegative))
    header = ("epsilon", "n_interior", "n_boundary", "corners",
              "components_digitized", "components_truth", "bound_rhs", "holds",
              "chi_abs", "chi_bound_rhs", "chi_holds")
    rows = []
    all_hold = True
    for eps, rep in zip(epsilons, verify_bounds(grid, epsilons, window)):
        all_hold &= rep.holds and rep.chi_holds
        rows.append((eps, rep.n_interior, rep.n_boundary, rep.corners,
                     rep.num_components_digitized, rep.num_components_truth,
                     rep.bound_rhs, rep.holds, rep.chi_abs, rep.chi_bound_rhs,
                     rep.chi_holds))
    results = {"h": h, "all_bounds_hold": bool(all_hold), "trials": len(rows)}
    _write_report(out_dir, "bounds", resolved, resolved.get("seed"), timestamp,
                  results, {"bounds.csv": (header, rows)})


def _run_shotnoise(cfg: dict, out_dir: Path, timestamp: bool) -> None:
    resolved = dict(cfg)
    model = _read(resolved, "model", ShotNoiseModel.from_config)
    window = _read(resolved, "window", _polyrect)
    replicates = _read(resolved, "replicates", _whole)
    seed = _read(resolved, "seed", _nonnegative)

    feats = _replicate_features(_realizations(model, window.bounding_box, replicates, seed),
                                model.level, window)
    rows = [(seed + i, f["chi"], f["per1"] + f["per2"], f["vol"])
            for i, f in enumerate(feats)]
    stats = _mean_stderr([f["chi"] for f in feats])
    mean, stderr = stats["mean"], stats["stderr"]

    try:
        closed = mean_chi_closed_form(model, window)
    except UnsupportedMarkLaw:
        closed = None

    results = {
        "closed_form": closed,
        "mc_mean": mean,
        "mc_stderr": stderr,
        "replicates": replicates,
        "abs_diff": None if closed is None else abs(mean - closed),
        "within_3_stderr": None if closed is None
        else bool(abs(mean - closed) <= 3.0 * stderr),
    }
    _write_report(out_dir, "shotnoise", resolved, seed, timestamp, results,
                  {"replicates.csv": (("seed", "chi", "per_inf", "vol"), rows)})


def _run_densities(cfg: dict, out_dir: Path, timestamp: bool) -> None:
    resolved = dict(cfg)
    model = _read(resolved, "model", ShotNoiseModel.from_config)
    window = _read(resolved, "window", _rect)
    epsilon = _read(resolved, "epsilon", _positive)
    replicates = _read(resolved, "replicates", _whole)
    seed = _read(resolved, "seed", _nonnegative)
    d = estimate_stationary_densities(model, epsilon, window, replicates, seed)
    try:
        reference = stationary_density_closed_form(model)
    except UnsupportedMarkLaw:
        reference = None
    results = {"epsilon": epsilon, **d, "closed_form_reference": reference}
    rows = [(density, d[density], d[stderr]) for density, stderr in _DENSITY_KEYS]
    _write_report(out_dir, "densities", resolved, seed, timestamp, results,
                  {"densities.csv": (("quantity", "estimate", "stderr"), rows)})


# each runner and the config keys it reads besides "seed", which every report records
_RUNNERS = {
    "chi": (_run_chi, ("shape", "epsilon", "margin", "dump_grid")),
    "sweep": (_run_sweep, ("shape", "window", "epsilons", "margin", "quad_mesh",
                           "continuum_epsilon")),
    "perimeter": (_run_perimeter, ("shape", "epsilons", "quad_mesh", "directions")),
    "bounds": (_run_bounds, ("truth", "h", "epsilons", "window", "margin")),
    "shotnoise": (_run_shotnoise, ("model", "window", "replicates")),
    "densities": (_run_densities, ("model", "window", "epsilon", "replicates")),
}


# --------------------------------------------------------------- entrypoint

def _parse_args(argv: list[str]):
    if not argv:
        raise ConfigInvalid(_USAGE)
    subcommand, config_path, out_dir, timestamp = argv[0], None, None, True
    i = 1
    while i < len(argv):
        flag = argv[i]
        if flag == "--no-timestamp":
            timestamp = False
            i += 1
            continue
        if flag in ("--config", "--out"):
            if i + 1 >= len(argv):
                raise ConfigInvalid(f"{flag} needs a value; {_USAGE}")
            if flag == "--config":
                config_path = argv[i + 1]
            else:
                out_dir = argv[i + 1]
            i += 2
            continue
        raise ConfigInvalid(f"unknown flag {flag!r}; {_USAGE}")
    if subcommand not in _RUNNERS:
        raise ConfigInvalid(
            f"unknown subcommand {subcommand!r}; choose from {sorted(_RUNNERS)}")
    if config_path is None or out_dir is None:
        raise ConfigInvalid(_USAGE)
    return subcommand, Path(config_path), Path(out_dir), timestamp


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    subcommand = argv[0] if argv else None
    try:
        subcommand, config_path, out_dir, timestamp = _parse_args(argv)
        try:
            cfg = json.loads(config_path.read_text())
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config {config_path} is not valid JSON: {exc}") from exc
        run, keys = _RUNNERS[subcommand]
        _only_keys(cfg, ("seed", *keys), f"{subcommand} config", ConfigInvalid)
        if "seed" in cfg:  # the runners that draw replicates also require it
            _read(cfg, "seed", _nonnegative)
        run(cfg, out_dir, timestamp)
        return 0
    except Exception as exc:  # reported as JSON; an EulergramError exits 1, any other 2
        payload = {"error": type(exc).__name__, "message": str(exc),
                   "context": {"subcommand": subcommand}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1 if isinstance(exc, EulergramError) else 2


if __name__ == "__main__":
    sys.exit(main())
