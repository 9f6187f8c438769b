"""Seeded CLI jobs of the benchmark workloads and the gate each output must pass.

A workload is a list of ``Job``s built from the benchmark seed alone; the
program only ever sees the JSON configs written from them.  Every job
carries the analytic truth its invariants are checked against, so the gate
holds for any seed, and the input sizes reported as provenance.

Why these workloads (and which ROADMAP target each exercises or bypasses):

* ``digital``: exact digitized chi and component bounds.  Big lattices far
  larger than L2 go through ``lattice.digitize``, ``topology`` and
  ``entanglement``; ``bounds`` is bound by Python call overhead.  Exercises
  item 3 (one bit-quad kernel) and 2c (pair screening); bypasses
  ``variogram`` and ``randomsets``, so it is the no-change side of 2a, 2b.
* ``continuum``: bicovariogram and perimeter quadrature.  The first sweep
  uses only mesh-aligned shifts (row-cache path), the perimeter job 72
  unaligned shifts (a fresh predicate evaluation each), the windowed sweep
  a set without ``signed_distance`` (the dense path 2a keeps).  Exercises
  2a; bypasses ``entanglement`` and ``randomsets`` (no-change side of 2b, 2c).
* ``shotnoise``: exact level-set geometry of shot-noise fields.  Sparse
  replicates are dominated by per-rectangle stamping, dense ones by
  O(germs^2) arrangement arrays, ``densities`` stamps five shifted fields
  per replicate.  Exercises 2b; bypasses ``lattice``, ``topology``,
  ``variogram`` and ``entanglement`` (no-change side of 2a, 2c, item 3).
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Result fields that ROADMAP open item 1 (the shot-noise closed form) will
# legitimately change; they are reported, never gated or recorded.
CLOSED_FORM_FIELDS = ("closed_form", "boolean_closed_form", "closed_form_reference",
                      "within_3_stderr", "abs_diff")

REL_TOL = 1e-9


@dataclass(frozen=True)
class Job:
    """One ``eulergram <subcommand>`` run: its config and what it must produce."""

    name: str
    subcommand: str
    config: dict
    truth: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


# ----------------------------------------------------------------- sizes

def _lattice_shape(box, eps, margin):
    # same covering rule as the CLI: epsilon*Z^2 anchored, margin cells each side
    x0, x1, y0, y1 = box
    nx = math.ceil(x1 / eps) - math.floor(x0 / eps) + 2 * margin + 1
    ny = math.ceil(y1 / eps) - math.floor(y0 / eps) + 2 * margin + 1
    return ny, nx


def quad_cells(box, grow, h):
    """Midpoint cells of one sweep over ``box`` grown by the largest shift."""
    x0, x1, y0, y1 = box
    return round((x1 - x0 + 2 * grow) / h) * round((y1 - y0 + 2 * grow) / h)


def _union_box(members):
    boxes = []
    for m in members:
        cx, cy = m["center"]
        r = m["r"] if m["type"] == "disc" else m["r_out"]
        boxes.append((cx - r, cx + r, cy - r, cy + r))
    return (min(b[0] for b in boxes), max(b[1] for b in boxes),
            min(b[2] for b in boxes), max(b[3] for b in boxes))


# ------------------------------------------------------------- workloads

def _discs_and_annuli(rng: random.Random, slots: int, annulus_cells, pitch: float):
    """Separated discs and annuli, one per cell of a slots x slots layout.

    The cells that hold annuli are fixed; the seed picks the hole radii and
    a small centre jitter.  Outer radii are fixed too, so the work barely
    depends on the seed: when the seed also chose the annulus cells, the
    windowed ``bounds`` job took about 10% longer on some seeds than on
    others, depending on which annuli the window cut.
    """
    r = 0.33 * pitch
    members = []
    for k in range(slots * slots):
        cx = pitch * (k % slots + 0.5) + rng.uniform(-0.01, 0.01)
        cy = pitch * (k // slots + 0.5) + rng.uniform(-0.01, 0.01)
        if k not in annulus_cells:
            members.append({"type": "disc", "center": [cx, cy], "r": r})
        else:
            members.append({"type": "annulus", "center": [cx, cy],
                            "r_in": r - rng.uniform(0.12, 0.18) * pitch, "r_out": r})
    return members


def digital_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"digital-{seed}")
    members = _discs_and_annuli(rng, slots=3, annulus_cells=(1, 3, 5, 7), pitch=1.0)
    shape = {"type": "union", "members": members}
    chi = sum(1 for m in members if m["type"] == "disc")
    box = _union_box(members)
    eps_chi = 0.002
    sweep_eps = [0.04, 0.02, 0.01, 0.005, 0.002]
    h = 1.0 / 192
    window = {"rects": [[0.25, 2.05, 0.2, 2.8], [1.6, 2.75, 0.45, 1.55]]}

    def points(eps, margin):
        ny, nx = _lattice_shape(box, eps, margin)
        return nx * ny

    ny, nx = _lattice_shape(box, eps_chi, 2)
    return [
        Job("chi", "chi",
            {"shape": shape, "epsilon": eps_chi, "dump_grid": True},
            truth={"chi": chi, "grid_shape": [ny, nx]},
            sizes={"grid_shape": [ny, nx], "lattice_points": nx * ny}),
        Job("sweep", "sweep",
            {"shape": shape, "epsilons": sweep_eps},
            truth={"chi": chi},
            sizes={"lattice_points": sum(points(e, 2) for e in sweep_eps)}),
        Job("bounds", "bounds",
            {"truth": shape, "h": h, "epsilons": [4 * h, 8 * h, 16 * h],
             "window": window},
            truth={"trials": 3},
            sizes={"grid_shape": list(_lattice_shape(box, h, 4)),
                   "lattice_points": points(h, 4)}),
    ]


def continuum_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"continuum-{seed}")
    # meshes divide continuum_epsilon, so every bicovariogram shift is aligned
    quad_mesh, window_mesh, cont_eps = 5e-4, 3.125e-4, 0.05
    per_mesh, per_eps, directions = 5e-3, [0.08, 0.04, 0.02], 24

    def jitter():
        return [rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)]

    disc = {"type": "disc", "center": jitter(), "r": 1.0}
    c = disc["center"]
    disc_box = (c[0] - 1.0, c[0] + 1.0, c[1] - 1.0, c[1] + 1.0)

    r_in, r_out = rng.uniform(0.35, 0.45), 1.0
    annulus = {"type": "annulus", "center": jitter(), "r_in": r_in, "r_out": r_out}
    a = annulus["center"]
    ann_box = (a[0] - r_out, a[0] + r_out, a[1] - r_out, a[1] + r_out)
    radii = r_in + r_out
    # three sweeps (two axis directions, then all variational directions),
    # each over the box grown by the largest shift, max(eps)
    per_cells = 3 * quad_cells(ann_box, per_eps[0], per_mesh)

    # two discs cut by a fixed-size window: each piece is convex (chi 1),
    # and the clipped set has no signed distance
    left = {"type": "disc", "center": [-0.7 + jitter()[0], 0.0], "r": 0.5}
    right = {"type": "disc", "center": [0.7 + jitter()[0], 0.0], "r": 0.5}
    shift = jitter()[1]
    clip = [-1.0, 1.0, -0.3 + shift, 0.3 + shift]
    x0 = max(left["center"][0] - 0.5, clip[0])
    x1 = min(right["center"][0] + 0.5, clip[1])
    clip_box = (x0, x1, clip[2], clip[3])

    return [
        Job("sweep", "sweep",
            {"shape": disc, "epsilons": [0.2, 0.1, 0.05], "quad_mesh": quad_mesh,
             "continuum_epsilon": cont_eps},
            truth={"chi": 1},
            sizes={"quad_points": quad_cells(disc_box, cont_eps, quad_mesh)}),
        Job("perimeter", "perimeter",
            {"shape": annulus, "epsilons": per_eps, "quad_mesh": per_mesh,
             "directions": directions},
            truth={"per": 2 * math.pi * radii, "per_u": 4 * radii},
            sizes={"quad_points": per_cells, "shifts": (2 + directions) * len(per_eps)}),
        Job("sweep_window", "sweep",
            {"shape": {"type": "union", "members": [left, right]},
             "window": {"rects": [clip]}, "epsilons": [0.1, 0.05, 0.025],
             "quad_mesh": window_mesh, "continuum_epsilon": cont_eps},
            truth={"chi": 2},
            sizes={"quad_points": quad_cells(clip_box, cont_eps, window_mesh)}),
    ]


def _coverage_tail(intensity, mean_area, marks, level):
    """P(f(0) >= level): covering grains per mark atom are independent Poisson."""
    law = {0.0: 1.0}
    for value, p in marks:
        rate = intensity * mean_area * p
        terms = [math.exp(-rate)]
        while sum(terms) < 1.0 - 1e-15:
            terms.append(terms[-1] * rate / len(terms))
        nxt = {}
        for v, q in law.items():
            for k, t in enumerate(terms):
                nxt[v + k * value] = nxt.get(v + k * value, 0.0) + q * t
        law = nxt
    return 1.0 - math.fsum(q for v, q in law.items() if v < level)


def shotnoise_jobs(seed: int) -> list[Job]:
    unit = [[0.0, 1.0, 0.0, 1.0]]
    tee = [[0.0, 1.0, 0.0, 0.4], [0.1, 0.5, 0.4, 1.0]]
    reference = {"intensity": 1.0, "grains": [{"rects": unit, "p": 1.0}],
                 "marks": [{"value": 1.0, "p": 1.0}], "lambda": 1.5}
    dense = {"intensity": 3.0,
             "grains": [{"rects": unit, "p": 0.5}, {"rects": tee, "p": 0.5}],
             "marks": [{"value": 1.0, "p": 0.7}, {"value": 2.0, "p": 0.3}],
             "lambda": 2.5}
    tee_area = 1.0 * 0.4 + 0.4 * 0.6
    ref_tail = _coverage_tail(1.0, 1.0, [(1.0, 1.0)], 1.5)
    dense_tail = _coverage_tail(3.0, 0.5 * (1.0 + tee_area), [(1.0, 0.7), (2.0, 0.3)], 2.5)
    # replicate seeds run seed, seed+1, ...; keep the three jobs' streams apart
    base = 100_000 * seed
    # The dense job uses a 7x7 window (about 240 germs) and many replicates:
    # a replicate's cost varies by about 20% with its germs, so the job's
    # time varies less from one benchmark seed to the next when it averages
    # more of them (16 replicates on a 10x10 window varied by about 10%).
    n_ref, n_dense, n_dens = 80, 64, 40

    def germs(intensity, side, pad):
        return intensity * (side + 2 * pad) ** 2

    return [
        Job("shotnoise", "shotnoise",
            {"model": reference, "window": {"rects": [[0, 10, 0, 10]]},
             "replicates": n_ref, "seed": base + 1},
            truth={"vol_fraction": ref_tail, "area": 100.0},
            sizes={"replicates": n_ref, "expected_germs": germs(1.0, 10, 1)}),
        Job("shotnoise_dense", "shotnoise",
            {"model": dense, "window": {"rects": [[0, 7, 0, 7]]},
             "replicates": n_dense, "seed": base + 20_001},
            truth={"vol_fraction": dense_tail, "area": 49.0},
            sizes={"replicates": n_dense, "expected_germs": germs(3.0, 7, 1)}),
        Job("densities", "densities",
            {"model": reference, "window": [0, 6, 0, 6], "epsilon": 0.01,
             "replicates": n_dens, "seed": base + 40_001},
            truth={"vol_fraction": ref_tail},
            sizes={"replicates": n_dens, "expected_germs": germs(1.0, 6.02, 1)}),
    ]


WORKLOADS = {
    "digital": digital_jobs,
    "continuum": continuum_jobs,
    "shotnoise": shotnoise_jobs,
}


# -------------------------------------------------------------- outputs

def read_outputs(out_dir: Path) -> dict:
    """The job's report results and CSV tables, each table as column -> values."""
    report = json.loads((out_dir / "report.json").read_text())
    tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        tables[path.name] = {col: [_num(row[i]) for row in rows]
                             for i, col in enumerate(header)}
    return {"results": report["results"], "tables": tables}


def _num(text: str):
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def estimator_outputs(job: Job, outputs: dict) -> dict:
    """What must stay identical across commits: results minus closed forms,
    plus the CSV columns (per-replicate float columns as their sums)."""
    rec = {k: v for k, v in outputs["results"].items() if k not in CLOSED_FORM_FIELDS}
    for name, table in outputs["tables"].items():
        for col, values in table.items():
            if name == "replicates.csv" and col in ("per_inf", "vol"):
                rec[f"{name}:{col}:sum"] = math.fsum(values)
            else:
                rec[f"{name}:{col}"] = values
    return rec


def compare_recorded(recorded: dict, current: dict, path: str = "") -> list[str]:
    """Integers and booleans exact, floats within REL_TOL relative."""
    if isinstance(recorded, dict):
        if not isinstance(current, dict):
            return [f"{path}: expected an object"]
        errs = []
        for k, v in recorded.items():
            if k not in current:
                errs.append(f"{path}/{k}: missing")
            else:
                errs += compare_recorded(v, current[k], f"{path}/{k}")
        return errs
    if isinstance(recorded, list):
        if not isinstance(current, list) or len(current) != len(recorded):
            return [f"{path}: expected a list of {len(recorded)}"]
        errs = []
        for i, (a, b) in enumerate(zip(recorded, current)):
            errs += compare_recorded(a, b, f"{path}[{i}]")
        return errs
    if isinstance(recorded, float) or isinstance(current, float):
        if (isinstance(current, bool) or not isinstance(current, (int, float))
                or isinstance(recorded, bool)):
            return [f"{path}: {current!r} != {recorded!r}"]
        if abs(current - recorded) <= REL_TOL * max(abs(recorded), 1e-300):
            return []
        return [f"{path}: {current!r} != {recorded!r}"]
    if type(current) is not type(recorded) or current != recorded:
        return [f"{path}: {current!r} != {recorded!r}"]
    return []


# ------------------------------------------------------------------ gate

def _close(value, target, rel):
    return value is not None and abs(value - target) <= rel * abs(target)


def check_invariants(job: Job, outputs: dict, out_dir: Path) -> list[str]:
    """Seed-independent checks against the job's analytic truth."""
    res = outputs["results"]
    t = job.truth
    errs = []

    def need(ok, what):
        if not ok:
            errs.append(what)

    if job.name == "chi":
        need(res["admissible"] is True, "grid not admissible")
        need(res["chi_local"] == res["chi_vef"] == res["chi_components"] == t["chi"],
             f"chi_local/vef/components {res['chi_local']}/{res['chi_vef']}/"
             f"{res['chi_components']} != {t['chi']}")
        ny, nx = t["grid_shape"]
        raw = (out_dir / "grid.pgm").read_bytes()
        header = b"P4\n%d %d\n" % (nx, ny)
        need(raw.startswith(header) and len(raw) == len(header) + ny * ((nx + 7) // 8),
             "grid.pgm has the wrong shape or size")
    elif job.subcommand == "sweep":
        need(all(c == t["chi"] for c in res["chi_values"]),
             f"digitized chi {res['chi_values']} != {t['chi']}")
        need(res["stabilized"] is True and res["plateau"] == t["chi"], "no plateau")
        if "quad_mesh" in job.config:
            cont = res.get("chi_continuum")
            need(cont is not None and abs(cont - t["chi"]) <= 0.05,
                 f"continuum chi {cont} not within 0.05 of {t['chi']}")
    elif job.name == "bounds":
        need(res["all_bounds_hold"] is True, "a component or chi bound fails")
        need(res["trials"] == t["trials"], "wrong trial count")
    elif job.name == "perimeter":
        need(res["sandwich_ok"] is True, "Per <= Per_inf <= sqrt(2) Per fails")
        need(_close(res["per"], t["per"], 0.02), f"per {res['per']} vs {t['per']}")
        for key in ("per_u1", "per_u2"):
            need(_close(res[key], t["per_u"], 0.02), f"{key} {res[key]} vs {t['per_u']}")
        need(_close(res["per_inf"], 2 * t["per_u"], 0.02),
             f"per_inf {res['per_inf']} vs {2 * t['per_u']}")
    elif job.subcommand == "shotnoise":
        table = outputs["tables"]["replicates.csv"]
        chis, pers, vols = table["chi"], table["per_inf"], table["vol"]
        n = job.config["replicates"]
        seed = job.config["seed"]
        need(res["replicates"] == n and len(chis) == n, "wrong replicate count")
        need(table["seed"] == list(range(seed, seed + n)), "replicate seeds")
        need(all(isinstance(c, int) for c in chis), "non-integer chi")
        need(math.fsum(chis) / n == res["mc_mean"], "mc_mean != mean of chi")
        need(all(p >= 0 for p in pers) and all(0 <= v <= t["area"] for v in vols),
             "perimeter or area out of range")
        need(res["mc_stderr"] > 0, "zero standard error")
        # excursion area fraction against the exact Poisson coverage law
        fracs = [v / t["area"] for v in vols]
        mean = math.fsum(fracs) / n
        se = math.sqrt(math.fsum((f - mean) ** 2 for f in fracs) / (n - 1) / n)
        need(abs(mean - t["vol_fraction"]) <= 5 * se,
             f"area fraction {mean:.4f} +- {se:.4f} vs exact {t['vol_fraction']:.4f}")
    elif job.name == "densities":
        errs_ok = all(res[k] > 0 and math.isfinite(res[k]) for k in
                      ("chi_stderr", "per_u1_stderr", "per_u2_stderr", "vol_stderr"))
        need(errs_ok, "standard errors must be positive and finite")
        need(abs(res["vol_bar"] - t["vol_fraction"]) <= 5 * res["vol_stderr"],
             f"vol_bar {res['vol_bar']} vs exact {t['vol_fraction']}")
        need(res["epsilon"] == job.config["epsilon"], "epsilon not echoed")
    return errs


def closed_form_info(job: Job, outputs: dict) -> dict | None:
    """Closed form against Monte Carlo, reported and never gated."""
    res = outputs["results"]
    if job.subcommand == "shotnoise":
        closed, mean, se = res["closed_form"], res["mc_mean"], res["mc_stderr"]
    elif job.subcommand == "densities":
        ref = res.get("closed_form_reference") or {}
        closed, mean, se = ref.get("chi_bar"), res["chi_bar"], res["chi_stderr"]
    else:
        return None
    z = None if closed is None or not se else (mean - closed) / se
    return {"closed_form": closed, "mc_mean": mean, "mc_stderr": se, "z": z}
