"""In-memory span tracer wrapped around eulergram's public functions.

``Tracer.install`` replaces every module-global that names a public
eulergram function (one listed in its module's ``__all__``) with a wrapper
that records a span, in each of the seven modules, so calls are seen at
their import sites: ``cli``'s own names, ``entanglement.label_components``,
``topology.config_counts`` inside ``chi_local`` and so on.  The
``IndicatorSet`` returned by ``make_shape`` to the CLI gets a traced
``contains``.  No library source is touched; ``uninstall`` restores every
original.

A span is (job, name, start, end, parent index).  Self time is a span's
duration minus the durations of its direct children, so a job's self times
sum to its root ``cli.main`` span.  Work counts are recorded at the same
boundaries, keyed by job.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import math
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from workloads import quad_cells

LAYERS = ("cli", "lattice", "shapes", "topology", "variogram", "entanglement", "randomsets")

# the three closed-form evaluators are one layer metric
_RENAME = {
    "randomsets.mean_chi_closed_form": "randomsets.closed_form",
    "randomsets.boolean_mean_chi": "randomsets.closed_form",
    "randomsets.stationary_density_closed_form": "randomsets.closed_form",
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _pixels(args, kwargs, result):
    return {"pixels": _arg(args, kwargs, 0, "grid").bits.size}


def _chi_quad(args, kwargs, result):
    ind = _arg(args, kwargs, 0, "indicator")
    eps, h = _arg(args, kwargs, 1, "epsilon"), _arg(args, kwargs, 2, "quad_mesh")
    return {"quad_points": quad_cells(ind.bounding_box, eps, h)}


def _directional_quad(args, kwargs, result):
    ind = _arg(args, kwargs, 0, "indicator")
    u = _arg(args, kwargs, 1, "direction")
    eps, h = _arg(args, kwargs, 2, "epsilons"), _arg(args, kwargs, 3, "quad_mesh")
    n = math.hypot(u[0], u[1])
    grow = max(eps) * max(abs(u[0]), abs(u[1])) / n
    return {"quad_points": quad_cells(ind.bounding_box, grow, h)}


def _variational_quad(args, kwargs, result):
    # the direction set always contains the x axis, so the largest shift is max(eps)
    ind = _arg(args, kwargs, 0, "indicator")
    eps, h = _arg(args, kwargs, 1, "epsilons"), _arg(args, kwargs, 2, "quad_mesh")
    return {"quad_points": quad_cells(ind.bounding_box, max(eps), h)}


def _interior(args, kwargs, result):
    truth = _arg(args, kwargs, 0, "truth")
    k = round(_arg(args, kwargs, 1, "coarse_epsilon") / truth.lattice.epsilon)
    ny, nx = truth.bits.shape
    n_ci, n_cj = (nx - 1) // k + 1, (ny - 1) // k + 1
    return {"pairs": len(result), "candidates": n_cj * (n_ci - 1) + n_ci * (n_cj - 1)}


COUNTERS = {
    "lattice.digitize": lambda a, k, r: {
        "points": _arg(a, k, 1, "lattice").nx * _arg(a, k, 1, "lattice").ny},
    "lattice.write_pgm": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "topology.config_counts": _pixels,
    "topology.chi_local": _pixels,
    "topology.chi_vef": _pixels,
    "topology.label_components": _pixels,
    "variogram.chi_bicovariogram": _chi_quad,
    "variogram.estimate_perimeter": _directional_quad,
    "variogram.perimeter_variational": _variational_quad,
    "entanglement.detect_interior_pairs": _interior,
    "entanglement.detect_boundary_pairs": lambda a, k, r: {"pairs": len(r)},
    "randomsets.sample_realization": lambda a, k, r: {"germs": r.count},
    "randomsets.level_set_features_exact": lambda a, k, r: {
        "germs": _arg(a, k, 0, "real").count},
}


class Tracer:
    def __init__(self):
        self.job = None
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict = defaultdict(int)
        self._saved: list = []

    # --------------------------------------------------------- recording

    def traced(self, name, fn, counter=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            self._depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth[layer] -= 1
                self._stack.pop()
                self.spans[idx] = (self.job, name, start, end, parent)
            self.counts[(self.job, name + ".calls")] += 1
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[(self.job, f"{name}.{key}")] += n
            return result

        return wrapper

    def _traced_contains(self, contains):
        inner = self.traced("shapes.contains", contains)

        def wrapper(x, y):
            n = np.broadcast(np.asarray(x), np.asarray(y)).size
            self.counts[(self.job, "shapes.contains.points")] += n
            if self._depth["variogram"]:
                self.counts[(self.job, "shapes.contains.points_in_variogram")] += n
            return inner(x, y)

        return wrapper

    # ------------------------------------------------------ installation

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"eulergram.{layer}") for layer in LAYERS}
        public = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    public[obj] = f"{layer}.{attr}"
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                qual = public.get(obj) if inspect.isfunction(obj) else None
                if qual is None or (layer == "shapes" and attr == "make_shape"):
                    continue  # union members stay untraced inside make_shape
                name = _RENAME.get(qual, qual)
                wrapped = self.traced(name, obj, COUNTERS.get(qual))
                if qual == "shapes.make_shape":
                    wrapped = self._traced_shape(wrapped)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped)

    def _traced_shape(self, make_shape):
        @functools.wraps(make_shape)
        def wrapper(*args, **kwargs):
            ind = make_shape(*args, **kwargs)
            return dataclasses.replace(ind, contains=self._traced_contains(ind.contains))

        return wrapper

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # ---------------------------------------------------------- summary

    def stats(self) -> dict:
        """Per job, per span name: calls, total and self seconds, durations."""
        child = defaultdict(float)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        out: dict = defaultdict(dict)
        for idx, (job, name, start, end, _) in enumerate(self.spans):
            s = out[job].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "durations": []})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[idx]
            s["durations"].append(end - start)
        return out

    def job_counts(self, job) -> dict:
        return {key: n for (j, key), n in self.counts.items() if j == job}

    def dump(self, path) -> None:
        """Write every span as one gzipped JSON document: names table plus rows."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], index[s[1]], round(s[2], 7), round(s[3], 7), s[4]] for s in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["job", "name", "start", "end", "parent"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
