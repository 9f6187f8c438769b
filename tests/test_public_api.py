import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import eulergram
from thin_bounds import THIN_BOUNDS_CFG, THIN_BOUNDS_CSV

# every module of the package but the command line, whose ``main`` is the
# console script and not part of the library
LIBRARY = ["errors", "lattice", "topology", "variogram", "shapes", "entanglement",
           "randomsets"]


def test_library_lists_every_module():
    found = {m.name for m in pkgutil.iter_modules(eulergram.__path__)}
    assert found == {*LIBRARY, "cli"}


@pytest.mark.parametrize("name", LIBRARY)
def test_module_exports_reach_the_package(name):
    module = importlib.import_module(f"eulergram.{name}")
    for export in module.__all__:
        assert getattr(module, export) is getattr(eulergram, export, None), export


def test_package_exports_are_listed_at_home():
    for export in dir(eulergram):
        obj = getattr(eulergram, export)
        if export.startswith("_") or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        home = obj.__module__.removeprefix("eulergram.")
        assert home in LIBRARY, (export, obj.__module__)
        assert export in importlib.import_module(obj.__module__).__all__, export


# run in a fresh interpreter: the modules a run loads are the test's subject
_LOADS = """
import json, sys
from pathlib import Path
import numpy as np
import eulergram, eulergram.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_loaded()}
out = Path(sys.argv[1])
for sub, cfg in json.loads(sys.argv[2]):
    path = out / f"{sub}.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([sub, "--config", str(path), "--out", str(out / sub), "--no-timestamp"])
    seen[sub] = [code, scipy_loaded()]
grid = eulergram.BitGrid(eulergram.Lattice(epsilon=0.1, origin=(0.0, 0.0), nx=5, ny=5),
                         np.eye(5, dtype=bool))
eulergram.morph(grid, 0.1, "dilate")
seen["morph"] = scipy_loaded()
print(json.dumps(seen))
"""

_DISC = {"type": "disc", "center": [0, 0], "r": 0.5}
_MODEL = {"intensity": 1.0, "lambda": 1.5, "grains": [{"rects": [[0, 1, 0, 1]], "p": 1.0}],
          "marks": [{"value": 1.0, "p": 1.0}]}


def test_scipy_loads_only_where_distances_are_transformed(tmp_path):
    # scipy.ndimage costs most of the start-up; only the distance transform
    # of ``morph`` imports it, so no subcommand loads scipy: chi, sweep and
    # bounds count components and label test boxes without it
    runs = [
        ("perimeter", {"shape": _DISC, "epsilons": [0.08, 0.04, 0.02], "quad_mesh": 1e-2,
                       "directions": 8}),
        ("shotnoise", {"model": _MODEL, "window": {"rects": [[0, 3, 0, 3]]},
                       "replicates": 4, "seed": 0}),
        ("densities", {"model": _MODEL, "window": [0, 2, 0, 2], "epsilon": 0.05,
                       "replicates": 4, "seed": 0}),
        ("chi", {"shape": _DISC, "epsilon": 0.1}),
        ("sweep", {"shape": _DISC, "epsilons": [0.2, 0.1, 0.05]}),
        # its test boxes reach the labelling: 7 interior pairs at the finest mesh
        ("bounds", THIN_BOUNDS_CFG),
    ]
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _LOADS, str(tmp_path), json.dumps(runs)],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen.pop("import") == []
    after_morph = seen.pop("morph")
    assert seen == {sub: [0, []] for sub, _ in runs}
    assert (tmp_path / "bounds" / "bounds.csv").read_text() == THIN_BOUNDS_CSV
    # the lazy import is reached: a distance transform loads it
    assert "scipy.ndimage" in after_morph
