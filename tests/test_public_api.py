import importlib
import inspect
import pkgutil

import pytest

import eulergram

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
