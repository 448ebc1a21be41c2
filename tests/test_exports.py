"""Names other code relies on still resolve: every name in each curvint
submodule's __all__, and every (module, attribute) that the benchmark's
`perfbench/tracing.py` wraps for `--trace 1`, so that deleting one fails
here rather than in a traced benchmark run. The package's public names
are its library modules' __all__, listed nowhere else."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import curvint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(curvint.__path__))
# the command line and the private modules (a leading "_") are no part of the library's API
LIBRARY = sorted(m for m in SUBMODULES if not m.startswith("_") and m != "cli")


def traced_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({target for targets in tracing.LAYERS.values() for target in targets})


@pytest.mark.parametrize("module", SUBMODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"curvint.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_package_exports_exactly_its_modules_all():
    exported = {}
    for module in LIBRARY:
        mod = importlib.import_module(f"curvint.{module}")
        for name in mod.__all__:
            assert name not in exported, f"{name} is exported by two modules"
            exported[name] = getattr(mod, name)
    public = {name for name in vars(curvint) if not name.startswith("_")}
    assert public - set(SUBMODULES) == set(exported)
    assert set(LIBRARY) <= public
    for name in public & set(SUBMODULES):
        assert getattr(curvint, name) is importlib.import_module(f"curvint.{name}")
    for name, obj in exported.items():
        assert getattr(curvint, name) is obj, name


@pytest.mark.parametrize("module,attr", traced_targets())
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(f"curvint.{module}")
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    # the tracer replaces a method in its class's own namespace
    assert name in vars(owner)
    assert callable(getattr(owner, name))
