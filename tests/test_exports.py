"""Names other code relies on still resolve: every name in each curvint
submodule's __all__, and every (module, attribute) that the benchmark's
`perfbench/tracing.py` wraps for `--trace 1`, so that deleting one fails
here rather than in a traced benchmark run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import curvint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(curvint.__path__))


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


@pytest.mark.parametrize("module,attr", traced_targets())
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(f"curvint.{module}")
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    # the tracer replaces a method in its class's own namespace
    assert name in vars(owner)
    assert callable(getattr(owner, name))
