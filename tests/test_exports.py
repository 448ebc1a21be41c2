"""Names other code relies on still resolve: every name in each curvint
submodule's __all__, and every (module, attribute) that the benchmark's
`perfbench/tracing.py` wraps for `--trace 1`, so that deleting one fails
here rather than in a traced benchmark run. The package's public names
are its library modules' __all__, listed nowhere else. Each submodule is
in sys.modules from the package's import on, where the tracer looks it
up, but runs on first use; the fresh interpreters that check this write
no bytecode, as on a host where every module compiles from source."""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
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


def run_cold(code: str) -> dict:
    """The JSON that code prints, run in a fresh interpreter that writes no bytecode."""
    src = str(Path(curvint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_submodules_are_in_sys_modules_at_import_and_run_on_first_use(tmp_path):
    # type(), not an attribute: reading any attribute of a module runs it
    code = f"""if True:
        import json, sys, types
        import curvint, curvint.cli
        def ran():
            return sorted(n for n, m in sys.modules.items()
                          if n.startswith("curvint") and type(m) is types.ModuleType)
        seen = {{"present": sorted(n for n in sys.modules if n.startswith("curvint.")),
                 "import": ran()}}
        verify = ["verify", "--surface", "sphere", "--region", "disk", "--uc", "1", "--vc", "1",
                  "--rho", "0.2", "--output", {str(tmp_path / "verify.csv")!r}]
        seen["verify"] = (curvint.cli.run(verify), ran())
        make = ["make", "--kind", "icosphere", "--level", "1",
                "--output", {str(tmp_path / "ico1.off")!r}]
        seen["make"] = (curvint.cli.run(make), ran())
        print(json.dumps(seen))
    """
    seen = run_cold(code)
    assert {f"curvint.{module}" for module, _ in traced_targets()} <= set(seen["present"])
    analytic = ["curvint", "curvint.cli", "curvint.contour", "curvint.errors",
                "curvint.numerics", "curvint.surfaces"]
    assert seen["import"] == analytic
    assert seen["verify"] == [0, analytic]
    status, after_make = seen["make"]
    assert status == 0 and "curvint.mesh" in after_make
    assert "curvint.discrete" not in after_make and "curvint.flow" not in after_make


def test_star_import_and_dir_give_every_public_name():
    exported = {name for module in LIBRARY
                for name in importlib.import_module(f"curvint.{module}").__all__}
    code = """if True:
        import json
        import curvint
        namespace = {}
        exec("from curvint import *", namespace)
        print(json.dumps([sorted(set(namespace) - {"__builtins__"}), dir(curvint)]))
    """
    star, listed = run_cold(code)
    assert set(star) == exported | set(LIBRARY)
    assert set(star) <= set(listed)
