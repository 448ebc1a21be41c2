"""curvint: contour-integral evaluation of the mean-curvature vector.

Numerically verifies, on analytic parametric patches, that the patch
integral of N * H equals the contour integral of the exterior in-surface
boundary normal, evaluates the shrinking-patch limit of that identity, and
carries the construction to triangle meshes as a discrete vector mean
curvature with an exact area-gradient property, a piecewise-linear surface
Laplacian, and an explicit mean-curvature-flow demonstrator.

The package exports exactly the names in the `__all__` of its library
modules. `import curvint` runs no module until a name is used: each
module is in `sys.modules` and an attribute of the package from the
start, and runs, and binds its `__all__` here, on first use.
`import curvint.cli` runs `errors`, `numerics`, `surfaces`, `contour`
and `cli`; the other modules run on first use. On Python 3.10 and 3.11,
`importlib.util._LazyModule.__getattribute__` resets the module's class
before the module body has run, so if two threads touch a module for the
first time at once, one of them can see a half-run module: touch it once
before starting threads. The CLI and perfbench are single-threaded.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# the submodules that run on first use (all but cli and __main__), in the
# order __getattr__ runs them; _text exports no name
_MODULES = ("errors", "numerics", "surfaces", "contour", "mesh", "discrete", "flow", "_text")


class _Loader:
    """The loader a module's spec found, whose exec_module then binds the
    module's __all__ in the package, as `from .module import *` would."""

    def __init__(self, loader):
        self.loader = loader

    def __getattr__(self, name):  # get_source and the rest: the found loader's
        return getattr(self.loader, name)

    def exec_module(self, module):
        self.loader.exec_module(module)
        globals().update((name, getattr(module, name)) for name in getattr(module, "__all__", ()))


def _lazy(name: str):
    """The module `name`, in sys.modules and not yet run."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(_Loader(spec.loader))
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _MODULES})


def __getattr__(name: str):
    """Runs the modules not yet run, in order, until one binds `name`;
    `__all__` is never bound, so it runs them all and `import *` binds
    every public name."""
    if not name.startswith("_") or name == "__all__":
        for module in _MODULES:
            vars(globals()[module])  # runs the module if it has not run
            if name in globals():
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """Every name, once every module has run."""
    for module in _MODULES:
        vars(globals()[module])
    return sorted(globals())
