"""Double score matching: mass imputation and population inference.

Combines a volunteer (nonprobability) sample carrying the outcome with a
design-weighted reference sample that lacks it.  Units are matched on
two fitted scores, a sampling score and a prognostic score, so the
matching space stays two-dimensional no matter how many covariates the
models use.  On top of the matching sit bias-corrected point estimators,
an analytic variance, wild-bootstrap confidence intervals, and a Monte
Carlo harness for the built-in simulation study.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The submodules load on the first public name asked for, not on `import
# dsm`, so a program can still pin its BLAS threads before numpy loads.
# The package re-exports each one's __all__ (errors.py: its public
# classes, as under `import *`) but not the submodules themselves: `dsm.io`
# would otherwise shadow the standard library's io under `from dsm import *`.
_SUBMODULES = ("errors", "estimators", "io", "matching", "scores", "simulation", "uncertainty")


def __getattr__(name):
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("_")):
        exports = {}
        for sub in _SUBMODULES:
            module = _import_module(f".{sub}", __name__)
            names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
            exports.update((n, getattr(module, n)) for n in names)
        globals().update(exports, __all__=list(exports))
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    __getattr__("__all__")  # loads the submodules
    return sorted(globals())
