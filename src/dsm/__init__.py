"""Double score matching: mass imputation and population inference.

Combines a volunteer (nonprobability) sample carrying the outcome with a
design-weighted reference sample that lacks it.  Units are matched on
two fitted scores, a sampling score and a prognostic score, so the
matching space stays two-dimensional no matter how many covariates the
models use.  On top of the matching sit bias-corrected point estimators,
an analytic variance, wild-bootstrap confidence intervals, and a Monte
Carlo harness for the built-in simulation study.
"""

from types import ModuleType as _ModuleType

# Each submodule's __all__ (errors.py: its exception classes) is the one
# list of what it exports; the package re-exports all of them.
from .errors import *
from .estimators import *
from .io import *
from .matching import *
from .scores import *
from .simulation import *
from .uncertainty import *

__version__ = "0.1.0"

# Everything imported above, but not the submodules themselves: `dsm.io`
# would otherwise shadow the standard library's io under `from dsm import *`.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
