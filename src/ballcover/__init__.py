"""Union-of-balls uncertainty sets with finite-sample mass guarantees.

The top level holds the names of the README's library example; every other
name is imported from its submodule (``ballcover.robust``,
``ballcover.experiments``, ``ballcover.geometry``, ...).
"""

__version__ = "0.1.0"

from .calibration import CalibrationSpec, calibrate_radius
from .geometry import Norm, worst_case_linear
from .mixtures import RandomStream, bundled_mixture

__all__ = [
    "__version__",
    "CalibrationSpec",
    "Norm",
    "RandomStream",
    "bundled_mixture",
    "calibrate_radius",
    "worst_case_linear",
]
