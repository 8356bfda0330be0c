"""Spatial degrees of freedom between coplanar continuous linear arrays.

Deterministic pipeline: visibility classification -> distance-expansion
coefficients -> mode-index span, cross-checked by the closed-form
aperture kernel and by the SVD of the discretized Green's-function
channel.  Statistical layer: analytic distributions of the mode count
over random receive placements with Monte Carlo validation.

Importing the package runs no submodule but ``constants``.  Every other
one but ``cli`` sits in ``sys.modules`` from the start as a
``LazyLoader`` module, whose body runs on its first attribute access, and
a public name such as ``make_link`` is read from its module when asked
for (``__getattr__``).  A lazy load takes no lock on Python 3.11 or 3.12,
so a module that several threads use must first be touched in one of them.
"""

import importlib.util
import sys

from .constants import SPEED_OF_LIGHT, wavelength_from_frequency

__version__ = "0.1.0"

# each lazily run submodule -> the public names it defines
_LAZY = {
    "geometry": "LinkGeometry VisibilityReport classify_visibility make_link",
    "dof_core": "DofResult dof dof_full_visibility_closed_form fraunhofer_distance",
    "kernel": "kernel_exact kernel_farfield kernel_scan",
    "svd_oracle": "channel_matrix effective_dof singular_spectrum",
    "numerics": "", "statistics": "", "figures": "",
}
_HOME = {name: module for module, names in _LAZY.items() for name in names.split()}

__all__ = ["SPEED_OF_LIGHT", "wavelength_from_frequency", *_HOME, "statistics"]

for _name in _LAZY:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
