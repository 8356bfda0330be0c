"""Spatial degrees of freedom between coplanar continuous linear arrays.

Deterministic pipeline: visibility classification -> distance-expansion
coefficients -> mode-index span, cross-checked by the closed-form
aperture kernel and by the SVD of the discretized Green's-function
channel.  Statistical layer: analytic distributions of the mode count
over random receive placements with Monte Carlo validation.
"""

__version__ = "0.1.0"

from .constants import SPEED_OF_LIGHT, wavelength_from_frequency
from .geometry import (
    LinkGeometry, VisibilityReport, classify_visibility, make_link,
)
from .dof_core import (
    DofResult, dof, dof_full_visibility_closed_form, fraunhofer_distance,
)
from .kernel import kernel_exact, kernel_farfield, kernel_scan
from .svd_oracle import channel_matrix, effective_dof, singular_spectrum
from . import statistics

__all__ = [
    "SPEED_OF_LIGHT", "wavelength_from_frequency",
    "LinkGeometry", "VisibilityReport", "classify_visibility", "make_link",
    "DofResult", "dof", "dof_full_visibility_closed_form", "fraunhofer_distance",
    "kernel_exact", "kernel_farfield", "kernel_scan",
    "channel_matrix", "effective_dof", "singular_spectrum",
    "statistics",
]
