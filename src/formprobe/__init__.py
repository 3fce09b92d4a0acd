"""Numerical toolkit for alternating forms on periodic N-dimensional grids.

Operator algebra (wedge, star, coordinate insertion/contraction),
spectrally exact d / delta / Laplacian, weighted Sobolev norms, material
transformations, the half-space model with mirrors and traces, the
Hodge-Helmholtz splitting, and a probe harness for the associated
regularity estimates.
"""

import os

# Loading OpenBLAS starts its thread pool, about a third of the start-up
# time, and no call in this package uses the workers: every dot product
# runs in blocks below OpenBLAS's threading threshold
# (``fields._VDOT_BLOCK``), and the linear algebra works on batches of
# small matrices.  So numpy, imported by every module below, loads it with
# one thread unless the user chose a count; a process that imported numpy
# first keeps the pool it has.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .fields import (FormField, GridSpec, apply_R, apply_T,
                     hodge_star, l2_inner, multi_indices, norm,
                     split_tangential_normal, wedge)
from .spectral import (coderivative_delta, exterior_d, fourier,
                       fourier_inverse, gaffney_identity_check, laplacian,
                       spectral_sobolev_norm)
from .weights import BOLD, ROMAN, NormSpec, weighted_sobolev_norm
from .media import (AdmissibilityError, Transformation, make_transformation,
                    reconstruct_from_split, reflected_transform,
                    scalar_catalog)
from .halfspace import (diff_quotient, extend_boundary_form, mirror_Sd,
                        mirror_Sdelta, normal_derivative_reconstruct,
                        restrict_to_half, shift, stokes_pairing_residual,
                        trace_normal, trace_tangential)
from .decompose import (HodgeSplit, hodge_decompose, potential_for_exact,
                        solve_coderivative)
from .manufactured import ManufacturedForm, random_band_limited
from .bridge import VectorFieldN3, form_to_vector, vector_to_form
from .probes import (ProbeReport, estimate_probe_interior,
                     estimate_probe_weighted, halfspace_probe,
                     run_identity_suite)

__version__ = "0.1.0"

__all__ = [
    "FormField", "GridSpec", "apply_R", "apply_T", "hodge_star",
    "l2_inner", "multi_indices", "norm", "split_tangential_normal", "wedge",
    "coderivative_delta", "exterior_d", "fourier", "fourier_inverse",
    "gaffney_identity_check", "laplacian", "spectral_sobolev_norm",
    "BOLD", "ROMAN", "NormSpec", "weighted_sobolev_norm",
    "AdmissibilityError", "Transformation", "make_transformation",
    "reconstruct_from_split", "reflected_transform", "scalar_catalog",
    "diff_quotient", "extend_boundary_form", "mirror_Sd", "mirror_Sdelta",
    "normal_derivative_reconstruct", "restrict_to_half", "shift",
    "stokes_pairing_residual", "trace_normal", "trace_tangential",
    "HodgeSplit", "hodge_decompose", "potential_for_exact",
    "solve_coderivative", "ManufacturedForm", "random_band_limited",
    "VectorFieldN3", "form_to_vector", "vector_to_form", "ProbeReport",
    "estimate_probe_interior", "estimate_probe_weighted", "halfspace_probe",
    "run_identity_suite",
]
