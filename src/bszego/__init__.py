"""Constructive tools for Bernstein-Szego measures on the bicircle.

Moment tables of densities 1/|p|^2 and 1/t, the split-shift / matrix
characterizations of which positive forms arise that way, recovery of
the factor polynomial from moments, stratified Fejer-Riesz
factorization, sum-of-hermitian-squares certificates, full-measure
tests, 2-D autoregressive filter solving, and determinantal
representations of generalized distinguished varieties.
"""

from .errors import (BszegoError, CertificateFailed, CommonFactor,
                     DegenerateForm, DegenerateSlice, DNotAdmissible,
                     FitResidualTooLarge, InsufficientMoments, InvalidDegree,
                     InvalidInput, MatrixConditionFails, MomentDivergence,
                     NegativeResult, NoConvergence, NonPositiveDensity,
                     NotFactorable, NotGdv, NotPositive, NotSelfReflective,
                     NumericalFailure, RootNearTorus, ZeroPolynomial,
                     ZOnlyFactor)
from .poly import (BiPoly, RootSplit, UniPoly, content_roots, reflect,
                   reflect_uni, roots, split_stable)
from .moments import (MomentTable, QuadratureConfig, TrigPoly, gram,
                      is_positive, moments_from_density,
                      moments_from_grid_function, moments_from_trig)
from .space import MomentSpace, SubspaceBasis
from .splitshift import (ShiftOperators, ShiftSplit, StratificationReport,
                         build_operators, check_matrix_condition,
                         enumerate_split_polys, gw_check, shift_split_from_p,
                         split_poly_from_condition)
from .reconstruct import factor_trig, reconstruct_p
from .sos import (SosCertificate, certificate_closed_face,
                  certificate_open_face, verify_certificate)
from .detrep import (DetRep, build_detrep, check_gdv_geometry,
                     check_self_reflective, derivative_identity_check)
from .fullmeasure import FullMeasureReport, check_full_measure, strip_match
from .arfilter import ArProblem, ArSolution, solve_ar

__version__ = "0.1.0"
