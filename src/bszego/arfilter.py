"""Extended 2-D autoregressive models from autocorrelation data.

The autocorrelations of a stationary zero-mean process over the index
set [0, n] x [0, m] form a Hermitian moment table.  An acausal-in-z
filter solution exists exactly when the induced form is positive and
satisfies the matrix condition; it is causal (filter polynomial stable
on the closed bidisk) exactly when additionally the A operator
vanishes.  Filter coefficients come from the moment reconstruction,
normalized to unit variance white noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .moments import MomentTable, _real_form
from .poly import BiPoly
from .reconstruct import _reconstruct
from .space import MomentSpace
from .splitshift import (MC_TOL, StratificationReport, build_operators,
                         check_matrix_condition)


@dataclass(frozen=True, eq=False)
class ArSolution:
    classification: str                 # "causal" | "acausal" | "none"
    coefficients: Optional[BiPoly]
    report: StratificationReport        # the matrix condition at (n, m)
    a_operator_norm: float
    min_eigenvalue: float               # of the autocorrelation Gram


def solve_ar(table: MomentTable, n, m) -> ArSolution:
    """Decide eAR(n, m) solvability and emit the filter coefficients.

    ``table`` holds the autocorrelations c_{k,l}, Hermitian, on a window
    of at least [-n..n] x [-m..m]; a smaller one raises
    InsufficientMoments.  The returned coefficients are the
    representative that the data pick out; for data that admit a causal
    filter it is the stable one, so a product filter (1 - 2z)(2 - w)
    comes back as (2 - z)(2 - w), causal.  The classification is
    invariant under positive rescaling of the autocorrelations: the
    operators live in orthonormal coordinates.
    """
    space = MomentSpace(table, n, m)
    lam = space._lam        # the gate's eigenvalue, None when its certificate decided
    lam = float(np.linalg.eigvalsh(_real_form(space._gram))[0]) if lam is None else lam
    ops = build_operators(space)
    report = check_matrix_condition(ops)
    # at m = 0 the A operator is 0 x n, which has no singular value
    a_norm = float(np.linalg.svd(ops.a_mat, compute_uv=False)[0]) if ops.a_mat.size else 0.0
    p = _reconstruct(ops) if report.holds else None
    causal = "causal" if a_norm < MC_TOL else "acausal"
    return ArSolution("none" if p is None else causal, p, report, a_norm, lam)
