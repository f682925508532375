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

from .errors import InsufficientMoments, NotPositive
from .moments import MomentTable, is_positive
from .poly import BiPoly
from .reconstruct import _reconstruct
from .space import MomentSpace
from .splitshift import MC_TOL, a_operator_norm, build_operators, \
    check_matrix_condition


@dataclass(frozen=True, eq=False)
class ArProblem:
    """Autocorrelations c_{k,l} on [-n..n] x [-m..m], Hermitian."""

    n: int
    m: int
    table: MomentTable

    def __post_init__(self):
        if self.table.jmax < self.n or self.table.kmax < self.m:
            raise InsufficientMoments(
                "autocorrelation window below the model order")


@dataclass(frozen=True, eq=False)
class ArSolution:
    classification: str                 # "causal" | "acausal" | "none"
    coefficients: Optional[BiPoly]
    diagnostics: dict

    def to_json(self):
        from .jsonio import poly_to_json
        return {"classification": self.classification,
                "a": poly_to_json(self.coefficients)
                if self.coefficients is not None else None,
                "diagnostics": self.diagnostics}


def solve_ar(problem: ArProblem, tol=MC_TOL) -> ArSolution:
    """Decide eAR(n, m) solvability and emit the filter coefficients.

    The returned coefficients are the representative that the data pick
    out; for data that admit a causal filter it is the stable one, so a
    product filter (1 - 2z)(2 - w) comes back as (2 - z)(2 - w), causal.
    The classification is invariant under positive rescaling of the
    autocorrelations: the operators live in orthonormal coordinates.
    """
    n, m = problem.n, problem.m
    ok, lam = is_positive(problem.table, n, m)
    if not ok:
        raise NotPositive(
            f"autocorrelation form is not positive definite (eig {lam:.3e})")
    space = MomentSpace(problem.table, n, m)
    ops = build_operators(space)
    report = check_matrix_condition(ops, tol)
    a_norm = a_operator_norm(ops)
    diag = report.to_json() | {"a_operator_norm": a_norm,
                               "min_eigenvalue": lam}
    if not report.holds:
        return ArSolution(classification="none", coefficients=None,
                          diagnostics=diag)
    p = _reconstruct(space, ops)
    classification = "causal" if a_norm < tol else "acausal"
    return ArSolution(classification=classification, coefficients=p,
                      diagnostics=diag)
