"""Recover the factor polynomial from moments alone.

Pipeline: orthonormal polynomials of the E2 space evaluated against a
reflected argument collapse to p(z1, z2) times the reflection of
p(z1, 0); the z-only content of that product is pulled out with an
approximate gcd, the two-variable factor g falls out by division, and
the remaining one-variable stable factor q is produced by a Toeplitz
inversion against the moments re-weighted by |g|^2.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateForm, GcdUnstable, MatrixConditionFails,
                     NoConvergence, NotFactorable, NotPositive)
from .moments import (MomentTable, QuadratureConfig, TrigPoly,
                      _poly_grid_values, is_positive, moments_from_trig)
from .poly import (BiPoly, UniPoly, canonical_phase, reflect_uni,
                   split_stable, z_content)
from .space import MomentSpace, _inverse_rows
from .splitshift import assert_no_face_zeros, build_operators, \
    check_matrix_condition

GCD_TOL = 1e-6
FACTOR_TOL = 1e-7   # factor_trig's bound on max | |p|^2 - t |, relative to max |t|
FACTOR_GRID = 256   # points per axis of factor_trig's check grid


def kernel_poly(space: MomentSpace) -> BiPoly:
    """sum_j phi_j(z1, z2) * reflection_n of conj(phi_j)(z1, 0).

    With (n, m) the space's caps, for a Bernstein-Szego form this equals
    p(z1, z2) z1^n pbar(1/z1, 0), the polynomial whose z-only content
    drives the reconstruction.
    """
    # The sum does not depend on the orthonormal basis of E2(n, m), yet
    # phi_sequence is kept over the cached e2_basis(n, m) on purpose.
    # On the recover corpus of bench/corpus.py (seed 9137), an e2_basis
    # kernel turns six cells that fail loudly with phi_sequence
    # (reconstruct and ar on the unstable kind at (8,6), (12,10) and
    # (12,12)) into answers with modulus gaps up to 5.4e-9, and the
    # worst accuracy of the workload drops from 13.4 to 8.3 digits.
    n, m = space.nmax, space.mmax
    phis = space.phi_sequence(n, m)
    # reflect_uni trims: a negligible slice reflects to exact zeros
    refl = np.stack([reflect_uni(phi.z_slice(), n).coeffs for phi in phis])
    terms = np.tensordot(refl, [phi.coeffs for phi in phis], axes=(0, 0))
    out = np.zeros((2 * n + 1, m + 1), dtype=complex)
    for i in range(n + 1):      # terms[i] carries z^i of each reflection
        out[i: i + n + 1] += terms[i]
    return BiPoly(out)


def _toeplitz_q(space: MomentSpace, g: BiPoly, n0) -> UniPoly:
    """Stable one-variable factor from the |g|^2-weighted moment strip.

    The Toeplitz matrix of that strip is the Gram of g, z g, ..., z^n0 g
    under the form, so q is its normalized inverse row.
    """
    E = np.column_stack([space.embed(g.shifted(k, 0)) for k in range(n0 + 1)])
    return UniPoly(_inverse_rows(E.T @ np.conj(E), 1,
                                 "the one-variable step")[0])


def reconstruct_p(table: MomentTable, n, m, tol=1e-8) -> BiPoly:
    """The polynomial p with the given Bernstein-Szego moments.

    Requires the matrix condition; the result is the stable-content
    representative, unit-norm under the form, with canonical phase.
    """
    space = MomentSpace(table, n, m)
    report = check_matrix_condition(build_operators(space), tol)
    if not report.holds:
        raise MatrixConditionFails(
            f"max ||A T^j B|| = {report.max_violation:.3e}; "
            "no closed-face Bernstein-Szego representation exists")
    return _reconstruct(space)


def _reconstruct(space: MomentSpace) -> BiPoly:
    """Kernel, z-content, one-variable step and normalization.

    The caller has checked the matrix condition on ``space``.
    """
    R = kernel_poly(space).trimmed()
    for attempt_tol in (GCD_TOL, 10.0 * GCD_TOL):
        _, g, res = z_content(R, attempt_tol)
        if res <= 1e-6:
            break
    else:
        raise GcdUnstable(
            f"z-content gcd division residual {res:.3e} at tolerance "
            f"{10 * GCD_TOL}")
    g = g.trimmed()
    n0 = space.nmax - g.deg[0]
    if n0 < 0:
        raise DegenerateForm("two-variable factor exceeds the degree bound")
    q = _toeplitz_q(space, g, n0)
    if q.degree > 0:
        rs = split_stable(q, margin=1e-9)
        if rs.beta != 0:
            raise DegenerateForm(
                f"one-variable factor has {rs.beta} roots inside the disk")
    p = q.to_bipoly() * g
    nrm = space.norm(p)
    if nrm == 0.0:
        raise DegenerateForm("reconstructed polynomial vanished")
    return canonical_phase(p * (1.0 / nrm))


def factor_trig(t: TrigPoly, n, m, cfg: QuadratureConfig = QuadratureConfig()):
    """Factor a strictly positive trig polynomial as |p|^2 when possible.

    Builds the moments of dsigma / t, tests the matrix condition, then
    reconstructs and verifies the factor on a torus grid.  Raises
    NotFactorable when no p of degree (n, m) without zeros on the closed
    face exists.
    """
    table = moments_from_trig(t, n, m, cfg)
    ok, lam = is_positive(table, n, m)
    if not ok:
        raise NotPositive(f"moment Gram has eigenvalue {lam:.3e}")
    try:
        p = reconstruct_p(table, n, m)
    except MatrixConditionFails as exc:
        raise NotFactorable(str(exc)) from exc
    tvals = t.values_on_grid(FACTOR_GRID)
    pvals = np.abs(_poly_grid_values(p.trimmed(), FACTOR_GRID)) ** 2
    resid = float(np.max(np.abs(pvals - tvals)))
    if resid > FACTOR_TOL * float(np.max(np.abs(tvals))):
        raise NoConvergence(
            f"|p|^2 mismatches t by {resid:.3e} despite the matrix condition")
    assert_no_face_zeros(p)
    return p
