"""Recover the factor polynomial from moments alone.

Once the matrix condition holds, p is the split polynomial of the
minimal shift-split (K1 the A-space, K2 its complement): the
stable-content representative, unit-norm under the form.  The paper's
kernel identity checks it independently: the orthonormal polynomials
of E2(n, m), each times the reflection of its z-slice, sum to
p(z1, z2) times the reflection of p(z1, 0).
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateForm, MatrixConditionFails, NoConvergence,
                     NotFactorable, NotPositive)
from .moments import (MomentTable, QuadratureConfig, TrigPoly,
                      _poly_grid_values, is_positive, moments_from_trig)
from .poly import BiPoly, reflect_uni
from .space import MomentSpace
from .splitshift import (ShiftOperators, _operators_under_condition,
                         assert_no_face_zeros, minimal_split_poly)

KERNEL_TOL = 1e-8   # kernel identity residual, relative to max |kernel|
FACTOR_TOL = 1e-7   # factor_trig's bound on max | |p|^2 - t |, relative to max |t|
FACTOR_GRID = 256   # points per axis of factor_trig's check grid


def kernel_poly(space: MomentSpace) -> BiPoly:
    """sum_j phi_j(z1, z2) * reflection_n of conj(phi_j)(z1, 0).

    With (n, m) the space's caps, for a Bernstein-Szego form this equals
    p(z1, z2) z1^n pbar(1/z1, 0), which checks the reconstruction.
    """
    # The sum does not depend on the orthonormal basis of E2(n, m), yet
    # it is built from phi_sequence, with its own Gram factor, over the
    # cached basis("E2", n, m) on purpose: the check must share nothing
    # with the operator bases that the split polynomial comes from.
    n, m = space.nmax, space.mmax
    phis = space.phi_sequence(n, m)
    # reflect_uni trims: a negligible slice reflects to exact zeros
    refl = np.stack([reflect_uni(phi.z_slice(), n).coeffs for phi in phis])
    terms = np.tensordot(refl, [phi.coeffs for phi in phis], axes=(0, 0))
    out = np.zeros((2 * n + 1, m + 1), dtype=complex)
    for i in range(n + 1):      # terms[i] carries z^i of each reflection
        out[i: i + n + 1] += terms[i]
    return BiPoly(out)


def reconstruct_p(table: MomentTable, n, m, tol=1e-8) -> BiPoly:
    """The polynomial p with the given Bernstein-Szego moments.

    Requires the matrix condition; the result is the stable-content
    representative, unit-norm under the form, with canonical phase.
    """
    space = MomentSpace(table, n, m)
    ops, _ = _operators_under_condition(space, tol)
    return _reconstruct(space, ops)


def _reconstruct(space: MomentSpace, ops: ShiftOperators) -> BiPoly:
    """The minimal split polynomial, checked by the kernel identity.

    The caller has checked the matrix condition on ``ops``.
    """
    p = minimal_split_poly(space, ops)
    kernel = kernel_poly(space)
    gap = kernel - p * reflect_uni(p.z_slice(), space.nmax).to_bipoly()
    resid = float(np.max(np.abs(gap.coeffs)) / np.max(np.abs(kernel.coeffs)))
    if resid > KERNEL_TOL:
        raise DegenerateForm(f"kernel identity residual {resid:.3e}")
    return p


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
