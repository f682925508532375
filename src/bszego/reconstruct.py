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
                     NotFactorable)
from .moments import MomentTable, TrigPoly, moments_from_trig
from .poly import TRIM_REL, BiPoly, _assert_no_face_zeros, reflect
from .space import MomentSpace
from .splitshift import (ShiftOperators, _positive_form, _require_condition,
                         _split_from_k1)

KERNEL_TOL = 1e-8   # kernel identity residual, relative to max |kernel|
FACTOR_TOL = 1e-7   # factor_trig's bound on the l1 gap of |p|^2 - t, relative to t_00


def kernel_poly(space: MomentSpace) -> BiPoly:
    """sum_j phi_j(z1, z2) * reflection_n of conj(phi_j)(z1, 0).

    With (n, m) the space's caps, for a Bernstein-Szego form this equals
    p(z1, z2) z1^n pbar(1/z1, 0), which checks the reconstruction.
    """
    # The sum does not depend on the orthonormal basis of E2(n, m), yet
    # it is built from phi_sequence, with its own Gram factor, over the
    # cached basis("E2", n, m) on purpose: the check must share no factor
    # with the operator bases that the split polynomial comes from.
    n, m = space.nmax, space.mmax
    phis = space.phi_sequence(n, m)
    refl = np.stack([reflect(phi.z_slice(), (n, 0)).coeffs[:, 0] for phi in phis])
    terms = np.tensordot(refl, [phi.coeffs for phi in phis], axes=(0, 0))
    out = np.zeros((2 * n + 1, m + 1), dtype=complex)
    for i in range(n + 1):      # terms[i] carries z^i of each reflection
        out[i: i + n + 1] += terms[i]
    return BiPoly(out)


def reconstruct_p(table: MomentTable, n, m) -> BiPoly:
    """The polynomial p with the given Bernstein-Szego moments.

    Requires a positive form (NotPositive otherwise) and the matrix
    condition; the result is the stable-content representative,
    unit-norm under the form, with canonical phase.
    """
    ops, report, _ = _positive_form(table, n, m)
    _require_condition(report)
    return _reconstruct(ops)


def _reconstruct(ops: ShiftOperators) -> BiPoly:
    """The minimal split polynomial (K1 the A-space), checked by the
    kernel identity.  The caller has checked the matrix condition on ``ops``.
    """
    p = _split_from_k1(ops, ops.invariant_spaces[0]).split_poly
    kernel = kernel_poly(ops.space)
    scale = float(np.max(np.abs(kernel.coeffs)))
    if scale == 0.0:
        raise DegenerateForm("kernel polynomial vanishes identically")
    gap = kernel - p * reflect(p.z_slice(), (ops.space.nmax, 0))
    resid = float(np.max(np.abs(gap.coeffs))) / scale
    if not resid <= KERNEL_TOL:
        raise DegenerateForm(f"kernel identity residual {resid:.3e}")
    return p


def factor_trig(t: TrigPoly, n, m):
    """Factor a strictly positive trig polynomial as |p|^2 when possible.

    Builds the moments of dsigma / t, tests the matrix condition, then
    reconstructs p and checks t = |p|^2 on coefficients; the l1 norm of
    their gap bounds |p|^2 - t on the whole torus.  Raises
    NotFactorable when no p of degree (n, m) without zeros on the closed
    face exists; |p|^2 has degree at most p's, so that includes a t with
    a coefficient beyond (n, m) at or above TRIM_REL of its largest.
    """
    table = moments_from_trig(t, n, m)
    mag = np.abs(t.c)
    j, k = np.nonzero(mag >= TRIM_REL * mag.max())
    deg = (int(np.abs(j - t.jmax).max()), int(np.abs(k - t.kmax).max()))
    if deg[0] > n or deg[1] > m:
        raise NotFactorable(f"t has degree {deg}, above ({n}, {m})")
    try:
        p = reconstruct_p(table, n, m)
    except MatrixConditionFails as exc:
        raise NotFactorable(str(exc)) from exc
    # |p|^2's Laurent coefficients, centred at (a, b): p times its reflection
    a, b = p.deg
    J, K = max(t.jmax, a), max(t.kmax, b)
    gap = np.zeros((2 * J + 1, 2 * K + 1), dtype=complex)
    gap[J - t.jmax: J + t.jmax + 1, K - t.kmax: K + t.kmax + 1] = t.c
    gap[J - a: J + a + 1, K - b: K + b + 1] -= (p * reflect(p, (a, b))).coeffs
    resid = float(np.sum(np.abs(gap)))
    if not resid <= FACTOR_TOL * t.at(0, 0).real:     # t_00 = mean(t) <= max(t)
        raise NoConvergence(
            f"|p|^2 mismatches t by {resid:.3e} despite the matrix condition")
    _assert_no_face_zeros(p)
    return p
