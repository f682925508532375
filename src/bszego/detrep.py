"""Generalized distinguished varieties and their determinantal pencils.

A curve p(z, w) = 0 whose zero set avoids the bands |z| = 1, |w| != 1
is self-reflective up to a unimodular constant; after normalizing
p equal to its own reflection, the reflected w-derivative P has a
sum-of-squares certificate of G form: P's closed-face blocks with its
reflection P~ appended to the A block.  On coefficients the certificate
reads X^H X = Y^H Y, X the rows [w A; P; z B; C] and Y the rows
[A; P~; B; z C], so the polar factor V of Y X^H maps X to Y.  The
derivative identity m p = P + w P~ gives P = -w P~ on the curve, and V
with P's column negated is the lurking isometry (Agler and McCarthy,
Acta Math. 194, 2005; Knese, Trans. AMS 362, 2010): a unitary U with
det(U Delta - Gamma) a constant multiple of p, where

    Delta = diag(w I_m, z I_n1, I_n2),  Gamma = diag(I_m, I_n1, z I_n2).

The bound on |V X - Y| and the pencil's coefficients check the answer.
Where P vanishes on the torus (sheets meeting over the circle, a
repeated factor) its blocks cannot be built, and CertificateFailed is
raised.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CertificateFailed, FitResidualTooLarge, NotGdv,
                     NotSelfReflective, NumericalFailure, ZeroPolynomial,
                     ZOnlyFactor)
from .moments import _roots
from .poly import BiPoly, _w_roots, content_roots, reflect
from .sos import _blocks_closed_face


SAMPLES = 128          # least z points of the geometry check
FIT_TOL = 1e-6         # lurking-isometry residual bound, on coefficients
RESIDUAL_TOL = 1e-6    # largest det - scale * p coefficient gap, relative
REFLECT_TOL = 1e-8     # relative residual of the reflection identities
GEOMETRY_TOL = 1e-6    # largest accepted | |w-root| - 1 |


@dataclass(frozen=True, eq=False)
class DetRep:
    u: np.ndarray
    n1: int
    n2: int
    scale: complex
    residual: float
    mu: complex                 # unimodular, p = mu * reflection(p)
    geometry: GeometryReport    # the check build_detrep passed

    @property
    def m(self):
        return self.u.shape[0] - self.n1 - self.n2

    def _det_pencil(self, z, w):
        """det(U Delta - Gamma) at (z, w); arrays of points give an array."""
        z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), w)
        one, sizes = np.ones_like(z), (self.m, self.n1, self.n2)
        # the diagonals of Delta and Gamma, on a trailing axis
        dd, dg = (np.moveaxis(np.repeat(d, sizes, axis=0), 0, -1)[..., None, :]
                  for d in ([w, z, one], [one, one, z]))
        det = np.linalg.det(self.u * dd - np.eye(len(self.u)) * dg)
        return complex(det) if det.ndim == 0 else det


@dataclass(frozen=True)
class GeometryReport:
    passed: bool
    worst_deviation: float
    worst_z: complex
    worst_w: complex


def check_self_reflective(p: BiPoly) -> complex:
    """The unimodular mu with p = mu * reflection(p), if it exists.

    Requires p to carry no z-only factors (they make mu ill-defined);
    ``content_roots`` raises ZeroPolynomial for p = 0.
    """
    pt = p.trimmed()
    degree = content_roots(pt).size
    if degree:
        raise ZOnlyFactor(f"p carries the z-only factor of degree {degree}")
    prev = reflect(pt, pt.deg)
    a = pt.coeffs.ravel()
    b = prev.coeffs.ravel()
    denom = np.vdot(b, b).real
    mu = complex(np.vdot(b, a)) / denom
    resid = float(np.max(np.abs(a - mu * b))) / float(np.max(np.abs(a)))
    if not resid <= REFLECT_TOL:  # |b| = |a|, so ||mu| - 1| <= N resid^2
        raise NotSelfReflective(
            f"no unimodular mu matches (residual {resid:.3e}, |mu| = {abs(mu):.6f})")
    return mu / abs(mu)


def check_gdv_geometry(p: BiPoly) -> GeometryReport:
    """Whether every w-root over the z-circle sits on the w-circle.

    The roots are taken over max(SAMPLES, ceil(4 (n + m)^2 / m)) equispaced
    z on the unit circle, offset by 0.123 of a step, less any z where the
    w^m coefficient is below 1e-12 of max |coeff| (a sheet goes to infinity
    there).  The trimmed p keeps a w^m coefficient of at least that size,
    and over more than n points discrete Parseval puts the largest |w^m
    coefficient| at or above it, up to round-off, so some z is kept.
    """
    pt = p.trimmed()
    if not pt.coeffs.any():
        raise ZeroPolynomial("the zero polynomial has no zero set")
    n, m = pt.deg
    if m == 0:
        raise NotGdv("p does not depend on w")
    count = max(SAMPLES, -(-4 * (n + m) ** 2 // m))
    # real angles: a complex division by count would multiply by 1/count
    zs = np.exp(1j * (2 * np.pi * (np.arange(count) + 0.123) / count))
    wcoef, rts = _w_roots(pt, zs)
    keep = np.abs(wcoef[-1]) >= 1e-12 * np.max(np.abs(pt.coeffs))
    zs, rts = zs[keep], rts[keep]
    dev = np.abs(np.abs(rts) - 1.0)
    k = int(np.argmax(dev))       # first maximum in grid order, then root order
    return GeometryReport(bool(dev.flat[k] < GEOMETRY_TOL), float(dev.flat[k]),
                          complex(zs[k // m]), complex(rts.flat[k]))


def derivative_identity_check(p: BiPoly):
    """Check m*p = reflection of dp/dw at (n, m-1) plus w * dp/dw.

    Expects p already normalized to equal its own reflection.  Returns
    (holds, relative residual); raises ZeroPolynomial for p = 0.
    """
    pt = p.trimmed()
    if not pt.coeffs.any():
        raise ZeroPolynomial("the zero polynomial has no reflection identity")
    n, m = pt.deg
    dp = pt.w_derivative()
    lhs = float(m) * pt
    rhs = reflect(dp, (n, max(m - 1, 0))) + dp.shifted(0, 1)
    diff = lhs - rhs
    resid = float(np.max(np.abs(diff.coeffs))) / float(np.max(np.abs(pt.coeffs)))
    return resid <= REFLECT_TOL, resid


def _pencil_coeffs(rep: DetRep, deg):
    """Coefficients of det(U Delta - Gamma), of degree at most ``deg``,
    from its values on the (n+1) x (m+1) grid of roots of unity."""
    zz, ww = np.meshgrid(_roots(deg[0] + 1), _roots(deg[1] + 1), indexing="ij")
    vals = rep._det_pencil(zz, ww)
    return np.fft.fft2(vals) / vals.size


def build_detrep(p: BiPoly) -> DetRep:
    """Unitary pencil representation of a generalized distinguished variety.

    det(U Delta - Gamma) = scale * p is checked on coefficients: ``residual``
    is their largest gap relative to |scale| max |coeff of p|.
    """
    pt = p.trimmed()
    geo = check_gdv_geometry(pt)
    if not geo.passed:
        raise NotGdv(
            f"w-root of modulus deviation {geo.worst_deviation:.3e} "
            f"at z = {geo.worst_z}")
    mu = check_self_reflective(pt)
    nu = cmath.sqrt(mu)          # principal branch
    p1 = pt * (1.0 / nu)
    p1 = (p1 + reflect(p1, p1.deg)) * 0.5     # exactify p1 = reflection(p1)
    n, m = p1.deg
    deg = (n, max(m - 1, 0))
    P = reflect(p1.w_derivative(), deg)
    try:
        _, _, (a, b, c) = _blocks_closed_face(P, deg)
    except NumericalFailure as exc:
        raise CertificateFailed(
            f"certificate of the reflected w-derivative: {exc}") from exc
    # the G form on coefficients is X^H X = Y^H Y, X the rows [w A; P; z B; C]
    # and Y the rows [A; P~; B; z C], P~ = reflection(P) appended to A
    x, y = np.zeros((2, n + 1, m, n + m), dtype=complex)
    k = m + b.shape[1]                                      # the first C row
    x[:, 1:, :m - 1] = y[:, :-1, :m - 1] = a.reshape(n + 1, m - 1, m - 1)
    x[:, :, m - 1], y[:, :, m - 1] = P.coeffs, reflect(P, deg).coeffs
    x[1:, :, m:k] = y[:-1, :, m:k] = b.reshape(n, m, k - m)
    x[:-1, :, k:] = y[1:, :, k:] = c.reshape(n, m, n + m - k)
    x, y = (rows.reshape(-1, n + m).T for rows in (x, y))
    u_l, _, v_h = np.linalg.svd(y @ x.conj().T)
    U = u_l @ v_h                # the polar factor V of Y X^H, with V X = Y
    fit = float(np.linalg.norm(U @ x - y) / max(np.linalg.norm(y), 1e-300))
    if not fit <= FIT_TOL:
        raise FitResidualTooLarge(f"lurking-isometry fit residual {fit:.3e}")
    # on the curve m p1 = P + w P~ gives P = -w P~, so V with P's column
    # negated maps (w A_ext, z B, C) to (A_ext, B, z C) there
    U[:, m - 1] *= -1.0

    rep0 = DetRep(u=U, n1=b.shape[1], n2=c.shape[1], scale=1.0 + 0.0j, residual=np.nan,
                  mu=mu, geometry=geo)
    d = _pencil_coeffs(rep0, (n, m))
    c = p1.coeffs
    scale = complex(np.vdot(c, d) / np.vdot(c, c).real)     # least squares
    # U is unitary, so d does not scale with the input
    if not np.max(np.abs(d)) >= 1e-12:
        raise FitResidualTooLarge("pencil determinant vanishes identically")
    residual = float(np.max(np.abs(d - scale * c))
                     / (abs(scale) * np.max(np.abs(c))))
    if not residual <= RESIDUAL_TOL:
        raise FitResidualTooLarge(
            f"det(U Delta - Gamma) - scale * p reaches {residual:.3e}")
    # report the scale against the input polynomial, not the normalized one
    return replace(rep0, scale=scale / nu, residual=residual)
