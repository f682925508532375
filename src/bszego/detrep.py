"""Generalized distinguished varieties and their determinantal pencils.

A curve p(z, w) = 0 whose zero set avoids the bands |z| = 1, |w| != 1
is self-reflective up to a unimodular constant; after normalizing
p equal to its own reflection, the reflected w-derivative P has a
sum-of-squares certificate of G form: P's closed-face blocks with its
reflection appended to the A block.  Sampled along the curve, they
define a partial isometry.  Completing it by a unitary Procrustes
fit yields U with det(U Delta - Gamma) a constant multiple of p, where

    Delta = diag(w I_m, z I_n1, I_n2),  Gamma = diag(I_m, I_n1, z I_n2).

The fit bound and the pencil's coefficients check the answer.  Where P
vanishes on the torus (sheets meeting over the circle, a repeated
factor) its blocks cannot be built, and CertificateFailed is raised.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CertificateFailed, DegenerateSlice, FitResidualTooLarge,
                     NotGdv, NotSelfReflective, NumericalFailure, ZeroPolynomial,
                     ZOnlyFactor)
from .moments import _roots
from .poly import BiPoly, content_roots, reflect, w_roots
from .sos import _blocks_closed_face, _values


SAMPLES = 128          # z points on the circle for variety sampling
FIT_TOL = 1e-6         # on-variety Procrustes residual bound
RESIDUAL_TOL = 1e-6    # largest det - scale * p coefficient gap, relative
REFLECT_TOL = 1e-8     # relative residual of the reflection identities
GEOMETRY_GRID = 64     # z points on the circle for the geometry check
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

    def det_pencil(self, z, w):
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

    Requires p to carry no z-only factors (they make mu ill-defined).
    """
    pt = p.trimmed()
    if not pt.coeffs.any():
        raise NotSelfReflective("zero polynomial")
    degree = content_roots(pt).size
    if degree:
        raise ZOnlyFactor(f"p carries the z-only factor of degree {degree}")
    prev = reflect(pt, pt.deg)
    a = pt.coeffs.ravel()
    b = prev.coeffs.ravel()
    denom = np.vdot(b, b).real
    mu = complex(np.vdot(b, a)) / denom
    resid = float(np.max(np.abs(a - mu * b))) / float(np.max(np.abs(a)))
    if not (resid <= REFLECT_TOL and abs(abs(mu) - 1.0) <= REFLECT_TOL):
        raise NotSelfReflective(
            f"no unimodular mu matches (residual {resid:.3e}, |mu| = {abs(mu):.6f})")
    return mu / abs(mu)


def check_gdv_geometry(p: BiPoly) -> GeometryReport:
    """Whether every w-root over the z-circle sits on the w-circle.

    Roots are taken at GEOMETRY_GRID equispaced z from z = 1, or on that
    grid rotated by 1/(2 GEOMETRY_GRID) of a step (1/128 of a step) if the
    w^m coefficient is below 1e-12 of max |coeff| at one of its points.
    DegenerateSlice names the first such point of the rotated grid.
    """
    pt = p.trimmed()
    n, m = pt.deg
    if m == 0:
        raise NotGdv("p does not depend on w")
    scale = float(np.max(np.abs(pt.coeffs)))
    for rot in (0.0, 0.5 / GEOMETRY_GRID):
        zs = np.exp(2j * np.pi * (np.arange(GEOMETRY_GRID) + rot)
                    / GEOMETRY_GRID)
        wcoef, rts = w_roots(pt, zs)
        small = np.abs(wcoef[-1]) < 1e-12 * scale
        if not small.any():
            break
    else:
        raise DegenerateSlice(
            f"leading w-coefficient ~0 at z = {zs[np.argmax(small)]}")
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


def _variety_samples(p: BiPoly, count):
    """Arrays (z, w) of points on the zero set with z on the unit circle."""
    pt = p.trimmed()
    # real angles: a complex division by count would multiply by 1/count
    zs = np.exp(1j * (2 * np.pi * (np.arange(count) + 0.123) / count))
    wcoef, rts = w_roots(pt, zs)
    keep = np.abs(wcoef[-1]) >= 1e-12 * np.max(np.abs(pt.coeffs))
    if rts.size == 0 or not keep.any():
        raise NotGdv("zero set has no sheets over the unit circle")
    return np.repeat(zs[keep], rts.shape[1]), rts[keep].ravel()


def _pencil_coeffs(rep: DetRep, deg):
    """Coefficients of det(U Delta - Gamma), of degree at most ``deg``,
    from its values on the (n+1) x (m+1) grid of roots of unity."""
    zz, ww = np.meshgrid(_roots(deg[0] + 1), _roots(deg[1] + 1), indexing="ij")
    vals = rep.det_pencil(zz, ww)
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
        cert = _blocks_closed_face(P, deg)
    except NumericalFailure as exc:
        raise CertificateFailed(
            f"certificate of the reflected w-derivative: {exc}") from exc
    # the G form: P's reflection is one more A polynomial
    polys = (*cert.a_list, reflect(P, deg), *cert.b_list, *cert.c_list)
    k, n1, n2 = len(cert.a_list) + 1, cert.n1, cert.n2
    if k != m or n1 + n2 != n:
        raise CertificateFailed(
            f"block sizes ({k}, {n1}, {n2}) incompatible with degree ({n}, {m})")

    # at least 4 (m+n)^2 sample pairs; each circle point carries m roots
    need = int(np.ceil(4.0 * len(polys) ** 2 / max(m, 1)))
    z, w = _variety_samples(p1, max(SAMPLES, need))
    av, bv, cv = np.split(_values(polys, z, w).T, [m, m + n1])
    xs = np.concatenate([w * av, z * bv, cv])
    ys = np.concatenate([av, bv, z * cv])
    u_l, _, v_h = np.linalg.svd(ys @ xs.conj().T)
    U = u_l @ v_h
    fit = float(np.linalg.norm(U @ xs - ys) / max(np.linalg.norm(ys), 1e-300))
    if not fit <= FIT_TOL:
        raise FitResidualTooLarge(f"lurking-isometry fit residual {fit:.3e}")

    rep0 = DetRep(u=U, n1=n1, n2=n2, scale=1.0 + 0.0j, residual=np.nan,
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
