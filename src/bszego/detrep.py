"""Generalized distinguished varieties and their determinantal pencils.

A curve p(z, w) = 0 whose zero set avoids the bands |z| = 1, |w| != 1
is self-reflective up to a unimodular constant; after normalizing
p equal to its own reflection, the reflected w-derivative admits a
G-variant sum-of-squares certificate whose blocks, sampled along the
curve, define a partial isometry.  Completing it by a unitary Procrustes
fit yields U with det(U Delta - Gamma) a constant multiple of p, where

    Delta = diag(w I_m, z I_n1, I_n2),  Gamma = diag(I_m, I_n1, z I_n2).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (CertificateFailed, DegenerateSlice, FitResidualTooLarge,
                     NotGdv, NotSelfReflective, NumericalFailure, ZOnlyFactor)
from .poly import BiPoly, reflect, z_content
from .sos import certificate_open_face


SAMPLES = 128          # z points on the circle for variety sampling
OFFGRID_POINTS = 100   # off-variety points for the scale fit
FIT_TOL = 1e-6         # on-variety Procrustes residual bound
RESIDUAL_TOL = 1e-6    # relative det/p deviation bound
CERT_TOL = 1e-7        # open-face G-certificate tolerance
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

    @property
    def m(self):
        return self.u.shape[0] - self.n1 - self.n2

    def delta(self, z, w):
        return np.diag(np.concatenate([np.full(self.m, w),
                                       np.full(self.n1, z),
                                       np.ones(self.n2)]).astype(complex))

    def gamma(self, z, w):
        return np.diag(np.concatenate([np.ones(self.m),
                                       np.ones(self.n1),
                                       np.full(self.n2, z)]).astype(complex))

    def det_pencil(self, z, w):
        return complex(np.linalg.det(self.u @ self.delta(z, w) - self.gamma(z, w)))

    def to_json(self):
        return {"U": [[[v.real, v.imag] for v in row] for row in self.u],
                "n1": self.n1, "n2": self.n2,
                "scale": [self.scale.real, self.scale.imag],
                "residual": self.residual}


@dataclass(frozen=True)
class GeometryReport:
    passed: bool
    worst_deviation: float
    worst_z: complex
    worst_w: complex

    def to_json(self):
        return {"passed": self.passed,
                "worst_deviation": self.worst_deviation,
                "worst_z": [self.worst_z.real, self.worst_z.imag],
                "worst_w": [self.worst_w.real, self.worst_w.imag]}


def check_self_reflective(p: BiPoly) -> complex:
    """The unimodular mu with p = mu * reflection(p), if it exists.

    Requires p to carry no z-only factors (they make mu ill-defined).
    """
    pt = p.trimmed()
    if pt.is_zero():
        raise NotSelfReflective("zero polynomial")
    h, _, _ = z_content(pt)
    if h.degree > 0:
        raise ZOnlyFactor(f"p carries the z-only factor of degree {h.degree}")
    prev = reflect(pt, pt.deg)
    a = pt.coeffs.ravel()
    b = prev.coeffs.ravel()
    denom = np.vdot(b, b).real
    mu = complex(np.vdot(b, a)) / denom
    resid = float(np.max(np.abs(a - mu * b))) / max(1.0, float(np.max(np.abs(a))))
    if resid > REFLECT_TOL or abs(abs(mu) - 1.0) > REFLECT_TOL:
        raise NotSelfReflective(
            f"no unimodular mu matches (residual {resid:.3e}, |mu| = {abs(mu):.6f})")
    return mu / abs(mu)


def check_gdv_geometry(p: BiPoly) -> GeometryReport:
    """Whether every w-root over the z-circle sits on the w-circle."""
    pt = p.trimmed()
    n, m = pt.deg
    if m == 0:
        raise NotGdv("p does not depend on w")
    scale = float(np.max(np.abs(pt.coeffs)))
    worst = (0.0, 1.0 + 0.0j, 1.0 + 0.0j)
    for rot in (0.0, 0.5 / GEOMETRY_GRID):
        try:
            for idx in range(GEOMETRY_GRID):
                z0 = np.exp(2j * np.pi * (idx + rot) / GEOMETRY_GRID)
                wcoef = pt.w_poly_at(z0)
                if abs(wcoef[-1]) < 1e-12 * scale:
                    raise DegenerateSlice(f"leading w-coefficient ~0 at z = {z0}")
                rts = np.roots(wcoef[::-1])
                if rts.size == 0:
                    continue
                dev = float(np.max(np.abs(np.abs(rts) - 1.0)))
                if dev > worst[0]:
                    worst = (dev, z0, rts[np.argmax(np.abs(np.abs(rts) - 1.0))])
            break
        except DegenerateSlice:
            if rot != 0.0:
                raise
            worst = (0.0, 1.0 + 0.0j, 1.0 + 0.0j)
    return GeometryReport(passed=worst[0] < GEOMETRY_TOL,
                          worst_deviation=worst[0],
                          worst_z=complex(worst[1]), worst_w=complex(worst[2]))


def derivative_identity_check(p: BiPoly):
    """Check m*p = reflection of dp/dw at (n, m-1) plus w * dp/dw.

    Expects p already normalized to equal its own reflection.  Returns
    (holds, relative residual).
    """
    pt = p.trimmed()
    n, m = pt.deg
    dp = pt.w_derivative()
    lhs = float(m) * pt
    rhs = reflect(dp, (n, max(m - 1, 0))) + dp.shifted(0, 1)
    diff = lhs - rhs
    resid = float(np.max(np.abs(diff.coeffs))) / max(1.0, float(np.max(np.abs(pt.coeffs))))
    return resid <= REFLECT_TOL, resid


def _variety_samples(p: BiPoly, count):
    """(z, w) pairs on the zero set with z on the unit circle."""
    pt = p.trimmed()
    pairs = []
    scale = float(np.max(np.abs(pt.coeffs)))
    for idx in range(count):
        z0 = np.exp(2j * np.pi * (idx + 0.123) / count)
        wcoef = pt.w_poly_at(z0)
        if abs(wcoef[-1]) < 1e-12 * scale:
            continue
        for w0 in np.roots(wcoef[::-1]):
            pairs.append((z0, complex(w0)))
    if not pairs:
        raise NotGdv("zero set has no sheets over the unit circle")
    return pairs


def build_detrep(p: BiPoly, seed=0) -> DetRep:
    """Unitary pencil representation of a generalized distinguished variety."""
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
    P = reflect(p1.w_derivative(), (n, max(m - 1, 0)))
    try:
        cert = certificate_open_face(P, tol=CERT_TOL, variant="G", seed=seed,
                                     deg=(n, max(m - 1, 0)))
    except NumericalFailure as exc:
        raise CertificateFailed(str(exc)) from exc
    a_list, b_list, c_list = cert.a_list, cert.b_list, cert.c_list
    n1, n2 = len(b_list), len(c_list)
    dim = len(a_list) + n1 + n2
    if len(a_list) != m or n1 + n2 != n:
        raise CertificateFailed(
            f"block sizes ({len(a_list)}, {n1}, {n2}) incompatible with "
            f"degree ({n}, {m})")

    # at least 4 (m+n)^2 sample pairs; each circle point carries m roots
    need = int(np.ceil(4.0 * dim * dim / max(m, 1)))
    pairs = _variety_samples(p1, max(SAMPLES, need))
    xs = np.empty((dim, len(pairs)), dtype=complex)
    ys = np.empty((dim, len(pairs)), dtype=complex)
    for col, (z0, w0) in enumerate(pairs):
        av = np.array([q(z0, w0) for q in a_list])
        bv = np.array([q(z0, w0) for q in b_list])
        cv = np.array([q(z0, w0) for q in c_list])
        xs[:, col] = np.concatenate([w0 * av, z0 * bv, cv])
        ys[:, col] = np.concatenate([av, bv, z0 * cv])
    u_l, _, v_h = np.linalg.svd(ys @ xs.conj().T)
    U = u_l @ v_h
    fit = float(np.linalg.norm(U @ xs - ys) / max(np.linalg.norm(ys), 1e-300))
    if fit > FIT_TOL:
        raise FitResidualTooLarge(f"lurking-isometry fit residual {fit:.3e}")

    rep0 = DetRep(u=U, n1=n1, n2=n2, scale=1.0 + 0.0j, residual=np.nan)
    rng = np.random.default_rng(seed)
    ratios = []
    attempts = 0
    while len(ratios) < OFFGRID_POINTS:
        attempts += 1
        if attempts > 100 * OFFGRID_POINTS:
            raise FitResidualTooLarge("could not sample off-variety points")
        z0 = complex(*rng.uniform(-2, 2, 2))
        w0 = complex(*rng.uniform(-2, 2, 2))
        pv = complex(p1(z0, w0))
        if abs(pv) < 1e-3 * float(np.max(np.abs(p1.coeffs))):
            continue
        ratios.append(rep0.det_pencil(z0, w0) / pv)
    ratios = np.asarray(ratios)
    scale = complex(np.median(ratios.real), np.median(ratios.imag))
    if abs(scale) < 1e-12:
        raise FitResidualTooLarge("pencil determinant vanishes identically")
    residual = float(np.max(np.abs(ratios - scale)) / abs(scale))
    if residual > RESIDUAL_TOL:
        raise FitResidualTooLarge(
            f"det(U Delta - Gamma)/p varies by {residual:.3e}")
    # report the scale against the input polynomial, not the normalized one
    return DetRep(u=U, n1=n1, n2=n2, scale=scale / nu, residual=residual)
