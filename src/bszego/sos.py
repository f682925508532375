"""Sum-of-hermitian-squares certificates.

For p of degree (n, m) with no zeros on the closed face |z| = 1,
|w| <= 1, the blocks come straight from the moment space of 1/|p|^2:

    A block: orthonormal basis of E2(n, m-1)        (m polynomials)
    B block: reflection at (n-1, m) of the K2 basis (n1 = n - n2)
    C block: the K1 basis                           (n2 = zeros of p(z,0) in D)

and the kernel identity

    p pbar - prev prevbar = (1 - w etabar) sum A_j A_jbar
        + (1 - z zetabar) (sum B_j B_jbar - sum C_j C_jbar)

holds as polynomials in (z, w, conj zeta, conj eta).  The G variant
certifies p pbar - w etabar prev prevbar instead and simply appends the
reflection of p to the A block.  Polynomials with zeros on the torus
(but none on |z| = 1, |w| < 1, and no common factor with their
reflection) are handled by shrinking w, certifying p(z, t w), and
keeping the largest t whose blocks still certify p itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (CommonFactor, DegenerateForm, InvalidDegree,
                     MomentDivergence, NoConvergence, RootNearTorus)
from .moments import moments_from_density
from .poly import CLUSTER_TOL, BiPoly, content_roots, reflect, w_roots
from .space import MomentSpace
from .splitshift import shift_split_from_p

DEFAULT_SCHEDULE = (0.9, 0.99, 0.999, 0.9999)   # w-shrink factors t, open face
VERIFY_SAMPLES = 200    # points (and point pairs) per verify_certificate check
VERIFY_RADIUS = 1.5     # half-width of the square verify_certificate samples
PREFLIGHT_SAMPLES = 8   # z-slices compared by common_factor_with_reflection


@dataclass(frozen=True, eq=False)
class SosCertificate:
    a_list: tuple
    b_list: tuple
    c_list: tuple
    variant: str            # "L" or "G"
    residual: float
    deg: tuple              # degree pair at which p and its reflection live

    @property
    def n1(self):
        return len(self.b_list)

    @property
    def n2(self):
        return len(self.c_list)

    def to_json(self):
        from .jsonio import poly_to_json
        return {"A": [poly_to_json(q) for q in self.a_list],
                "B": [poly_to_json(q) for q in self.b_list],
                "C": [poly_to_json(q) for q in self.c_list],
                "n1": self.n1, "n2": self.n2, "deg": list(self.deg),
                "residual": self.residual, "variant": self.variant}


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    worst_point: tuple


def _sum_products(polys, zw, ze):
    """sum_j q_j(z, w) conj(q_j(zeta, eta)) and the largest term size."""
    total = np.zeros(np.broadcast(zw[0], ze[0]).shape, dtype=complex)
    peak = np.zeros_like(total, dtype=float)
    for q in polys:
        a = q(zw[0], zw[1])
        b = np.conj(q(ze[0], ze[1]))
        total = total + a * b
        peak = np.maximum(peak, np.abs(a * b))
    return total, peak


def _identity_mismatch(p, cert, zw, ze):
    prev = reflect(p, cert.deg)
    z, w = zw
    zeta, eta = ze
    pp = p(z, w) * np.conj(p(zeta, eta))
    rr = prev(z, w) * np.conj(prev(zeta, eta))
    s_a, pk_a = _sum_products(cert.a_list, zw, ze)
    s_b, pk_b = _sum_products(cert.b_list, zw, ze)
    s_c, pk_c = _sum_products(cert.c_list, zw, ze)
    if cert.variant == "G":
        lhs = pp - w * np.conj(eta) * rr
    else:
        lhs = pp - rr
    rhs = (1 - w * np.conj(eta)) * s_a + (1 - z * np.conj(zeta)) * (s_b - s_c)
    scale = np.maximum.reduce([np.abs(pp), np.abs(rr), pk_a, pk_b, pk_c,
                               np.ones_like(pk_a)])
    return np.abs(lhs - rhs), scale


def verify_certificate(p: BiPoly, cert: SosCertificate) -> ResidualReport:
    """Max relative residual of the certificate identity.

    Checks the diagonal identity at VERIFY_SAMPLES points of the square
    of half-width VERIFY_RADIUS and the full kernel identity at as many
    point pairs, the same on every call: uniform draws from
    ``np.random.default_rng(0)``.  The identity is polynomial, so sampling
    past the torus is a strengthening.
    """
    rng = np.random.default_rng(0)

    def draw(k):
        re = rng.uniform(-VERIFY_RADIUS, VERIFY_RADIUS, size=k)
        im = rng.uniform(-VERIFY_RADIUS, VERIFY_RADIUS, size=k)
        return re + 1j * im

    z, w = draw(VERIFY_SAMPLES), draw(VERIFY_SAMPLES)
    zeta, eta = draw(VERIFY_SAMPLES), draw(VERIFY_SAMPLES)
    mism_d, scale_d = _identity_mismatch(p, cert, (z, w), (z, w))
    mism_k, scale_k = _identity_mismatch(p, cert, (z, w), (zeta, eta))
    rel_d = mism_d / np.max(scale_d)
    rel_k = mism_k / np.max(scale_k)
    rel = np.concatenate([rel_d, rel_k])
    worst = int(np.argmax(rel))
    if worst < VERIFY_SAMPLES:
        pt = (z[worst], w[worst], z[worst], w[worst])
    else:
        i = worst - VERIFY_SAMPLES
        pt = (z[i], w[i], zeta[i], eta[i])
    return ResidualReport(residual=float(np.max(rel)), worst_point=pt)


def _blocks_closed_face(p: BiPoly, variant, deg) -> SosCertificate:
    """The blocks for p at degree ``deg``, residual not yet verified (nan)."""
    pt = p.trimmed()
    n, m = pt.deg if deg is None else deg
    if pt.deg[0] > n or pt.deg[1] > m:
        raise InvalidDegree("declared degree below the actual degree")
    table = moments_from_density(pt, max(n, 1), max(m, 1))
    space = MomentSpace(table, n, m)
    split = shift_split_from_p(space, pt)
    a_list = tuple(space.basis("E2", n, m - 1).polys())
    if variant == "G":
        a_list = a_list + (reflect(pt, (n, m)),)
    b_list = tuple(split.k2.reflected((max(n - 1, 0), m)).polys())
    c_list = tuple(split.k1.polys())
    return SosCertificate(a_list=a_list, b_list=b_list, c_list=c_list,
                          variant=variant, residual=np.nan, deg=(n, m))


def certificate_closed_face(p: BiPoly, variant="L", deg=None) -> SosCertificate:
    """Certificate for p with no zeros on the closed face.

    Block counts are (m, n1, n2) in the L variant, with n2 the number of
    zeros of p(z, 0) in the open disk; the G variant has one extra A
    polynomial.  ``deg`` declares a formal degree pair above the actual
    one (the reflection and the block counts are taken there).
    """
    cert = _blocks_closed_face(p, variant, deg)
    return replace(cert, residual=verify_certificate(p, cert).residual)


def _scale_w(p: BiPoly, t) -> BiPoly:
    c = np.array(p.coeffs)
    c *= t ** np.arange(c.shape[1])
    return BiPoly(c)


def common_factor_with_reflection(p: BiPoly, deg=None):
    """Test whether p and its reflection share a factor.

    A z-only common factor is a root shared by the two z-only contents
    (``content_roots``, matched within CLUSTER_TOL); for p in z alone
    that is the whole test.  A common factor of positive w-degree forces
    shared w-roots on every z-slice, which is sampled at PREFLIGHT_SAMPLES
    slices: enough for the certificate preflight.
    """
    pt = p.trimmed()
    prev = reflect(pt, pt.deg if deg is None else deg).trimmed()
    r1, r2 = content_roots(pt), content_roots(prev)
    if np.abs(r1[:, None] - r2[None, :]).min(initial=np.inf) < CLUSTER_TOL:
        return True
    zs = 0.9371 * np.exp(2j * np.pi * (np.arange(PREFLIGHT_SAMPLES) + 0.17)
                         / PREFLIGHT_SAMPLES)
    _, r1 = w_roots(pt, zs)
    _, r2 = w_roots(prev, zs)
    # a slice without roots has gap inf, one with a nan row decides nothing
    gap = np.abs(r1[:, :, None] - r2[:, None, :]).min((1, 2), initial=np.inf)
    return not np.any(gap >= CLUSTER_TOL)


def certificate_open_face(p: BiPoly, tol=1e-8, variant="L",
                          deg=None) -> SosCertificate:
    """Certificate for p with no zeros on |z| = 1, |w| < 1.

    Zeros on the torus itself are allowed provided p shares no factor
    with its reflection.  Shrinking w by t < 1 moves the zeros off the
    closed face; the certificate of p(z, t w) is kept for the largest t
    of DEFAULT_SCHEDULE at which it still certifies p within ``tol``.
    """
    pt = p.trimmed()
    if common_factor_with_reflection(pt, deg=deg):
        raise CommonFactor("p shares a factor with its reflection")
    try:
        return certificate_closed_face(pt, variant, deg)
    except (MomentDivergence, RootNearTorus, DegenerateForm):
        pass
    tried = []
    for t in sorted(DEFAULT_SCHEDULE):
        try:
            cand = _blocks_closed_face(_scale_w(pt, t), variant, deg)
        except (MomentDivergence, RootNearTorus, DegenerateForm):
            break                    # larger t only gets worse
        tried.append(replace(
            cand, residual=verify_certificate(pt, cand).residual))
    passing = [c for c in tried if c.residual <= tol]
    if passing:
        return passing[-1]           # schedule is ascending: largest t wins
    if not tried:
        raise NoConvergence("no scale in the schedule produced a certificate")
    raise NoConvergence(
        f"best residual {min(c.residual for c in tried):.3e} "
        f"above tolerance {tol}")
