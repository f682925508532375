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

from dataclasses import dataclass

import numpy as np

from .errors import (CommonFactor, DegenerateForm, InvalidDegree,
                     MomentDivergence, NoConvergence, RootNearTorus,
                     ZeroPolynomial)
from .moments import QuadratureConfig, moments_from_density
from .poly import BiPoly, UniPoly, gcd_approx, reflect, roots
from .space import MomentSpace
from .splitshift import shift_split_from_p

DEFAULT_SCHEDULE = (0.9, 0.99, 0.999, 0.9999)


@dataclass(frozen=True, eq=False)
class SosCertificate:
    a_list: tuple
    b_list: tuple
    c_list: tuple
    variant: str            # "L" or "G"
    residual: float
    deg: tuple = None       # degree pair at which p and its reflection live

    @property
    def n1(self):
        return len(self.b_list)

    @property
    def n2(self):
        return len(self.c_list)

    def to_json(self):
        from .jsonio import poly_to_json
        doc = {"A": [poly_to_json(q) for q in self.a_list],
               "B": [poly_to_json(q) for q in self.b_list],
               "C": [poly_to_json(q) for q in self.c_list],
               "n1": self.n1, "n2": self.n2,
               "residual": self.residual, "variant": self.variant}
        if self.deg is not None:
            doc["deg"] = list(self.deg)
        return doc


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    worst_point: tuple

    def to_json(self):
        return {"residual": self.residual,
                "worst_point": [[v.real, v.imag] for v in self.worst_point]}


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
    at = cert.deg if cert.deg is not None else p.trimmed().deg
    prev = reflect(p, at)
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


def verify_certificate(p: BiPoly, cert: SosCertificate, samples=200,
                       seed=0, radius=1.5) -> ResidualReport:
    """Max relative residual of the certificate identity.

    Checks the diagonal identity at random points of the closed bidisk
    of the given radius and the full kernel identity at independent
    point pairs; the identity is polynomial, so sampling past the torus
    is a strengthening.
    """
    rng = np.random.default_rng(seed)

    def draw(k):
        re = rng.uniform(-radius, radius, size=k)
        im = rng.uniform(-radius, radius, size=k)
        return re + 1j * im

    z, w = draw(samples), draw(samples)
    zeta, eta = draw(samples), draw(samples)
    mism_d, scale_d = _identity_mismatch(p, cert, (z, w), (z, w))
    mism_k, scale_k = _identity_mismatch(p, cert, (z, w), (zeta, eta))
    rel_d = mism_d / np.max(scale_d)
    rel_k = mism_k / np.max(scale_k)
    rel = np.concatenate([rel_d, rel_k])
    worst = int(np.argmax(rel))
    if worst < samples:
        pt = (z[worst], w[worst], z[worst], w[worst])
    else:
        i = worst - samples
        pt = (z[i], w[i], zeta[i], eta[i])
    return ResidualReport(residual=float(np.max(rel)), worst_point=pt)


def _blocks_closed_face(p: BiPoly, variant, cfg: QuadratureConfig, margin,
                        deg=None):
    pt = p.trimmed()
    n, m = pt.deg if deg is None else deg
    if pt.deg[0] > n or pt.deg[1] > m:
        raise InvalidDegree("declared degree below the actual degree")
    table = moments_from_density(pt, max(n, 1), max(m, 1), cfg)
    space = MomentSpace(table, n, m)
    split = shift_split_from_p(space, pt, margin)
    a_list = tuple(space.e2_basis(n, m - 1).polys()) if m >= 1 else ()
    if variant == "G":
        a_list = a_list + (reflect(pt, (n, m)),)
    b_list = tuple(split.k2.reflected((max(n - 1, 0), m)).polys()) \
        if split.k2.dim else ()
    c_list = tuple(split.k1.polys()) if split.k1.dim else ()
    return a_list, b_list, c_list, (n, m)


def certificate_closed_face(p: BiPoly, variant="L",
                            cfg: QuadratureConfig = QuadratureConfig(),
                            margin=1e-6, samples=200, seed=0,
                            deg=None) -> SosCertificate:
    """Certificate for p with no zeros on the closed face.

    Block counts are (m, n1, n2) in the L variant, with n2 the number of
    zeros of p(z, 0) in the open disk; the G variant has one extra A
    polynomial.  ``deg`` declares a formal degree pair above the actual
    one (the reflection and the block counts are taken there).
    """
    a_list, b_list, c_list, at = _blocks_closed_face(p, variant, cfg,
                                                     margin, deg)
    cert = SosCertificate(a_list=a_list, b_list=b_list, c_list=c_list,
                          variant=variant, residual=np.nan, deg=at)
    report = verify_certificate(p, cert, samples=samples, seed=seed)
    return SosCertificate(a_list=a_list, b_list=b_list, c_list=c_list,
                          variant=variant, residual=report.residual, deg=at)


def _scale_w(p: BiPoly, t) -> BiPoly:
    c = np.array(p.coeffs)
    c *= t ** np.arange(c.shape[1])
    return BiPoly(c)


def common_factor_with_reflection(p: BiPoly, tol=1e-6, samples=8, deg=None):
    """Sampled test whether p and its reflection share a factor.

    A common factor of positive w-degree forces shared w-roots on every
    z-slice; a z-only common factor shows up in the z-contents.  Both
    checks are sampled, which is enough for the certificate preflight.
    """
    pt = p.trimmed()
    n, m = pt.deg if deg is None else deg
    prev = reflect(pt, (n, m))
    if m == 0:
        g = gcd_approx([pt.z_slice(0), prev.z_slice(0)], tol)
        return g.degree > 0
    from .poly import z_content
    h1, _, _ = z_content(pt)
    h2, _, _ = z_content(prev)
    if h1.degree > 0 and h2.degree > 0:
        r1, r2 = roots(h1), roots(h2)
        if np.min(np.abs(r1[:, None] - r2[None, :])) < tol:
            return True
    zs = 0.9371 * np.exp(2j * np.pi * (np.arange(samples) + 0.17) / samples)
    for z0 in zs:
        c1 = pt.w_poly_at(z0)
        c2 = prev.w_poly_at(z0)
        try:
            r1 = roots(UniPoly(c1))
            r2 = roots(UniPoly(c2))
        except ZeroPolynomial:
            continue
        if r1.size == 0 or r2.size == 0:
            return False
        if np.min(np.abs(r1[:, None] - r2[None, :])) >= tol:
            return False
    return True


def certificate_open_face(p: BiPoly, schedule=DEFAULT_SCHEDULE, tol=1e-8,
                          variant="L", cfg: QuadratureConfig = QuadratureConfig(),
                          margin=1e-6, samples=200, seed=0,
                          deg=None) -> SosCertificate:
    """Certificate for p with no zeros on |z| = 1, |w| < 1.

    Zeros on the torus itself are allowed provided p shares no factor
    with its reflection.  Shrinking w by t < 1 moves the zeros off the
    closed face; the certificate of p(z, t w) is kept for the largest t
    at which it still certifies p within ``tol``.
    """
    pt = p.trimmed()
    if common_factor_with_reflection(pt, deg=deg):
        raise CommonFactor("p shares a factor with its reflection")
    try:
        return certificate_closed_face(pt, variant, cfg, margin,
                                       samples=samples, seed=seed, deg=deg)
    except (MomentDivergence, RootNearTorus, DegenerateForm):
        pass
    tried = []
    for t in sorted(schedule):
        try:
            blocks = _blocks_closed_face(_scale_w(pt, t), variant, cfg,
                                         margin, deg)
        except (MomentDivergence, RootNearTorus, DegenerateForm):
            break                    # larger t only gets worse
        cand = SosCertificate(a_list=blocks[0], b_list=blocks[1],
                              c_list=blocks[2], variant=variant,
                              residual=np.nan, deg=blocks[3])
        report = verify_certificate(pt, cand, samples=samples, seed=seed)
        tried.append(SosCertificate(a_list=blocks[0], b_list=blocks[1],
                                    c_list=blocks[2], variant=variant,
                                    residual=report.residual, deg=blocks[3]))
    passing = [c for c in tried if c.residual <= tol]
    if passing:
        return passing[-1]           # schedule is ascending: largest t wins
    if not tried:
        raise NoConvergence("no scale in the schedule produced a certificate")
    raise NoConvergence(
        f"best residual {min(c.residual for c in tried):.3e} "
        f"above tolerance {tol}")
