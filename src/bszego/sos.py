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

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CommonFactor, DegenerateForm, InvalidDegree,
                     MomentDivergence, NoConvergence, RootNearTorus)
from .moments import moments_from_density
from .poly import (CLUSTER_TOL, BiPoly, _readonly, content_roots, reflect,
                   w_roots)
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


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    worst_point: tuple


def _values(polys, z, w):
    """q(z[i], w[i]) in row i and one column per polynomial q: the
    coefficient grids, zero-padded to one stack, times the power table of
    z in one product and contracted with that of w in another."""
    K = max(q.coeffs.shape[0] for q in polys)
    P = max(q.coeffs.shape[1] for q in polys)
    stack = np.zeros((K, len(polys), P), dtype=complex)   # (z power, q, w power)
    for j, q in enumerate(polys):
        stack[: q.coeffs.shape[0], j, : q.coeffs.shape[1]] = q.coeffs
    rows = (z[:, None] ** np.arange(K) @ stack.reshape(K, -1)).reshape(len(z), -1, P)
    return (rows @ (w[:, None] ** np.arange(P))[:, :, None])[:, :, 0]


@functools.cache
def _verify_points():
    """verify_certificate's z, w, zeta and eta, read-only.  Row i pairs
    (z, w) with (zeta, eta): the diagonal rows, where the two are equal,
    then the pairs."""
    d = np.random.default_rng(0).uniform(-VERIFY_RADIUS, VERIFY_RADIUS,
                                         (8, VERIFY_SAMPLES))
    z, w, zeta, eta = d[::2] + 1j * d[1::2]     # rows: re z, im z, re w, ...
    return tuple(map(_readonly, (np.tile(z, 2), np.tile(w, 2),
                                 np.concatenate([z, zeta]),
                                 np.concatenate([w, eta]))))


def verify_certificate(p: BiPoly, cert: SosCertificate) -> ResidualReport:
    """Max relative residual of the certificate identity.

    Checks the diagonal identity at VERIFY_SAMPLES points of the square
    of half-width VERIFY_RADIUS and the full kernel identity at as many
    point pairs: uniform draws from ``np.random.default_rng(0)``, made
    once per process.  The identity is polynomial, so sampling past the
    torus is a strengthening.  The (z, w) and the (zeta, eta) points are
    each evaluated once, in one product for p, its reflection and every
    block polynomial; the diagonal check takes the values at (z, w) as
    both factors.  Each check is relative to its largest term at any of
    its points (at least 1).
    """
    z, w, zeta, eta = _verify_points()
    values = _values((p, reflect(p, cert.deg), *cert.a_list, *cert.b_list,
                      *cert.c_list), zeta, eta)
    terms = np.tile(values[:VERIFY_SAMPLES], (2, 1)) * np.conj(values)
    s_a, s_b, s_c = (t.sum(axis=1) for t in np.split(
        terms[:, 2:], [len(cert.a_list), len(cert.a_list) + cert.n1], axis=1))
    shift = w * np.conj(eta) if cert.variant == "G" else 1.0
    lhs = terms[:, 0] - shift * terms[:, 1]
    rhs = (1 - w * np.conj(eta)) * s_a + (1 - z * np.conj(zeta)) * (s_b - s_c)
    scale = np.maximum(np.abs(terms).max(axis=1), 1.0).reshape(2, -1).max(axis=1)
    rel = (np.abs(lhs - rhs).reshape(2, -1) / scale[:, None]).ravel()
    worst = int(np.argmax(rel))
    return ResidualReport(residual=float(rel[worst]),
                          worst_point=(z[worst], w[worst], zeta[worst], eta[worst]))


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
