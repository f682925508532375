"""Sum-of-hermitian-squares certificates.

For p of degree (n, m) with no zeros on the closed face |z| = 1,
|w| <= 1, the blocks come straight from the moment space of 1/|p|^2:

    A block: orthonormal basis of E2(n, m-1)        (m polynomials)
    B block: reflection at (n-1, m) of the K2 basis (n1 = n - n2)
    C block: the K1 basis                           (n2 = zeros of p(z,0) in D)

and the kernel identity

    p pbar - prev prevbar = (1 - w etabar) sum A_j A_jbar
        + (1 - z zetabar) (sum B_j B_jbar - sum C_j C_jbar)

holds as polynomials in (z, w, conj zeta, conj eta).  That L identity is
the only one certified here.  Its G form, p pbar - w etabar prev prevbar,
takes the same blocks with the reflection of p appended to the A block;
``detrep`` composes it for itself.  Polynomials with zeros on the torus
(but none on |z| = 1, |w| < 1, and no common factor with their
reflection) are handled by shrinking w once: the closed-face blocks of
p(z, T0 w) are refined at t = 1 by Gauss-Newton on the identity of p
itself, written on coefficients, down to round-off.  The refined blocks
keep the counts (m, n1, n2) but are no longer orthonormal bases of
moment-space subspaces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CommonFactor, DegenerateForm, MomentDivergence,
                     NoConvergence, RootNearTorus)
from .moments import moments_from_density
from .poly import (CLUSTER_TOL, BiPoly, _readonly, content_roots, reflect,
                   w_roots)
from .space import MomentSpace
from .splitshift import shift_split_from_p

T0 = 0.9                # w-shrink factor of the open-face starting blocks
REFINE_STEPS = 60       # Gauss-Newton step cap of the open-face refinement
REFINE_STALL = 3        # steps without a new best residual that end it
REFINE_FLOOR = 16 * np.finfo(float).eps   # relative residual that ends it
DAMPING = 1e-5          # normal-equation ridge per unit of relative residual
DAMPING_FLOOR = 1e-15   # least ridge; both relative to the largest diagonal entry
REFINE_MAX_ENTRIES = 2 ** 22   # largest Jacobian refined (degree (6, 6) is 2.4e6)
VERIFY_SAMPLES = 200    # points (and point pairs) per verify_certificate check
VERIFY_RADIUS = 1.5     # half-width of the square verify_certificate samples
PREFLIGHT_SAMPLES = 8   # z-slices compared by common_factor_with_reflection


@dataclass(frozen=True, eq=False)
class SosCertificate:
    a_list: tuple
    b_list: tuple
    c_list: tuple
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


def _columns(polys, rows, cols):
    """The coefficient grids of ``polys``, zero-padded to rows x cols and
    flattened z-major, as the columns of one matrix."""
    out = np.zeros((rows, cols, len(polys)), dtype=complex)
    for j, q in enumerate(polys):
        out[: q.coeffs.shape[0], : q.coeffs.shape[1], j] = q.coeffs
    return out.reshape(rows * cols, -1)


def _values(polys, z, w):
    """q(z[i], w[i]) in row i and one column per polynomial q: the
    coefficient grids, zero-padded to one stack, times the power table of
    z in one product and contracted with that of w in another."""
    K = max(q.coeffs.shape[0] for q in polys)
    P = max(q.coeffs.shape[1] for q in polys)
    # (z power, q, w power)
    stack = _columns(polys, K, P).reshape(K, P, -1).transpose(0, 2, 1)
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
    lhs = terms[:, 0] - terms[:, 1]
    rhs = (1 - w * np.conj(eta)) * s_a + (1 - z * np.conj(zeta)) * (s_b - s_c)
    scale = np.maximum(np.abs(terms).max(axis=1), 1.0).reshape(2, -1).max(axis=1)
    rel = (np.abs(lhs - rhs).reshape(2, -1) / scale[:, None]).ravel()
    worst = int(np.argmax(rel))
    return ResidualReport(residual=float(rel[worst]),
                          worst_point=(z[worst], w[worst], zeta[worst], eta[worst]))


def _blocks_closed_face(p: BiPoly, deg) -> SosCertificate:
    """The blocks for p at a degree pair ``deg`` at or above p's, residual
    not yet verified (nan)."""
    pt = p.trimmed()
    n, m = deg
    table = moments_from_density(pt, max(n, 1), max(m, 1))
    space = MomentSpace(table, n, m)
    split = shift_split_from_p(space, pt)
    a_list = tuple(space.basis("E2", n, m - 1).polys())
    b_list = tuple(split.k2.reflected((max(n - 1, 0), m)).polys())
    c_list = tuple(split.k1.polys())
    return SosCertificate(a_list=a_list, b_list=b_list, c_list=c_list,
                          residual=np.nan, deg=(n, m))


def certificate_closed_face(p: BiPoly) -> SosCertificate:
    """Certificate for p with no zeros on the closed face.

    Block counts are (m, n1, n2), with n2 the number of zeros of p(z, 0)
    in the open disk.
    """
    cert = _blocks_closed_face(p, p.trimmed().deg)
    return replace(cert, residual=verify_certificate(p, cert).residual)


def _scale_w(p: BiPoly, t) -> BiPoly:
    c = np.array(p.coeffs)
    c *= t ** np.arange(c.shape[1])
    return BiPoly(c)


def common_factor_with_reflection(p: BiPoly):
    """Test whether p and its reflection share a factor.

    A z-only common factor is a root shared by the two z-only contents
    (``content_roots``, matched within CLUSTER_TOL); for p in z alone
    that is the whole test.  A common factor of positive w-degree forces
    shared w-roots on every z-slice, which is sampled at PREFLIGHT_SAMPLES
    slices: enough for the certificate preflight.
    """
    pt = p.trimmed()
    prev = reflect(pt, pt.deg).trimmed()
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


def _terms(n, m):
    """The (rows, sign) pairs of the congruences that L_w(A A^H) and
    L_z(B B^H - C C^H) sum, one tuple per block A, B, C.  rows are flat
    indices in the z-major (n+1) x (m+1) grid: the block's support
    ([0,n] x [0,m-1] for A, [0,n-1] x [0,m] for B and C), and that
    support shifted by w for A, by z for B and C."""
    grid = np.arange((n + 1) * (m + 1)).reshape(n + 1, m + 1)
    a, b = grid[:, :m].ravel(), grid[:n].ravel()
    return (((a, 1), (a + 1, -1)), ((b, 1), (b + m + 1, -1)),
            ((b, -1), (b + m + 1, 1)))


def _hermitian_half(h):
    """The real parts of h on and above the diagonal of its first two
    axes, then the imaginary parts above it: the real coordinates of a
    Hermitian matrix (or of a stack of them along the last axis)."""
    upper = np.triu_indices(len(h))
    half = h[upper]
    return np.concatenate([half.real, half[upper[0] < upper[1]].imag])


def _identity_gap(mats, target, deg):
    """The Hermitian half of L_w(A A^H) + L_z(B B^H - C C^H) - target,
    ``mats`` being the block matrices A, B and C at degree ``deg``."""
    gap = -target
    for x, terms in zip(mats, _terms(*deg)):
        for rows, sign in terms:
            gap[np.ix_(rows, rows)] += sign * (x @ x.conj().T)
    return _hermitian_half(gap)


def _identity_jacobian(mats, deg):
    """The Jacobian of ``_identity_gap``: one column per real part of an
    entry of A, B or C (block by block, row-major), then one per
    imaginary part.  Moving entry i of a column x of a block moves the
    congruence sum by L(e_i x^H) and its adjoint, so each column is a
    scatter of the current x, not a product."""
    size = (deg[0] + 1) * (deg[1] + 1)
    parts = []
    for x, terms in zip(mats, _terms(*deg)):
        k, c = x.shape
        part = np.zeros((size, size, k, c), dtype=complex)
        for rows, sign in terms:
            placed = np.zeros((size, c), dtype=complex)
            placed[rows] = x
            part[rows, :, np.arange(k), :] += sign * placed.conj()
        parts.append(part.reshape(size, size, -1))
    half = np.concatenate(parts, axis=2)                  # L(e_i x^H)
    adjoint = half.transpose(1, 0, 2).conj()
    return np.hstack([_hermitian_half(half + adjoint),
                      _hermitian_half(1j * (half - adjoint))])


def _refine(p: BiPoly, cert: SosCertificate) -> SosCertificate:
    """The blocks of ``cert`` refined by Gauss-Newton on the L identity of
    p at its degree (n, m), written on coefficients:

        P P^H - R R^H = L_w(A A^H) + L_z(B B^H - C C^H),

    with P, R the coefficient vectors of p and its reflection and A, B, C
    the block matrices, one column per polynomial.  The column counts are
    kept, so the inertia (m, n1, n2) is that of ``cert``.

    The unknowns are the real and imaginary parts of A, B and C, and the
    equations the Hermitian half of the identity (``_identity_gap``).
    Each step is one solve of the normal equations, damped by DAMPING
    times the relative residual (at least DAMPING_FLOOR) times their
    largest diagonal entry: the gauge maps A -> A U and the J-unitary maps
    of (B, C) leave the Jacobian a null space.  A zero of p on the torus
    makes the solution a double root along some directions, where a full
    step only halves the error, so each step is taken once or twice over,
    whichever leaves the smaller residual.  The refinement ends at
    REFINE_STEPS steps, at a relative residual (in the Frobenius norm,
    over |P|^2) of REFINE_FLOOR, or after REFINE_STALL steps without a
    new best; the best iterate is returned, residual not yet verified
    (nan).  A Jacobian of more than REFINE_MAX_ENTRIES entries is not
    built, and ``cert`` is returned as it is.
    """
    n, m = deg = cert.deg
    pr = _columns((p, reflect(p, deg)), n + 1, m + 1)
    target = np.outer(pr[:, 0], pr[:, 0].conj()) - np.outer(pr[:, 1], pr[:, 1].conj())
    scale = np.vdot(pr[:, 0], pr[:, 0]).real
    mats = [_columns(cert.a_list, n + 1, m), _columns(cert.b_list, n, m + 1),
            _columns(cert.c_list, n, m + 1)]
    unknowns = 2 * sum(x.size for x in mats)
    if len(target) ** 2 * unknowns > REFINE_MAX_ENTRIES:
        return cert
    cuts = np.cumsum([x.size for x in mats])[:-1]
    r = _identity_gap(mats, target, deg)
    rel = np.linalg.norm(r) / scale
    best, stall = (rel, mats), 0
    for _ in range(REFINE_STEPS):
        if best[0] <= REFINE_FLOOR or stall == REFINE_STALL:
            break
        jac = _identity_jacobian(mats, deg)
        normal = jac.T @ jac
        normal[np.diag_indices_from(normal)] += \
            max(DAMPING * rel, DAMPING_FLOOR) * normal.diagonal().max()
        step = np.linalg.solve(normal, -(jac.T @ r))
        step = step[: unknowns // 2] + 1j * step[unknowns // 2:]
        steps = [d.reshape(x.shape) for d, x in zip(np.split(step, cuts), mats)]
        trials = [[x + f * d for x, d in zip(mats, steps)] for f in (1, 2)]
        gaps = [_identity_gap(trial, target, deg) for trial in trials]
        pick = int(np.linalg.norm(gaps[1]) < np.linalg.norm(gaps[0]))
        r, mats = gaps[pick], trials[pick]
        rel = np.linalg.norm(r) / scale
        best, stall = ((rel, mats), 0) if rel < best[0] else (best, stall + 1)
    a, b, c = (tuple(BiPoly(col.reshape(shape)) for col in x.T) for x, shape in
               zip(best[1], ((n + 1, m), (n, m + 1), (n, m + 1))))
    return replace(cert, a_list=a, b_list=b, c_list=c, residual=np.nan)


def certificate_open_face(p: BiPoly, tol=1e-8) -> SosCertificate:
    """Certificate for p with no zeros on |z| = 1, |w| < 1.

    Zeros on the torus itself are allowed provided p shares no factor
    with its reflection.  Shrinking w by T0 moves the zeros off the
    closed face; the closed-face blocks of p(z, T0 w) are then refined
    at t = 1 by Gauss-Newton on the identity of p itself (``_refine``),
    and returned when ``verify_certificate`` puts them within ``tol``.
    """
    pt = p.trimmed()
    if common_factor_with_reflection(pt):
        raise CommonFactor("p shares a factor with its reflection")
    try:
        return certificate_closed_face(pt)
    except (MomentDivergence, RootNearTorus, DegenerateForm):
        pass
    try:
        start = _blocks_closed_face(_scale_w(pt, T0), pt.deg)
    except (MomentDivergence, RootNearTorus, DegenerateForm) as exc:
        raise NoConvergence(f"no certificate of p(z, {T0} w): {exc}") from exc
    cert = _refine(pt, start)
    cert = replace(cert, residual=verify_certificate(pt, cert).residual)
    if cert.residual <= tol:
        return cert
    raise NoConvergence(f"best residual {cert.residual:.3e} above tolerance {tol}")
