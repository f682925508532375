"""Sum-of-hermitian-squares certificates.

For p of degree (n, m) with no zeros on the closed face |z| = 1,
|w| <= 1, the kernel identity

    p pbar - prev prevbar = (1 - w etabar) sum A_j A_jbar
        + (1 - z zetabar) (sum B_j B_jbar - sum C_j C_jbar)

holds as polynomials in (z, w, conj zeta, conj eta), with m polynomials
A of degree (n, m-1), and n1 = n - n2 polynomials B and n2 polynomials C
of degree (n-1, m), n2 the number of zeros of p(z, 0) in the disk
(Geronimo and Woerdeman, Annals of Math. 160, 2004; Knese, Analysis &
PDE 3, 2010).  The blocks are built from the Schur-Cohn matrix S(z) of
the slices w -> p(z, w) (``poly._schur_cohn``), without 2-D quadrature:
at zeta = z on the circle the identity leaves S = sum |A_j(z, .)|^2, so
the A block is the outer matrix Fejer-Riesz factor of S, found from the
z-moments of S^-1 (``moments._inverse_moments``); what A leaves of the
kernel is L_z(H), and B and C are H's eigenvectors of the two signs.
They are not moment-space bases of the paper's subspaces E2, K2 and K1.

That L identity is the only one certified here, and it is checked on
coefficients, as P P^H - R R^H = L_w(A A^H) + L_z(B B^H - C C^H) on the
(n+1) x (m+1) monomial grid, with L(X) = X - S X S^T for the shift S by
w or by z, on the kernel and the block matrices as built.  Its G form,
p pbar - w etabar prev prevbar, takes the same blocks with the
reflection of p appended to the A block; ``detrep`` composes it.  A
sampled face zero refuses the closed-face certificate.  Polynomials with
zeros on the torus (but none on |z| = 1, |w| < 1, and no common factor
with their reflection) are handled by shrinking w once: the closed-face
blocks of p(z, T0 w) are refined at t = 1 by Gauss-Newton on that
identity of p itself, down to round-off and within ``tol``.  The refined
blocks keep the counts (m, n1, n2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (CommonFactor, DegenerateForm, InvalidDegree,
                     MomentDivergence, NoConvergence, RootNearTorus,
                     ZeroPolynomial)
from .moments import _inverse_moments
from .poly import (CLUSTER_TOL, FACE_MARGIN, BiPoly, _assert_no_face_zeros,
                   _diagonal_sums, _kernel, _schur_cohn, _split_at_w0, _w_roots,
                   content_roots, reflect)

T0 = 0.9                # w-shrink factor of the open-face starting blocks
REFINE_STEPS = 60       # Gauss-Newton step cap of the open-face refinement
REFINE_STALL = 3        # steps without a new best residual that end it
REFINE_FLOOR = 16 * np.finfo(float).eps   # relative residual that ends it
DAMPING = 1e-5          # normal-equation ridge per unit of relative residual
DAMPING_FLOOR = 1e-15   # least ridge; both relative to the largest diagonal entry
REFINE_MAX_ENTRIES = 2 ** 22   # largest Jacobian refined (degree (6, 6) is 2.4e6)
PREFLIGHT_SAMPLES = 8   # z-slices compared by _common_factor_with_reflection
RANK_TOL = 1e-10        # what B and C leave of H, relative to |P|^2


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
    flattened z-major, as the columns of one matrix.  A nonzero
    coefficient outside rows x cols raises InvalidDegree."""
    out = np.zeros((rows, cols, len(polys)), dtype=complex)
    for j, q in enumerate(polys):
        c = q.coeffs
        if np.any(c[rows:]) or np.any(c[:, cols:]):
            raise InvalidDegree(f"a polynomial of degree {q.deg} beyond {rows} x {cols}")
        out[: c.shape[0], : c.shape[1], j] = c[:rows, :cols]
    return out.reshape(rows * cols, len(polys))


def _block_terms(n, m):
    """(support, shift axis, sign) of the blocks A, B and C at degree
    (n, m): L_w(A A^H) + L_z(B B^H - C C^H), with w on axis 1."""
    return ((n + 1, m), 1, 1), ((n, m + 1), 0, 1), ((n, m + 1), 0, -1)


def _add_l(out, h, shape, axis, deg):
    """out += L(h) = h - S h S^T on the z-major (n+1) x (m+1) grid, h being
    a matrix (or a stack of them along further axes) on a block's support
    ``shape`` and S the shift by z (axis 0) or by w (axis 1), which keeps
    that support on the grid: h added to one slice of the
    (n+1, m+1, n+1, m+1, ...) view of out and subtracted from its shift."""
    n, m = deg
    view = out.reshape(n + 1, m + 1, n + 1, m + 1, *out.shape[2:])
    h = h.reshape(*shape, *shape, *h.shape[2:])
    at = [slice(0, shape[0]), slice(0, shape[1])]
    view[(*at, *at)] += h
    at[axis] = slice(1, shape[axis] + 1)
    view[(*at, *at)] -= h


def _identity_gap(mats, target, deg):
    """L_w(A A^H) + L_z(B B^H - C C^H) - target on the (n+1) x (m+1) grid,
    ``mats`` being the block matrices A, B and C at degree ``deg``."""
    gap = -target
    for x, (shape, axis, sign) in zip(mats, _block_terms(*deg)):
        if x.shape[1]:
            _add_l(gap, (sign * x) @ x.conj().T, shape, axis, deg)
    return gap


def verify_certificate(p: BiPoly, cert: SosCertificate) -> ResidualReport:
    """Largest coefficient gap of the certificate identity, over |P|^2.

    The identity is one of polynomials, so it holds or fails on its
    coefficients, the entries of L_w(A A^H) + L_z(B B^H - C C^H)
    - (P P^H - R R^H) (``_identity_gap``).  The residual is their largest
    modulus over |P|^2 = sum |p_jk|^2, which neither a common scale of p
    and the blocks nor a rotation of the torus moves; the worst point is
    the monomial pair ((j, k), (j', k')) where it sits, the coefficient of
    z^j w^k conj(zeta)^j' conj(eta)^k'.
    """
    mats = [_columns(polys, *shape) for polys, (shape, _, _) in
            zip((cert.a_list, cert.b_list, cert.c_list), _block_terms(*cert.deg))]
    return _report(*_kernel(p, cert.deg), mats, cert.deg)


def _report(target, scale, mats, deg):
    """The report of the block matrices ``mats`` against T and |P|^2."""
    n, m = deg
    gap = np.abs(_identity_gap(mats, target, deg)).reshape((n + 1, m + 1) * 2)
    j, k, jj, kk = map(int, np.unravel_index(np.argmax(gap), gap.shape))
    return ResidualReport(residual=float(gap[j, k, jj, kk] / scale),
                          worst_point=((j, k), (jj, kk)))


def _certificate(target, scale, mats, deg):
    """The certificate of the block matrices ``mats``, one polynomial a
    column, with their residual against T and |P|^2, as verified."""
    return SosCertificate(*(tuple(BiPoly(col.reshape(shape)) for col in x.T)
                            for x, (shape, _, _) in zip(mats, _block_terms(*deg))),
                          residual=_report(target, scale, mats, deg).residual, deg=deg)


def _outer_factor(s):
    """G_j, j = 0..n, as (n+1, m, m), of the outer factor G(z) = sum G_j z^j
    with G G^H = S on the circle, from the coefficients S_d of S.

    With M the block Toeplitz matrix [R_(i-j)] of the moments of S^-1
    (``moments._inverse_moments``), R_-e = R_e^H, the first block column Y
    of M^-1 is G(z) G_0^H: for an outer G, S^-1 G = G^-H has no positive
    z-moments and the z-moment G_0^-H at 0.  So Y_0 = G_0 G_0^H = L L^H, and
    G_j = Y_j L^-H is G up to a constant unitary on the right.

    The moments carry the round-off of S^-1 at the samples, up to cond(S)
    times eps, and so would G G^H - S.  One Newton step on the last
    level's new points takes G to round-off (Wilson, SIAM J. Appl. Math.
    23, 1972): with E = S - G G^H and F = G^-1 E G^-H, where G^-1 = G^H S^-1
    to first order, X = F_0 / 2 + sum over d >= 1 of F_d z^d solves
    X + X^H = F, so G + G X meets E to first order, and its z-degrees
    0..n are the step.  The step is kept where it lowers the largest
    sampled E.
    """
    n, m = (len(s) - 1) // 2, s.shape[1]
    r, vz, sz, inv = _inverse_moments(s)
    blocks = np.concatenate([r[:0:-1].conj().swapaxes(1, 2), r])    # R_-n..R_n
    i, j = np.indices((n + 1, n + 1))
    toeplitz = blocks[i - j + n].transpose(0, 2, 1, 3).reshape((n + 1) * m, -1)
    y = np.linalg.solve(toeplitz, np.eye((n + 1) * m, m)).reshape(n + 1, m, m)
    chol = np.linalg.cholesky(0.5 * (y[0] + y[0].conj().T))
    g = np.linalg.solve(chol, y.conj().swapaxes(1, 2)).conj().swapaxes(1, 2)

    def values(coeffs):             # z-degrees 0..n at the samples
        return (vz @ coeffs.reshape(n + 1, -1)).reshape(-1, m, m)

    def coefficients(vals):         # z-degrees 0..n of samples
        return vz.T.conj() @ vals.reshape(len(vz), -1) / len(vz)

    def adjoint(a):
        return a.conj().swapaxes(1, 2)

    gz = values(g)
    ez = sz - gz @ adjoint(gz)
    gi = adjoint(gz) @ inv
    x = coefficients(gi @ ez @ adjoint(gi))
    x[0] *= 0.5
    step = coefficients(gz @ values(x))
    gz = gz + values(step)
    better = np.abs(sz - gz @ adjoint(gz)).max() < np.abs(ez).max()
    return g + step.reshape(n + 1, m, m) if better else g


def _range_basis(h, rank):
    """Orthonormal columns spanning ``rank`` columns of h, picked as QR with
    column pivoting picks them (Businger and Golub, 1965): each the column
    of largest norm once the span of those before is projected out, the
    norms downdated as the columns are added.  A column already in that
    span adds a zero column."""
    q = np.zeros((len(h), rank), dtype=complex)
    norms = np.einsum("ij,ij->j", h.conj(), h).real
    for i in range(rank):
        v = h[:, int(np.argmax(norms))]
        for _ in range(2):          # twice is enough (Giraud et al., 2005)
            v = v - q[:, :i] @ (q[:, :i].conj().T @ v)
        size = np.linalg.norm(v)
        if size > 0.0:
            q[:, i] = v / size
            norms -= np.abs(q[:, i].conj() @ h) ** 2
    return q


def _blocks_closed_face(p: BiPoly, deg):
    """(T, |P|^2, (A, B, C)): the kernel of p at a degree pair ``deg`` at or
    above p's (``poly._kernel``), and the block matrices built from it, one
    column per polynomial, z-major on each block's support.

    A (m polynomials on the support (n+1, m)) is the outer factor G of the
    Schur-Cohn matrix S(z) of p's slices (``_outer_factor``),
    A_i[j, k] = G_j[k, i]: on |z| = 1 the identity at zeta = z leaves
    S = sum |A_i(z, .)|^2 as forms in w.  What A leaves of the kernel,
    T - L_w(A A^H), then vanishes at zeta = z, so it is L_z(H) for H on the
    support (n, m+1), summed from the top z-degree down.  H has rank n,
    so its eigenpairs beyond round-off are those of Q^H H Q, Q spanning n
    of its columns (``_range_basis``).  With n2 the number of roots of
    p(z, 0) in the disk and n1 = n - n2, B is V+ lam+^1/2 (= H V+ lam+^-1/2)
    over the n1 largest of them and C is V- |lam-|^1/2 over the n2 least.
    What they leave of H, in the Frobenius norm, and any eigenvalue of the
    wrong sign for its block must be within RANK_TOL of |P|^2, or the form
    is a DegenerateForm.  p = 0, and p(z, 0) = 0, are refused first.
    """
    pt = p.trimmed()
    if not pt.coeffs.any():
        raise ZeroPolynomial("density 1/|p|^2 needs a nonzero p")
    n, m = deg
    n2 = _split_at_w0(pt).beta
    n1 = n - n2
    target, scale = _kernel(pt, deg)
    rest = target.copy()
    a = np.zeros(((n + 1) * m, 0), dtype=complex)
    if m:
        # G_j[k, i] = A_i[j, k]: column i of a is A_i, z-major on its support
        a = _outer_factor(_schur_cohn(target, deg)).reshape(-1, m)
        _add_l(rest, -(a @ a.conj().T), (n + 1, m), 1, deg)
    # H[j, j'] = -sum over i >= 1 of rest[j + i, j' + i], from the top down
    flipped = rest.reshape(n + 1, m + 1, n + 1, m + 1).transpose(0, 2, 1, 3)[::-1, ::-1]
    h = -_diagonal_sums(flipped)[:n, :n][::-1, ::-1]
    h = h.transpose(0, 2, 1, 3).reshape(n * (m + 1), n * (m + 1))
    q = _range_basis(h, n)
    lam, vec = np.linalg.eigh(q.conj().T @ h @ q)
    vec = q @ vec
    sign = np.ones(n)
    sign[:n2] = -1.0                     # the C slots, then the B slots
    off = max(np.maximum(-sign * lam, 0.0).max(initial=0.0),
              np.linalg.norm(h - (vec * lam) @ vec.conj().T))
    if not off <= RANK_TOL * scale:
        raise DegenerateForm(
            f"H is {off / scale:.3e} |P|^2 away from the counts "
            f"(n1, n2) = ({n1}, {n2})")
    root = vec * np.sqrt(np.maximum(sign * lam, 0.0))
    return target, scale, (a, root[:, n2:], root[:, :n2])


def certificate_closed_face(p: BiPoly) -> SosCertificate:
    """Certificate for p with no zeros on the closed face.

    Block counts are (m, n1, n2), with n2 the number of zeros of p(z, 0)
    in the open disk.  Once they are built, ``factor_trig``'s sampled face
    test refuses a p with face zeros, whose blocks certify another p.
    """
    built = _blocks_closed_face(p, deg := p.trimmed().deg)
    _assert_no_face_zeros(p)
    return _certificate(*built, deg)


def _common_factor_with_reflection(p: BiPoly):
    """Test whether p and its reflection share a factor.

    A z-only common factor is a root shared by the two z-only contents
    (``content_roots``, matched within CLUSTER_TOL); for p in z alone
    that is the whole test.  A common factor of positive w-degree forces
    shared w-roots on every z-slice, which is sampled at PREFLIGHT_SAMPLES
    slices: enough to refuse the refinement.
    """
    pt = p.trimmed()
    prev = reflect(pt, pt.deg).trimmed()
    r1, r2 = content_roots(pt), content_roots(prev)
    if np.abs(r1[:, None] - r2[None, :]).min(initial=np.inf) < CLUSTER_TOL:
        return True
    zs = 0.9371 * np.exp(2j * np.pi * (np.arange(PREFLIGHT_SAMPLES) + 0.17)
                         / PREFLIGHT_SAMPLES)
    _, r1 = _w_roots(pt, zs)
    _, r2 = _w_roots(prev, zs)
    # a slice without roots has gap inf, one with a nan row decides nothing
    gap = np.abs(r1[:, :, None] - r2[:, None, :]).min((1, 2), initial=np.inf)
    return not np.any(gap >= CLUSTER_TOL)


@lru_cache(maxsize=32)
def _upper(n):
    """np.triu_indices(n) and its mask above the diagonal, cached read-only."""
    upper = np.triu_indices(n)
    strict = upper[0] < upper[1]
    for a in (*upper, strict):
        a.setflags(write=False)
    return upper, strict


def _hermitian_half(h):
    """The real parts of h on and above the diagonal of its first two
    axes, then the imaginary parts above it: the real coordinates of a
    Hermitian matrix (or of a stack of them along the last axis)."""
    upper, strict = _upper(len(h))
    half = h[upper]
    return np.concatenate([half.real, half[strict].imag])


def _identity_jacobian(mats, deg):
    """The Jacobian of ``_identity_gap``: one column per real part of an
    entry of A, B or C (block by block, row-major), then one per
    imaginary part.  Moving entry i of a column x of a block moves the
    congruence sum by L(e_i x^H) and its adjoint, so each column is the
    operator on a placement of the current x, not a product."""
    size = (deg[0] + 1) * (deg[1] + 1)
    parts = []
    for x, (shape, axis, sign) in zip(mats, _block_terms(*deg)):
        k, c = x.shape
        placed = np.zeros((k, k, k, c), dtype=complex)          # e_i x^H
        placed[np.arange(k), :, np.arange(k)] = sign * x.conj()
        part = np.zeros((size, size, k, c), dtype=complex)
        _add_l(part, placed, shape, axis, deg)
        parts.append(part.reshape(size, size, -1))
    half = np.concatenate(parts, axis=2)                  # L(e_i x^H)
    adjoint = half.transpose(1, 0, 2).conj()
    return np.hstack([_hermitian_half(half + adjoint),
                      _hermitian_half(1j * (half - adjoint))])


def _refine(p: BiPoly, mats, deg):
    """(T, |P|^2, (A, B, C)): the kernel of p at ``deg`` and the block
    matrices ``mats`` refined by Gauss-Newton on the L identity of p on
    coefficients.  The column counts are kept, so the inertia (m, n1, n2)
    is that of ``mats``.

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
    new best; the best iterate is returned.
    """
    target, scale = _kernel(p, deg)
    unknowns = 2 * sum(x.size for x in mats)
    cuts = np.cumsum([x.size for x in mats])[:-1]
    r = _hermitian_half(_identity_gap(mats, target, deg))
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
        gaps = [_hermitian_half(_identity_gap(trial, target, deg))
                for trial in trials]
        pick = int(np.linalg.norm(gaps[1]) < np.linalg.norm(gaps[0]))
        r, mats = gaps[pick], trials[pick]
        rel = np.linalg.norm(r) / scale
        best, stall = ((rel, mats), 0) if rel < best[0] else (best, stall + 1)
    return target, scale, best[1]


def certificate_open_face(p: BiPoly, tol=1e-8) -> SosCertificate:
    """Certificate for p with no zeros on |z| = 1, |w| < 1.

    Zeros on the torus itself are allowed provided p shares no factor
    with its reflection.  A closed-face certificate within ``tol`` is
    returned as it is.  Otherwise a sampled zero inside the open face
    (``_assert_no_face_zeros`` at radius 1 - FACE_MARGIN) is refused as
    RootNearTorus, and shrinking w by T0 moves the zeros off the closed
    face; the closed-face blocks of p(z, T0 w) are then refined at t = 1
    by Gauss-Newton on the identity of p itself (``_refine``), and
    returned when their residual, taken from the refined matrices, is
    within ``tol``.
    A degree past REFINE_MAX_ENTRIES Jacobian entries is refused up front.
    """
    pt = p.trimmed()
    try:
        cert = certificate_closed_face(pt)
        if cert.residual <= tol:
            return cert
    except (MomentDivergence, RootNearTorus, DegenerateForm):
        pass
    _assert_no_face_zeros(pt, 1.0 - FACE_MARGIN)
    if _common_factor_with_reflection(pt):
        raise CommonFactor("p shares a factor with its reflection")
    n, m = pt.deg     # _refine's Jacobian size depends on the degree alone
    entries = ((n + 1) * (m + 1)) ** 2 * 2 * ((n + 1) * m * m + n * n * (m + 1))
    if entries > REFINE_MAX_ENTRIES:
        raise NoConvergence(f"Jacobian of {entries} entries at degree {pt.deg} "
                            f"exceeds REFINE_MAX_ENTRIES = {REFINE_MAX_ENTRIES}")
    try:
        shrunk = BiPoly(pt.coeffs * T0 ** np.arange(m + 1))      # p(z, T0 w)
        _, _, start = _blocks_closed_face(shrunk, pt.deg)
    except (MomentDivergence, RootNearTorus, DegenerateForm) as exc:
        raise NoConvergence(f"no certificate of p(z, {T0} w): {exc}") from exc
    cert = _certificate(*_refine(pt, start, pt.deg), pt.deg)
    if cert.residual <= tol:
        return cert
    raise NoConvergence(f"best residual {cert.residual:.3e} above tolerance {tol}")
