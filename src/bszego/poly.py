"""Dense complex polynomials in two variables.

``BiPoly`` stores a coefficient grid ``coeffs[j, k]`` = coefficient of
``z**j * w**k``.  A polynomial in z alone, such as the slice p(z, 0), is
a ``BiPoly`` of one column.  Degrees in this artifact stay small
(<= ~16 per variable), so everything is dense and direct.  Zero is exact
zero, and every other floor is relative to the largest coefficient.
The slice verdicts (``_assert_no_face_zeros``, ``_split_at_w0``) live
here, beside the root finders they call.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidDegree, RootNearTorus, ZeroPolynomial

TRIM_REL = 1e-12          # drop trailing coefficients below this times max |coeff|
ROOT_MARGIN = 1e-6        # width of the forbidden band around |root| = 1
CLUSTER_TOL = 1e-6        # roots this close count as shared
PHASE_TIE_REL = 1e-8      # _canonical_phase: moduli this close to the row maximum tie
FACE_SAMPLES = 64         # z points on the circle in _assert_no_face_zeros
FACE_MARGIN = 1e-7        # w-roots this close to the closed disk are face zeros


def _readonly(a):
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BiPoly:
    """Bivariate polynomial p(z, w) = sum coeffs[j, k] z^j w^k."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if arr.ndim != 2:
            raise InvalidDegree("coefficient array must be 2-D")
        object.__setattr__(self, "coeffs", _readonly(arr))

    # -- basic queries ------------------------------------------------------

    @property
    def deg(self):
        """Declared degree pair (n, m) from the stored grid shape."""
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    def __call__(self, z, w):
        return npoly.polyval2d(np.asarray(z), np.asarray(w), self.coeffs)

    def trimmed(self):
        """Drop trailing rows/columns with all entries < TRIM_REL * max|coeff|.

        Returns self when the last row and the last column each hold an
        entry at or above that floor, since nothing trims.
        """
        a = self.coeffs
        mag = np.abs(a)
        mx = mag.max()
        if mx == 0.0:
            return BiPoly(np.zeros((1, 1)))
        floor = TRIM_REL * mx
        if mag[-1].max() >= floor and mag[:, -1].max() >= floor:
            return self
        keep = mag >= floor
        rows = np.nonzero(keep.any(axis=1))[0]
        cols = np.nonzero(keep.any(axis=0))[0]
        n = rows.max() if rows.size else 0
        m = cols.max() if cols.size else 0
        return BiPoly(a[: n + 1, : m + 1])

    # -- arithmetic ---------------------------------------------------------

    def _padded_to(self, shape):
        out = np.zeros(shape, dtype=complex)
        out[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        return out

    def __add__(self, other):
        other = _as_bipoly(other)
        shape = (max(self.coeffs.shape[0], other.coeffs.shape[0]),
                 max(self.coeffs.shape[1], other.coeffs.shape[1]))
        return BiPoly(self._padded_to(shape) + other._padded_to(shape))

    def __sub__(self, other):
        return self + (-_as_bipoly(other))

    def __neg__(self):
        return BiPoly(-self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return BiPoly(self.coeffs * other)
        other = _as_bipoly(other)
        (ja, ka), (jb, kb) = self.coeffs.shape, other.coeffs.shape
        # rows zero-padded to the product's width convolve without carries
        width = ka + kb - 1
        out = np.convolve(self._padded_to((ja, width)).ravel(),
                          other._padded_to((jb, width)).ravel())
        return BiPoly(out[: (ja + jb - 1) * width].reshape(-1, width))

    __rmul__ = __mul__

    def shifted(self, dz, dw):
        """Multiply by z^dz w^dw (a monomial shift of the grid)."""
        out = np.zeros((self.coeffs.shape[0] + dz, self.coeffs.shape[1] + dw),
                       dtype=complex)
        out[dz:, dw:] = self.coeffs
        return BiPoly(out)

    def w_derivative(self):
        n, m = self.deg
        if m == 0:
            return BiPoly(np.zeros((n + 1, 1)))
        return BiPoly(self.coeffs[:, 1:] * np.arange(1, m + 1))

    def z_slice(self):
        """The slice p(z, 0), a one-column BiPoly."""
        return BiPoly(self.coeffs[:, :1])

    def w_poly_at(self, z0):
        """Coefficients (ascending in w) of the slice p(z0, w)."""
        return npoly.polyval(z0, self.coeffs)  # contracts the z axis


def _as_bipoly(x) -> BiPoly:
    if isinstance(x, BiPoly):
        return x
    if np.isscalar(x):
        return BiPoly(np.array([[x]], dtype=complex))
    return BiPoly(np.asarray(x, dtype=complex))


@dataclass(frozen=True)
class RootSplit:
    """Factorization u = stable * unstable with unstable monic.

    Both factors are one-column BiPolys in z.  ``stable`` has no roots in
    the closed unit disk, ``unstable`` has all roots in the open disk,
    ``beta`` is the degree of the unstable part.
    """

    stable: BiPoly
    unstable: BiPoly
    beta: int


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def reflect(p: BiPoly, at) -> BiPoly:
    """Reflection z^J w^K conj(p)(1/z, 1/w) at the degree pair ``at``.

    Involutive at a fixed degree pair, and |reflect(p)| = |p| on the
    bicircle.  Raises InvalidDegree if ``at`` is below the actual degree.
    """
    J, K = int(at[0]), int(at[1])
    t = p.trimmed()
    n, m = t.deg
    if J < n or K < m:
        raise InvalidDegree(f"reflection degree {(J, K)} below actual {(n, m)}")
    out = np.zeros((J + 1, K + 1), dtype=complex)
    out[J - n:, K - m:] = np.conj(t.coeffs)[::-1, ::-1]
    return BiPoly(out)


def _kernel(p: BiPoly, deg):
    """The kernel T = P P^H - R R^H of p at the degree pair ``deg``, and |P|^2.

    P and R are the coefficient grids of p and of its reflection at
    ``deg``, (n+1) x (m+1) and flattened z-major, so T[(j, k), (j', k')] is
    the coefficient of z^j w^k conj(zeta)^j' conj(eta)^k' in
    p(z, w) conj p(zeta, eta) - R(z, w) conj R(zeta, eta).  P is R reversed
    and conjugated, exactly.  Raises InvalidDegree below p's degree.
    """
    r = reflect(p, deg).coeffs.ravel()
    q = np.conj(r[::-1])
    return np.outer(q, q.conj()) - np.outer(r, r.conj()), np.vdot(q, q).real


def _skewed(a):
    """A copy of ``a`` whose column K - 1 - d holds the diagonal k - k' = d,
    d = -(K-1)..K-1, of its first two (K x K) axes, zero padded, and the
    index of ``a``'s entries in it."""
    size = len(a)
    k, kk = np.indices((size, size))
    at = (k, kk - k + size - 1)
    skew = np.zeros((size, 2 * size - 1, *a.shape[2:]), dtype=a.dtype)
    skew[at] = a
    return skew, at


def _diagonal_sums(a):
    """The partial sums c[k, k'] = sum over i >= 0 of a[k - i, k' - i] along
    the diagonals of the first two (K x K) axes of ``a``: one cumulative
    sum down the columns of the skewed copy."""
    skew, at = _skewed(a)
    return np.cumsum(skew, axis=0)[at]


def _diagonal_totals(a):
    """The totals of the diagonals k - k' = d, d = -(K-1)..K-1 in that
    order, of the first two (K x K) axes of ``a``: the column sums of the
    skewed copy, bit for bit the last row of its cumulative sum."""
    return _skewed(a)[0].sum(axis=0)[::-1]


def _schur_cohn(kernel, deg):
    """The coefficients S_d, d = -n..n, of the Schur-Cohn matrix
    S(z) = sum_d S_d z^d of the slices w -> p(z, w), as (2n+1, m, m).

    ``kernel`` is T = P P^H - R R^H of p at ``deg`` (``_kernel``).  On
    |z| = 1, conj(zeta) = 1/z restricts it to X(z) = sum_d X_d z^d with
    X_d = sum over j - j' = d of T[(j, .), (j', .)], the kernel of the
    slice alone; S = L_w^-1(X), S[k, k'] = sum over i >= 0 of
    X[k - i, k' - i], whose row and column m vanish.  S(z) is the
    Christoffel-Darboux (Gohberg-Semencul) matrix of the slice: positive
    definite exactly when the slice has no root in the closed disk, and
    then its inverse is the Toeplitz matrix of the slice's w-moments of
    1/|p(z, w)|^2.  All of it is sums of kernel entries, exact up to their
    rounding; no root is taken.
    """
    n, m = deg
    t = kernel.reshape(n + 1, m + 1, n + 1, m + 1).transpose(0, 2, 1, 3)
    x = _diagonal_totals(t)                        # X_d, (2n+1, m+1, m+1)
    return _diagonal_sums(x.transpose(1, 2, 0)[:m, :m]).transpose(2, 0, 1)


def roots(u: BiPoly):
    """All roots (with multiplicity) of a polynomial in z alone.

    Companion-matrix eigenvalues of the trimmed one-column ``u``; raises
    InvalidDegree if ``u`` depends on w.
    """
    t = u.trimmed()
    if not t.coeffs.any():
        raise ZeroPolynomial("cannot take roots of the zero polynomial")
    n, m = t.deg
    if m > 0:
        raise InvalidDegree(f"roots of a polynomial in w, degree {(n, m)}")
    if n == 0:
        return np.zeros(0, dtype=complex)
    return np.roots(t.coeffs[::-1, 0])


def _w_roots(p: BiPoly, zs):
    """Coefficients (m+1, S) and w-roots (S, m) of the slices p(zs[s], w).

    The roots are the eigenvalues of the companion matrices ``np.roots``
    builds, from one batched call; a slice whose w^m coefficient is
    exactly 0 gets a row of nan.
    """
    coeffs = p.w_poly_at(np.asarray(zs))
    m = coeffs.shape[0] - 1
    ok = coeffs[m] != 0
    out = np.full((ok.size, m), np.nan, dtype=complex)
    if m and ok.any():
        comp = np.zeros((int(ok.sum()), m, m), dtype=complex)
        comp[:, 0] = -coeffs[m - 1::-1, ok].T / coeffs[m, ok, None]
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        out[ok] = np.linalg.eigvals(comp)
    return coeffs, out


def _roots_beyond(coeffs, rho):
    """Whether every w-root of each slice (column of ``coeffs``) has |w| > rho.

    Schur-Cohn recursion on b(rho u), for all slices at once: a step at
    top degree j requires |b_0| > |b_j|, then replaces b by
    conj(b_0) b - b_j b*, b* the reflection at degree j, which keeps b's
    roots in the closed unit disk (Rouche) and drops the degree to j - 1.
    Every step is rescaled by its largest coefficient, which would
    otherwise square away to overflow by degree 16.  A top coefficient
    that is exactly 0 passes as a root at infinity.
    """
    b = coeffs * rho ** np.arange(coeffs.shape[0])[:, None]
    ok = np.ones(b.shape[1], dtype=bool)
    for j in range(b.shape[0] - 1, 0, -1):
        ok &= np.abs(b[0]) > np.abs(b[j])
        b = np.conj(b[0]) * b[:j] - b[j] * np.conj(b[j:0:-1])
        scale = np.abs(b).max(axis=0)
        b /= np.where(scale > 0.0, scale, 1.0)
    return ok


def split_stable(u: BiPoly) -> RootSplit:
    """Split u, in z alone, into a stable and a monic unstable factor.

    The factors part u's roots by modulus.  Raises RootNearTorus if any
    root lies within ROOT_MARGIN of the unit circle; the theory requires
    a clean separation.  Raises ZeroPolynomial for the zero polynomial.
    """
    rts = roots(u)
    c = u.coeffs[: rts.size + 1, 0]     # trimmed u: one root per degree
    mods = np.abs(rts)
    near = np.abs(mods - 1.0) <= ROOT_MARGIN
    if np.any(near):
        worst = rts[np.argmin(np.abs(mods - 1.0))]
        raise RootNearTorus(
            f"root {worst} within {ROOT_MARGIN} of the unit circle")
    inside = rts[mods < 1.0]
    outside = rts[mods > 1.0]
    unstable = npoly.polyfromroots(inside) if inside.size else np.ones(1)
    stable = c[-1] * npoly.polyfromroots(outside) if outside.size else c[-1:]
    prod = np.convolve(stable, unstable)
    err = np.max(np.abs(prod - c)) / np.max(np.abs(c))
    if not err <= 1e-8:
        raise RootNearTorus(f"stable/unstable refactorization residual {err:.3e}")
    return RootSplit(stable=BiPoly(stable[:, None]),
                     unstable=BiPoly(unstable[:, None]), beta=int(inside.size))


def _split_at_w0(p: BiPoly):
    """``split_stable`` of the slice p(z, 0) of a trimmed p, whose beta
    counts p's zeros (z, 0) in the disk; a slice below TRIM_REL of p's
    largest coefficient is a zero of p along w = 0 (RootNearTorus)."""
    p0 = p.z_slice()
    if np.max(np.abs(p0.coeffs)) < TRIM_REL * np.max(np.abs(p.coeffs)):
        raise RootNearTorus("p(z, 0) vanishes identically (zero at w = 0)")
    return split_stable(p0)


def _assert_no_face_zeros(p: BiPoly, radius=1.0 + FACE_MARGIN):
    """Sampled check that p has no zeros on |z| = 1, |w| < radius.

    A z-slice vanishes when every coefficient is at most 1e-10 of p's
    largest; every other slice is decided by a Schur-Cohn recursion at
    ``radius``, and only the reported slice's w-roots are computed.  Every
    split, ``factor_trig`` and ``certificate_closed_face`` run it at
    1 + FACE_MARGIN, for the closed face, and ``certificate_open_face`` at
    1 - FACE_MARGIN, for the open face.
    """
    pt = p.trimmed()
    zs = np.exp(2j * np.pi * (np.arange(FACE_SAMPLES) + 0.31) / FACE_SAMPLES)
    wcoef = pt.w_poly_at(zs)
    vanishes = np.abs(wcoef).max(axis=0) <= 1e-10 * np.abs(pt.coeffs).max()
    bad = vanishes | ~_roots_beyond(wcoef, radius)
    if bad.any():
        i = int(np.argmax(bad))           # the first failing z in grid order
        if vanishes[i]:
            raise RootNearTorus(f"p({zs[i]}, w) vanishes identically in w")
        low = np.abs(np.roots(wcoef[::-1, i])).min()   # np.roots drops a zero top
        raise RootNearTorus(f"w-root of modulus {low:.6f} at z = {zs[i]}")


def content_roots(p: BiPoly):
    """Roots, with multiplicity, of the z-only content of p.

    The content is read from the roots of the w-columns above 1e-9 of
    max |coeff|: each root of the column with the fewest roots is kept
    as many times as the fewest roots within CLUSTER_TOL of it in any
    column, unless one within CLUSTER_TOL of it is kept already.
    Raises ZeroPolynomial for the zero polynomial.
    """
    t = p.trimmed()
    if not t.coeffs.any():
        raise ZeroPolynomial("the zero polynomial has no content")
    scale = np.max(np.abs(t.coeffs))
    cols = [roots(BiPoly(c[:, None])) for c in t.coeffs.T
            if np.max(np.abs(c)) > 1e-9 * scale]
    kept = []
    for r in min(cols, key=len):
        if all(abs(r - k) > CLUSTER_TOL for k in kept):
            kept += [r] * min(int(np.sum(np.abs(rs - r) <= CLUSTER_TOL))
                              for rs in cols)
    return np.array(kept, dtype=complex)


def _canonical_phase(p: BiPoly) -> BiPoly:
    """Rotate a nonzero p by a unimodular constant fixing a canonical phase.

    The coefficient of largest modulus in the w^0 row is made real
    positive.  Moduli within PHASE_TIE_REL of the largest count as a tie,
    which the lowest z-power wins, so that round-off cannot pick the
    pivot of an exact tie such as (8, -8, 2).
    """
    t = p.trimmed()
    row = t.coeffs[:, 0]
    if np.max(np.abs(row)) < TRIM_REL * np.max(np.abs(t.coeffs)):
        row = t.coeffs.ravel()
    mod = np.abs(row)
    idx = int(np.argmax(mod >= (1.0 - PHASE_TIE_REL) * np.max(mod)))
    pivot = row[idx]
    return p * (np.abs(pivot) / pivot)
