"""Dense complex polynomials in two variables.

``BiPoly`` stores a coefficient grid ``coeffs[j, k]`` = coefficient of
``z**j * w**k``.  A polynomial in z alone, such as the slice p(z, 0), is
a ``BiPoly`` of one column.  Degrees in this artifact stay small
(<= ~16 per variable), so everything is dense and direct.  Zero is exact
zero, and every other floor is relative to the largest coefficient.

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
PHASE_TIE_REL = 1e-8      # canonical_phase: moduli this close to the row maximum tie


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
        other = as_bipoly(other)
        shape = (max(self.coeffs.shape[0], other.coeffs.shape[0]),
                 max(self.coeffs.shape[1], other.coeffs.shape[1]))
        return BiPoly(self._padded_to(shape) + other._padded_to(shape))

    def __sub__(self, other):
        return self + (-as_bipoly(other))

    def __neg__(self):
        return BiPoly(-self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return BiPoly(self.coeffs * other)
        other = as_bipoly(other)
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


def as_bipoly(x) -> BiPoly:
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


def w_roots(p: BiPoly, zs):
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


def canonical_phase(p: BiPoly) -> BiPoly:
    """Rotate p by a unimodular constant fixing a canonical phase.

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
    if pivot == 0.0:
        return p
    return p * (np.abs(pivot) / pivot)
