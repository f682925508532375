"""Dense complex polynomials in one and two variables.

``BiPoly`` stores a coefficient grid ``coeffs[j, k]`` = coefficient of
``z**j * w**k``.  ``UniPoly`` stores ascending coefficients of a single
variable.  Degrees in this artifact stay small (<= ~16 per variable), so
everything is dense and direct.

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

    def is_zero(self):
        """Whether every coefficient is below TRIM_REL in absolute value."""
        return float(np.max(np.abs(self.coeffs))) < TRIM_REL

    def trimmed(self):
        """Drop trailing rows/columns with all entries < TRIM_REL * max|coeff|."""
        a = self.coeffs
        mx = np.max(np.abs(a))
        if mx == 0.0:
            return BiPoly(np.zeros((1, 1)))
        keep = np.abs(a) >= TRIM_REL * mx
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
        a, b = self.coeffs, other.coeffs
        out = np.zeros((a.shape[0] + b.shape[0] - 1,
                        a.shape[1] + b.shape[1] - 1), dtype=complex)
        for j in range(a.shape[0]):
            for k in range(a.shape[1]):
                c = a[j, k]
                if c != 0.0:
                    out[j: j + b.shape[0], k: k + b.shape[1]] += c * b
        return BiPoly(out)

    __rmul__ = __mul__

    def shifted(self, dz, dw):
        """Multiply by z^dz w^dw (monomial shift of the support)."""
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
        """The slice p(z, 0) as a UniPoly in z."""
        return UniPoly(self.coeffs[:, 0])

    def w_poly_at(self, z0):
        """Coefficients (ascending in w) of the slice p(z0, w)."""
        return npoly.polyval(z0, self.coeffs)  # contracts the z axis


def as_bipoly(x) -> BiPoly:
    if isinstance(x, BiPoly):
        return x
    if isinstance(x, UniPoly):
        return x.to_bipoly()
    if np.isscalar(x):
        return BiPoly(np.array([[x]], dtype=complex))
    return BiPoly(np.asarray(x, dtype=complex))


@dataclass(frozen=True, eq=False)
class UniPoly:
    """Univariate polynomial with ascending complex coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", _readonly(arr))

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        return npoly.polyval(np.asarray(z), self.coeffs)

    def is_zero(self):
        """Whether every coefficient is below TRIM_REL in absolute value."""
        return float(np.max(np.abs(self.coeffs))) < TRIM_REL

    def trimmed(self):
        a = self.coeffs
        mx = np.max(np.abs(a))
        if mx == 0.0:
            return UniPoly(np.zeros(1))
        nz = np.nonzero(np.abs(a) >= TRIM_REL * mx)[0]
        return UniPoly(a[: nz.max() + 1])

    def __mul__(self, other):
        if np.isscalar(other):
            return UniPoly(self.coeffs * other)
        return UniPoly(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def to_bipoly(self):
        """The same polynomial as a BiPoly in z."""
        return BiPoly(self.coeffs[:, None])


@dataclass(frozen=True)
class RootSplit:
    """Factorization u = stable * unstable with unstable monic.

    ``stable`` has no roots in the closed unit disk, ``unstable`` has all
    roots in the open disk, ``beta`` is the degree of the unstable part.
    """

    stable: UniPoly
    unstable: UniPoly
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
    if t.is_zero():
        return BiPoly(np.zeros((J + 1, K + 1)))
    n, m = t.deg
    if J < n or K < m:
        raise InvalidDegree(f"reflection degree {(J, K)} below actual {(n, m)}")
    out = np.zeros((J + 1, K + 1), dtype=complex)
    out[J - n:, K - m:] = np.conj(t.coeffs)[::-1, ::-1]
    return BiPoly(out)


def reflect_uni(u: UniPoly, at: int) -> UniPoly:
    """One-variable reflection z^at conj(u)(1/z)."""
    t = u.trimmed()
    if t.is_zero():
        return UniPoly(np.zeros(at + 1))
    d = t.degree
    if at < d:
        raise InvalidDegree(f"reflection degree {at} below actual {d}")
    out = np.zeros(at + 1, dtype=complex)
    out[at - d:] = np.conj(t.coeffs)[::-1]
    return UniPoly(out)


def roots(u: UniPoly):
    """All roots (with multiplicity) via companion-matrix eigenvalues."""
    t = u.trimmed()
    if t.is_zero():
        raise ZeroPolynomial("cannot take roots of the zero polynomial")
    if t.degree == 0:
        return np.zeros(0, dtype=complex)
    return np.roots(t.coeffs[::-1])


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


def split_stable(u: UniPoly) -> RootSplit:
    """Split u into a stable and a monic unstable factor by root modulus.

    Raises RootNearTorus if any root lies within ROOT_MARGIN of the unit
    circle; the theory requires a clean separation.
    """
    t = u.trimmed()
    if t.is_zero():
        raise ZeroPolynomial("cannot split the zero polynomial")
    rts = roots(t)
    mods = np.abs(rts)
    near = np.abs(mods - 1.0) <= ROOT_MARGIN
    if np.any(near):
        worst = rts[np.argmin(np.abs(mods - 1.0))]
        raise RootNearTorus(
            f"root {worst} within {ROOT_MARGIN} of the unit circle")
    inside = rts[mods < 1.0]
    outside = rts[mods > 1.0]
    unstable = UniPoly(npoly.polyfromroots(inside)) if inside.size else UniPoly([1.0])
    lead = t.coeffs[-1]
    stable = UniPoly(lead * npoly.polyfromroots(outside)) if outside.size \
        else UniPoly([lead])
    prod = np.convolve(stable.coeffs, unstable.coeffs)
    padded = np.pad(t.coeffs, (0, prod.size - t.coeffs.size))
    err = np.max(np.abs(prod - padded)) / max(1.0, np.max(np.abs(t.coeffs)))
    if err > 1e-8:
        raise RootNearTorus(f"stable/unstable refactorization residual {err:.3e}")
    return RootSplit(stable=stable, unstable=unstable, beta=int(inside.size))


def content_roots(p: BiPoly):
    """Roots, with multiplicity, of the z-only content of p.

    The content is read from the roots of the w-columns above 1e-9 of
    max |coeff|: each root of the column with the fewest roots is kept
    as many times as the fewest roots within CLUSTER_TOL of it in any
    column, unless one within CLUSTER_TOL of it is kept already.
    Raises ZeroPolynomial for the zero polynomial.
    """
    t = p.trimmed()
    if t.is_zero():
        raise ZeroPolynomial("the zero polynomial has no content")
    scale = np.max(np.abs(t.coeffs))
    cols = [roots(UniPoly(c)) for c in t.coeffs.T
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
    if np.max(np.abs(row)) < TRIM_REL * max(1.0, np.max(np.abs(t.coeffs))):
        row = t.coeffs.ravel()
    mod = np.abs(row)
    idx = int(np.argmax(mod >= (1.0 - PHASE_TIE_REL) * np.max(mod)))
    pivot = row[idx]
    if pivot == 0.0:
        return p
    return p * (np.abs(pivot) / pivot)
