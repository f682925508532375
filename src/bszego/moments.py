"""Trigonometric moment tables on the bicircle.

The central object is the Hermitian table ``c[j, k]`` of moments of a
positive density on the two-torus, indexed over a centered window
``[-jmax..jmax] x [-kmax..kmax]``.  Moments are computed by FFT
quadrature on uniform torus grids, which is spectrally accurate for the
smooth densities 1/|p|^2 and 1/t handled here; the grid is doubled until
every requested moment stabilizes.

Per N x N grid, a polynomial is sampled separably (two thin tables of
N-th roots of unity times its coefficient block), and the density is
transformed along z only on the 2*kmax + 1 columns of the moment window.
The pass runs in blocks of about BLOCK_POINTS grid points (whole rows):
each block is sampled, inverted and transformed along w before the next
is formed, so no N x N array is ever held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InsufficientMoments, MomentDivergence,
                     NonPositiveDensity, ZeroPolynomial)
from .poly import BiPoly, _readonly, reflect

POLE_MARGIN = 1e-12  # denominator minimum, relative to its grid maximum
POSITIVE_TOL = 1e-12  # is_positive's bound on the Gram's eigenvalue ratio
BLOCK_POINTS = 1 << 15  # grid points per row block of the quadrature pass


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls the FFT quadrature loop.

    initial_grid / max_grid are points per axis (powers of two);
    tol is the stabilization threshold between successive doublings,
    relative to max(1, c00).  A denominator whose grid minimum is at most
    POLE_MARGIN times its grid maximum counts as vanishing.
    """

    initial_grid: int = 64
    max_grid: int = 4096
    tol: float = 1e-10

    def __post_init__(self):
        if self.initial_grid > self.max_grid:
            raise ValueError("initial grid exceeds max grid")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Moments c[j, k] for |j| <= jmax, |k| <= kmax.

    Stored as an array of shape (2*jmax+1, 2*kmax+1) with c_{j,k} at
    index [j + jmax, k + kmax].  Hermitian symmetry
    c_{-j,-k} = conj(c_{j,k}) is enforced at construction.
    """

    jmax: int
    kmax: int
    c: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=complex)
        if arr.shape != (2 * self.jmax + 1, 2 * self.kmax + 1):
            raise InsufficientMoments(
                f"table shape {arr.shape} does not match window "
                f"({self.jmax}, {self.kmax})")
        sym = 0.5 * (arr + np.conj(arr[::-1, ::-1]))
        object.__setattr__(self, "c", _readonly(sym))

    def at(self, j, k):
        if abs(j) > self.jmax or abs(k) > self.kmax:
            raise InsufficientMoments(
                f"moment ({j}, {k}) outside window ({self.jmax}, {self.kmax})")
        return self.c[j + self.jmax, k + self.kmax]

    def window(self, jmax, kmax):
        """Restriction to a smaller centered window."""
        if jmax > self.jmax or kmax > self.kmax:
            raise InsufficientMoments("requested window exceeds table")
        dj, dk = self.jmax - jmax, self.kmax - kmax
        return MomentTable(jmax, kmax,
                           self.c[dj: dj + 2 * jmax + 1, dk: dk + 2 * kmax + 1])


class TrigPoly(MomentTable):
    """Real-valued Laurent trigonometric polynomial on the bicircle.

    Same centered layout as MomentTable; the coefficients must already
    be Hermitian-symmetric, which makes the values on the torus real.
    """

    def __post_init__(self):
        raw = np.asarray(self.c, dtype=complex)
        super().__post_init__()
        if np.max(np.abs(self.c - raw)) > 1e-8 * max(1.0, np.max(np.abs(raw))):
            raise NonPositiveDensity("coefficients are not Hermitian-symmetric")

    @classmethod
    def from_abs_squared(cls, p: BiPoly) -> "TrigPoly":
        """Expand |p(z, w)|^2 on the torus into Laurent coefficients.

        On the torus |p|^2 = z^-n w^-m p reflect(p), and the product's
        coefficient grid is already centred at (n, m).
        """
        t = p.trimmed()
        n, m = t.deg
        return cls(n, m, (t * reflect(t, (n, m))).coeffs)

    def values_on_grid(self, N):
        """Evaluate on the N x N uniform torus grid (real array)."""
        return np.concatenate(list(self._rows_on_grid(N)))

    def _rows_on_grid(self, N):
        if N <= 2 * max(self.jmax, self.kmax):
            raise ValueError("grid too small for the coefficient window")
        return (v.real for v in _grid_rows(self.c, -self.jmax, -self.kmax, N))


def _grid_rows(coeffs, j0, k0, N):
    """Values of sum_{a,b} coeffs[a, b] z^(j0+a) w^(k0+b) on the N x N grid.

    Entry [r, s] is the value at z = e^(2 pi i r/N), w = e^(2 pi i s/N),
    computed as (Vz @ coeffs) @ Vw^T with Vz[r, a] = z^(j0+a) and
    Vw[s, b] = w^(k0+b), read from one table of N-th roots of unity.
    Yields consecutive blocks of max(1, BLOCK_POINTS // N) rows; only the
    thin factor Vz @ coeffs is held for the whole grid.
    """
    t = np.arange(N)
    # angles in [-pi, pi] round to half the error of angles up to 2 pi
    roots = np.exp(2j * np.pi * np.where(2 * t > N, t - N, t) / N)
    vz = roots[np.outer(t, np.arange(j0, j0 + coeffs.shape[0])) % N]
    vw = roots[np.outer(t, np.arange(k0, k0 + coeffs.shape[1])) % N]
    left = vz @ coeffs
    step = max(1, BLOCK_POINTS // N)
    for r in range(0, N, step):
        yield left[r: r + step] @ vw.T


def _poly_grid_rows(p: BiPoly, N):
    n, m = p.deg
    if N <= max(n, m):
        raise ValueError("grid too small for the polynomial degree")
    return _grid_rows(p.coeffs, 0, 0, N)


def _poly_grid_values(p: BiPoly, N):
    return np.concatenate(list(_poly_grid_rows(p, N)))


def _moment_window(blocks, N, jmax, kmax):
    """Moments [-jmax..jmax] x [-kmax..kmax] of N x N real samples.

    The samples arrive as consecutive row blocks, and no N x N array is
    formed.  A real FFT along w of each block gives its entries of columns
    0..kmax; columns -kmax..-1 are their conjugates, because the samples
    are real.  An FFT along z of those 2*kmax + 1 columns then gives rows
    -jmax..jmax.  That FFT goes through ``np.fft.fft2`` over the last axis
    only, which is a 1-D FFT, because the benchmark trace (bench/spans.py)
    counts quadrature grids there.  A block that is not finite is not
    transformed; the overflow is raised once the blocks are drained, so
    that a check the block source runs at its end comes first.
    """
    half = np.empty((kmax + 1, N), dtype=complex)
    finite = True
    r = 0
    for dens in blocks:
        finite = finite and bool(np.isfinite(dens).all())
        if finite:
            half[:, r: r + len(dens)] = np.fft.rfft(dens, axis=1)[:, : kmax + 1].T
        r += len(dens)
    if not finite:
        raise MomentDivergence("density overflowed on the grid")
    cols = np.concatenate([np.conj(half[:0:-1]), half])
    win = np.fft.fft2(cols, axes=(-1,))[:, np.arange(-jmax, jmax + 1) % N]
    return win.T / (N * N)


def _moments_of_grid_density(density_at, jmax, kmax, cfg):
    """Shared doubling loop over density_at(N).

    density_at(N) yields the N x N real positive samples as row blocks;
    per grid only the moment window is transformed (``_moment_window``).
    """
    N = max(cfg.initial_grid, 2 * max(jmax, kmax) + 2)
    N = 1 << int(np.ceil(np.log2(N)))
    prev = None
    last_diff = np.inf
    while N <= cfg.max_grid:
        win = _moment_window(density_at(N), N, jmax, kmax)
        win = 0.5 * (win + np.conj(win[::-1, ::-1]))
        if prev is not None:
            scale = max(1.0, abs(win[jmax, kmax]))
            last_diff = float(np.max(np.abs(win - prev)))
            if last_diff <= cfg.tol * scale:
                return MomentTable(jmax, kmax, win)
        prev = win
        N *= 2
    raise MomentDivergence(
        f"moments did not stabilize at grid {cfg.max_grid}^2 "
        f"(last change {last_diff:.3e})")


def moments_from_density(p: BiPoly, jmax, kmax,
                         cfg: QuadratureConfig = QuadratureConfig()) -> MomentTable:
    """Moments c_{j,k} = int z^-j w^-k / |p|^2 dsigma over the bicircle.

    Raises MomentDivergence when the density has a pole on or near the
    torus (the numerical proxy for p vanishing on T^2).
    """
    pt = p.trimmed()
    if pt.is_zero():
        raise ZeroPolynomial("density 1/|p|^2 needs a nonzero p")

    def density_at(N):
        lo, hi = np.inf, 0.0
        for vals in _poly_grid_rows(pt, N):
            a2 = np.abs(vals) ** 2
            lo, hi = min(lo, float(np.min(a2))), max(hi, float(np.max(a2)))
            with np.errstate(divide="ignore"):
                dens = 1.0 / a2
            yield dens
        if lo <= POLE_MARGIN * hi:
            raise MomentDivergence(
                f"|p|^2 nearly vanishes on the torus (min/max = {lo / hi:.3e})")

    return _moments_of_grid_density(density_at, jmax, kmax, cfg)


def moments_from_trig(t: TrigPoly, jmax, kmax,
                      cfg: QuadratureConfig = QuadratureConfig()) -> MomentTable:
    """Moments of dsigma / t for a strictly positive trig polynomial t."""

    def density_at(N):
        lo, hi = np.inf, -np.inf
        for vals in t._rows_on_grid(N):
            lo, hi = min(lo, float(np.min(vals))), max(hi, float(np.max(vals)))
            with np.errstate(divide="ignore"):
                dens = 1.0 / vals
            yield dens
        if lo <= POLE_MARGIN * max(hi, 1e-300):
            raise NonPositiveDensity(
                f"t is not strictly positive on the grid (min {lo:.3e})")

    return _moments_of_grid_density(density_at, jmax, kmax, cfg)


def moments_from_grid_function(fn, jmax, kmax) -> MomentTable:
    """Moments of fn(z, w) dsigma for a smooth positive sample function.

    fn receives meshgrid arrays of unimodular z and w and must return
    real positive values; used for densities that are neither 1/|p|^2
    nor the reciprocal of a trig polynomial.
    """

    def density_at(N):
        theta = 2.0 * np.pi * np.arange(N) / N
        z = np.exp(1j * theta)
        zz, ww = np.meshgrid(z, z, indexing="ij")
        yield np.asarray(fn(zz, ww), dtype=float)

    return _moments_of_grid_density(density_at, jmax, kmax, QuadratureConfig())


def _rect(j0, j1, k0, k1):
    """Monomial exponents [j0, j1] x [k0, k1] in z-major order."""
    return [(j, k) for j in range(j0, j1 + 1) for k in range(k0, k1 + 1)]


def gram(table: MomentTable, rows, cols) -> np.ndarray:
    """Gram-type matrix with entry (r, c) = c_{cols[c] - rows[r]}.

    With rows == cols this is the Hermitian Gram matrix of the monomials
    z^u w^v in the inner product induced by the table; it equals its
    conjugate transpose exactly, because the table is exactly Hermitian.
    Entries are read by flat index into the table's array.
    """
    rows = np.array(list(rows), dtype=int).reshape(-1, 2)
    cols = np.array(list(cols), dtype=int).reshape(-1, 2)
    bound = (table.jmax, table.kmax)
    if rows.size and cols.size and np.any(np.maximum(
            cols.max(0) - rows.min(0), rows.max(0) - cols.min(0)) > bound):
        d = cols[None, :, :] - rows[:, None, :]
        r, q = np.argwhere((np.abs(d) > bound).any(axis=-1))[0]
        raise InsufficientMoments(
            f"moment ({d[r, q, 0]}, {d[r, q, 1]}) outside window {bound}")
    key = np.array([2 * table.kmax + 1, 1])
    flat = (cols @ key)[None, :] - (rows @ key)[:, None] + key @ bound
    return table.c.ravel()[flat]


def is_positive(table: MomentTable, n, m):
    """Whether the form is positive definite on monomials [0,n] x [0,m].

    The Gram's smallest eigenvalue must exceed POSITIVE_TOL times its
    largest, so the verdict does not depend on the table's scale.
    Returns (bool, smallest eigenvalue of the Gram matrix).
    """
    sup = _rect(0, n, 0, m)
    eigs = _rect_gram_eigvalsh(gram(table, sup, sup))
    lam = float(eigs[0])
    return lam > POSITIVE_TOL * float(eigs[-1]), lam


def _rect_gram_eigvalsh(G):
    """Ascending eigenvalues of a Gram over a rectangle, in real arithmetic.

    Over [0, J] x [0, K] in z-major order, reversing the flat index maps u
    to (J, K) - u, so the reversal permutation J gives (J G J)[a, b] =
    c_{u_a - u_b} = conj(G[a, b]), bit for bit for an exactly Hermitian
    table.  With the unitary Q = (I + iJ)/sqrt(2), Q^H G Q = Re G - (Im G) J
    is real symmetric with G's eigenvalues (a centro-Hermitian matrix is
    unitarily similar to a real one; A. Lee, LAA 29, 1980).
    """
    return np.linalg.eigvalsh(G.real - G.imag[:, ::-1])
