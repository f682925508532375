"""Trigonometric moment tables on the bicircle.

The central object is the Hermitian table ``c[j, k]`` of moments of a
positive density on the two-torus, indexed over a centered window
``[-jmax..jmax] x [-kmax..kmax]``.  Moments are computed by FFT
quadrature on uniform torus grids, which is spectrally accurate for the
smooth densities 1/|p|^2 and 1/t handled here; the grid is doubled until
every requested moment stabilizes, by the module's own grid cap MAX_GRID
and stopping rule STOP_TOL, which no caller sets.

The grids are nested: the points of grid N are the even rows and even
columns of grid 2N.  Each level keeps, for every one of its rows, the
kmax + 1 needed w-frequencies of that row (its w-sums), and level 2N is
built from level N's w-sums plus three half-shifted N x N sub-grids of
new points, so a run that stops at grid N samples each of its N^2 points
at most once, as the nested trapezoid rule does (Trefethen & Weideman,
SIAM Review 56, 2014).  When p, or t, has exactly real coefficients, the
density has d(conj z, conj w) = d(z, w), and each sub-grid samples only
its rows in the upper half circle, about half of them: the w-sums of
every other row are the conjugates of its mirror's, times e^(2 pi i k/N)
on the sub-grids shifted in w (``_unfold``).  Complex coefficients and
sampled grid functions take every row.  The pole check's min and max, over
the rows sampled, see every value of the grid up to the mirror.

A polynomial is sampled separably (two thin tables of 2N-th roots of
unity times its coefficient block) as real planes Re p and Im p, and
|p|^2 is re^2 + im^2 in place; a trig polynomial is its Re plane.
The root and power tables depend on the grid, the half-step shift and the
exponent range alone, so they sit in small read-only caches that every
call shares, as do the tables of the w-transform.
Along w the sums come from a pruned two-level DFT (chunks of CHUNK
samples, then one twiddle sum over the chunks); along z one FFT per level
of the 2*kmax + 1 window columns gives the rows.  Sampling runs in blocks
of about BLOCK_POINTS points (whole rows), one buffer per sampling pass:
each block is sampled, inverted and transformed along w before the next
overwrites it, so no N x N array is ever held.  The min and max each block computes
for the pole check also decide whether its reciprocal is finite.

The Schur-Cohn matrix S(z) of p's slices (``poly._schur_cohn``) is a
matrix trig polynomial in z, and ``_inverse_moments`` takes the z-moments
of S^-1 by the same nested rule in one dimension: level 2N samples only
its N new points, whose powers sit in a read-only cache.  Both rules start
at FIRST_LEVEL points per axis and share MAX_GRID, POLE_MARGIN and STOP_TOL
(relative to R_0 in 1-D).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (InsufficientMoments, MomentDivergence,
                     NonPositiveDensity, RootNearTorus, ZeroPolynomial)
from .poly import BiPoly, _readonly

POLE_MARGIN = 1e-12  # denominator minimum, relative to its grid maximum
POSITIVE_TOL = 1e-12  # is_positive's bound on the Gram's eigenvalue ratio
BLOCK_POINTS = 1 << 15  # grid points per row block of the quadrature pass
CHUNK = 64  # w-samples per chunk of the pruned DFT along w (at most N)
WHOLE_GRID = ((0, 0),)  # the first level's one sub-grid, unshifted
NEW_POINTS = ((0, 1), (1, 0), (1, 1))  # the sub-grids level 2N adds to level N
FIRST_LEVEL = 64  # points per axis of the first level of both nested rules
MAX_GRID = 4096  # the last quadrature grid, in points per axis
STOP_TOL = 1e-10  # level-to-level change that stops the doubling, over max(1, |c00|)
HERMITIAN_TOL = 1e-8  # TrigPoly's Hermitian defect, relative to its largest coefficient


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
        if not np.max(np.abs(self.c - raw)) <= HERMITIAN_TOL * np.max(np.abs(raw)):
            raise NonPositiveDensity("coefficients are not Hermitian-symmetric")


def _frozen(a):
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def _roots(N):
    """The N-th roots of unity e^(2 pi i t/N), t = 0..N-1, cached read-only."""
    t = np.arange(N)
    # angles in [-pi, pi] round to half the error of angles up to 2 pi
    return _frozen(np.exp(2j * np.pi * np.where(2 * t > N, t - N, t) / N))


@lru_cache(maxsize=32)
def _power_table(N, shift, lo, count):
    """V[r, a] = x_r^(lo + a) with x_r = e^(2 pi i (2r + shift)/2N), r < N.

    x_r is row (or column) 2r + shift of the 2N x 2N grid; the entries are
    read from the 2N-th roots table.  Cached read-only by all four keys.
    """
    exps = np.outer(2 * np.arange(N) + shift, np.arange(lo, lo + count))
    return _frozen(_roots(2 * N)[exps % (2 * N)])


@lru_cache(maxsize=32)
def _real_w_table(N, shift, lo, count):
    """[Re Vw; Im Vw] with Vw the transpose of ``_power_table``, read-only.

    Built in row-major order, as the GEMMs of ``_grid_rows`` read it fastest.
    """
    exps = np.outer(np.arange(lo, lo + count), 2 * np.arange(N) + shift)
    vw = _roots(2 * N)[exps % (2 * N)]
    return _frozen(np.concatenate([vw.real, vw.imag]))


def _sampled_rows(N, u, mirrored):
    """How many leading rows of a sub-grid with row shift u are sampled.

    All N, or with ``mirrored`` the rows of the upper half circle: rows
    0..N/2 when u = 0 (rows 0 and N/2, at z = 1 and z = -1, are their own
    mirrors) and rows 0..N/2 - 1 when u = 1.  Row r's mirror, at conj z,
    is row N - u - r.
    """
    return N // 2 + 1 - u if mirrored else N


def _grid_rows(coeffs, j0, k0, N, shifts=WHOLE_GRID, real=False, mirrored=False):
    """Real planes of sum_{a,b} coeffs[a, b] z^(j0+a) w^(k0+b) on N x N sub-grids.

    For each (u, v) in shifts, entry [r, s] of its sub-grid is the value at
    z = e^(2 pi i (2r+u)/2N), w = e^(2 pi i (2s+v)/2N): rows u::2 and
    columns v::2 of the 2N x 2N grid, so (0, 0) is the N x N grid itself.
    With the thin factor A = Vz @ coeffs, Vz[r, a] = z^(j0+a), and
    Vw[s, b] = w^(k0+b) = Cw + i Sw, read from one table of 2N-th roots of
    unity, the planes are Re = [Re A, -Im A] W and Im = [Im A, Re A] W with
    W = [Cw, Sw]^T: one real GEMM each, Re alone with ``real`` (Hermitian
    coefficients).  Yields blocks (planes, rows, N) of max(1, BLOCK_POINTS
    // N) consecutive rows, sub-grid after sub-grid, all in one buffer: a
    block is valid until the next one is drawn.  With ``mirrored`` only the
    leading rows ``_sampled_rows`` counts are drawn of each sub-grid.  A grid
    with fewer than max(rows, cols) points per axis would alias the block's
    exponents onto each other, and is a ValueError.

    Vz and W depend on the grid, the shift and the exponent range alone, so
    they come from the caches ``_power_table`` and ``_real_w_table``, keyed
    by (N, u, j0, rows) and (N, v, k0, columns); the thin factor is built
    once per distinct row shift u of the call (NEW_POINTS has u = 1 twice).
    """
    (rows, cols), planes = coeffs.shape, 1 if real else 2
    if N < max(rows, cols):
        raise ValueError("grid too small for the coefficient block")
    step = min(N, max(1, BLOCK_POINTS // N))
    buf = np.empty((planes, step, N))
    lefts = {}
    for u, v in shifts:
        if u not in lefts:
            a = _power_table(N, u, j0, rows) @ coeffs
            left = lefts[u] = np.empty((planes, N, 2 * cols))
            left[0, :, :cols], left[0, :, cols:] = a.real, -a.imag
            if not real:
                left[1, :, :cols], left[1, :, cols:] = a.imag, a.real
        left, vw = lefts[u], _real_w_table(N, v, k0, cols)
        count = _sampled_rows(N, u, mirrored)
        for r in range(0, count, step):
            n = min(step, count - r)
            yield np.matmul(left[:, r: r + n], vw, out=buf[:, :n])


@lru_cache(maxsize=32)
def _w_dft_tables(N, kmax):
    """Real tables (cs, tw) of the pruned DFT along w, columns 0..kmax.

    With L = min(N, CHUNK) and s = qL + l, the sum over s of
    d[s] e^(-2 pi i s k/N) is taken in two short levels, both real GEMMs.
    First each L-sample chunk against cs = [Re, Im] of e^(-2 pi i l k/N)
    (L x 2(kmax+1)); then the N/L chunk sums against the twiddles
    e^(-2 pi i q L k/N), as the real matrix tw of the complex products:
    row (q, part, k) takes chunk q's real or imaginary part of column k
    to the real and imaginary parts of column k.  The entries are read
    from the N-th roots table.  The tables are cached read-only, since
    the doubling loop asks for the same few (N, kmax) pairs on every call.
    """
    L, K = min(N, CHUNK), kmax + 1
    conj = np.conj(_roots(N))
    k = np.arange(K)
    fine = conj[np.outer(np.arange(L), k) % N]
    coarse = conj[np.outer(np.arange(0, N, L), k) % N]
    tw = np.zeros((N // L, 2, K, 2, K))
    tw[:, 0, k, 0, k] = tw[:, 1, k, 1, k] = coarse.real
    tw[:, 0, k, 1, k] = coarse.imag
    tw[:, 1, k, 0, k] = -coarse.imag
    cs = np.concatenate([fine.real, fine.imag], axis=1)
    return _frozen(cs), _frozen(tw.reshape(-1, 2 * K))


def _w_sums(blocks, N, kmax):
    """Columns 0..kmax of the w-DFT of rows of N real samples.

    The rows arrive as consecutive blocks, and the result is the
    (kmax + 1) x R complex array of their transforms, R rows in all.  Each
    row is transformed by the pruned two-level DFT of ``_w_dft_tables``;
    both of its sums stay short, which keeps the rounding at the order of
    a full FFT's (one N-term product is several times worse at N >= 1024).
    A block that is None (its samples are not all finite) is not
    transformed, nor is any later one; the overflow is raised once the
    blocks are drained, so that a check the block source runs at its end
    comes first.
    """
    cs, tw = _w_dft_tables(N, kmax)
    chunk = cs.shape[0]
    parts, finite = [], True
    for dens in blocks:
        finite = finite and dens is not None
        if finite:
            parts.append((dens.reshape(-1, chunk) @ cs).reshape(len(dens), -1) @ tw)
    if not finite:
        raise MomentDivergence("density overflowed on the grid")
    reim = np.concatenate(parts).T
    return reim[: kmax + 1] + 1j * reim[kmax + 1:]


def _unfold(sampled, N, shifts):
    """The w-sums of every row of the sub-grids ``shifts``, as an array
    (kmax + 1, len(shifts), N), from the sums of the rows sampled.

    A density source samples either every row or, when d(conj z, conj w)
    = d(z, w), only the leading rows ``_sampled_rows`` counts; fewer than
    N rows per sub-grid tell which.  Mirror row N - u - r of sub-grid
    (u, v) sits at conj z_r, where d(conj z_r, w) = d(z_r, conj w), and
    conj w runs over the sub-grid's own columns: s -> -s mod N when v = 0,
    s -> N - 1 - s when v = 1.  So its sums are conj(S[:, r]), times
    e^(2 pi i k/N) when v = 1.
    """
    K, R = sampled.shape
    if R == N * len(shifts):
        return sampled.reshape(K, len(shifts), N)
    sums = np.empty((K, len(shifts), N), dtype=complex)
    at = 0
    for (u, v), rows in zip(shifts, sums.transpose(1, 0, 2)):
        count = _sampled_rows(N, u, True)
        rows[:, :count] = sampled[:, at: at + count]
        mirror = np.conj(rows[:, 1 - u: N // 2][:, ::-1])
        rows[:, count:] = mirror * _roots(N)[:K, None] if v else mirror
        at += count
    return sums


def _level_sums(density_at, N, kmax):
    """The w-sums of the nested grids N, 2N, 4N, ..., as (N, sums) per level.

    sums[k, r] = sum_s d(z_r, w_s) e^(-2 pi i s k/N) for k = 0..kmax and
    every row r of the level's N x N grid.  The first level samples its
    whole grid.  Level 2N keeps level N's sums, which cover its even rows
    at their even columns, and samples only its new points: the three
    N x N sub-grids NEW_POINTS, shifted by half a step in w, in z, and in
    both.  With their sums S01, S10, S11 and tw_k = e^(-pi i k/N),

        sums2[:, 2r]     = sums[:, r] + tw * S01[:, r]
        sums2[:, 2r + 1] = S10[:, r]  + tw * S11[:, r]

    so a run that stops at grid N samples each of its N^2 points at most
    once: all of them, or about half for a source that samples only the
    rows ``_unfold`` does not fill from their mirrors.
    """
    sums = _unfold(_w_sums(density_at(N, WHOLE_GRID), N, kmax), N, WHOLE_GRID)[:, 0]
    while True:
        yield N, sums
        new = _unfold(_w_sums(density_at(N, NEW_POINTS), N, kmax), N, NEW_POINTS)
        tw = np.conj(_roots(2 * N)[: kmax + 1, None])
        sums2 = np.empty((kmax + 1, 2 * N), dtype=complex)
        sums2[:, 0::2] = sums + tw * new[:, 0]
        sums2[:, 1::2] = new[:, 1] + tw * new[:, 2]
        sums, N = sums2, 2 * N


def _moments_of_grid_density(density_at, jmax, kmax):
    """Shared doubling loop over density_at(N, shifts).

    density_at(N, shifts) yields the real positive samples of the N x N
    sub-grids ``shifts`` (see ``_grid_rows``) in turn, as row blocks, with
    None for a block that is not all finite: every row of each sub-grid,
    or for a density with d(conj z, conj w) = d(z, w) the leading rows
    ``_sampled_rows`` counts.  It may check, after its last block, the
    level the sub-grids complete, whose every value up to the mirror it
    has sampled.  Per level, ``_level_sums`` gives the w-sums of every
    row, and an FFT along z of the 2*kmax + 1 window columns (columns
    -kmax..-1 are the conjugates of 1..kmax, because the samples are real)
    gives rows -jmax..jmax.  That FFT goes through ``np.fft.fft2`` over the
    last axis only, which is a 1-D FFT, because the benchmark trace
    (bench/spans.py) counts quadrature grids there.

    Doubling starts at grid FIRST_LEVEL, or at the first power of two above
    twice the window if larger, and stops once no moment moves by more than
    STOP_TOL times max(1, |c00|) from one level to the next.  Stability
    needs two grids to compare, so a window that leaves room for fewer
    than two grids up to MAX_GRID (one above 1023) is a ValueError; a
    table still moving at MAX_GRID is a MomentDivergence.
    """
    N = 1 << (max(FIRST_LEVEL, 2 * max(jmax, kmax) + 2) - 1).bit_length()
    if 2 * N > MAX_GRID:
        raise ValueError(
            f"window ({jmax}, {kmax}) starts at grid {N}^2, which leaves "
            f"fewer than two grids up to {MAX_GRID}^2")
    prev = None
    last_diff = np.inf
    for N, sums in _level_sums(density_at, N, kmax):
        cols = np.concatenate([np.conj(sums[:0:-1]), sums])
        win = np.fft.fft2(cols, axes=(-1,))[:, np.arange(-jmax, jmax + 1) % N]
        win = win.T / (N * N)
        win = 0.5 * (win + np.conj(win[::-1, ::-1]))
        if prev is not None:
            scale = max(1.0, abs(win[jmax, kmax]))
            last_diff = float(np.max(np.abs(win - prev)))
            if last_diff <= STOP_TOL * scale:
                return MomentTable(jmax, kmax, win)
        if N == MAX_GRID:
            raise MomentDivergence(
                f"moments did not stabilize at grid {N}^2 "
                f"(last change {last_diff:.3e})")
        prev = win


def _inverse(s, zs):
    """S^-1 at each sample of the stack ``s`` (samples, m, m), taken at the
    points ``zs``, from its Cholesky factors.

    S must be positive definite at every sample, with its least Cholesky
    pivot squared above POLE_MARGIN of its largest entry.  Where it is
    not, the least eigenvalue decides, against POLE_MARGIN of the largest
    entry: far below zero, a w-root lies in the closed disk there
    (RootNearTorus); otherwise S is singular up to round-off, as on a zero
    of p on the torus (MomentDivergence).
    """
    top = np.abs(s).max()
    try:
        chol = np.linalg.cholesky(s)
        if not np.abs(np.diagonal(chol, axis1=1, axis2=2)).min() ** 2 > POLE_MARGIN * top:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(s)[:, 0]
        i = int(np.argmin(low))
        if low[i] < -POLE_MARGIN * top:
            raise RootNearTorus(f"Schur-Cohn matrix indefinite at z = {zs[i]}: "
                                "a w-root in the closed disk") from None
        raise MomentDivergence(f"Schur-Cohn matrix singular at z = {zs[i]}: "
                               "a zero on the torus") from None
    linv = np.linalg.inv(chol)
    return linv.conj().swapaxes(1, 2) @ linv


@lru_cache(maxsize=32)
def _level_powers(size, n):
    """A level's new points (the odd ones past FIRST_LEVEL), z^-n..z^n at them; read-only."""
    new = np.arange(size) if size == FIRST_LEVEL else 2 * np.arange(size // 2) + 1
    exps = np.outer(new, np.arange(-n, n + 1)) % size
    return _frozen(_roots(size)[new]), _frozen(_roots(size)[exps])


def _inverse_moments(s):
    """(R, powers, at, inv): R_e = int z^-e S(z)^-1 dsigma(z), e = 0..n, as
    (n+1, m, m), from the coefficients S_d, d = -n..n, of S
    (``poly._schur_cohn``); and the last level's new points, as their powers
    z^0..z^n (points, n+1), with S and S^-1 at each of them.

    The nested trapezoid rule on FIRST_LEVEL, 2 FIRST_LEVEL, ... roots of
    unity: each level evaluates S at its new points alone, by one product
    with their powers, and adds their terms to the running sums.  It stops
    once no entry moves by more than STOP_TOL times the largest entry of
    R_0 from one level to the next; R still moving at MAX_GRID points is a
    MomentDivergence.  The new points of the last level are themselves a
    shifted trapezoid rule, as fine as the level before.
    """
    n, m = (len(s) - 1) // 2, s.shape[1]
    sums = np.zeros((n + 1, m * m), dtype=complex)
    size, prev, change = FIRST_LEVEL, None, np.inf
    while True:
        zs, powers = _level_powers(size, n)
        at = (powers @ s.reshape(2 * n + 1, -1)).reshape(-1, m, m)
        inv = _inverse(at, zs)
        sums += powers[:, n:].T.conj() @ inv.reshape(-1, m * m)
        r = sums / size
        if prev is not None:
            change = np.abs(r - prev).max()
            if change <= STOP_TOL * np.abs(r[0]).max():
                return r.reshape(n + 1, m, m), powers[:, n:], at, inv
        if size >= MAX_GRID:
            raise MomentDivergence(
                f"moments of the inverse Schur-Cohn matrix did not settle at "
                f"{size} points (last change {change:.3e})")
        prev, size = r, 2 * size


def _reciprocals(blocks, bounds):
    """1 / d for each real block d, in place, or None where that is not
    all finite.

    bounds is the running [min, max] of every d, updated in place; over
    nested levels that is the min and max of the level they complete.  The
    block's min and max decide: 1 / d is finite everywhere when its min is
    positive with a finite reciprocal (a NaN propagates into the min).  A
    block with a zero or a negative value is None too, and then the whole
    level fails its positivity check.
    """
    for d in blocks:
        lo, hi = float(d.min()), float(d.max())
        bounds[0], bounds[1] = min(bounds[0], lo), max(bounds[1], hi)
        finite = lo > 0.0 and math.isfinite(1.0 / lo)
        yield np.divide(1.0, d, out=d) if finite else None


def _abs2(planes):
    """|p|^2 = re^2 + im^2 from a block's planes (Re p, Im p), in place in Re."""
    re, im = np.square(planes, out=planes)
    return np.add(re, im, out=re)


def moments_from_density(p: BiPoly, jmax, kmax) -> MomentTable:
    """Moments c_{j,k} = int z^-j w^-k / |p|^2 dsigma over the bicircle.

    Raises MomentDivergence when the density has a pole on or near the
    torus (the numerical proxy for p vanishing on T^2).
    """
    pt = p.trimmed()
    if not pt.coeffs.any():
        raise ZeroPolynomial("density 1/|p|^2 needs a nonzero p")
    bounds = [np.inf, 0.0]
    mirrored = not pt.coeffs.imag.any()   # real p: p(conj z, conj w) = conj p(z, w)

    def density_at(N, shifts):
        planes = _grid_rows(pt.coeffs, 0, 0, N, shifts, mirrored=mirrored)
        yield from _reciprocals(map(_abs2, planes), bounds)
        lo, hi = bounds
        if lo <= POLE_MARGIN * hi:
            raise MomentDivergence(
                f"|p|^2 nearly vanishes on the torus (min/max = {lo / hi:.3e})")

    return _moments_of_grid_density(density_at, jmax, kmax)


def moments_from_trig(t: TrigPoly, jmax, kmax) -> MomentTable:
    """Moments of dsigma / t for a strictly positive trig polynomial t."""
    bounds = [np.inf, -np.inf]
    mirrored = not t.c.imag.any()   # real t: t(conj z, conj w) = t(z, w)

    def density_at(N, shifts):
        rows = _grid_rows(t.c, -t.jmax, -t.kmax, N, shifts, real=True,
                          mirrored=mirrored)
        yield from _reciprocals((re for (re,) in rows), bounds)
        lo, hi = bounds
        if lo <= POLE_MARGIN * max(hi, 1e-300):
            raise NonPositiveDensity(
                f"t is not strictly positive on the grid (min {lo:.3e})")

    return _moments_of_grid_density(density_at, jmax, kmax)


def moments_from_grid_function(fn, jmax, kmax) -> MomentTable:
    """Moments of fn(z, w) dsigma for a smooth positive sample function.

    fn receives meshgrid arrays of unimodular z and w (one N x N sub-grid
    per call) and must return real positive values; used for densities
    that are neither 1/|p|^2 nor the reciprocal of a trig polynomial.
    """

    def density_at(N, shifts):
        for u, v in shifts:
            z, w = (np.exp(1j * (2.0 * np.pi * (2 * np.arange(N) + a) / (2 * N)))
                    for a in (u, v))
            dens = np.asarray(fn(*np.meshgrid(z, w, indexing="ij")), dtype=float)
            yield dens if np.isfinite(dens).all() else None

    return _moments_of_grid_density(density_at, jmax, kmax)


def gram(table: MomentTable, k, l) -> np.ndarray:
    """Gram matrix of the monomials [0,k] x [0,l] in z-major order.

    Entry (a, b) is c_{u_b - u_a}, u_a the exponents of the a-th
    monomial; it equals its conjugate transpose exactly, because the table
    is exactly Hermitian.  Entry ((a1, a2), (b1, b2)) is c[jmax - a1 + b1,
    kmax - a2 + b2], so the Gram is one strided view of the table from
    c_00 on, backwards along a and forwards along b, copied once in C
    order so that the flattening is a view of the copy.
    """
    if k > table.jmax or l > table.kmax:
        raise InsufficientMoments(
            f"moment ({k}, {l}) outside window ({table.jmax}, {table.kmax})")
    s0, s1 = table.c.strides
    view = as_strided(table.c[table.jmax:, table.kmax:], (k + 1, l + 1) * 2,
                      (-s0, -s1, s0, s1), writeable=False)
    size = (k + 1) * (l + 1)
    return np.array(view, order="C").reshape(size, size)


def is_positive(table: MomentTable, n, m):
    """Whether the form is positive definite on monomials [0,n] x [0,m].

    The Gram's smallest eigenvalue must exceed POSITIVE_TOL times its
    largest, whatever the table's scale (those of its ``_real_form``): the
    verdict ``_positive`` reaches too, by a Cholesky certificate if it can.
    Returns (bool, smallest eigenvalue of the Gram matrix).
    """
    return _positive(_real_form(gram(table, n, m)), eigenvalue=True)


def _positive(R, eigenvalue=False):
    """``is_positive``'s verdict on a Gram's real form R, with R's smallest
    eigenvalue, or with None if not ``eigenvalue`` and a Cholesky factor of
    R - s I exists, s = 1e3 POSITIVE_TOL times R's largest absolute row sum:
    that proves the ratio above 1e3 POSITIVE_TOL, far beyond the factor's
    backward error (about d^2 eps times the largest eigenvalue, d rows)."""
    if not eigenvalue:
        with suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(R - 1e3 * POSITIVE_TOL * np.abs(R).sum(axis=1).max()
                               * np.eye(len(R)))
            return True, None
    eigs = np.linalg.eigvalsh(R)
    lam = float(eigs[0])
    return lam > POSITIVE_TOL * float(eigs[-1]), lam


def _real_form(G):
    """Re G - (Im G) J, the real symmetric form of a Gram over a rectangle.

    Over [0, J] x [0, K] in z-major order, reversing the flat index maps u
    to (J, K) - u, so the reversal permutation J gives (J G J)[a, b] =
    c_{u_a - u_b} = conj(G[a, b]), bit for bit for an exactly Hermitian
    table.  With the unitary Q = (I + iJ)/sqrt(2), Q^H G Q = Re G - (Im G) J
    is real symmetric, so G = Q R Q^H with R this matrix (a centro-Hermitian
    matrix is unitarily similar to a real one; A. Lee, LAA 29, 1980).
    """
    return G.real - G.imag[:, ::-1]
