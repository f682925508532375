import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval2d

from bszego import (BiPoly, InsufficientMoments, MomentDivergence, MomentTable,
                    NonPositiveDensity, TrigPoly, ZeroPolynomial, gram,
                    is_positive, moments_from_density,
                    moments_from_grid_function, moments_from_trig)
from bszego import moments
from bszego.moments import _grid_rows, _inverse_moments, _real_form
from bszego.poly import _kernel, _schur_cohn

from conftest import (alpha_zw_poly, geometric_diag_moment, perturb_poly,
                      poly_grid_values, riemann_moment, sampled_grids, shifted_c00,
                      trig_abs_squared, trig_values_on_grid)


def test_lebesgue_measure():
    t = moments_from_density(BiPoly([[1.0]]), 2, 2)
    expect = np.zeros((5, 5))
    expect[2, 2] = 1.0
    assert np.max(np.abs(t.c - expect)) < 1e-13


def test_diagonal_moments_2zw(table_2zw):
    for j in range(-3, 4):
        assert abs(table_2zw.at(j, j) - geometric_diag_moment(j, 2.0)) < 1e-12
    # everything off the diagonal is zero
    for j in range(-3, 4):
        for k in range(-3, 4):
            if j != k:
                assert abs(table_2zw.at(j, k)) < 1e-13


def test_univariate_factor_moments():
    t = moments_from_density(BiPoly([[2.0], [-1.0]]), 3, 1)   # 2 - z
    for j in range(-3, 4):
        assert abs(t.at(j, 0) - geometric_diag_moment(j, 2.0)) < 1e-12
        assert abs(t.at(j, 1)) < 1e-13


def test_hermitian_symmetry_exact(table_2zw):
    c = table_2zw.c
    assert np.array_equal(c, np.conj(c[::-1, ::-1]))


def test_real_coefficients_give_real_moments():
    p = BiPoly([[3.0, -1.0], [1.0, 0.5]])
    t = moments_from_density(p, 2, 2)
    assert float(np.max(np.abs(t.c.imag))) < 1e-11


def test_grid_doubling_stability(monkeypatch):
    # 1.1 - zw: the stopping rule stops at 512^2, a tighter one a grid later
    p = BiPoly([[1.1, 0.0], [0.0, -1.0]])
    grids = sampled_grids(monkeypatch)
    base = moments_from_density(p, 2, 2)
    assert grids == [64, 128, 256, 512]
    grids.clear()
    monkeypatch.setattr(moments, "STOP_TOL", 1e-14)
    finer = moments_from_density(p, 2, 2)
    assert grids == [64, 128, 256, 512, 1024]
    assert float(np.max(np.abs(base.c - finer.c))) < 1e-14


def _torus_grid(N):
    z = np.exp(2j * np.pi * np.arange(N) / N)
    return np.meshgrid(z, z, indexing="ij")


def test_poly_grid_values_match_direct_evaluation():
    rng = np.random.default_rng(31)
    # rectangular blocks, on grids just above the degree bound and finer
    for shape, N in [((3, 5), 5), ((5, 2), 5), ((4, 7), 16), ((1, 3), 3)]:
        p = BiPoly(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        zz, ww = _torus_grid(N)
        assert np.max(np.abs(poly_grid_values(p, N) - p(zz, ww))) < 1e-12
        with pytest.raises(ValueError):
            poly_grid_values(p, max(p.deg))


def test_trig_values_on_grid_match_laurent_sum():
    rng = np.random.default_rng(32)
    for jmax, kmax, N in [(2, 1, 5), (1, 3, 7), (3, 2, 16), (0, 2, 5)]:
        re, im = rng.normal(size=(2, 2 * jmax + 1, 2 * kmax + 1))
        c = re + 1j * im
        t = TrigPoly(jmax, kmax, c + np.conj(c[::-1, ::-1]))
        zz, ww = _torus_grid(N)
        direct = sum(t.at(j, k) * zz ** j * ww ** k
                     for j in range(-jmax, jmax + 1)
                     for k in range(-kmax, kmax + 1))
        assert np.max(np.abs(trig_values_on_grid(t, N) - direct)) < 1e-12
        with pytest.raises(ValueError):
            trig_values_on_grid(t, 2 * max(jmax, kmax))


def test_windowed_transform_matches_full_fft():
    # p is not symmetric under z <-> w, so swapping the axes or the sign of
    # the negative-k columns changes the window
    p = BiPoly([[3.0, -0.5, 0.2j], [1.0, 0.4, 0.0]])
    shapes = []

    def dens(zz, ww):
        shapes.append(zz.shape)
        return 1.0 / np.abs(p(zz, ww)) ** 2

    for jmax, kmax in [(3, 1), (1, 3), (2, 0), (0, 2)]:
        table = moments_from_grid_function(dens, jmax, kmax)
        N = 2 * shapes[-1][0]      # the last call samples new points of grid N
        d = dens(*_torus_grid(N))
        win = (np.fft.fft2(d) / (N * N))[np.ix_(np.arange(-jmax, jmax + 1) % N,
                                                 np.arange(-kmax, kmax + 1) % N)]
        assert np.max(np.abs(table.c - MomentTable(jmax, kmax, win).c)) < 1e-14


def _nested_sums(values, N, kmax, start):
    """The w-sums of grid N, built level by level from grid start.

    values(ri, ci) gives the samples at rows ri and columns ci of the N x N
    grid; the doubling loop's own level builder reads them in row blocks.
    """
    def density_at(n, shifts):
        idx = 2 * np.arange(n)
        step = max(1, moments.BLOCK_POINTS // n)
        for u, v in shifts:
            ci = (idx + v) * N // (2 * n)
            for r in range(0, n, step):
                yield values((idx[r: r + step] + u) * N // (2 * n), ci)

    for n, sums in moments._level_sums(density_at, start, kmax):
        if n == N:
            return sums


def _w_transform_of_row(row, kmax, start=64):
    # the row on grid row 0 and zeros elsewhere, nested from grid
    # min(start, N) as the doubling loop nests: row 0's w-sums are the
    # row's w-DFT
    N = len(row)

    def values(ri, ci):
        return np.where(ri[:, None] == 0, row[ci], 0.0)

    return _nested_sums(values, N, kmax, min(start, N))[:, 0]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("N", [16, 64, 2048, 4096])
def test_w_transform_accuracy(N):
    # lognormal rows (sigma = 2) against a long-double direct sum: within
    # 1.5e-15 of the row sum, which one unchunked N-term product (a single
    # chunk of N samples) fails at N = 4096
    rng = np.random.default_rng(N)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for kmax in (0, 1, 8, 16):
        for row in rng.lognormal(0.0, 2.0, size=(2, N)):
            k = np.arange(kmax + 1)
            ang = 2 * pi * (np.outer(np.arange(N), k) % N) / N
            exact = row.astype(np.longdouble)
            ref = (exact @ np.cos(ang)).astype(float) - 1j * (exact @ np.sin(ang)).astype(float)
            got = _w_transform_of_row(row, kmax)
            assert np.max(np.abs(got - ref)) <= 1.5e-15 * row.sum()


@pytest.mark.parametrize("N", [128, 4096])
def test_nested_sums_match_one_grid(N):
    # lognormal samples (sigma = 2): a whole random grid at 128^2, an outer
    # product at 4096^2.  The sums nested from grid 64 match one transform
    # of grid N, row by row, within 1.5e-15 of the row sum.
    rng = np.random.default_rng(N + 1)
    if N == 128:
        grid = rng.lognormal(0.0, 2.0, size=(N, N))
        values = lambda ri, ci: grid[np.ix_(ri, ci)]       # noqa: E731
        row_sums = grid.sum(axis=1)
    else:
        a, b = rng.lognormal(0.0, 2.0, size=(2, N))
        values = lambda ri, ci: np.outer(a[ri], b[ci])     # noqa: E731
        row_sums = a * b.sum()
    for kmax in (0, 1, 16):
        nested = _nested_sums(values, N, kmax, 64)
        direct = _nested_sums(values, N, kmax, N)
        assert np.all(np.max(np.abs(nested - direct), axis=0) <= 1.5e-15 * row_sums)


def test_run_samples_each_point_once(monkeypatch):
    # 1.1 - zw, as a grid function: the run stops at 512^2, and the calls
    # sample each of that grid's points exactly once
    p = BiPoly([[1.1, 0.0], [0.0, -1.0]])
    grids = sampled_grids(monkeypatch)
    seen = []

    def dens(zz, ww):
        seen.append(np.stack([zz.ravel(), ww.ravel()]))
        return 1.0 / np.abs(p(zz, ww)) ** 2

    moments_from_grid_function(dens, 2, 2)
    N = grids[-1]
    assert grids == [64, 128, 256, 512]
    index = np.rint(np.angle(np.concatenate(seen, axis=1)) * N / (2 * np.pi)) % N
    assert index.shape[1] == N * N
    assert len(np.unique(index[0] * N + index[1])) == N * N


def test_real_inputs_sample_the_upper_half_rows(monkeypatch):
    # 1.1 - zw stops at 512^2.  With real coefficients, p and |p|^2 sample
    # rows 0..N/2 of each u = 0 sub-grid and rows 0..N/2 - 1 of each u = 1
    # sub-grid; rotated by e^(0.7i), p has complex coefficients and the
    # same density, and samples every row.  Up to grid 128 each sub-grid
    # is one block of its pass
    p = BiPoly([[1.1, 0.0], [0.0, -1.0]])
    passes = _drawn_blocks(monkeypatch)
    grids = sampled_grids(monkeypatch)
    levels = [(64, moments.WHOLE_GRID)] + [(N, moments.NEW_POINTS) for N in (64, 128, 256)]
    for call, mirrored in [(partial(moments_from_density, p), True),
                           (partial(moments_from_trig, trig_abs_squared(p)), True),
                           (partial(moments_from_density, BiPoly(np.exp(0.7j) * p.coeffs)),
                            False)]:
        passes.clear()
        grids.clear()
        call(2, 2)
        assert grids == [64, 128, 256, 512]
        for blocks, (N, shifts) in zip(passes, levels, strict=True):
            counts = [N // 2 + 1 - u if mirrored else N for u, _ in shifts]
            sizes = [len(b) for b in blocks]
            assert sum(sizes) == sum(counts)
            assert N > 128 or sizes == counts


@pytest.mark.parametrize("p, grid", [
    (BiPoly([[1.03, 0.0], [0.0, -1.0]]), 2048),
    (BiPoly([[3.0, 0.5, -0.2], [0.4, -1.0, 0.3]]), 128),
    (BiPoly([[2.0], [-1.0]]) * BiPoly([[1.2, 0.0], [0.0, -1.0]]) * BiPoly([[1.0, -0.4]]), 512),
], ids=["1.03-zw", "(1,2)", "(2-z)(1.2-zw)(1-0.4w)"])
def test_mirrored_rows_match_the_full_path(monkeypatch, p, grid):
    # e^(0.7i) p has complex coefficients and the same density 1/|p|^2, so
    # it samples every row; both reach the same grid and agree on windows
    # (1, 1) to (4, 4)
    rotated = BiPoly(np.exp(0.7j) * p.coeffs)
    grids = sampled_grids(monkeypatch)
    for w in range(1, 5):
        got = moments_from_density(p, w, w)
        assert grids[-1] == grid
        want = moments_from_density(rotated, w, w)
        assert grids[-1] == grid
        assert np.max(np.abs(got.c - want.c)) <= 1e-14 * abs(want.at(0, 0))


def test_real_trig_matches_its_grid_function():
    # a real Hermitian t, positive on the torus (its constant term exceeds
    # the sum of the others), against the grid function 1/t on every row
    rng = np.random.default_rng(21)
    half = rng.uniform(-0.3, 0.3, size=(5, 7))
    c = half + half[::-1, ::-1]
    c[2, 3] = 2.0 + np.abs(c).sum()
    t = TrigPoly(2, 3, c.astype(complex))
    assert not t.c.imag.any()

    def recip(zz, ww):
        return 1.0 / (zz ** -2 * ww ** -3 * polyval2d(zz, ww, t.c)).real

    for jmax, kmax in [(1, 1), (2, 3), (4, 4)]:
        got = moments_from_trig(t, jmax, kmax)
        want = moments_from_grid_function(recip, jmax, kmax)
        assert np.max(np.abs(got.c - want.c)) <= 1e-13 * abs(want.at(0, 0))


def test_near_torus_closed_form(monkeypatch):
    p = BiPoly([[1.03, 0.0], [0.0, -1.0]])           # 1.03 - zw
    grids = sampled_grids(monkeypatch)
    t = moments_from_density(p, 2, 2)
    assert grids[-1] == 2048                         # needs the 2048^2 grid
    for j in range(-2, 3):
        for k in range(-2, 3):
            if j == k:
                expect = geometric_diag_moment(j, 1.03)
                assert abs(t.at(j, j) - expect) < 1e-10 * expect
            else:
                assert abs(t.at(j, k)) < 1e-12


def circle_moments(f, count):
    """m_f(l) = int x^-l / |f(x)|^2 over the unit circle, for |l| <= count,
    at index l + count: the 2^16-point trapezoid rule by one 1-D FFT, f's
    coefficients ascending."""
    x = np.exp(2j * np.pi * np.arange(2 ** 16) / 2 ** 16)
    m = np.fft.fft(1.0 / np.abs(np.polynomial.polynomial.polyval(x, f)) ** 2)
    return m[np.arange(-count, count + 1)] / 2 ** 16


@pytest.mark.parametrize("q, r", [
    ([1.0], [1.035, -1]),
    ([2, -1], [1.035, -1]),
    ([2, -1j, 0.5], np.polynomial.polynomial.polyfromroots([1.035, -3])),
    (np.polynomial.polynomial.polyfromroots([2, -1.5j, 0.5]),
     np.polynomial.polynomial.polyfromroots([1.035, -2, 3j, 1.5])),
], ids=["(1,1)", "(2,1)", "(4,2)", "(7,4)"])
def test_separable_density_closed_form(q, r):
    # p = q(z) r(zw): with u = zw the density is 1/|q(z)|^2 times
    # 1/|r(u)|^2, so c_jk = m_q(j - k) m_r(k), a product of two 1-D
    # Bernstein-Szego moments; r's zero at u = 1.035 is near the torus
    coeffs = np.zeros((len(q) + len(r) - 1, len(r)), dtype=complex)
    for k, rk in enumerate(r):
        coeffs[k: k + len(q), k] = rk * np.asarray(q)
    n, m = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    t = moments_from_density(BiPoly(coeffs), n, m)
    mq, mr = circle_moments(q, n + m), circle_moments(r, m)
    j, k = np.meshgrid(np.arange(-n, n + 1), np.arange(-m, m + 1), indexing="ij")
    expect = mq[j - k + n + m] * mr[k + m]
    assert np.max(np.abs(t.c - expect)) < 1e-13 * abs(t.at(0, 0))


def test_grid_function_overflow_rejected():
    def dens(zz, ww):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(1.0 - zz) ** 2       # infinite at z = 1

    with pytest.raises(MomentDivergence, match="density overflowed on the grid"):
        moments_from_grid_function(dens, 1, 1)


def test_subnormal_trig_overflows_without_warning():
    # t = 1e-309 passes the positivity check (min/max = 1), but 1 / t
    # overflows: its blocks are not inverted or transformed, so no overflow
    # warning is raised (warnings are errors in this suite)
    with pytest.raises(MomentDivergence, match="density overflowed on the grid"):
        moments_from_trig(TrigPoly(0, 0, np.array([[1e-309 + 0j]])), 1, 1)


def _block_tables(monkeypatch, p, points):
    monkeypatch.setattr(moments, "BLOCK_POINTS", points)
    return (moments_from_density(p, 3, 2).c,
            moments_from_trig(trig_abs_squared(p), 3, 2).c)


def test_quadrature_is_block_invariant(monkeypatch):
    p = BiPoly([[1.4, 0.3], [0.2j, -1.0]])
    grids = sampled_grids(monkeypatch)
    moments_from_density(p, 3, 2)
    assert grids[-1] == 2048                         # needs the 2048^2 grid
    whole = _block_tables(monkeypatch, p, 1 << 24)   # one block per grid
    # one row per block; then 12 rows on grid 64 and on the 64-row
    # sub-grids of new points of grid 128, and 6 rows on those of grid
    # 256, each sub-grid with a ragged last block
    for points in (1, 3 * 256):
        for got, ref in zip(_block_tables(monkeypatch, p, points), whole):
            assert np.max(np.abs(got - ref)) <= 1e-15 * abs(ref[3, 2])


def _new_points(grid, mirrored=False):
    """The sub-grids of new points of a 2N x 2N grid, stacked in order; with
    ``mirrored`` only rows 0..N/2 of each u = 0 sub-grid and rows
    0..N/2 - 1 of each u = 1 sub-grid."""
    half = len(grid) // 4
    return np.concatenate([grid[u::2, v::2][: half + 1 - u if mirrored else None]
                           for u, v in moments.NEW_POINTS])


def _drawn_blocks(monkeypatch):
    """Copies of the sample blocks of each sampling pass, one list per
    pass, from here on."""
    passes = []
    sums = moments._w_sums

    def record(blocks, N, kmax):
        copies = [b.copy() for b in blocks]
        passes.append(copies)
        return sums(iter(copies), N, kmax)

    monkeypatch.setattr(moments, "_w_sums", record)
    return passes


def _inverse_abs2(p, N):
    """1 / |p|^2 on the N x N grid, |p|^2 as re^2 + im^2."""
    vals = poly_grid_values(p, N)
    return 1.0 / (vals.real ** 2 + vals.imag ** 2)


def test_density_samples_bit_identical_in_blocks(monkeypatch):
    # ragged blocks (5 rows of 64) hold exactly 1 / |p|^2, with |p|^2 as
    # re^2 + im^2, and 1 / t: of the whole 64^2 grid, then of the new points
    # of the 128^2 grid.  For real coefficients they hold the rows of the
    # upper half circle alone, which the other rows mirror
    passes = _drawn_blocks(monkeypatch)
    monkeypatch.setattr(moments, "BLOCK_POINTS", 5 * 64)
    for p in (BiPoly([[1.4, 0.3], [0.2j, -1.0]]), BiPoly([[2.0, 0.3], [0.2, -1.0]])):
        t = trig_abs_squared(p)
        mirrored = not p.coeffs.imag.any()
        assert mirrored == (not t.c.imag.any())
        rows = slice(0, 33) if mirrored else slice(None)
        for call, values in [(partial(moments_from_density, p),
                              partial(_inverse_abs2, p)),
                             (partial(moments_from_trig, t),
                              lambda N: 1.0 / trig_values_on_grid(t, N))]:
            passes.clear()
            call(2, 2)
            first, second = (np.concatenate(blocks) for blocks in passes[:2])
            assert np.array_equal(first, values(64)[rows])
            assert np.array_equal(second, _new_points(values(128), mirrored))


@pytest.mark.parametrize("shifts", [moments.WHOLE_GRID, moments.NEW_POINTS])
def test_sampled_planes_match_horner(monkeypatch, shifts):
    # the planes of every ragged block (5 rows of 64), copied as drawn,
    # against numpy's own Horner evaluation at the same torus points
    monkeypatch.setattr(moments, "BLOCK_POINTS", 5 * 64)
    rng = np.random.default_rng(11)
    p = BiPoly(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    t = trig_abs_squared(p)
    N, eps = 64, np.finfo(float).eps

    def points(u, v):
        z, w = (np.exp(1j * np.pi * (2 * np.arange(N) + a) / N) for a in (u, v))
        return np.meshgrid(z, w, indexing="ij")

    want = np.concatenate([polyval2d(*points(u, v), p.coeffs) for u, v in shifts])
    got = np.concatenate([re + 1j * im for re, im in
                          _grid_rows(p.coeffs, 0, 0, N, shifts)])
    assert got.shape == want.shape == (len(shifts) * N, N)
    assert np.max(np.abs(got - want)) <= 16 * eps * np.sum(np.abs(p.coeffs))
    want = np.concatenate([(zz ** -t.jmax * ww ** -t.kmax * polyval2d(zz, ww, t.c)).real
                           for zz, ww in (points(u, v) for u, v in shifts)])
    got = np.concatenate([re.copy() for (re,) in
                          _grid_rows(t.c, -t.jmax, -t.kmax, N, shifts, real=True)])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 16 * eps * np.sum(np.abs(t.c))


def _pole_message(p, N):
    a2 = np.abs(poly_grid_values(p, N)) ** 2
    return f"|p|^2 nearly vanishes on the torus (min/max = {a2.min() / a2.max():.3e})"


def test_pole_in_last_block(monkeypatch):
    # the first (64^2) grid, read in blocks of 5 rows: zeros on its last
    # row, then a near zero on its first row with the grid maximum in a
    # later block.  The pole check runs after the last block, on the whole
    # grid's min and max, and must win over the overflow of the inverted
    # samples, with no divide-by-zero warning.
    zeta = np.exp(2j * np.pi * 63 / 64)
    root = np.exp(-2j * np.pi / 64)                 # exactly the grid's last z
    cases = [BiPoly([[2.0, -1.0], [-np.conj(zeta), 0.0]]),   # 2 - conj(zeta) z - w
             BiPoly([[-2.0 * root, root], [2.0, -1.0]]),     # (z - root)(2 - w)
             BiPoly([[2.0 + 1e-7, -1.0], [-1.0, 0.0]])]      # 2 + 1e-7 - z - w
    messages = [_pole_message(p, 64) for p in cases]
    assert np.min(np.abs(poly_grid_values(cases[1], 64))) == 0.0
    monkeypatch.setattr(moments, "BLOCK_POINTS", 5 * 64)
    for p, msg in zip(cases, messages):
        with pytest.raises(MomentDivergence, match=re.escape(msg)):
            moments_from_density(p, 1, 1)


def test_negative_trig_in_late_block(monkeypatch):
    # t = 1 - delta - cos(theta_z - phi), read in blocks of 5 rows of the
    # 64^2 grid: negative only on the last row; negative on the last and the
    # first row, deepest on the last; zero on row 32, with no divide-by-zero
    # warning.  The message reports the minimum over the whole grid.
    monkeypatch.setattr(moments, "BLOCK_POINTS", 5 * 64)
    for phi, delta in [(63 / 64, 1e-3), (63.4 / 64, 5e-3), (0.5, 0.0)]:
        e = np.exp(-2j * np.pi * phi)
        t = TrigPoly(1, 0, np.array([[-np.conj(e) / 2], [1.0 - delta], [-e / 2]]))
        lo = trig_values_on_grid(t, 64).min()
        assert lo < 0.0 if delta else lo == 0.0
        msg = f"t is not strictly positive on the grid (min {lo:.3e})"
        with pytest.raises(NonPositiveDensity, match=re.escape(msg)):
            moments_from_trig(t, 1, 1)


def test_quadrature_memory_stays_in_blocks():
    p = BiPoly([[1.03, 0.0], [0.0, -1.0]])           # reaches the 2048^2 grid
    tracemalloc.start()
    try:
        moments_from_density(p, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20                        # one 2048^2 float array is 32 MiB


def test_fewer_than_two_grids_rejected(monkeypatch):
    p = BiPoly([[3.0, 0.0], [0.0, -1.0]])            # 3 - zw
    with pytest.raises(ValueError, match=r"window \(1024, 1\) starts at grid "
                                         r"4096\^2, which leaves fewer than two "
                                         r"grids up to 4096\^2"):
        moments_from_density(p, 1024, 1)
    # doubling starts at 64^2, or at the first power of two above twice the
    # window: window 1023 starts at 2048^2, the last grid with one after it
    grids = sampled_grids(monkeypatch)
    for jmax, first in [(1, 64), (31, 64), (32, 128), (1023, 2048)]:
        grids.clear()
        table = moments_from_density(p, jmax, 1)
        assert grids[0] == first
    assert grids == [2048, 4096]
    assert abs(table.at(1, 1) - geometric_diag_moment(1, 3.0)) < 1e-14


def test_divergence_names_largest_grid_sampled(monkeypatch):
    grids = sampled_grids(monkeypatch)
    p = BiPoly([[1.01, 0.0], [0.0, -1.0]])           # still moving at 4096^2
    with pytest.raises(MomentDivergence, match=r"did not stabilize at grid 4096\^2"):
        moments_from_density(p, 2, 2)
    assert grids == [64, 128, 256, 512, 1024, 2048, 4096]


def test_divergence_for_torus_zero():
    with pytest.raises(MomentDivergence):
        moments_from_density(BiPoly([[1, 0], [0, -1.0]]), 1, 1)  # 1 - zw


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        moments_from_density(BiPoly([[0.0]]), 1, 1)


def test_trig_lebesgue():
    one = TrigPoly(0, 0, np.array([[1.0 + 0j]]))
    t = moments_from_trig(one, 2, 2)
    assert abs(t.at(0, 0) - 1.0) < 1e-12
    assert abs(t.at(1, 2)) < 1e-13


def test_trig_matches_density(p_2zw, table_2zw):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))   # (3, 2)
    for p in (p_2zw, BiPoly(a)):
        trig = trig_abs_squared(p)
        # entrywise: coefficient of z^j w^k is sum_u a_{u + (j, k)} conj(a_u)
        c = p.coeffs
        n, m = p.deg
        assert (trig.jmax, trig.kmax) == (n, m)
        for j in range(-n, n + 1):
            for k in range(-m, m + 1):
                expect = sum(c[u1 + j, u2 + k] * np.conj(c[u1, u2])
                             for u1 in range(n + 1) for u2 in range(m + 1)
                             if 0 <= u1 + j <= n and 0 <= u2 + k <= m)
                assert abs(trig.at(j, k) - expect) < 1e-14 * np.sum(np.abs(c) ** 2)
    trig = trig_abs_squared(p_2zw)
    # |2 - zw|^2 = 5 - 2 zw - 2 conj(zw) on the torus
    assert abs(trig.at(0, 0) - 5.0) < 1e-14
    assert abs(trig.at(1, 1) + 2.0) < 1e-14
    t = moments_from_trig(trig, 3, 3)
    assert float(np.max(np.abs(t.c - table_2zw.c))) < 1e-10


def test_trig_riemann_oracle():
    # t = 4 - z conj(w) - conj(z) w, i.e. 4 - 2 cos(theta - phi)
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = 4.0
    c[2, 0] = -1.0
    c[0, 2] = -1.0
    trig = TrigPoly(1, 1, c)
    table = moments_from_trig(trig, 1, 1)
    # analytic value 1/sqrt(12); also cross-checked by a dense Riemann sum
    assert abs(table.at(0, 0) - 1.0 / np.sqrt(12.0)) < 1e-10

    def dens(zz, ww):
        return 1.0 / (4.0 - zz * np.conj(ww) - np.conj(zz) * ww).real

    brute = riemann_moment(dens, 0, 0, N=4096)
    assert abs(table.at(0, 0) - brute) < 1e-8


def test_trig_rejects_sign_changing():
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = 1.0
    c[2, 2] = 1.0
    c[0, 0] = 1.0
    with pytest.raises(NonPositiveDensity):
        moments_from_trig(TrigPoly(1, 1, c), 1, 1)
    # not Hermitian-symmetric: rejected when the trig polynomial is built
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = 4.0
    c[2, 1] = 1.0
    with pytest.raises(NonPositiveDensity):
        TrigPoly(1, 1, c)


@pytest.mark.parametrize("size", [1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e12])
def test_hermitian_check_is_scale_free(size):
    # one coefficient without its mirror, 20 % of the largest, is refused
    # at every size; with its mirror the table is accepted as it is
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1], c[2, 1] = size, 0.2j * size
    with pytest.raises(NonPositiveDensity, match="not Hermitian-symmetric"):
        TrigPoly(1, 1, c)
    c[0, 1] = np.conj(c[2, 1])
    assert np.array_equal(TrigPoly(1, 1, c).c, c)


def test_gram_lebesgue_identity(lebesgue_table):
    assert np.allclose(gram(lebesgue_table, 1, 0), np.eye(2))


def test_gram_2zw_window(table_2zw):
    # monomials 1 and zw are positions 0 and 3 of [0,1] x [0,1], z-major
    g = gram(table_2zw, 1, 1)[np.ix_([0, 3], [0, 3])]
    assert np.allclose(g, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-12)


@pytest.mark.parametrize("k, l", [(0, 0), (2, 1), (1, 3), (4, 0), (0, 3),
                                  (4, 2), (4, 3)])
def test_gram_matches_entrywise_definition(k, l):
    # entry (a, b) is c_{u_b - u_a} over [0,k] x [0,l] in z-major order, up
    # to the window edges k = jmax and l = kmax, and the Gram equals its
    # conjugate transpose bit for bit
    rng = np.random.default_rng(10 * k + l)
    c = rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7))
    t = MomentTable(4, 3, c)
    sup = [(j, i) for j in range(k + 1) for i in range(l + 1)]
    expect = np.array([[t.at(u - a, v - b) for (u, v) in sup]
                       for (a, b) in sup])
    g = gram(t, k, l)
    assert np.array_equal(g, expect)
    assert np.array_equal(g, g.conj().T)


def _gram_by_flat_index(table, k, l):
    """The Gram gathered through a (k+1)(l+1) x (k+1)(l+1) flat index."""
    width = 2 * table.kmax + 1
    flat = (np.arange(k + 1)[:, None] * width + np.arange(l + 1)).ravel()
    offset = table.jmax * width + table.kmax
    return table.c.ravel()[flat[None, :] - flat[:, None] + offset]


def test_gram_strided_copy_matches_flat_gather():
    # random tables, their sub-windows and the transposed table fullmeasure
    # builds, at every (k, l) they hold, k or l = 0 included: the strided
    # copy equals the gather bit for bit, and is a fresh writable array
    rng = np.random.default_rng(12)
    for jmax, kmax in [(0, 0), (3, 0), (0, 4), (4, 3), (6, 2)]:
        shape = (2 * jmax + 1, 2 * kmax + 1)
        t = MomentTable(jmax, kmax, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        tables = [t, t.window(jmax // 2, kmax), t.window(jmax, kmax // 2),
                  MomentTable(kmax, jmax, t.c.T)]
        for table in tables:
            for k in range(table.jmax + 1):
                for l in range(table.kmax + 1):
                    g = gram(table, k, l)
                    assert g.tobytes() == _gram_by_flat_index(table, k, l).tobytes()
                    assert g.flags.writeable and not np.shares_memory(g, table.c)


def test_gram_copies_the_table_once():
    # the strided view is gathered straight into C order, so the flattening
    # is a view of that one copy: the peak is the result's own bytes
    rng = np.random.default_rng(16)
    c = rng.normal(size=(33, 33)) + 1j * rng.normal(size=(33, 33))
    t = MomentTable(16, 16, c + np.conj(c[::-1, ::-1]))
    gram(t, 16, 16)
    tracemalloc.start()
    try:
        g = gram(t, 16, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.flags.c_contiguous
    assert peak <= 1.1 * g.nbytes


def test_gram_out_of_range(table_2zw):
    with pytest.raises(InsufficientMoments,
                       match=r"moment \(4, 0\) outside window \(3, 3\)"):
        gram(table_2zw, 4, 0)
    with pytest.raises(InsufficientMoments,
                       match=r"moment \(0, 4\) outside window \(3, 3\)"):
        gram(table_2zw, 0, 4)


@pytest.mark.parametrize("jmax, kmax", [(0, 7), (1, 1), (2, 5), (4, 4), (6, 3)])
def test_rect_gram_real_form(jmax, kmax):
    # over a rectangle the index reversal J gives J G J = conj(G) bit for
    # bit, and the real symmetric form has the Gram's eigenvalues
    rng = np.random.default_rng(10 * jmax + kmax)
    for _ in range(5):
        shape = (2 * jmax + 1, 2 * kmax + 1)
        t = MomentTable(jmax, kmax, rng.normal(size=shape)
                        + 1j * rng.normal(size=shape))
        g = gram(t, jmax, kmax)
        assert np.array_equal(g[::-1, ::-1], g.conj())
        ref = np.linalg.eigvalsh(g)
        got = np.linalg.eigvalsh(_real_form(g))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_is_positive_lebesgue(lebesgue_table):
    ok, lam = is_positive(lebesgue_table, 2, 2)
    assert ok and abs(lam - 1.0) < 1e-12


def test_is_positive_2zw(table_2zw):
    ok, lam = is_positive(table_2zw, 1, 1)
    assert ok and lam > 0


def test_is_positive_degenerate():
    t = MomentTable(1, 1, np.zeros((3, 3), dtype=complex))
    ok, lam = is_positive(t, 1, 1)
    assert not ok


def test_positivity_certificate_reaches_is_positive_verdict_on_tables():
    tables = [(moments_from_density(perturb_poly(seed, n, n), n, n), n)
              for seed, n in ((1, 1), (2, 2), (4, 4), (8, 8))]
    tables += [(moments_from_density(alpha_zw_poly(np.linspace(a, b, n)), n, n), n)
               for a, b, n in ((1.2, 2, 8), (2, 4, 16))]
    singular = MomentTable(1, 1, np.zeros((3, 3), dtype=complex))
    indefinite = MomentTable(1, 1, np.where(np.arange(9).reshape(3, 3) == 4, -1.0, 0.0))
    tables += [(singular, 1), (indefinite, 1)]
    # the seeded 1 + e table at (4, 4) made singular and indefinite by c_00
    base = tables[2][0]
    tables += [(shifted_c00(base, 4, 4, r), 4) for r in (0.0, -1e-3, 1e-13, 1e-11)]
    decided = []
    for table, n in tables:
        R = _real_form(gram(table, n, n))
        ok, lam = moments._positive(R)
        assert ok == is_positive(table, n, n)[0], n
        decided.append(lam is None)
    # the certificate decides the well-conditioned positive tables alone;
    # the ill-conditioned, singular and indefinite ones reach eigvalsh
    assert decided == [True] * 4 + [False] * 8


def test_positivity_certificate_sweeps_the_eigenvalue_ratio():
    # real symmetric forms with smallest / largest eigenvalue from 1e-14 to
    # 1e-6, on both sides of POSITIVE_TOL and of the certificate's margin,
    # 1e3 POSITIVE_TOL times the largest absolute row sum over the largest
    # eigenvalue (1, here)
    rng = np.random.default_rng(7)
    d, tol = 40, moments.POSITIVE_TOL
    V = np.linalg.qr(rng.normal(size=(d, d)))[0]

    def form(ratio):
        R = (V * np.geomspace(ratio, 1.0, d)) @ V.T
        return 0.5 * (R + R.T)

    # eigvalsh's own error in the ratio is about d eps = 1e-14, 1 % of tol
    ratios = list(np.logspace(-14, -6, 40)) + [0.9 * tol, 1.1 * tol]
    margin = 1e3 * tol * np.abs(form(1e-9)).sum(axis=1).max()
    for ratio in ratios + [0.9 * margin, 1.1 * margin]:
        ok, lam = moments._positive(form(ratio))
        want, lam_want = moments._positive(form(ratio), eigenvalue=True)
        assert ok == want == (ratio > tol), ratio
        assert ok if lam is None else lam == lam_want
    # just above the margin the certificate decides, just below eigvalsh
    assert moments._positive(form(1.1 * margin))[1] is None
    assert moments._positive(form(0.9 * margin))[1] is not None


def test_gram_positive_for_bounded_density():
    rng = np.random.default_rng(5)
    p = BiPoly(rng.normal(size=(2, 2)) + np.diag([4.0, 0])[:2, :2])
    t = moments_from_density(p, 2, 2)
    g = gram(t, 2, 2)
    assert np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0] > 0


def test_table_window_and_bounds(table_2zw):
    w = table_2zw.window(1, 1)
    assert w.jmax == 1 and abs(w.at(1, 1) - table_2zw.at(1, 1)) < 1e-15
    jmax, kmax = table_2zw.jmax, table_2zw.kmax
    for j, k in ((jmax + 1, 0), (0, kmax + 1)):
        with pytest.raises(InsufficientMoments, match="outside window"):
            table_2zw.at(j, k)
    for j, k in ((jmax + 1, kmax + 1), (jmax, kmax + 1)):
        with pytest.raises(InsufficientMoments, match="exceeds table"):
            table_2zw.window(j, k)
    with pytest.raises(InsufficientMoments,
                       match=r"table shape \(2, 2\) does not match window \(1, 1\)"):
        MomentTable(1, 1, np.zeros((2, 2)))


def _inline_roots(N):
    # the N-th roots of unity as the quadrature built them inline, per call
    t = np.arange(N)
    return np.exp(2j * np.pi * np.where(2 * t > N, t - N, t) / N)


def _clear_table_caches():
    for cached in (moments._roots, moments._power_table, moments._real_w_table):
        cached.cache_clear()


@pytest.mark.parametrize("N, shift, lo, count",
                         [(64, 0, 0, 2), (64, 1, 0, 3), (64, 1, -3, 7), (256, 0, -8, 17)])
def test_sampling_tables_are_the_inline_formulas(N, shift, lo, count):
    _clear_table_caches()
    roots = _inline_roots(2 * N)
    t = 2 * np.arange(N) + shift
    exps = np.arange(lo, lo + count)
    vz = roots[np.outer(t, exps) % (2 * N)]
    vw = roots[np.outer(exps, t) % (2 * N)]
    want = (roots, vz, np.concatenate([vw.real, vw.imag]))
    for _ in range(2):                       # cold, then from the cache
        got = (moments._roots(2 * N), moments._power_table(N, shift, lo, count),
               moments._real_w_table(N, shift, lo, count))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
            assert g.flags.c_contiguous and not g.flags.writeable
    assert moments._power_table(N, shift, lo, count) is got[1]
    with pytest.raises(ValueError, match="read-only"):
        got[2][0, 0] = 0.0


def _inline_grid_rows(coeffs, j0, k0, N, shifts, real):
    """The sampled planes as built with every table inline, one copy per block."""
    t = 2 * np.arange(N)
    roots = _inline_roots(2 * N)
    jz = np.arange(j0, j0 + coeffs.shape[0])
    kw = np.arange(k0, k0 + coeffs.shape[1])
    step = min(N, max(1, moments.BLOCK_POINTS // N))
    buf = np.empty((1 if real else 2, step, N))
    out = []
    for u, v in shifts:
        a = roots[np.outer(t + u, jz) % (2 * N)] @ coeffs
        left = np.stack([np.hstack([a.real, -a.imag]), np.hstack([a.imag, a.real])])
        vw = roots[np.outer(kw, t + v) % (2 * N)]
        vw = np.concatenate([vw.real, vw.imag])
        for r in range(0, N, step):
            block = buf[:, : min(step, N - r)]
            out.append(np.matmul(left[: len(buf), r: r + step], vw, out=block).copy())
    return out


@pytest.mark.parametrize("N", [64, 128])
@pytest.mark.parametrize("shifts", [moments.WHOLE_GRID, moments.NEW_POINTS])
def test_cached_planes_are_bit_identical(monkeypatch, shifts, N):
    # ragged blocks (5 rows of 64 points), a polynomial and a trig
    # polynomial, on a cold cache and then on a warm one
    monkeypatch.setattr(moments, "BLOCK_POINTS", 5 * 64)
    rng = np.random.default_rng(36)
    p = BiPoly(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    t = trig_abs_squared(p)
    want_p = _inline_grid_rows(p.coeffs, 0, 0, N, shifts, False)
    want_t = _inline_grid_rows(t.c, -t.jmax, -t.kmax, N, shifts, True)
    assert len(want_p) == len(shifts) * -(-N // max(1, 5 * 64 // N))
    _clear_table_caches()
    for _ in range(2):
        got_p = [b.copy() for b in _grid_rows(p.coeffs, 0, 0, N, shifts)]
        got_t = [b.copy() for b in
                 _grid_rows(t.c, -t.jmax, -t.kmax, N, shifts, real=True)]
        for got, want in ((got_p, want_p), (got_t, want_t)):
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n, m", [(2, 2), (4, 4), (8, 8), (3, 5)])
def test_schur_cohn_moments_are_the_table_windows(n, m):
    # S(z)^-1 is the Toeplitz matrix of the slice's w-moments of 1/|p|^2,
    # so its z-moments R_e, from the 1-D rule, are Toeplitz windows of the
    # 2-D table: R_e[k, k'] = c_{e, k - k'}
    rng = np.random.default_rng(4400 + 10 * n + m)
    e = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
    e[0, 0] = 0.0
    a = 0.5 * e / np.sum(np.abs(e))     # 1 + e, no zeros on the closed bidisk
    a[0, 0] += 1.0
    p = BiPoly(a)
    r = _inverse_moments(_schur_cohn(_kernel(p, (n, m))[0], (n, m)))[0]
    table = moments_from_density(p, n, m - 1)
    k = np.subtract.outer(np.arange(m), np.arange(m))
    want = np.stack([[[table.at(j, d) for d in row] for row in k]
                     for j in range(n + 1)])
    assert np.max(np.abs(r - want)) <= 1e-13 * abs(table.at(0, 0))
