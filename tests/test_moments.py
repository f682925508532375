import re
import tracemalloc

import numpy as np
import pytest

from bszego import (BiPoly, InsufficientMoments, MomentDivergence, MomentTable,
                    NonPositiveDensity, QuadratureConfig, TrigPoly,
                    ZeroPolynomial, gram, is_positive, moments_from_density,
                    moments_from_grid_function, moments_from_trig)
from bszego import moments
from bszego.moments import _poly_grid_values, _rect_gram_eigvalsh

from conftest import geometric_diag_moment, riemann_moment


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


def test_grid_doubling_stability(p_2zw):
    base = moments_from_density(p_2zw, 2, 2)
    finer = moments_from_density(
        p_2zw, 2, 2, QuadratureConfig(initial_grid=256, max_grid=4096))
    assert float(np.max(np.abs(base.c - finer.c))) < 1e-10


def _torus_grid(N):
    z = np.exp(2j * np.pi * np.arange(N) / N)
    return np.meshgrid(z, z, indexing="ij")


def test_poly_grid_values_match_direct_evaluation():
    rng = np.random.default_rng(31)
    # rectangular blocks, on grids just above the degree bound and finer
    for shape, N in [((3, 5), 5), ((5, 2), 5), ((4, 7), 16), ((1, 3), 3)]:
        p = BiPoly(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        zz, ww = _torus_grid(N)
        assert np.max(np.abs(_poly_grid_values(p, N) - p(zz, ww))) < 1e-12
        with pytest.raises(ValueError):
            _poly_grid_values(p, max(p.deg))


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
        assert np.max(np.abs(t.values_on_grid(N) - direct)) < 1e-12
        with pytest.raises(ValueError):
            t.values_on_grid(2 * max(jmax, kmax))


def test_windowed_transform_matches_full_fft():
    # p is not symmetric under z <-> w, so swapping the axes or the sign of
    # the negative-k columns changes the window
    p = BiPoly([[3.0, -0.5, 0.2j], [1.0, 0.4, 0.0]])
    last = {}

    def dens(zz, ww):
        last["d"] = 1.0 / np.abs(p(zz, ww)) ** 2
        return last["d"]

    for jmax, kmax in [(3, 1), (1, 3), (2, 0), (0, 2)]:
        table = moments_from_grid_function(dens, jmax, kmax)
        d = last["d"]
        N = d.shape[0]
        win = (np.fft.fft2(d) / (N * N))[np.ix_(np.arange(-jmax, jmax + 1) % N,
                                                 np.arange(-kmax, kmax + 1) % N)]
        assert np.max(np.abs(table.c - MomentTable(jmax, kmax, win).c)) < 1e-14


def test_near_torus_closed_form():
    p = BiPoly([[1.03, 0.0], [0.0, -1.0]])           # 1.03 - zw
    with pytest.raises(MomentDivergence):            # needs the 2048^2 grid
        moments_from_density(p, 2, 2, QuadratureConfig(max_grid=1024))
    t = moments_from_density(p, 2, 2)
    for j in range(-2, 3):
        for k in range(-2, 3):
            if j == k:
                expect = geometric_diag_moment(j, 1.03)
                assert abs(t.at(j, j) - expect) < 1e-10 * expect
            else:
                assert abs(t.at(j, k)) < 1e-12


def test_grid_function_overflow_rejected():
    def dens(zz, ww):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(1.0 - zz) ** 2       # infinite at z = 1

    with pytest.raises(MomentDivergence, match="density overflowed on the grid"):
        moments_from_grid_function(dens, 1, 1)


def _block_tables(monkeypatch, p, points):
    monkeypatch.setattr(moments, "BLOCK_POINTS", points)
    return (moments_from_density(p, 3, 2).c,
            moments_from_trig(TrigPoly.from_abs_squared(p), 3, 2).c)


def test_quadrature_is_block_invariant(monkeypatch):
    p = BiPoly([[1.4, 0.3], [0.2j, -1.0]])
    with pytest.raises(MomentDivergence):            # needs the 256^2 grid
        moments_from_density(p, 3, 2, QuadratureConfig(max_grid=128))
    whole = _block_tables(monkeypatch, p, 1 << 24)   # one block per grid
    # one row per block; then 12, 6 and 3 rows at 64, 128 and 256, each
    # grid with a ragged last block
    for points in (1, 3 * 256):
        for got, ref in zip(_block_tables(monkeypatch, p, points), whole):
            assert np.max(np.abs(got - ref)) <= 1e-15 * abs(ref[3, 2])


def _pole_message(p, N):
    a2 = np.abs(_poly_grid_values(p, N)) ** 2
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
    assert np.min(np.abs(_poly_grid_values(cases[1], 64))) == 0.0
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
        lo = t.values_on_grid(64).min()
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
        trig = TrigPoly.from_abs_squared(p)
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
    trig = TrigPoly.from_abs_squared(p_2zw)
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


def test_gram_lebesgue_identity(lebesgue_table):
    g = gram(lebesgue_table, [(0, 0), (1, 0)], [(0, 0), (1, 0)])
    assert np.allclose(g, np.eye(2))


def test_gram_2zw_window(table_2zw):
    g = gram(table_2zw, [(0, 0), (1, 1)], [(0, 0), (1, 1)])
    assert np.allclose(g, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-12)


def test_gram_matches_entrywise_definition():
    rng = np.random.default_rng(21)
    c = rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7))
    t = MomentTable(4, 3, c)
    pool = [(j, k) for j in range(5) for k in range(4)]
    for _ in range(5):
        rows = [pool[i] for i in rng.choice(len(pool), 7, replace=False)]
        cols = [pool[i] for i in rng.choice(len(pool), 5, replace=False)]
        expect = np.array([[t.at(u - a, v - b) for (u, v) in cols]
                           for (a, b) in rows])
        assert np.array_equal(gram(t, rows, cols), expect)


def test_gram_out_of_range(table_2zw):
    with pytest.raises(InsufficientMoments):
        gram(table_2zw, [(0, 0)], [(5, 0)])
    # a negative offset is out of range too; it must not wrap around
    with pytest.raises(InsufficientMoments):
        gram(table_2zw, [(5, 0)], [(0, 0)])
    # the message names the first offending offset in row-major order
    with pytest.raises(InsufficientMoments, match=r"moment \(5, 0\) outside"):
        gram(table_2zw, [(0, 0), (0, -5)], [(0, 0), (5, 0)])


def test_square_gram_is_exactly_hermitian():
    rng = np.random.default_rng(22)
    for _ in range(20):
        c = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        t = MomentTable(3, 3, c)
        pool = [(j, k) for j in range(4) for k in range(4)]
        sup = [pool[i] for i in rng.choice(len(pool), 9, replace=False)]
        g = gram(t, sup, sup)
        assert np.array_equal(g, g.conj().T)


@pytest.mark.parametrize("jmax, kmax", [(0, 7), (1, 1), (2, 5), (4, 4), (6, 3)])
def test_rect_gram_real_form(jmax, kmax):
    # over a rectangle the index reversal J gives J G J = conj(G) bit for
    # bit, and the real symmetric form has the Gram's eigenvalues
    rng = np.random.default_rng(10 * jmax + kmax)
    sup = [(j, k) for j in range(jmax + 1) for k in range(kmax + 1)]
    for _ in range(5):
        shape = (2 * jmax + 1, 2 * kmax + 1)
        t = MomentTable(jmax, kmax, rng.normal(size=shape)
                        + 1j * rng.normal(size=shape))
        g = gram(t, sup, sup)
        assert np.array_equal(g[::-1, ::-1], g.conj())
        ref = np.linalg.eigvalsh(g)
        got = _rect_gram_eigvalsh(g)
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


def test_gram_positive_for_bounded_density():
    rng = np.random.default_rng(5)
    p = BiPoly(rng.normal(size=(2, 2)) + np.diag([4.0, 0])[:2, :2])
    t = moments_from_density(p, 2, 2)
    sup = [(j, k) for j in range(3) for k in range(3)]
    g = gram(t, sup, sup)
    assert np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0] > 0


def test_table_window_and_bounds(table_2zw):
    w = table_2zw.window(1, 1)
    assert w.jmax == 1 and abs(w.at(1, 1) - table_2zw.at(1, 1)) < 1e-15
    with pytest.raises(InsufficientMoments):
        table_2zw.at(4, 0)
    with pytest.raises(InsufficientMoments):
        table_2zw.window(4, 4)
