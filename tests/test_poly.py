import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bszego import (BiPoly, InvalidDegree, RootNearTorus, ZeroPolynomial,
                    content_roots, reflect, roots, split_stable)
from bszego import poly as poly_mod
from bszego.poly import (TRIM_REL, _canonical_phase, _diagonal_sums, _diagonal_totals,
                         _kernel, _schur_cohn, _w_roots)
from bszego.sos import _outer_factor

from conftest import torus_grid


def zpoly(c):
    """The polynomial in z alone with ascending coefficients c."""
    return BiPoly(np.asarray(c, dtype=complex)[:, None])


def test_bipoly_refuses_an_array_of_three_axes():
    with pytest.raises(InvalidDegree, match="coefficient array must be 2-D"):
        BiPoly(np.zeros((2, 2, 2)))


def test_reflect_constant():
    r = reflect(BiPoly([[1.0]]), (0, 0))
    assert np.allclose(r.coeffs, [[1.0]])


def test_reflect_2_minus_zw():
    # zw (2 - 1/(zw)) = 2 zw - 1
    r = reflect(BiPoly([[2, 0], [0, -1]]), (1, 1))
    assert np.allclose(r.coeffs, [[-1, 0], [0, 2]])


def test_reflect_z_minus_w():
    r = reflect(BiPoly([[0, -1], [1, 0]]), (1, 1))
    assert np.allclose(r.coeffs, [[0, 1], [-1, 0]])


def test_reflect_involution_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m = rng.integers(0, 4, 2)
        c = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
        p = BiPoly(c)
        # reflect at a padded degree pair as well as the exact one
        for extra in ((0, 0), (2, 1)):
            at = (n + extra[0], m + extra[1])
            twice = reflect(reflect(p, at), at)
            assert np.allclose(twice.coeffs[: n + 1, : m + 1], c, atol=1e-14)


def test_reflect_preserves_modulus_on_torus():
    rng = np.random.default_rng(1)
    c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    p = BiPoly(c)
    r = reflect(p, (2, 1))
    zz, ww = torus_grid(64)
    assert np.max(np.abs(np.abs(p(zz, ww)) - np.abs(r(zz, ww)))) < 1e-12


def test_reflect_rejects_small_degree():
    for at in ((1, 0), (0, 1)):   # below the w-degree, below the z-degree
        with pytest.raises(InvalidDegree, match=r"below actual \(1, 1\)"):
            reflect(BiPoly([[0, 0], [0, 1.0]]), at)


def test_roots_linear():
    assert np.allclose(roots(zpoly([1, -2])), [0.5])


def test_roots_quadratic_pair():
    got = sorted(roots(zpoly([1, 0, 1])), key=lambda v: v.imag)
    assert np.allclose(got, [-1j, 1j])


def test_roots_product_expansion():
    # (1 - 2z)(3 - z) = 3 - 7z + 2z^2 ; companion oracle gives {1/2, 3}
    got = sorted(roots(zpoly([3, -7, 2])).real)
    assert np.allclose(got, [0.5, 3.0], atol=1e-12)


def test_roots_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        roots(zpoly([0.0]))


def test_roots_rejects_w_dependence():
    with pytest.raises(InvalidDegree):
        roots(BiPoly([[1, 1], [2, 0]]))


def test_roots_of_constant_is_empty_complex():
    got = roots(zpoly([2.0]))
    assert got.shape == (0,) and got.dtype == np.complex128


def test_roots_vieta_property():
    rng = np.random.default_rng(2)
    for _ in range(10):
        deg = int(rng.integers(1, 11))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[-1] += 3.0  # keep the leading coefficient well away from zero
        u = zpoly(c)
        rebuilt = c[-1] * np.polynomial.polynomial.polyfromroots(roots(u))
        assert np.max(np.abs(rebuilt - c)) < 1e-8 * np.max(np.abs(c))


def test_split_stable_constant():
    rs = split_stable(zpoly([2.0]))
    assert rs.beta == 0
    assert np.allclose(rs.stable.coeffs[:, 0], [2.0])
    assert np.allclose(rs.unstable.coeffs[:, 0], [1.0])


def test_split_stable_mixed():
    rs = split_stable(zpoly([3, -7, 2]))
    assert rs.beta == 1
    # unstable part is monic with the single disk root 1/2
    assert np.allclose(rs.unstable.coeffs[:, 0], [-0.5, 1.0])
    prod = np.convolve(rs.stable.coeffs[:, 0], rs.unstable.coeffs[:, 0])
    assert np.allclose(prod, [3, -7, 2])


def test_split_stable_root_on_circle():
    with pytest.raises(RootNearTorus):
        split_stable(zpoly([1, -1]))


def test_split_stable_checks_its_refactorization(monkeypatch):
    # roots of 3 - 7z + 2z^2 = (2z - 1)(z - 3) a little off: the factors
    # they give do not multiply back to u, and the residual check refuses
    monkeypatch.setattr(poly_mod, "roots", lambda u: np.array([0.501, 3.0]))
    with pytest.raises(RootNearTorus, match="refactorization residual 8.571e-04"):
        split_stable(zpoly([3, -7, 2]))


def test_split_stable_product_property():
    rng = np.random.default_rng(3)
    for _ in range(15):
        deg = int(rng.integers(1, 9))
        mods = np.where(rng.uniform(size=deg) < 0.5,
                        rng.uniform(0.2, 0.9, deg), rng.uniform(1.1, 3.0, deg))
        rts = mods * np.exp(2j * np.pi * rng.uniform(size=deg))
        lead = 1.0 + rng.normal() * 0.2
        u = zpoly(lead * np.polynomial.polynomial.polyfromroots(rts))
        rs = split_stable(u)
        assert rs.stable.deg == (deg - rs.beta, 0)
        assert rs.unstable.deg == (rs.beta, 0)
        prod = (rs.stable * rs.unstable).coeffs
        assert prod.shape == u.coeffs.shape
        assert np.max(np.abs(prod - u.coeffs)) < 1e-10 * np.max(np.abs(u.coeffs))
        assert rs.beta == int(np.sum(mods < 1))


def _columns(*cols):
    """The BiPoly whose w^k column is the ascending z-coefficients cols[k]."""
    out = np.zeros((max(len(c) for c in cols), len(cols)), dtype=complex)
    for k, c in enumerate(cols):
        out[: len(c), k] = c
    return BiPoly(out)


_FROM_ROOTS = np.polynomial.polynomial.polyfromroots


@pytest.mark.parametrize("p, expected", [
    (_columns([-2, 1], _FROM_ROOTS([2, 3])), [2]),          # shared factor
    (_columns([4.0], [0, 2.0]), []),                         # constant column
    # (z-2)^2 (z+1) and (z-2)(z-5): z = 2 shared once
    (_columns(_FROM_ROOTS([2, 2, -1]), _FROM_ROOTS([2, 5])), [2]),
    # h(z) g(z, w) with h = (z-2)^2 (z+1) and g = 3 + z - zw
    (zpoly(_FROM_ROOTS([2, 2, -1])) * BiPoly([[3, 0], [1, -1.0]]),
     [-1, 2, 2]),
], ids=["shared", "constant", "multiplicity", "product"])
def test_content_roots(p, expected):
    got = np.sort_complex(content_roots(p))
    assert got.shape == (len(expected),)
    assert np.allclose(got, expected, atol=1e-6)


def test_content_roots_of_zero():
    with pytest.raises(ZeroPolynomial):
        content_roots(BiPoly(np.zeros((2, 3))))


def test_canonical_phase():
    p = BiPoly(np.array([[2j, 0], [0, 1.0]]))
    cp = _canonical_phase(p)
    # the largest w^0-row coefficient becomes real positive
    assert abs(cp.coeffs[0, 0] - 2.0) < 1e-14
    # |-8| and |8 + 1e-14| tie within PHASE_TIE_REL: the z^0 entry wins
    cp = _canonical_phase(BiPoly(np.array([[-8.0], [8.0 + 1e-14], [2.0]])))
    assert cp.coeffs[0, 0] == 8.0


def test_reflect_z_poly_padding():
    r = reflect(zpoly([1.0, -2.0]), (3, 0))
    assert r.deg == (3, 0)
    assert np.allclose(r.coeffs[:, 0], [0, 0, -2, 1])


def test_sums_take_a_bipoly_and_products_a_scalar_too():
    # + and - take a BiPoly and * a BiPoly or a scalar; no number or array
    # is read as a polynomial
    p = BiPoly([[1, 2], [3, 4]])
    for other in (1.0, np.ones((2, 2)), [[1, 2]]):
        with pytest.raises(TypeError, match="BiPoly operand"):
            p + other
        with pytest.raises(TypeError, match="BiPoly operand"):
            p - other
    with pytest.raises(TypeError, match="BiPoly operand"):
        p * np.ones((2, 2))
    assert np.array_equal((p - p * 0.5).coeffs, 0.5 * p.coeffs)


def test_w_roots_match_np_roots():
    rng = np.random.default_rng(17)
    zs = np.exp(2j * np.pi * (np.arange(64) + 0.2) / 64)
    for _ in range(20):
        n, m = rng.integers(0, 9, 2)
        p = BiPoly(rng.normal(size=(n + 1, m + 1))
                   + 1j * rng.normal(size=(n + 1, m + 1)))
        coeffs, rts = _w_roots(p, zs)
        assert rts.shape == (64, m)
        for s, z0 in enumerate(zs):
            assert np.array_equal(coeffs[:, s], p.w_poly_at(z0))
            assert np.array_equal(rts[s], np.roots(p.w_poly_at(z0)[::-1]))


def test_w_roots_zero_lead_gives_nan_row():
    p = BiPoly([[2, 1], [0, -1]])              # 2 + (1 - z) w
    _, rts = _w_roots(p, np.array([1.0, -1.0]))
    assert np.isnan(rts[0]).all()
    assert np.allclose(rts[1], [-1.0])


def test_w_roots_constant_in_w():
    coeffs, rts = _w_roots(BiPoly([[1], [2]]), np.array([1.0, 1j, -1.0]))
    assert coeffs.shape == (1, 3) and rts.shape == (3, 0)


def _trimmed_by_masks(a):
    """trimmed's result by its keep masks alone: the oracle for its shortcut."""
    mx = np.max(np.abs(a))
    if mx == 0.0:
        return np.zeros((1, 1), dtype=complex)
    keep = np.abs(a) >= TRIM_REL * mx
    rows = np.nonzero(keep.any(axis=1))[0]
    cols = np.nonzero(keep.any(axis=0))[0]
    n = rows.max() if rows.size else 0
    m = cols.max() if cols.size else 0
    return a[: n + 1, : m + 1]


# an entry of a set row or column, in units of the trim floor: zero, below
# the floor, at it, or above it
TAIL = st.sampled_from([0.0, 0.3, 0.999, 1.0, 1.001, 5.0])


@st.composite
def trailing_grids(draw):
    """Coefficient grids with whole rows and columns, the trailing ones
    among them, set to zero, below TRIM_REL * max, at it or above it."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    body = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    a = np.array(draw(st.lists(body, min_size=rows * cols, max_size=rows * cols)),
                 dtype=complex).reshape(rows, cols)
    mx = np.max(np.abs(a))
    for _ in range(draw(st.integers(0, rows - 1))):
        r = draw(st.integers(0, rows - 1))
        a[r, :] = [draw(TAIL) * TRIM_REL * mx for _ in range(cols)]
    for _ in range(draw(st.integers(0, cols - 1))):
        c = draw(st.integers(0, cols - 1))
        a[:, c] = [draw(TAIL) * TRIM_REL * mx for _ in range(rows)]
    return a


@settings(max_examples=300, deadline=None)
@given(trailing_grids())
@example(np.zeros((3, 2), dtype=complex))
@example(np.zeros((1, 1), dtype=complex))
@example(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
@example(np.array([[1.0, 0.0], [1e-13, 0.0]], dtype=complex))
def test_trimmed_matches_the_mask_rule(a):
    p = BiPoly(a)
    got, want = p.trimmed(), _trimmed_by_masks(p.coeffs)
    assert got.coeffs.shape == want.shape and np.array_equal(got.coeffs, want)
    assert (got is p) == (want.shape == a.shape and np.any(a != 0.0))


@pytest.mark.parametrize("size", [1, 2, 5, 17])
def test_diagonal_sums_and_totals_add_in_order(size):
    # the partial sums and the totals of the diagonals k - k' = d, each added
    # from k = 0 up as a loop would, bit for bit; totals run d = -(K-1)..K-1
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, size, 3, 2)) + 1j * rng.normal(size=(size, size, 3, 2))
    sums, totals = np.zeros_like(a), []
    for k in range(size):
        for kk in range(size):
            sums[k, kk] = a[k, kk] + (sums[k - 1, kk - 1] if k and kk else 0)
    for d in range(1 - size, size):
        acc = 0
        for k in range(max(d, 0), min(size, size + d)):
            acc = acc + a[k, k - d]
        totals.append(acc)
    assert np.array_equal(_diagonal_sums(a), sums)
    assert np.array_equal(_diagonal_totals(a), np.array(totals))


def _schur_cohn_at(p, z):
    """S(z) of p at its own degree, from the coefficients S_d."""
    n, m = p.deg
    s = _schur_cohn(_kernel(p, p.deg)[0], p.deg)
    return np.tensordot(z ** np.arange(-n, n + 1), s, 1)


def _slice_polys(seed, count):
    """Random p of degree up to (3, 4) with w^0 coefficients scaled, so that
    the slices over the circle are stable for some p and not for others."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(0, 4)), int(rng.integers(1, 5))
        c = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
        c[:, 0] *= rng.uniform(0.5, 6.0)
        yield BiPoly(c)


def test_schur_cohn_is_positive_exactly_on_stable_slices():
    # S(z) is positive definite exactly when every root of p(z, w) lies
    # outside the closed disk; slices with a root within 1e-6 of the circle
    # are left out
    seen = set()
    for p in _slice_polys(11, 60):
        for z in np.exp(2j * np.pi * np.array([0.1, 0.35, 0.8])):
            q = p.w_poly_at(z)
            low = np.abs(np.roots(q[::-1])).min()
            if abs(low - 1.0) < 1e-6:
                continue
            stable = bool(low > 1.0)
            s = _schur_cohn_at(p, z)
            assert np.abs(s - s.conj().T).max() <= 1e-14 * _kernel(p, p.deg)[1]
            assert bool(np.linalg.eigvalsh(s)[0] > 0) == stable
            seen.add(stable)
    assert seen == {True, False}


def test_schur_cohn_inverse_is_the_w_moment_toeplitz():
    # on a stable slice, S(z)^-1 is the Toeplitz matrix [c_(k - k')] of the
    # w-moments c_k = int w^-k / |p(z, w)|^2 dsigma(w), from a fine FFT
    count = 0
    ws = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for p in _slice_polys(12, 60):
        m = p.deg[1]
        z = np.exp(0.7j)
        q = p.w_poly_at(z)
        if m < 2 or np.abs(np.roots(q[::-1])).min() < 1.3:
            continue
        c = np.fft.fft(1.0 / np.abs(np.polynomial.polynomial.polyval(ws, q)) ** 2) / ws.size
        k = np.arange(m)
        toeplitz = c[(k[:, None] - k[None, :]) % ws.size]
        inverse = np.linalg.inv(_schur_cohn_at(p, z))
        assert np.abs(inverse - toeplitz).max() <= 1e-14 * np.abs(toeplitz).max()
        count += 1
    assert count >= 5


def test_outer_factor_of_schur_cohn():
    # G(z) G(z)^H = S(z) on the circle, within round-off of |P|^2, and G is
    # outer: det G(z) has no zero in the closed disk
    count = 0
    for p in _slice_polys(13, 60):
        (n, m), zs = p.deg, np.exp(2j * np.pi * np.arange(7) / 7 + 0.2j)
        circle = np.exp(2j * np.pi * np.arange(256) / 256)
        if np.abs(_w_roots(p, circle)[1]).min() < 1.3:
            continue
        kernel, scale = _kernel(p, p.deg)
        g = _outer_factor(_schur_cohn(kernel, p.deg))
        for z in zs:
            gz = np.tensordot(z ** np.arange(n + 1), g, 1)
            assert np.abs(gz @ gz.conj().T - _schur_cohn_at(p, z)).max() <= 1e-14 * scale
        for z in 0.99 * zs * np.linspace(0.0, 1.0, 5)[:, None]:
            for x in z:
                gz = np.tensordot(x ** np.arange(n + 1), g, 1)
                assert abs(np.linalg.det(gz)) > 0.0
        count += 1
    assert count >= 5
