import numpy as np
import pytest

from bszego import (BiPoly, InvalidDegree, RootNearTorus, UniPoly,
                    ZeroPolynomial, content_roots, reflect, roots,
                    split_stable)
from bszego.poly import canonical_phase, reflect_uni, w_roots

from conftest import torus_grid


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
    with pytest.raises(InvalidDegree):
        reflect(BiPoly([[0, 0], [0, 1.0]]), (1, 0))


def test_roots_linear():
    assert np.allclose(roots(UniPoly([1, -2])), [0.5])


def test_roots_quadratic_pair():
    got = sorted(roots(UniPoly([1, 0, 1])), key=lambda v: v.imag)
    assert np.allclose(got, [-1j, 1j])


def test_roots_product_expansion():
    # (1 - 2z)(3 - z) = 3 - 7z + 2z^2 ; companion oracle gives {1/2, 3}
    got = sorted(roots(UniPoly([3, -7, 2])).real)
    assert np.allclose(got, [0.5, 3.0], atol=1e-12)


def test_roots_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        roots(UniPoly([0.0]))


def test_roots_vieta_property():
    rng = np.random.default_rng(2)
    for _ in range(10):
        deg = int(rng.integers(1, 11))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[-1] += 3.0  # keep the leading coefficient well away from zero
        u = UniPoly(c)
        rebuilt = c[-1] * np.polynomial.polynomial.polyfromroots(roots(u))
        assert np.max(np.abs(rebuilt - c)) < 1e-8 * np.max(np.abs(c))


def test_split_stable_constant():
    rs = split_stable(UniPoly([2.0]))
    assert rs.beta == 0
    assert np.allclose(rs.stable.coeffs, [2.0])
    assert np.allclose(rs.unstable.coeffs, [1.0])


def test_split_stable_mixed():
    rs = split_stable(UniPoly([3, -7, 2]))
    assert rs.beta == 1
    # unstable part is monic with the single disk root 1/2
    assert np.allclose(rs.unstable.coeffs, [-0.5, 1.0])
    prod = np.convolve(rs.stable.coeffs, rs.unstable.coeffs)
    assert np.allclose(prod, [3, -7, 2])


def test_split_stable_root_on_circle():
    with pytest.raises(RootNearTorus):
        split_stable(UniPoly([1, -1]))


def test_split_stable_product_property():
    rng = np.random.default_rng(3)
    for _ in range(15):
        deg = int(rng.integers(1, 9))
        mods = np.where(rng.uniform(size=deg) < 0.5,
                        rng.uniform(0.2, 0.9, deg), rng.uniform(1.1, 3.0, deg))
        rts = mods * np.exp(2j * np.pi * rng.uniform(size=deg))
        lead = 1.0 + rng.normal() * 0.2
        u = UniPoly(lead * np.polynomial.polynomial.polyfromroots(rts))
        rs = split_stable(u)
        prod = np.convolve(rs.stable.coeffs, rs.unstable.coeffs)
        prod = np.pad(prod, (0, len(u.coeffs) - len(prod)))
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
    (UniPoly(_FROM_ROOTS([2, 2, -1])).to_bipoly() * BiPoly([[3, 0], [1, -1.0]]),
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
    cp = canonical_phase(p)
    # the largest w^0-row coefficient becomes real positive
    assert abs(cp.coeffs[0, 0] - 2.0) < 1e-14
    # |-8| and |8 + 1e-14| tie within PHASE_TIE_REL: the z^0 entry wins
    cp = canonical_phase(BiPoly(np.array([[-8.0], [8.0 + 1e-14], [2.0]])))
    assert cp.coeffs[0, 0] == 8.0


def test_reflect_uni_padding():
    u = UniPoly([1.0, -2.0])
    r = reflect_uni(u, 3)
    assert np.allclose(r.coeffs, [0, 0, -2, 1])


def test_w_roots_match_np_roots():
    rng = np.random.default_rng(17)
    zs = np.exp(2j * np.pi * (np.arange(64) + 0.2) / 64)
    for _ in range(20):
        n, m = rng.integers(0, 9, 2)
        p = BiPoly(rng.normal(size=(n + 1, m + 1))
                   + 1j * rng.normal(size=(n + 1, m + 1)))
        coeffs, rts = w_roots(p, zs)
        assert rts.shape == (64, m)
        for s, z0 in enumerate(zs):
            assert np.array_equal(coeffs[:, s], p.w_poly_at(z0))
            assert np.array_equal(rts[s], np.roots(p.w_poly_at(z0)[::-1]))


def test_w_roots_zero_lead_gives_nan_row():
    p = BiPoly([[2, 1], [0, -1]])              # 2 + (1 - z) w
    _, rts = w_roots(p, np.array([1.0, -1.0]))
    assert np.isnan(rts[0]).all()
    assert np.allclose(rts[1], [-1.0])


def test_w_roots_constant_in_w():
    coeffs, rts = w_roots(BiPoly([[1], [2]]), np.array([1.0, 1j, -1.0]))
    assert coeffs.shape == (1, 3) and rts.shape == (3, 0)
