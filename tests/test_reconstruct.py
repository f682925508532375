import re

import numpy as np
import pytest

from bszego import (BiPoly, DegenerateForm, MatrixConditionFails, MomentSpace,
                    MomentTable, NonPositiveDensity, NotFactorable, NotPositive,
                    TrigPoly, factor_trig, moments_from_density,
                    moments_from_grid_function, reconstruct_p)
from bszego import splitshift
from bszego.poly import TRIM_REL, content_roots, reflect
from bszego.reconstruct import kernel_poly

from conftest import max_modulus_gap, random_corpus_poly, trig_abs_squared


def test_round_trip_2zw(p_2zw, table_2zw):
    phat = reconstruct_p(table_2zw.window(1, 1), 1, 1)
    # unit norm in its own measure makes the representative exactly 2 - zw
    assert np.allclose(phat.coeffs, p_2zw.coeffs, atol=1e-9)


def test_round_trip_degree_8_8(p_perturb_8_8, table_perturb_8_8):
    phat = reconstruct_p(table_perturb_8_8.window(8, 8), 8, 8)
    p = p_perturb_8_8.coeffs
    unit = phat.coeffs[0, 0] / p[0, 0]
    assert abs(abs(unit) - 1.0) < 1e-10
    assert np.max(np.abs(phat.coeffs - unit * p)) < 1e-10


def test_lebesgue_degree_zero(lebesgue_table):
    phat = reconstruct_p(lebesgue_table.window(0, 0), 0, 0)
    assert np.allclose(phat.coeffs, [[1.0]], atol=1e-12)


# 3 + z + iw - zw/2: no zeros on the closed bidisk, not a product in z and w
G_MIXED = BiPoly([[3, 1j], [1, -0.5]])


def test_unstable_content_maps_to_stable_rep():
    two_zw = BiPoly([[2, 0], [0, -1.0]])
    three_z = BiPoly([[3], [-1.0]])
    cases = [  # (p, its stable-content representative)
        (BiPoly([[1], [-2.0]]) * two_zw, BiPoly([[2], [-1.0]]) * two_zw),
        (BiPoly([[1], [-2.0]]) * three_z * G_MIXED,
         BiPoly([[2], [-1.0]]) * three_z * G_MIXED),
        (BiPoly([[1], [-2j]]) * three_z * G_MIXED,
         BiPoly([[2], [-1j]]) * three_z * G_MIXED),
    ]
    for p, stable in cases:
        n, m = p.deg
        table = moments_from_density(p, n, m)
        phat = reconstruct_p(table, n, m)
        assert np.allclose(phat.coeffs, stable.coeffs, atol=1e-8)
        scale = max_modulus_gap(p, BiPoly([[0.0]]))   # max |p|^2 on the grid
        assert max_modulus_gap(phat, p) < 1e-7 * scale


@pytest.mark.parametrize("n, m", [(8, 6), (12, 10), (16, 16)])
def test_round_trip_high_multiplicity_content(n, m):
    # the kernel's z-content holds z^n: a root-clustering gcd of it
    # finds too low a degree, the split route does not need one
    p = BiPoly([[1.0]])
    for alpha in np.linspace(3, 6, m):
        p = p * BiPoly([[alpha, 0], [0, -1.0]])
    for root in np.linspace(1.4, 2.6, n - m):
        p = p * BiPoly([[-root], [1.0]])
    table = moments_from_density(p, n, m)
    phat = reconstruct_p(table, n, m)
    unit = p * (1.0 / _norm(table, n, m, p))
    scale = max_modulus_gap(unit, BiPoly([[0.0]]))
    assert max_modulus_gap(phat, unit) < 1e-9 * scale


def test_kernel_identity_rejects_a_wrong_split_poly(monkeypatch,
                                                    table_perturb_8_8):
    table = table_perturb_8_8.window(8, 8)
    right = reconstruct_p(table, 8, 8)
    bump = np.zeros(right.coeffs.shape)
    bump[3, 5] = 1e-6 * np.max(np.abs(right.coeffs))
    monkeypatch.setattr(splitshift.ShiftSplit, "split_poly",
                        property(lambda split: BiPoly(right.coeffs + bump)))
    with pytest.raises(DegenerateForm, match="kernel identity"):
        reconstruct_p(table, 8, 8)


def test_kernel_poly_identity(p_2zw):
    # the reconstruction intermediate equals p(z1,z2) * refl_n(p(., 0))
    table = moments_from_density(p_2zw, 1, 1)
    sp = MomentSpace(table, 1, 1)
    R = kernel_poly(sp).trimmed()
    expect = (p_2zw * reflect(p_2zw.z_slice(), (1, 0))).trimmed()
    assert R.coeffs.shape == expect.coeffs.shape
    assert np.max(np.abs(R.coeffs - expect.coeffs)) < 1e-7


def _kernel_by_products(space):
    """kernel_poly as a sum of BiPoly products, one per phi."""
    n, m = space.nmax, space.mmax
    out = BiPoly(np.zeros((2 * n + 1, m + 1)))
    for phi in space.phi_sequence(n, m):
        out = out + phi * reflect(phi.z_slice(), (n, 0))
    return out


class _PhiSpace:
    """Stand-in for a MomentSpace that hands out fixed phis."""

    def __init__(self, phis):
        self.phis = phis
        self.nmax, self.mmax = phis[0].deg

    def phi_sequence(self, n, m):
        return self.phis


def test_kernel_poly_matches_products(table_perturb_8_8):
    space = MomentSpace(table_perturb_8_8.window(8, 8), 8, 8)
    ref = _kernel_by_products(space).coeffs
    got = kernel_poly(space).coeffs
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))
    # a stage whose z-slice is 1e-14 of its other coefficients counts at
    # its own scale: reflect has no absolute floor
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(3, 4, 3)) + 1j * rng.normal(size=(3, 4, 3))
    coeffs[1, :, 0] *= 1e-14
    phis = [BiPoly(c) for c in coeffs]
    ref = _kernel_by_products(_PhiSpace(phis)).coeffs
    got = kernel_poly(_PhiSpace(phis)).coeffs
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))
    ref = _kernel_by_products(_PhiSpace(phis[1:2])).coeffs
    got = kernel_poly(_PhiSpace(phis[1:2])).coeffs
    assert np.max(np.abs(ref)) > 0.0
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


def test_reconstructed_content_is_stable():
    rng = np.random.default_rng(12)
    for _ in range(5):
        p = random_corpus_poly(rng, allow_unstable_q=True)
        n, m = p.deg
        table = moments_from_density(p, n, m)
        phat = reconstruct_p(table, n, m)
        assert np.all(np.abs(content_roots(phat)) > 1)


def test_round_trip_random_corpus():
    rng = np.random.default_rng(13)
    for _ in range(6):
        p = random_corpus_poly(rng, allow_unstable_q=True)
        n, m = p.deg
        table = moments_from_density(p, n, m)
        phat = reconstruct_p(table, n, m)
        scale = float(np.max(np.abs(p.coeffs))) ** 2
        assert max_modulus_gap(phat, p * (1.0 / _norm(table, n, m, p))) \
            < 1e-6 * scale


def _norm(table, n, m, p):
    return MomentSpace(table, n, m).norm(p)


def test_matrix_condition_failure_raises():
    def dens(zz, ww):
        return 0.5 / np.abs(2.0 - zz * ww) ** 2 + 0.5 / np.abs(2.0 - zz) ** 2

    table = moments_from_grid_function(dens, 2, 1)
    with pytest.raises(MatrixConditionFails):
        reconstruct_p(table, 2, 1)


def test_not_positive():
    c = np.zeros((3, 3), dtype=complex)
    with pytest.raises(NotPositive):
        reconstruct_p(MomentTable(1, 1, c), 1, 1)


def test_factor_trig_square_modulus(p_2zw):
    t = trig_abs_squared(p_2zw)
    p = factor_trig(t, 1, 1)
    assert np.allclose(p.coeffs, p_2zw.coeffs, atol=1e-8)


def test_factor_trig_constant():
    t = TrigPoly(0, 0, np.array([[1.0 + 0j]]))
    p = factor_trig(t, 0, 0)
    assert np.allclose(p.coeffs, [[1.0]], atol=1e-10)


def test_factor_trig_forced_acausal_factor():
    # t = 4 - z conj(w) - conj(z) w factors with |alpha|^2 = 2 + sqrt(3),
    # |beta|^2 = 2 - sqrt(3); the zero set lives over the exterior disk
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = 4.0
    c[2, 0] = -1.0
    c[0, 2] = -1.0
    p = factor_trig(TrigPoly(1, 1, c), 1, 1)
    assert abs(abs(p.coeffs[1, 0]) ** 2 - (2 + np.sqrt(3))) < 1e-8
    assert abs(abs(p.coeffs[0, 1]) ** 2 - (2 - np.sqrt(3))) < 1e-8
    # w-roots over the unit z-circle stay outside the closed disk
    for z0 in np.exp(1j * np.linspace(0.1, 6.2, 17)):
        w0 = -p.coeffs[1, 0] * z0 / p.coeffs[0, 1]
        assert abs(w0) > 1.5


def test_factor_trig_idempotent(p_2zw):
    t = trig_abs_squared(p_2zw)
    p1 = factor_trig(t, 1, 1)
    p2 = factor_trig(trig_abs_squared(p1), 1, 1)
    assert np.allclose(p1.coeffs, p2.coeffs, atol=1e-8)


def test_factor_trig_not_factorable():
    # sum of two incompatible squared moduli is generically not |p|^2
    a = trig_abs_squared(BiPoly([[2, 0], [0, -1.0]]))
    b = trig_abs_squared(BiPoly([[2, -1.0], [-0.5, 0]]))
    c = np.zeros((5, 5), dtype=complex)
    c[1:4, 1:4] += a.c
    c[1:4, 1:4] += b.c
    t = TrigPoly(2, 2, c)
    with pytest.raises(NotFactorable):
        factor_trig(t, 2, 2)


@pytest.mark.parametrize("n, m", [(1, 0), (0, 1)])
def test_factor_trig_refuses_a_degree_above_the_caps(n, m):
    # |p|^2 has degree at most p's, so |2 + 0.5w - zw|^2, of degree (1, 1),
    # has no factor of degree (1, 0) or (0, 1); there the A or the T
    # operator is empty and the matrix condition holds trivially
    t = trig_abs_squared(BiPoly([[2, 0.5], [0, -1]]))
    with pytest.raises(NotFactorable, match=re.escape(
            f"t has degree (1, 1), above ({n}, {m})")):
        factor_trig(t, n, m)
    # a t that is not strictly positive is refused first, whatever its degree
    c = np.zeros((3, 3))
    c[0, 0] = c[1, 1] = c[2, 2] = 1.0
    with pytest.raises(NonPositiveDensity):
        factor_trig(TrigPoly(1, 1, c), n, m)


def test_factor_trig_degree_reads_coefficients_from_trim_rel():
    # |2 - zw|^2 in a (2, 2) window, with corners (2, 2) and (-2, -2) at
    # just below and at TRIM_REL of its largest coefficient, 5
    for rel, refused in ((0.99 * TRIM_REL, False), (TRIM_REL, True)):
        c = np.zeros((5, 5))
        c[1:4, 1:4] = trig_abs_squared(BiPoly([[2, 0], [0, -1]])).c.real
        c[0, 0] = c[4, 4] = rel * 5.0
        t = TrigPoly(2, 2, c)
        if refused:
            with pytest.raises(NotFactorable, match=re.escape("degree (2, 2)")):
                factor_trig(t, 1, 1)
        else:
            assert np.allclose(factor_trig(t, 1, 1).coeffs, [[2, 0], [0, -1]])
