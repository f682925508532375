import re

import numpy as np
import pytest

from bszego import (BiPoly, DegenerateForm, MatrixConditionFails, MomentSpace,
                    MomentTable, NoConvergence, NonPositiveDensity, NotFactorable,
                    NotPositive, RootNearTorus, SubspaceBasis, TrigPoly,
                    factor_trig, moments_from_density,
                    moments_from_grid_function, moments_from_trig, reconstruct_p)
from bszego import reconstruct, splitshift
from bszego.poly import TRIM_REL, content_roots, reflect
from bszego.reconstruct import kernel_poly

from conftest import (bench_corpus, max_modulus_gap, random_corpus_poly,
                      trig_abs_squared)


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
    for phi in space.phi_sequence(n, m).polys():
        out = out + phi * reflect(phi.z_slice(), (n, 0))
    return out


class _PhiSpace:
    """Stand-in for a MomentSpace that hands out fixed phis, as a stack."""

    def __init__(self, phis):
        self.phis = SubspaceBasis(np.stack([phi.coeffs for phi in phis], axis=-1))
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


def test_factor_trig_checks_its_factor_on_coefficients(monkeypatch, p_2zw):
    # a factor 1e-5 off 2 - zw in its constant: |q|^2 misses t by 6e-5 in l1;
    # the split route answers it, once the stable factor is refused
    q = p_2zw + BiPoly([[1e-5]])
    monkeypatch.setattr(reconstruct, "_stable_factor", lambda *args: None)
    monkeypatch.setattr(reconstruct, "reconstruct_p", lambda *args: q)
    with pytest.raises(NoConvergence, match=r"\|p\|\^2 mismatches t by 6.000e-05 "
                                           "despite the matrix condition"):
        factor_trig(trig_abs_squared(p_2zw), 1, 1)


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


# -- factor_trig's first route: the stable factor off the inverse Gram -------

def _stable_cases():
    """(id, p) of the benchmark's seeded stable_kind (moduli 2 to 3) and
    perturb_kind (sum |e| = 0.4) polynomials from (1, 1) to (16, 16)."""
    corpus = bench_corpus()
    rng = np.random.default_rng(corpus.DEFAULT_SEED)
    for n, m in ((1, 1), (2, 2), (4, 2), (4, 4), (6, 4), (8, 8), (12, 12), (16, 16)):
        yield f"zw-{n}-{m}", BiPoly(corpus.stable_kind(rng, n, m, 2.0, 3.0))
        yield f"perturb-{n}-{m}", BiPoly(corpus.perturb_kind(rng, n, m, 0.4))


STABLE_CASES = list(_stable_cases())


def _inverse_column(p):
    """The column of conj(G)^-1 at the constant monomial, G the Gram of
    1/|p|^2 on p's degree rectangle, as a grid."""
    n, m = p.deg
    space = MomentSpace(moments_from_trig(trig_abs_squared(p), n, m), n, m)
    return space._inverse_columns(0).reshape(n + 1, m + 1)


@pytest.mark.parametrize("p", [c[1] for c in STABLE_CASES],
                         ids=[c[0] for c in STABLE_CASES])
def test_inverse_gram_column_is_the_stable_factor(p):
    # conj(G)^-1 e_0 = conj(p_00) p for p without zeros on the closed
    # bidisk (2-D Yule-Walker), to round-off of its largest coefficient
    want = np.conj(p.coeffs[0, 0]) * p.coeffs
    gap = np.max(np.abs(_inverse_column(p) - want)) / np.max(np.abs(want))
    assert gap <= 100 * np.finfo(float).eps


def test_inverse_gram_column_is_not_an_unstable_factor():
    # an unstable_kind (4, 4) p has z-roots in the disk: the column is the
    # stable representative's, off p itself by order one
    corpus = bench_corpus()
    p = BiPoly(corpus.unstable_kind(np.random.default_rng(corpus.DEFAULT_SEED), 4, 4))
    assert corpus.disk_roots(p.coeffs) > 0
    want = np.conj(p.coeffs[0, 0]) * p.coeffs
    assert np.max(np.abs(_inverse_column(p) - want)) > 0.1 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [c[1] for c in STABLE_CASES],
                         ids=[c[0] for c in STABLE_CASES])
def test_factor_trig_equals_the_minimal_split(p):
    # the first route's answer is the one reconstruct_p gives on the same
    # moments, phase and norm included, up to round-off
    t = trig_abs_squared(p)
    n, m = p.deg
    want = reconstruct_p(moments_from_trig(t, n, m), n, m).coeffs
    got = factor_trig(t, n, m).coeffs
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture
def operator_calls(monkeypatch):
    """The build_operators and phi_sequence calls made while a test runs."""
    calls = []
    build, phi = reconstruct.build_operators, MomentSpace.phi_sequence

    def counted_build(space):
        calls.append("build_operators")
        return build(space)

    def counted_phi(space, n, m):
        calls.append("phi_sequence")
        return phi(space, n, m)

    monkeypatch.setattr(reconstruct, "build_operators", counted_build)
    monkeypatch.setattr(MomentSpace, "phi_sequence", counted_phi)
    return calls


def test_a_stable_factor_needs_no_operators(operator_calls, p_2zw):
    assert np.allclose(factor_trig(trig_abs_squared(p_2zw), 1, 1).coeffs,
                       p_2zw.coeffs, atol=1e-12)
    assert operator_calls == []


def test_without_a_stable_factor_the_split_route_decides(operator_calls):
    # 4 - z conj(w) - conj(z) w has only its forced-acausal factor, whose
    # square modulus misses t on coefficients; the split route builds it,
    # checked by the kernel identity
    acausal = TrigPoly(1, 1, [[0, 0, -1.0], [0, 4.0, 0], [-1.0, 0, 0]])
    space = MomentSpace(moments_from_trig(acausal, 1, 1), 1, 1)
    col = space._inverse_columns(0)
    candidate = BiPoly(col.reshape(2, 2) / np.sqrt(col[0].real))
    with pytest.raises(NoConvergence):
        reconstruct._check_factor(acausal, candidate)
    assert reconstruct._stable_factor(space, acausal) is None
    p = factor_trig(acausal, 1, 1)
    assert abs(abs(p.coeffs[1, 0]) ** 2 - (2 + np.sqrt(3))) < 1e-8
    assert abs(abs(p.coeffs[0, 1]) ** 2 - (2 - np.sqrt(3))) < 1e-8
    assert operator_calls == ["build_operators", "phi_sequence"]
    # |2 - zw|^2 + |2 - z - w/2|^2 is no |p|^2: the matrix condition fails
    # before any kernel is built
    operator_calls.clear()
    corpus = bench_corpus()
    with pytest.raises(NotFactorable, match="no closed-face Bernstein-Szego"):
        factor_trig(TrigPoly(2, 2, corpus.non_factorable_trig()), 2, 2)
    assert operator_calls == ["build_operators"]


# (2 - z)(2 + w), with two polynomials of the same modulus on the torus:
# (2 - z)(1 + 2w) vanishes on the face at w = -1/2, (1 - 2z)(2 + w) at
# z = 1/2, w = 0
STABLE_2Z_2W = BiPoly([[4.0, 2.0], [-2.0, -1.0]])


@pytest.mark.parametrize("q, reason", [
    (BiPoly([[2.0, 4.0], [-1.0, -2.0]]), "face"),
    (BiPoly([[2.0, 1.0], [-4.0, -2.0]]), "disk"),
])
def test_a_candidate_with_a_zero_in_the_bidisk_is_refused(monkeypatch, operator_calls,
                                                          q, reason):
    # no t is known whose inverse-Gram column has |p|^2 = t and a zero in
    # the closed bidisk, so the candidate is patched; it passes the
    # coefficient check, and only its zero refuses it
    t = trig_abs_squared(STABLE_2Z_2W)
    if reason == "face":
        with pytest.raises(RootNearTorus, match="w-root of modulus 0.500000"):
            reconstruct._check_factor(t, q)
    else:
        assert reconstruct._check_factor(t, q) is q
    monkeypatch.setattr(reconstruct, "_canonical_phase", lambda p: q)
    p = factor_trig(t, 1, 1)
    assert np.allclose(p.coeffs, STABLE_2Z_2W.coeffs, atol=1e-12)
    assert operator_calls == ["build_operators", "phi_sequence"]
