import re
from dataclasses import replace

import numpy as np
import pytest

from bszego import (BiPoly, CommonFactor, DegenerateForm, InvalidDegree,
                    NoConvergence, certificate_closed_face, certificate_open_face,
                    reflect, verify_certificate)
from bszego import sos
from bszego.sos import SosCertificate, _common_factor_with_reflection

from bszego.jsonio import poly_to_json

from conftest import (assert_stacked_values_match, bench_corpus, brute_inner,
                      cli_document, grid_stack, polys_of, sos_identity_gap,
                      stacked_values, torus_grid)


def test_cert_2zw_matches_analytic(p_2zw):
    # |2-zw|^2 - |2zw-1|^2 = 3(1-|w|^2) + 3|w|^2 (1-|z|^2)
    cert = certificate_closed_face(p_2zw)
    assert (cert.a.shape[2], cert.n1, cert.n2) == (1, 1, 0)
    assert cert.residual < 1e-10
    rng = np.random.default_rng(0)
    for _ in range(200):
        z, w = 1.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        lhs = abs(p_2zw(z, w)) ** 2 - abs(2 * z * w - 1) ** 2
        analytic = 3 * (1 - abs(w) ** 2) + 3 * abs(w) ** 2 * (1 - abs(z) ** 2)
        built = (1 - abs(w) ** 2) * sum(abs(q(z, w)) ** 2 for q in polys_of(cert.a)) \
            + (1 - abs(z) ** 2) * (sum(abs(q(z, w)) ** 2 for q in polys_of(cert.b))
                                   - sum(abs(q(z, w)) ** 2 for q in polys_of(cert.c)))
        assert abs(lhs - analytic) < 1e-10 * max(1, abs(lhs))
        assert abs(built - analytic) < 1e-10 * max(1, abs(lhs))


def test_cert_univariate_unstable():
    # |1-2z|^2 - |z-2|^2 = -3 (1-|z|^2): single C block of magnitude sqrt(3)
    cert = certificate_closed_face(BiPoly([[1.0], [-2.0]]))
    assert (cert.a.shape[2], cert.n1, cert.n2) == (0, 0, 1)
    c1 = polys_of(cert.c)[0]
    assert abs(abs(c1.coeffs[0, 0]) - np.sqrt(3.0)) < 1e-10
    assert cert.residual < 1e-10


def test_cert_degree_zero():
    cert = certificate_closed_face(BiPoly([[1.0]]))
    assert (cert.a.shape, cert.b.shape, cert.c.shape) == ((1, 0, 0), (0, 1, 0), (0, 1, 0))
    assert cert.residual < 1e-14


def test_count_law_and_stable_case():
    rng = np.random.default_rng(21)
    from conftest import random_corpus_poly
    for _ in range(6):
        p = random_corpus_poly(rng, allow_unstable_q=True)
        n, m = p.deg
        cert = certificate_closed_face(p)
        assert cert.a.shape[2] == m
        assert cert.n1 + cert.n2 == n
        from bszego.poly import split_stable
        assert cert.n2 == split_stable(p.z_slice()).beta
        if cert.n2 == 0:
            assert cert.c.shape[2] == 0   # Cole-Wermer two-term form
        assert cert.residual < 1e-8


def test_blocks_orthonormal_in_density(p_2zw):
    cert = certificate_closed_face(p_2zw)
    blocks = [*polys_of(cert.a), *polys_of(cert.b), *polys_of(cert.c)]
    for i, x in enumerate(blocks):
        g = brute_inner(p_2zw, x, x)
        assert abs(g - 1.0) < 1e-8
    # A block orthogonal within itself when longer than 1 entry is
    # covered by the corpus; here cross-check A vs B reflected spaces
    g12 = brute_inner(p_2zw, polys_of(cert.a)[0], polys_of(cert.b)[0])
    assert abs(g12) < 1.0  # distinct blocks need not be orthogonal


def _loop_residual(p, cert):
    """verify_certificate one polynomial and one monomial pair at a time:
    the coefficient of z^j w^k conj(zeta)^j' conj(eta)^k' in
    p pbar - prev prevbar - (1 - w etabar) sum A Abar
    - (1 - z zetabar) (sum B Bbar - sum C Cbar), with the w- and z-shifts
    written out, and its largest modulus over sum |p_jk|^2."""
    n, m = cert.deg

    def coeff(q, j, k):
        c = q.coeffs
        inside = 0 <= j < c.shape[0] and 0 <= k < c.shape[1]
        return complex(c[j, k]) if inside else 0j

    terms = [(p, 1, (0, 0)), (reflect(p, cert.deg), -1, (0, 0))] \
        + [(q, -1, (0, 1)) for q in polys_of(cert.a)] \
        + [(q, -1, (1, 0)) for q in polys_of(cert.b)] \
        + [(q, 1, (1, 0)) for q in polys_of(cert.c)]
    gaps = {}
    for j in range(n + 1):
        for k in range(m + 1):
            for jj in range(n + 1):
                for kk in range(m + 1):
                    total = 0j
                    for q, sign, (dz, dw) in terms:
                        total += sign * coeff(q, j, k) * np.conj(coeff(q, jj, kk))
                        if (dz, dw) != (0, 0):
                            total -= sign * coeff(q, j - dz, k - dw) \
                                * np.conj(coeff(q, jj - dz, kk - dw))
                    gaps[(j, k), (jj, kk)] = abs(total)
    worst = max(gaps, key=gaps.get)
    return gaps[worst] / np.sum(np.abs(p.coeffs) ** 2), worst


def test_verify_matches_a_loop_over_monomial_pairs():
    p = BiPoly([[1.0], [-2.0]]) * BiPoly([[2.0, 0.0], [0.0, -1.0]])  # (1-2z)(2-zw)
    cert = certificate_closed_face(p)
    assert (cert.a.shape[2], cert.n1, cert.n2) == (1, 1, 1)
    assert _loop_residual(p, cert)[0] < 1e-14
    # a wrong C block makes the residual O(1), so the worst pair is sharp
    bad = replace(cert, c=1.1 * cert.c)
    residual, pair = _loop_residual(p, bad)
    report = verify_certificate(p, bad)
    assert residual > 1e-2
    assert report.worst_point == pair
    assert abs(report.residual - residual) < 1e-12 * residual


def test_verify_is_relative_to_p():
    # a wrong certificate of a small p: 1e-6 (2 - zw) with the B block
    # scaled by 1.5 is off by O(1) of |p|^2, however small |p|^2 is
    p = 1e-6 * BiPoly([[2.0, 0.0], [0.0, -1.0]])
    cert = certificate_closed_face(p)
    assert cert.residual < 1e-14
    bad = replace(cert, b=1.5 * cert.b)
    assert verify_certificate(p, bad).residual > 0.1


def test_verify_is_unmoved_by_scale_and_torus_rotation():
    # a seeded (4, 4) certificate, its B block scaled by 1.1 so that the
    # residual is O(1) and not round-off: scaling p and every block by s,
    # or rotating every coefficient grid by e^{i (j phi + k psi)}, leaves
    # the identity's gap the same up to a unimodular factor per entry
    e = np.random.default_rng(44).normal(size=(5, 5, 2)) @ [1, 1j]
    e[0, 0] = 0.0
    a = 0.5 * e / np.sum(np.abs(e))     # 1 + a: zero-free on the closed bidisk
    a[0, 0] = 1.0
    p = BiPoly(a)
    cert = certificate_closed_face(p)
    assert (cert.deg, cert.residual < 1e-12) == ((4, 4), True)
    bad = replace(cert, b=1.1 * cert.b)
    residual = verify_certificate(p, bad).residual
    assert residual > 1e-3

    def moved(x, s, phi, psi):
        """A stack of grids, each times s e^{i (j phi + k psi)}."""
        j, k = np.indices(x.shape[:2])
        return (s * np.exp(1j * (j * phi + k * psi)))[..., None] * x

    for s, phi, psi in [(1e-6, 0, 0), (1e6, 0, 0), (1, 0.3, 1.1), (1, 2.5, -0.7)]:
        q = BiPoly(moved(p.coeffs[..., None], s, phi, psi)[..., 0])
        blocks = {name: moved(getattr(bad, name), s, phi, psi) for name in "abc"}
        assert abs(verify_certificate(q, replace(bad, **blocks)).residual
                   - residual) < 1e-13 * residual


def test_verify_detects_corruption(p_2zw):
    cert = certificate_closed_face(p_2zw)
    bad = SosCertificate(a=cert.a,
                         b=grid_stack((BiPoly([[0.0, 2.0]]),), (1, 2)),  # 2w, not sqrt(3) w
                         c=cert.c,
                         residual=cert.residual, deg=cert.deg)
    report = verify_certificate(p_2zw, bad)
    assert report.residual > 1e-3


def test_verify_refuses_a_block_off_its_support(p_2zw):
    # at degree (1, 1) the A block is a stack of 2 x 1 grids (z^0..z^1 times
    # w^0) and the B block of 1 x 2 grids: a stack of any other grid shape,
    # zero-padded or cut, or not a stack at all, is not of the certificate's
    # form, while the certificate's own stacks verify exactly
    cert = certificate_closed_face(p_2zw)
    assert (cert.a.shape, cert.b.shape, cert.c.shape) == ((2, 1, 1), (1, 2, 1), (1, 2, 0))
    assert not any(x.flags.writeable for x in (cert.a, cert.b, cert.c))
    assert verify_certificate(p_2zw, cert).residual == cert.residual < 1e-14
    w, z2 = np.array([[0.0, 1.0]]), np.array([[0.0], [0.0], [1.0]])
    for name, block in [("a", w[..., None]), ("a", z2[..., None]),
                        ("a", np.zeros((1, 1, 1))), ("a", np.zeros((2, 1))),
                        ("b", np.pad(cert.b, ((0, 1), (0, 1), (0, 0)))),
                        ("c", np.zeros((2, 2, 0)))]:
        support = (2, 1) if name == "a" else (1, 2)
        with pytest.raises(InvalidDegree, match=re.escape(f"off its support {support}")):
            verify_certificate(p_2zw, replace(cert, **{name: block}))


def test_verify_empty_cert_of_one():
    cert = SosCertificate(a=np.zeros((1, 0, 0)), b=np.zeros((0, 1, 0)),
                          c=np.zeros((0, 1, 0)), residual=0.0, deg=(0, 0))
    report = verify_certificate(BiPoly([[1.0]]), cert)
    assert report.residual < 1e-14


def _g_blocks(p, deg):
    """The blocks A, B and C of the G identity at ``deg`` as polynomials,
    built as build_detrep builds them: the closed-face blocks with the
    reflection of p appended to A."""
    cert = sos._certificate(*sos._blocks_closed_face(p, deg), deg)
    return (*polys_of(cert.a), reflect(p, deg)), polys_of(cert.b), polys_of(cert.c)


def _g_residual(p, deg, blocks, z, w):
    """Largest gap of |p|^2 - |w|^2 |prev|^2 = (1 - |w|^2) sum |A|^2
    + (1 - |z|^2) (sum |B|^2 - sum |C|^2) at the points, relative to the
    largest |p|^2 there (at least 1)."""
    sq = [np.abs(stacked_values(block, z, w)) ** 2
          for block in ((p, reflect(p, deg)), *blocks)]
    lhs = sq[0][:, 0] - np.abs(w) ** 2 * sq[0][:, 1]
    rhs = (1 - np.abs(w) ** 2) * sq[1].sum(axis=1) \
        + (1 - np.abs(z) ** 2) * (sq[2].sum(axis=1) - sq[3].sum(axis=1))
    return float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(sq[0][:, 0])))


@pytest.mark.parametrize("poly, form, blocks", [
    ([[2.0, 0.0], [-4.0, -1.0], [0.0, 2.0]], "L", (1, 1, 1)),
    ([[2.0, 0.0], [-4.0, -1.0], [0.0, 2.0]], "G", (2, 1, 1)),
    ([[2.0, 0.0], [0.0, -1.0]], "L", (1, 1, 0)),
    ([[1.0]], "L", (0, 0, 0))])
def test_stacked_values_match_each_polynomial(poly, form, blocks):
    # (1-2z)(2-zw) with C block, its G blocks whose extra A polynomial
    # has another grid shape, 2-zw without C block, and the empty
    # certificate of 1
    p = BiPoly(poly)
    if form == "G":
        abc = _g_blocks(p, p.deg)
    else:
        cert = certificate_closed_face(p)
        assert cert.deg == p.deg
        abc = tuple(map(polys_of, (cert.a, cert.b, cert.c)))
    assert tuple(map(len, abc)) == blocks
    polys = (p, reflect(p, p.deg), *abc[0], *abc[1], *abc[2])
    rng = np.random.default_rng(5)
    z, w = 1.5 * (rng.uniform(-1, 1, (2, 50, 2)) @ [1, 1j])
    if form == "G":
        assert len({q.coeffs.shape for q in polys[2:]}) > 1
        assert _g_residual(p, p.deg, abc, z, w) < 1e-12
    assert_stacked_values_match(polys, z, w)


def test_torus_modulus_equality(p_2zw):
    # on the torus |p| = |reflection| always
    zz, ww = torus_grid(32)
    r = reflect(p_2zw, (1, 1))
    assert np.max(np.abs(np.abs(p_2zw(zz, ww)) - np.abs(r(zz, ww)))) < 1e-12


def test_open_face_on_closed_face_poly(p_2zw):
    c1 = certificate_closed_face(p_2zw)
    c2 = certificate_open_face(p_2zw)
    assert abs(c1.residual - c2.residual) < 1e-8
    for a, b in zip(polys_of(c1.a), polys_of(c2.a)):
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-8)


def test_open_face_z_only_reflected_derivative():
    # the reflected w-derivative of z^2 - w is -z^2: pure z polynomial,
    # blocks (0, 0, 2) and the C block sums to 1 + |z|^2
    P = reflect(BiPoly([[0, -1], [0, 0], [1, 0]]).w_derivative(), (2, 0))
    assert np.allclose(P.coeffs.ravel(), [0, 0, -1])
    cert = certificate_open_face(P)
    assert (cert.a.shape[2], cert.n1, cert.n2) == (0, 0, 2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = 1.3 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        total = sum(abs(q(z, 0.3)) ** 2 for q in polys_of(cert.c))
        assert abs(total - (1 + abs(z) ** 2)) < 1e-8


def test_open_face_self_reflective_rejected():
    with pytest.raises(CommonFactor):
        certificate_open_face(BiPoly([[0, -1], [1, 0]]))   # z - w


@pytest.mark.parametrize("factors, shared", [
    (([[2], [-1]], [[1], [-2]]), True),
    (([[2], [-1]],), False),
    (([[2], [-1]], [[1], [-2]], [[2, -1]]), True),
    (([[2], [-1]], [[2, 0], [0, -1]]), False),
], ids=["(2-z)(1-2z)", "2-z", "(2-z)(1-2z)(2-w)", "(2-z)(2-zw)"])
def test_common_z_only_factor(factors, shared):
    # the reflection of 2 - z is 2z - 1: a shared z-content root 1/2; the
    # first two have m = 0, where the z-contents are the whole polynomials
    p = BiPoly([[1.0]])
    for f in factors:
        p = p * BiPoly(f)
    assert _common_factor_with_reflection(p) == shared


def test_open_face_boundary_zero_refined():
    # 2 - z - w vanishes at (1, 1) on the torus; the blocks of
    # 2 - z - 0.9 w certify it only to 4e-2, and refined at t = 1 they
    # certify it to round-off, within the default tolerance; a tolerance
    # below round-off is still refused with the residual reached
    p = BiPoly([[2, -1], [-1, 0]])
    assert not _common_factor_with_reflection(p)
    shrunk = BiPoly(p.coeffs * sos.T0 ** np.arange(2))        # p(z, T0 w)
    _, _, start = sos._blocks_closed_face(shrunk, p.deg)
    assert sos._certificate(*sos._kernel(p, p.deg), start, p.deg).residual > 1e-2
    cert = certificate_open_face(p)
    assert (cert.a.shape[2], cert.n1, cert.n2) == (1, 1, 0)
    assert cert.residual < 1e-12
    assert cert.residual == verify_certificate(p, cert).residual
    with pytest.raises(NoConvergence, match="best residual"):
        certificate_open_face(p, tol=1e-18)


def test_open_face_refines_a_closed_face_certificate_above_tol(p_2zw, monkeypatch):
    # 2 - zw has a closed-face certificate at round-off; below that
    # tolerance it goes to the refinement, which cannot reach it either
    refine, refined = sos._refine, []
    monkeypatch.setattr(sos, "_refine",
                        lambda p, mats, deg: refined.append(p) or refine(p, mats, deg))
    with pytest.raises(NoConvergence, match="above tolerance 1e-20"):
        certificate_open_face(p_2zw, tol=1e-20)
    assert len(refined) == 1


@pytest.mark.parametrize("p", [
    BiPoly([[2, -1], [-1, 0]]) * BiPoly([[3, 0], [0, -1]]),
    BiPoly([[2, -np.exp(2j)], [-np.exp(1j), 0]]),
], ids=["(2-z-w)(3-zw)", "2-e^i z-e^2i w"])
def test_open_face_refinement_ends_when_it_stalls(p, monkeypatch):
    # with no residual floor the refinement ends only after REFINE_STALL
    # steps without a new best: short of REFINE_STEPS Jacobians, and with
    # the best iterate within the default tolerance
    monkeypatch.setattr(sos, "REFINE_FLOOR", 0.0)
    jacobian, built = sos._identity_jacobian, []
    monkeypatch.setattr(sos, "_identity_jacobian",
                        lambda mats, deg: built.append(deg) or jacobian(mats, deg))
    cert = certificate_open_face(p)
    assert cert.residual <= 1e-8
    assert 0 < len(built) < sos.REFINE_STEPS


def test_identity_jacobian_is_the_derivative_of_the_gap():
    # the gap is quadratic in the blocks, so its central difference along
    # any direction v is exactly the Jacobian times v; at degree (2, 1),
    # where A lives on 3 monomials and B, C on 4, with 1, 2 and 1 columns
    rng = np.random.default_rng(11)
    deg, size = (2, 1), 6
    mats = [rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for shape in ((3, 1), (4, 2), (4, 1))]
    target = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    target = target + target.conj().T
    v = rng.normal(size=30)
    dirs = np.split(v[:15] + 1j * v[15:], [3, 11])
    plus, minus = (sos._hermitian_half(sos._identity_gap(
        [x + s * d.reshape(x.shape) for x, d in zip(mats, dirs)], target, deg))
        for s in (1, -1))
    jac = sos._identity_jacobian(mats, deg)
    assert jac.shape == (size * size, 30)
    assert np.max(np.abs(jac @ v - (plus - minus) / 2)) < 1e-12 * np.max(np.abs(plus))


@pytest.mark.parametrize("phi, psi", [(0, 0), (0.3, 0), (0, 0.3), (0.5, 0.5),
                                      (np.pi, 0), (1, 2)])
def test_open_face_under_torus_rotation(tmp_path, phi, psi):
    # 2 - e^{i phi} z - e^{i psi} w: the near_torus corpus call rotated on
    # the torus, which moves its zero off the quadrature grid at some
    # rotations; every rotation is certified to round-off
    a = np.array([[2, -np.exp(1j * psi)], [-np.exp(1j * phi), 0]])
    code, doc = cli_document(tmp_path, "sos", "--poly", poly_to_json(BiPoly(a)),
                             "--open-face", "--tol", "5e-2")
    assert code == 0 and (len(doc["A"]), doc["n1"], doc["n2"]) == (1, 1, 0)
    assert doc["residual"] < 1e-12
    assert sos_identity_gap(doc, a, np.random.default_rng(9)) < 1e-12


def test_schur_cohn_counts():
    rng = np.random.default_rng(4)
    for _ in range(10):
        deg = int(rng.integers(1, 7))
        mods = np.where(rng.uniform(size=deg) < 0.5,
                        rng.uniform(0.2, 0.85, deg),
                        rng.uniform(1.15, 3.0, deg))
        rts = mods * np.exp(2j * np.pi * rng.uniform(size=deg))
        coeffs = np.polynomial.polynomial.polyfromroots(rts)
        p = BiPoly(coeffs[:, None])
        cert = certificate_closed_face(p)
        inside = int(np.sum(mods < 1.0))
        assert cert.n2 == inside
        assert cert.n1 == deg - inside


def test_g_variant_identity(p_2zw):
    a, b, c = _g_blocks(p_2zw, p_2zw.deg)
    assert len(a) == 2     # L blocks plus the reflection of p
    rng = np.random.default_rng(5)
    for _ in range(50):
        z, w = 1.4 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        lhs = abs(p_2zw(z, w)) ** 2 - abs(w) ** 2 * abs(2 * z * w - 1) ** 2
        rhs = (1 - abs(w) ** 2) * sum(abs(q(z, w)) ** 2 for q in a) \
            + (1 - abs(z) ** 2) * (sum(abs(q(z, w)) ** 2 for q in b)
                                   - sum(abs(q(z, w)) ** 2 for q in c))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_cert_declared_degree():
    # the constant 1 treated at formal degree (1, 0): reflection is z and
    # |1|^2 - |z|^2 = (1 - |z|^2) * |B_1|^2 with a single unimodular B
    p = BiPoly([[1.0]])
    cert = sos._certificate(*sos._blocks_closed_face(p, (1, 0)), (1, 0))
    assert (cert.a.shape[2], cert.n1, cert.n2) == (0, 1, 0)
    assert abs(abs(cert.b[0, 0, 0]) - 1.0) < 1e-10
    assert cert.deg == (1, 0)
    assert verify_certificate(p, cert).residual < 1e-12


def test_cert_json(p_2zw, tmp_path):
    cert = certificate_closed_face(p_2zw)
    code, doc = cli_document(tmp_path, "sos", "--poly", poly_to_json(p_2zw))
    assert code == 0
    assert doc["variant"] == "L"
    assert doc["n1"] == 1 and doc["n2"] == 0
    assert len(doc["A"]) == cert.a.shape[2] == 1


@pytest.mark.parametrize("count, low", [(4, 1.3), (6, 1.2)], ids=["(4,4)", "(6,6)"])
def test_ill_conditioned_closed_face_at_round_off(count, low):
    # prod (alpha - zw) over alpha = linspace(low, 2, count) has an
    # ill-conditioned Schur-Cohn matrix: the outer factor from the moments
    # of S^-1 alone misses G G^H = S by 2e-13 at (4,4) and 2e-10 at (6,6),
    # and its Newton step takes the certificate to round-off
    p = BiPoly([[1.0]])
    for alpha in np.linspace(low, 2.0, count):
        p = p * BiPoly([[alpha, 0.0], [0.0, -1.0]])
    cert = certificate_closed_face(p)
    assert (cert.a.shape[2], cert.n1, cert.n2) == (count, count, 0)
    assert cert.residual < 1e-14


def test_blocks_refuse_an_h_away_from_its_counts(monkeypatch, p_2zw):
    # with no room for round-off, H of (2 - zw)(3 + w + 0.5z) is refused
    # for its distance from the counts its w^0 slice gives
    monkeypatch.setattr(sos, "RANK_TOL", 0.0)
    p = p_2zw * BiPoly([[3.0, 1.0], [0.5, 0.0]])
    with pytest.raises(DegenerateForm, match=r"H is .* \|P\|\^2 away from the counts "
                                             r"\(n1, n2\) = \(2, 0\)"):
        certificate_closed_face(p)


def _residual_cases():
    """(id, p, certificate function): the certify kinds at CERTIFY_DEGREES,
    (1 + d) - zw and its square at the BANDS edges, and two open-face
    torus zeros."""
    corpus = bench_corpus()
    rng = np.random.default_rng(corpus.DEFAULT_SEED)
    for n, m in corpus.CERTIFY_DEGREES:
        for kind, a in (("zw", corpus.stable_kind(rng, n, m, 2.0, 3.0)),
                        ("unstable", corpus.unstable_kind(rng, n, m))):
            yield f"{kind}-{n}-{m}", BiPoly(a), certificate_closed_face
    for d in sorted(d for band in corpus.BANDS.values() for d in band):
        one = BiPoly([[1.0 + d, 0.0], [0.0, -1.0]])
        yield f"(1+{d})-zw", one, certificate_closed_face
        yield f"((1+{d})-zw)^2", one * one, certificate_closed_face
    yield "2-z-w", BiPoly([[2.0, -1.0], [-1.0, 0.0]]), certificate_open_face
    yield ("2-e^i z-e^2i w", BiPoly([[2.0, -np.exp(2j)], [-np.exp(1j), 0.0]]),
           certificate_open_face)


@pytest.mark.parametrize("p, certify", [case[1:] for case in _residual_cases()],
                         ids=[case[0] for case in _residual_cases()])
def test_residual_from_the_built_blocks_is_the_verified_one(p, certify):
    # the residual taken from the block matrices as they were built (or
    # refined) is, to the last bit, the one verify_certificate recomputes
    # from the certificate's polynomials
    cert = certify(p)
    assert cert.residual == verify_certificate(p, cert).residual


def test_closed_face_sos_builds_its_kernel_once(tmp_path, monkeypatch):
    # one closed-face `bszego sos` call builds T once and reshapes no block
    # back from the certificate's stacks
    calls = {"_kernel": 0, "verify_certificate": 0}
    for name in calls:
        def counted(*args, _real=getattr(sos, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(sos, name, counted)
    p = BiPoly([[2.0, 0.0], [0.0, -1.0]]) * BiPoly([[2.5, 0.3], [0.2, -1.0]])
    code, doc = cli_document(tmp_path, "sos", "--poly", poly_to_json(p))
    assert code == 0 and doc["residual"] < 1e-14
    assert calls == {"_kernel": 1, "verify_certificate": 0}
