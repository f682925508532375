import sys

import numpy as np
import pytest

from bszego import (BiPoly, DegenerateForm, InsufficientMoments, MomentSpace,
                    MomentTable, NotFactorable, NotPositive, TrigPoly,
                    factor_trig, moments_from_density, reflect, solve_ar)
from bszego import space as space_mod
from bszego.fullmeasure import _nested_inverse_max
from bszego.moments import _real_form, gram
from bszego.reconstruct import reconstruct_p
from bszego.space import (RANK_TOL, TRI_BLOCK, SubspaceBasis, _inverse_rows,
                          _solve_lower)

from conftest import (basis_kernel, basis_values, brute_inner, embedding,
                      gram_from_table, gram_schmidt_coeffs, grid_stack,
                      monomial_basis, perturb_poly, project, reflected,
                      structural, subspace_angle, trig_abs_squared)


@pytest.fixture(scope="module")
def space_2zw(table_2zw):
    return MomentSpace(table_2zw, 1, 1)


@pytest.fixture(scope="module")
def space_leb(lebesgue_table):
    return MomentSpace(lebesgue_table, 2, 2)


def test_lebesgue_e1_is_monomials(space_leb):
    b = space_leb.basis("E1", 1, 1)
    assert b.dim == 2
    polys = b.polys()
    got = sorted(tuple(np.argwhere(np.abs(q.coeffs) > 0.5)[0]) for q in polys)
    assert got == [(0, 0), (1, 0)]


def test_dimension_counts(space_2zw):
    assert space_2zw.basis("E1", 0, 1).dim == 1
    assert space_2zw.basis("F1", 0, 1).dim == 1
    assert space_2zw.basis("E2", 1, 0).dim == 1
    assert space_2zw.basis("F2", 1, 0).dim == 1
    assert space_2zw.basis("E2", 1, 1).dim == 2
    assert space_2zw.basis("E1", 1, 1).dim == 2


def test_dimension_counts_nontrivial():
    # a non-product positive form: mix of two densities
    pa = BiPoly([[2, 0], [0, -1.0]])
    pb = BiPoly([[3, -1.0], [-1.0, 0]])
    ta = moments_from_density(pa, 2, 2)
    tb = moments_from_density(pb, 2, 2)
    t = MomentTable(2, 2, 0.5 * (ta.c + tb.c))
    sp = MomentSpace(t, 2, 2)
    for k in range(3):
        for l in range(3):
            assert sp.basis("E1", k, l).dim == k + 1
            assert sp.basis("E2", k, l).dim == l + 1


def test_basis_orthonormal_against_brute_force(p_2zw, space_2zw):
    for kind, k, l in (("E1", 1, 1), ("E2", 1, 1), ("F1", 0, 1)):
        b = space_2zw.basis(kind, k, l)
        polys = b.polys()
        g = np.array([[brute_inner(p_2zw, x, y) for y in polys] for x in polys])
        assert np.max(np.abs(g - np.eye(b.dim))) < 1e-9


def test_e2_matches_dense_gram_schmidt(table_2zw, space_2zw):
    # oracle: raw Gram + modified Gram-Schmidt on monomials 1, w (removing z, zw)
    sup = [(0, 0), (0, 1), (1, 0), (1, 1)]
    G = gram_from_table(table_2zw, sup)
    # E2(1,1): span{1,z,w,zw} minus span{z, zw}; start from the removed part
    removed = gram_schmidt_coeffs(G, [np.eye(4)[2], np.eye(4)[3]])
    gens = []
    for e in (np.eye(4)[0], np.eye(4)[1]):
        proj = np.zeros(4, dtype=complex)
        for q in removed.T:
            proj = proj + (e @ G @ np.conj(q)) * q
        gens.append(e - proj)
    oracle = gram_schmidt_coeffs(G, gens)
    vec = space_2zw.basis("E2", 1, 1).vectors     # rows in the order of sup
    # same span: orthonormal coords of one set in the other are unitary
    M = oracle.conj().T @ G.T @ vec
    s = np.linalg.svd(M, compute_uv=False)
    assert np.max(np.abs(s - 1.0)) < 1e-9


def test_basis_cache(space_2zw):
    e1 = space_2zw.basis("E1", 1, 1)
    assert space_2zw.basis("E1", 1, 1) is e1
    assert space_2zw.basis("E1", 1, 1) is e1
    f1 = space_2zw.basis("F1", 1, 1)
    assert space_2zw.basis("F1", 1, 1) is f1
    # same dimension, different subspaces: the keys must not collide
    assert f1.dim == e1.dim and subspace_angle(space_2zw, e1, f1) > 1e-3


@pytest.mark.parametrize("kind", ["H", "e1", "E3"])
def test_basis_refuses_an_unknown_kind(space_2zw, kind):
    with pytest.raises(ValueError, match="unknown space kind"):
        space_2zw.basis(kind, 1, 1)


def test_phi_sequence_lebesgue(space_leb):
    phis = space_leb.phi_sequence(0, 1).polys()
    assert len(phis) == 2
    assert abs(phis[0].coeffs[0, 0] - 1.0) < 1e-12
    assert abs(phis[1].coeffs[0, 1] - 1.0) < 1e-12


def test_phi_sequence_orthonormal(space_2zw):
    phis = space_2zw.phi_sequence(1, 1).polys()
    for i, a in enumerate(phis):
        for j, b in enumerate(phis):
            assert abs(space_2zw.inner(a, b) - (i == j)) < 1e-9


def test_phi_sequence_spans_e2(space_2zw):
    phib = space_2zw.phi_sequence(1, 1)
    assert phib.coeffs.shape == (2, 2, 2)
    assert subspace_angle(space_2zw, phib, space_2zw.basis("E2", 1, 1)) < 1e-8


def test_e2_kernel_matches_phi_kernel(space_2zw):
    # the reproducing kernel is basis-independent: the orthonormalized
    # complement and the inverse-moment-matrix route agree pointwise
    b = space_2zw.basis("E2", 1, 1)
    phis = space_2zw.phi_sequence(1, 1).polys()
    pt1, pt2 = (0.3, 0.2), (0.1, -0.4)
    lib = basis_kernel(b, pt1, pt2)
    oracle = sum(phi(*pt1) * np.conj(phi(*pt2)) for phi in phis)
    assert abs(lib - oracle) < 1e-9


def test_project_onto_span(space_leb):
    z = BiPoly([[0], [1.0]])
    one = BiPoly([[1.0]])
    span_z = space_leb.projected_span([z], space_leb.basis("F2", 1, 0), 1)
    coeffs, resid = project(space_leb, z, span_z)
    assert abs(abs(coeffs[0]) - 1.0) < 1e-12
    assert np.max(np.abs(resid.coeffs)) < 1e-12
    coeffs, resid = project(space_leb, one, span_z)
    assert abs(coeffs[0]) < 1e-12
    assert np.allclose(resid.coeffs, [[1.0]])


def test_projected_span_checks_its_dimension_on_every_path(space_leb):
    # 1 projects to zero on F2(1, 0) = span{z} under Lebesgue measure
    f2 = space_leb.basis("F2", 1, 0)
    one = BiPoly([[1.0]])
    assert space_leb.projected_span([one], f2, 0).dim == 0
    assert space_leb.projected_span([], f2, 0).dim == 0
    empty = SubspaceBasis(np.zeros((1, 1, 0)))
    for gens, target in [([one], f2), ([], f2), ([one], empty)]:
        with pytest.raises(DegenerateForm, match="rank 0, expected 1"):
            space_leb.projected_span(gens, target, 1)
    with pytest.raises(DegenerateForm, match="rank 1, expected 2"):
        space_leb.projected_span([BiPoly([[0], [1.0]])], f2, 2)


def test_project_matches_normal_equations():
    # project z*a(z) onto E1(n-1, m) for p = (1-2z)(2-zw)
    p = BiPoly([[1], [-2.0]]) * BiPoly([[2, 0], [0, -1.0]])
    n, m = p.deg
    table = moments_from_density(p, n, m)
    sp = MomentSpace(table, n, m)
    e1 = sp.basis("E1", n - 1, m)
    f = BiPoly([[0, 0], [2.0, 0], [1.0, 0]])        # z (2 + z)
    coeffs, resid = project(sp, f, e1)
    # oracle: dense normal equations over the e1 polynomials
    sup = [(j, k) for j in range(n + 1) for k in range(m + 1)]
    G = gram_from_table(table, sup)

    def vec(q):
        v = np.zeros(len(sup), dtype=complex)
        for row, (a, b) in enumerate(sup):
            if a < q.coeffs.shape[0] and b < q.coeffs.shape[1]:
                v[row] = q.coeffs[a, b]
        return v

    basis_vecs = [vec(q) for q in e1.polys()]
    M = np.array([[x @ G @ np.conj(y) for y in basis_vecs] for x in basis_vecs])
    rhs = np.array([vec(f) @ G @ np.conj(y) for y in basis_vecs])
    oracle = np.linalg.solve(M.T, rhs)
    assert np.max(np.abs(coeffs - oracle)) < 1e-9
    # residual orthogonal to the subspace
    for q in e1.polys():
        assert abs(sp.inner(resid, q)) < 1e-10


def test_kernel_constants_and_monomials(space_leb):
    one_span = space_leb.projected_span(
        [BiPoly([[1.0]])], space_leb.basis("E1", 0, 0), 1)
    assert abs(basis_kernel(one_span, (0.3, 0.1), (0.7, -0.2)) - 1.0) < 1e-12
    p10 = space_leb.basis("F2", 1, 0)  # holds z only; combine with constants
    full = space_leb.basis("E1", 1, 0)  # P_{1,0} itself under Lebesgue
    z, zeta = 0.3 + 0.1j, -0.2 + 0.4j
    val = basis_kernel(full, (z, 0.0), (zeta, 0.0))
    assert abs(val - (1 + z * np.conj(zeta))) < 1e-12


def test_kernel_reproducing_property(p_2zw, space_2zw):
    b = space_2zw.basis("E2", 1, 1)
    rng = np.random.default_rng(4)
    coefs = rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)
    f = BiPoly(sum(c * q._padded_to((2, 2))
                   for c, q in zip(coefs, b.polys())))
    for _ in range(5):
        zeta, eta = rng.normal(size=2) + 1j * rng.normal(size=2)
        kern_poly_vals = basis_values(b, zeta, eta)
        # <f, K_(zeta,eta)> = sum_i <f, b_i> b_i(zeta, eta) = f(zeta, eta)
        coeffs, _ = project(space_2zw, f, b)
        lhs = np.sum(coeffs * kern_poly_vals)
        assert abs(lhs - f(zeta, eta)) < 1e-9


def test_reflection_antiunitary(space_2zw):
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = BiPoly(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        b = BiPoly(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ra, rb = reflect(a, (1, 1)), reflect(b, (1, 1))
        lhs = space_2zw.inner(ra, rb)
        rhs = space_2zw.inner(b, a)
        assert abs(lhs - rhs) < 1e-10


def test_e1_f1_reflection_pair(space_2zw):
    e1 = space_2zw.basis("E1", 1, 1)
    f1 = space_2zw.basis("F1", 1, 1)
    assert subspace_angle(space_2zw, reflected(e1, (1, 1)), f1) < 1e-8


def test_kernel_subtraction_identity(p_2zw):
    # E1_j - F1_j = (1 - w conj(eta)) K_{j, m-1} pointwise
    table = moments_from_density(p_2zw, 2, 2)
    sp = MomentSpace(table, 2, 2)
    j, m = 2, 2
    e1 = sp.basis("E1", j, m)
    f1 = sp.basis("F1", j, m)
    # K_{j, m-1}: reproducing kernel of the full P_{j, m-1}
    kfull, = sp._complement(j, m - 1, np.arange((j + 1) * m))
    rng = np.random.default_rng(7)
    for _ in range(50):
        z, w, zeta, eta = 0.8 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        lhs = (basis_kernel(e1, (z, w), (zeta, eta))
               - basis_kernel(f1, (z, w), (zeta, eta)))
        rhs = (1 - w * np.conj(eta)) * basis_kernel(kfull, (z, w), (zeta, eta))
        assert abs(lhs - rhs) < 1e-8


def test_p_orthogonal_to_upper_monomials(p_2zw, table_2zw):
    # the factor itself is orthogonal to z^j w^k for 0<=j<=n, 1<=k<=m
    sp = MomentSpace(table_2zw, 1, 1)
    for (j, k) in [(0, 1), (1, 1)]:
        c = np.zeros((j + 1, k + 1), dtype=complex)
        c[j, k] = 1.0
        assert abs(sp.inner(p_2zw, BiPoly(c))) < 1e-9


def test_caps_and_degeneracy():
    # the space is the positivity gate: the zero form is refused there
    t = MomentTable(1, 1, np.zeros((3, 3), dtype=complex))
    with pytest.raises(NotPositive, match=r"not positive \(eigenvalue 0.000e\+00\)"):
        MomentSpace(t, 1, 1)
    c = np.zeros((3, 3), dtype=complex)
    c[1, 1] = 1.0
    for caps in ((2, 1), (1, 2)):
        with pytest.raises(InsufficientMoments, match=r"below caps"):
            MomentSpace(MomentTable(1, 1, c), *caps)


def test_a_factor_that_fails_past_the_gate_is_degenerate(monkeypatch):
    # the zero form, let through the gate, has no real factor
    monkeypatch.setattr(space_mod, "_positive", lambda R: (True, None))
    with pytest.raises(DegenerateForm,
                       match="moment Gram matrix is not positive definite"):
        MomentSpace(MomentTable(1, 1, np.zeros((3, 3), dtype=complex)), 1, 1)


@pytest.mark.parametrize("n", [4, 8])
def test_inner_norm_and_cross_equal_the_quadrature_inner_product(n):
    # x^T G conj(y) against brute_inner, the integral of f conj(g) / |p|^2 on
    # a 128^2 torus grid, which shares no code with MomentSpace (its
    # aliasing error is below 1e-16 here); inner and norm trim their input,
    # so zero rows and columns past the caps are no error
    p = perturb_poly(100 + n, n, n)
    sp = MomentSpace(moments_from_density(p, n, n), n, n)
    rng = np.random.default_rng(n)
    f, g = (BiPoly(rng.normal(size=(a + 1, b + 1, 2)) @ [1, 1j])
            for a, b in ((n, n - 2), (n - 1, n)))
    ref = np.array([[brute_inner(p, x, y, N=128) for y in (f, g)] for x in (f, g)])
    tol = 1e-14 * np.max(np.abs(ref))
    both = SubspaceBasis(grid_stack([f, g], (n + 1, n + 1)))
    assert np.max(np.abs(sp.cross(both, both) - ref)) <= tol
    padded = BiPoly(np.pad(f.coeffs, ((0, 1), (0, 2))))
    assert abs(sp.inner(padded, g) - ref[0, 1]) <= tol
    assert abs(sp.inner(g, padded) - ref[1, 0]) <= tol
    for x, ref_sq in ((padded, ref[0, 0]), (g, ref[1, 1])):
        assert abs(sp.norm(x) - np.sqrt(ref_sq.real)) <= 1e-14 * np.sqrt(ref_sq.real)


@pytest.mark.parametrize("d", [1, TRI_BLOCK - 1, TRI_BLOCK + 1, 70])
def test_inverse_rows_match_dense_inverses(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    # a weak diagonal makes the block solves pivot, so the zeros before
    # each stage are not left to round-off
    G = a @ a.conj().T + 0.01 * d * np.eye(d)
    rows = _inverse_rows(G, d, "a test matrix")
    for j in range(d):
        inv = np.linalg.inv(G[j:, j:])
        ref = inv[0] / np.sqrt(inv[0, 0].real)
        assert not np.any(rows[j, :j])
        assert np.max(np.abs(rows[j, j:] - ref)) < 1e-12 * np.max(np.abs(ref))
    L = np.linalg.cholesky(G)
    B = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
    ref = np.linalg.inv(L) @ B
    assert np.max(np.abs(_solve_lower(L, B) - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d, count", [(1, 1), (9, 3), (TRI_BLOCK + 1, 5), (70, 70)])
def test_inverse_rows_solve_for_the_identity_columns_they_keep(d, count):
    # the right-hand side is the first count columns of the identity, built
    # as such: bit for bit what solving for the whole identity's view gives
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    G = a @ a.conj().T + d * np.eye(d)
    L = np.linalg.cholesky(G[::-1, ::-1])
    want = np.triu(_solve_lower(L.T[::-1, ::-1], np.eye(d)[:, :count]).T)
    assert np.array_equal(_inverse_rows(G, count, "a test matrix"), want)


def test_indefinite_gram_raises_degenerate():
    G = np.diag([2.0, -1.0, 1.0])
    with pytest.raises(DegenerateForm, match="stage x"):
        _inverse_rows(G, 1, "stage x")
    with pytest.raises(DegenerateForm, match="window y"):
        _nested_inverse_max(G, 1, 0, [0], "window y")


def _reference_complement(sp, ambient, removed):
    """The QR/SVD complement: project the generators' embeddings off the
    removed monomials' by QR, orthonormalize them by SVD, solve back."""
    def index(exps):                      # positions in the z-major order
        return [j * (sp.mmax + 1) + k for j, k in exps]

    removed_set = set(removed)
    gens = [u for u in ambient if u not in removed_set]
    emb = embedding(sp)
    X = emb[:, index(gens)]
    q, _ = np.linalg.qr(emb[:, index(removed)])
    X = X - q @ (q.conj().T @ X)
    u, s, _ = np.linalg.svd(X, full_matrices=False)
    assert np.sum(s > RANK_TOL * s[0]) == len(gens)
    full = np.linalg.solve(emb, u)
    vectors = full[index(ambient)]
    k, l = ambient[-1]                    # the ambient rectangle's corner
    return SubspaceBasis(vectors.reshape(k + 1, l + 1, len(gens)))


def _basis_defects(sp, kind, k, l):
    """Angle and largest entry gap to the reference, orthonormality
    defect, and the largest |<b, z^j w^k>| over removed monomials.  Bases
    carry no phase rule, so each column of b is turned to the phase of the
    reference's before the entries are compared."""
    ambient, removed = structural(kind, k, l)
    b = sp.basis(kind, k, l)
    ref = _reference_complement(sp, ambient, removed)
    assert b.coeffs.shape == ref.coeffs.shape
    turn = np.einsum("ij,ij->j", b.vectors.conj(), ref.vectors)
    aligned = b.vectors * (turn / np.abs(turn))
    gap = np.max(np.abs(aligned - ref.vectors)) / np.max(np.abs(ref.vectors))
    ortho = np.max(np.abs(sp.cross(b, b) - np.eye(b.dim)))
    leak = np.max(np.abs(sp.cross(b, monomial_basis(removed))))
    return subspace_angle(sp, b, ref), gap, ortho, leak


@pytest.fixture(scope="module")
def table_perturb_16_16():
    """Moments of 1 + e(z, w) of degree (16, 16), sum |e_jk| = 0.5."""
    rng = np.random.default_rng(1616)
    e = rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17))
    e[0, 0] = 0.0
    a = 0.5 * e / np.sum(np.abs(e))
    a[0, 0] += 1.0
    return moments_from_density(BiPoly(a), 16, 16)


@pytest.mark.parametrize("which", ["8x8", "16x16"])
def test_bases_match_qr_svd_reference(which, table_perturb_8_8,
                                      table_perturb_16_16):
    table, n = {"8x8": (table_perturb_8_8, 8),
                "16x16": (table_perturb_16_16, 16)}[which]
    sp = MomentSpace(table, n, n)
    # the caps, then two rectangles that are not leading blocks of the
    # z-major or the w-major order
    cases = [(kind, n, n) for kind in ("E1", "F1", "E2", "F2")]
    cases += [(kind, k, l) for kind in ("E1", "F1", "E2", "F2")
              for k, l in ((n - 3, n - 2), (2, n - 1))]
    for kind, k, l in cases:
        angle, gap, ortho, leak = _basis_defects(sp, kind, k, l)
        assert angle <= 1e-10, (kind, k, l, angle)
        # the rotation by the singular vectors reproduces the SVD basis
        assert gap <= 1e-10, (kind, k, l, gap)
        assert ortho <= 1e-13, (kind, k, l, ortho)
        assert leak <= 1e-12, (kind, k, l, leak)


def test_complement_rank_check_is_live(monkeypatch, table_2zw):
    monkeypatch.setattr(space_mod, "RANK_TOL", 1.0)
    with pytest.raises(DegenerateForm, match="subspace rank"):
        MomentSpace(table_2zw, 1, 1).basis("E1", 1, 1)


def test_embedding_beyond_the_caps_raises_insufficient_moments(space_2zw):
    # a basis grid and a polynomial past the caps fail alike in the form
    e1 = space_2zw.basis("E1", 1, 1)
    beyond = r"polynomial degree \(2, 1\) exceeds caps \(1, 1\)"
    with pytest.raises(InsufficientMoments, match=beyond):
        space_2zw.cross(e1.shifted(1, 0), e1)
    with pytest.raises(InsufficientMoments, match=beyond):
        space_2zw.inner(BiPoly(np.ones((3, 2))), BiPoly([[1.0]]))
    with pytest.raises(InsufficientMoments,
                       match=r"polynomial degree \(1, 2\) exceeds caps \(1, 1\)"):
        space_2zw.norm(BiPoly(np.ones((2, 3))))
    for k, l in ((2, 1), (1, 2)):
        with pytest.raises(InsufficientMoments,
                           match=rf"E1\({k},{l}\) exceeds caps \(1, 1\)"):
            space_2zw.basis("E1", k, l)


def test_basis_refuses_coefficients_that_are_not_a_stack_of_grids():
    with pytest.raises(DegenerateForm, match="must be a stack of grids"):
        SubspaceBasis(np.zeros((2, 2)))


@pytest.fixture(scope="module")
def space_perturb_4_4():
    """MomentSpace at caps (4, 4) of 1 + e(z, w), sum |e_jk| = 0.5."""
    rng = np.random.default_rng(44)
    e = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    e[0, 0] = 0.0
    a = 0.5 * e / np.sum(np.abs(e))
    a[0, 0] += 1.0
    return MomentSpace(moments_from_density(BiPoly(a), 4, 4), 4, 4)


@pytest.mark.parametrize("kind, k, l, grid", [
    ("E1", 3, 4, (4, 5)), ("F1", 3, 4, (4, 5)), ("E2", 4, 3, (5, 4)),
    ("F2", 4, 3, (5, 4)), ("E1", 2, 1, (3, 2))])
def test_basis_layout_shifts_and_reflects_like_bipoly(space_perturb_4_4,
                                                      kind, k, l, grid):
    b = space_perturb_4_4.basis(kind, k, l)
    assert b.coeffs.shape == grid + (b.dim,)
    polys = b.polys()
    assert all(np.array_equal(q.coeffs, b.coeffs[:, :, i])
               for i, q in enumerate(polys))
    for dz, dw in [(0, 0), (1, 0), (0, 1), (2, 3)]:
        for q, ref in zip(b.shifted(dz, dw).polys(), polys):
            assert np.array_equal(q.coeffs, ref.shifted(dz, dw).coeffs)
    for at in [(grid[0] - 1, grid[1] - 1), (grid[0] + 1, grid[1])]:
        for q, ref in zip(reflected(b, at).polys(), polys):
            want = reflect(ref, at).coeffs      # trims first, then reflects
            assert q.coeffs.shape == want.shape
            assert np.max(np.abs(q.coeffs - want)) <= \
                1e-12 * np.max(np.abs(want))
    for at in [(grid[0] - 2, grid[1] - 1), (grid[0] - 1, grid[1] - 2)]:
        with pytest.raises(InsufficientMoments, match="below the basis degree"):
            reflected(b, at)


def _alpha_zw_space(alphas, n):
    """MomentSpace at caps (n, n) of prod (alpha - zw)."""
    p = BiPoly([[1.0]])
    for alpha in alphas:
        p = p * BiPoly([[alpha, 0], [0, -1.0]])
    return MomentSpace(moments_from_density(p, n, n), n, n)


def _factor_spy(monkeypatch):
    """np.linalg.cholesky, recording (dtype kind, size, succeeded) per call."""
    factored = []
    cholesky = np.linalg.cholesky

    def counting(a):
        try:
            out = cholesky(a)
        except np.linalg.LinAlgError:
            factored.append((a.dtype.kind, len(a), False))
            raise
        factored.append((a.dtype.kind, len(a), True))
        return out

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return factored


def test_one_real_factor_per_space(monkeypatch, space_perturb_4_4):
    factored = _factor_spy(monkeypatch)
    reconstruct_p(space_perturb_4_4.table, 4, 4)
    # the caps (4, 4) in real form, the positivity certificate's shifted
    # copy of it, and the phi sequence's own complex Gram; no rectangle
    # inside the caps has a factor of its own
    assert sorted(factored) == [("c", 25, True), ("f", 25, True), ("f", 25, True)]
    sp = MomentSpace(space_perturb_4_4.table, 4, 4)
    factored.clear()
    for kind in ("E1", "F1", "E2", "F2"):
        for k in range(5):
            for l in range(5):
                sp.basis(kind, k, l)
    assert factored == []
    # every basis read the one kept set of columns of conj(G)^-1, the caps
    # grid's boundary (16 of 25 positions), which the rectangles whose
    # columns leave the boundary widened
    assert np.count_nonzero(sp._slot >= 0) > 16
    sp = MomentSpace(space_perturb_4_4.table, 4, 4)
    for kind, k, l in [("E1", 3, 4), ("E2", 4, 3), ("F2", 4, 3), ("E1", 4, 4),
                       ("F1", 4, 4)]:
        sp.basis(kind, k, l)
    assert np.count_nonzero(sp._slot >= 0) == 16


def test_inverse_columns_off_the_boundary_match_the_dense_inverse(space_perturb_4_4):
    sp = space_perturb_4_4
    H = np.linalg.inv(np.conj(gram(sp.table, 4, 4)))
    for pos in (np.array([0, 4, 20, 24]), np.array([6, 12, 3]), np.arange(25)):
        got = sp._inverse_columns(pos)
        assert np.max(np.abs(got - H[:, pos])) <= 1e-13 * np.max(np.abs(H))


@pytest.mark.parametrize("n, m", [(3, 3), (5, 4)])
def test_every_basis_matches_the_reference_on_every_rectangle(n, m):
    # E1, F1, E2 and F2 on every rectangle inside the caps: each spans the
    # QR/SVD reference's subspace and is orthonormal, both within 1e-12
    sp = MomentSpace(moments_from_density(perturb_poly(10 * n + m, n, m), n, m), n, m)
    for kind in ("E1", "F1", "E2", "F2"):
        for k in range(n + 1):
            for l in range(m + 1):
                b = sp.basis(kind, k, l)
                ref = _reference_complement(sp, *structural(kind, k, l))
                assert subspace_angle(sp, b, ref) <= 1e-12, (kind, k, l)
                assert np.max(np.abs(sp.cross(b, b) - np.eye(b.dim))) <= 1e-12


@pytest.mark.parametrize("alphas, n, sides", [
    (np.linspace(1.2, 2, 8), 8, range(9)),
    (np.linspace(2, 4, 16), 16, (0, 9, 15, 16))])
def test_ill_conditioned_bases_match_the_reference(alphas, n, sides):
    # the same on prod (alpha - zw), Gram condition numbers 1.5e10 and 9.6e9,
    # within eps * cond(G): on every rectangle at (8, 8), on the rectangles
    # with sides in ``sides`` at (16, 16)
    sp = _alpha_zw_space(alphas, n)
    eigs = np.linalg.eigvalsh(_real_form(gram(sp.table, n, n)))
    bound = np.finfo(float).eps * eigs[-1] / eigs[0]
    for kind in ("E1", "F1", "E2", "F2"):
        for k in sides:
            for l in sides:
                b = sp.basis(kind, k, l)
                ref = _reference_complement(sp, *structural(kind, k, l))
                assert subspace_angle(sp, b, ref) <= bound, (kind, k, l)
                assert np.max(np.abs(sp.cross(b, b) - np.eye(b.dim))) <= bound


def _spy(monkeypatch, module, name, seen, key):
    """``module.name`` wrapped to append ``key(*args)`` to ``seen`` per call."""
    original = getattr(module, name)

    def wrapper(*args):
        seen.append(key(*args))
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_a_table_that_is_not_positive_costs_one_gather_one_factor_one_eigvalsh(
        monkeypatch, space_perturb_4_4):
    factored, gathered, spectra = _factor_spy(monkeypatch), [], []
    _spy(monkeypatch, space_mod, "gram", gathered, lambda table, k, l: (k, l))
    _spy(monkeypatch, np.linalg, "eigvalsh", spectra, len)
    c = space_perturb_4_4.table.c.copy()
    c[4, 4] -= 10.0            # c_00 shifted below the Gram's smallest eigenvalue
    with pytest.raises(NotPositive, match="moment form not positive"):
        reconstruct_p(MomentTable(4, 4, c), 4, 4)
    assert (gathered, factored, spectra) == ([(4, 4)], [("f", 25, False)], [25])
    # a positive table: one gather, no eigvalsh, three factors; ar, which
    # prints the smallest eigenvalue, adds one eigvalsh of the space's form
    for call, eigvalsh_sizes, factors in ((reconstruct_p, [], 3), (solve_ar, [25], 3)):
        for seen in (factored, gathered, spectra):
            seen.clear()
        call(space_perturb_4_4.table, 4, 4)
        assert (gathered, spectra, len(factored)) == ([(4, 4)], eigvalsh_sizes, factors)


def test_a_basis_on_the_caps_rectangle_solves_nothing(monkeypatch, space_perturb_4_4):
    # E1(4, 4) fills the caps: no Schur complement, so no np.linalg.solve
    # once the boundary columns are in; E1(3, 4) has one row outside
    sp = MomentSpace(space_perturb_4_4.table, 4, 4)
    sp._inverse_columns(0)
    solves = []
    _spy(monkeypatch, np.linalg, "solve", solves, lambda a, b: a.shape)
    sp.basis("E1", 4, 4)
    assert solves == []
    sp.basis("E1", 3, 4)
    assert solves == [(5, 5)]


def test_e2_and_f2_take_one_eigh(monkeypatch, space_perturb_4_4):
    # the two generator blocks of E2(4, 3) and F2(4, 3) are one batched call
    sp = MomentSpace(space_perturb_4_4.table, 4, 4)
    stacks = []
    _spy(monkeypatch, np.linalg, "eigh", stacks, lambda a: a.shape)
    sp.basis("E2", 4, 3)
    sp.basis("F2", 4, 3)
    assert stacks == [(2, 4, 4)]


@pytest.mark.parametrize("n", [2, 4, 8])
def test_a_reconstruction_solves_the_boundary_once(monkeypatch, n):
    # the operators' and the split polynomial's bases read one pair of
    # triangular solves on the caps grid's boundary, (n + 1)^2 - (n - 1)^2
    # columns; phi_sequence's own factor solves for its n + 1 rows
    solves = []
    _spy(monkeypatch, space_mod, "_solve_lower", solves, lambda L, B: B.shape[1])
    reconstruct_p(moments_from_density(perturb_poly(70 + n, n, n), n, n), n, n)
    boundary = 4 * n
    assert sorted(solves) == sorted([boundary, boundary, n + 1])


def test_a_factor_by_the_split_route_gathers_and_factors_once(monkeypatch):
    # |2 - zw|^2 + |2 - z - w/2|^2 has no stable factor, so the split route
    # refuses it, on the gate's moment space: one gather of the caps (2, 2)
    # and one real factor of it, besides the positivity certificate's
    # shifted copy; the matrix condition fails before the phi sequence
    t = trig_abs_squared(BiPoly([[2, 0], [0, -1.0]]))
    c = np.zeros((5, 5), dtype=complex)
    c[1:4, 1:4] = t.c + trig_abs_squared(BiPoly([[2, -1.0], [-0.5, 0]])).c
    factored, gathered = _factor_spy(monkeypatch), []
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("bszego.") and hasattr(m, "gram")]:
        _spy(monkeypatch, module, "gram", gathered, lambda table, k, l: (k, l))
    with pytest.raises(NotFactorable, match="no closed-face"):
        factor_trig(TrigPoly(2, 2, c), 2, 2)
    assert gathered == [(2, 2)]
    assert factored == [("f", 9, True), ("f", 9, True)]


def test_solve_lower_keeps_real_inputs_real():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 40))
    L = np.linalg.cholesky(a @ a.T + np.eye(40))
    B = rng.normal(size=(40, 2))
    X = _solve_lower(L, B)
    assert X.dtype == np.float64
    assert np.max(np.abs(L @ X - B)) < 1e-12 * np.max(np.abs(B))
    assert _solve_lower(L.astype(complex), B).dtype == np.complex128


@pytest.mark.parametrize("alphas, n", [(np.linspace(1.2, 2, 8), 8),
                                       (np.linspace(2, 4, 16), 16)])
def test_ill_conditioned_bases_stay_orthonormal(alphas, n):
    # Gram condition numbers 1.5e10 and 9.6e9: every basis the operators and
    # the split polynomial use is orthonormal up to eps * cond(G)
    sp = _alpha_zw_space(alphas, n)
    eigs = np.linalg.eigvalsh(_real_form(gram(sp.table, n, n)))
    bound = np.finfo(float).eps * eigs[-1] / eigs[0]
    assert bound > 1e-6
    for kind, k, l in [("E1", n - 1, n), ("F1", n - 1, n), ("E2", n, n - 1),
                       ("F2", n, n - 1), ("E1", n, n)]:
        b = sp.basis(kind, k, l)
        assert np.max(np.abs(sp.cross(b, b) - np.eye(b.dim))) < bound, (kind, k, l)


def _blocked_solve_lower(L, B):
    # the blocked substitution at every size, one dense solve per block
    X = np.array(B, dtype=np.result_type(L, B, float))
    for i in range(0, L.shape[0], TRI_BLOCK):
        k = min(i + TRI_BLOCK, L.shape[0])
        X[i:k] = np.linalg.solve(L[i:k, i:k], X[i:k] - L[i:k, :i] @ X[:i])
    return X


@pytest.mark.parametrize("complex_l", [False, True])
@pytest.mark.parametrize("d", range(1, TRI_BLOCK + 2))
def test_solve_lower_is_the_blocked_substitution(d, complex_l):
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d)) + complex_l * 1j * rng.normal(size=(d, d))
    L = np.linalg.cholesky(a @ a.conj().T + d * np.eye(d))
    real = rng.normal(size=(d, 4))
    for B in (real, real + 1j * rng.normal(size=(d, 4)), real[::-1], np.eye(d)[:, :3]):
        got, want = _solve_lower(L, B), _blocked_solve_lower(L, B)
        assert got.dtype == want.dtype and np.array_equal(got, want)
