from itertools import product

import numpy as np
import pytest

from bszego import (BiPoly, DegenerateForm, DNotAdmissible,
                    MatrixConditionFails, MomentDivergence, MomentSpace,
                    RootNearTorus, SubspaceBasis, build_operators,
                    check_matrix_condition, enumerate_split_polys, gw_check,
                    moments_from_density, moments_from_grid_function,
                    reconstruct_p, shift_split_from_p,
                    split_poly_from_condition)
from bszego.space import containment_defect, subspace_angle
from bszego.splitshift import (FACE_MARGIN, FACE_SAMPLES, assert_no_face_zeros,
                               split_poly_of)

from conftest import (gram_from_table, gram_schmidt_coeffs, max_modulus_gap,
                      random_corpus_poly)


@pytest.fixture(scope="module")
def space_2zw(table_2zw):
    return MomentSpace(table_2zw.window(1, 1), 1, 1)


def test_operators_2zw_frozen(space_2zw):
    # hand computation on the 4x4 Gram of [1, z, w, zw]:
    # only <1,1>=<z,z>=<w,w>=<zw,zw>=1/3 and <1,zw>=1/6 are nonzero, so
    # A = [[0]], T = [[0]], B = [[3 * conj(c_{1,1})]] = [[1/2]]
    ops = build_operators(space_2zw)
    assert ops.a_mat.shape == (1, 1) and abs(ops.a_mat[0, 0]) < 1e-12
    assert abs(ops.t_mat[0, 0]) < 1e-12
    assert abs(ops.b_mat[0, 0] - 0.5) < 1e-10


def test_operators_product_measure_dense_oracle():
    # p = (1-2z)(2-w): independent dense Gram-Schmidt oracle at (1, 1)
    p = BiPoly([[1], [-2.0]]) * BiPoly([[2.0, -1.0]])
    table = moments_from_density(p, 1, 1)
    sup = [(0, 0), (0, 1), (1, 0), (1, 1)]
    G = gram_from_table(table, sup)
    e = np.eye(4)
    # E1(0,1) = {1, w} minus {w}; E2(1,0) = {1, z} minus {z}; F2 analogous
    def complement(keep, remove):
        removed = gram_schmidt_coeffs(G, [e[i] for i in remove])
        outs = []
        for i in keep:
            v = e[i].astype(complex)
            for q in removed.T:
                v = v - (v @ G @ np.conj(q)) * q
            outs.append(v)
        return gram_schmidt_coeffs(G, outs)

    e1 = complement([0], [1])            # span{1} minus proj onto w
    we2 = complement([1], [3])           # w * (span{1,z} minus z) = {w} minus {zw}
    wf2 = complement([3], [1])           # w * ({1,z} minus 1) = {zw} minus {w}
    # shift by z inside coefficients: index map 1->z is 0->2, w->zw is 1->3
    shift = np.zeros((4, 4))
    shift[2, 0] = shift[3, 1] = 1.0
    ze1 = shift @ e1
    a_oracle = (ze1.T @ G @ np.conj(we2)).T
    t_oracle = (ze1.T @ G @ np.conj(e1)).T
    b_oracle = (wf2.T @ G @ np.conj(e1)).T
    ops = build_operators(MomentSpace(table, 1, 1))
    # compare up to the basis phases: magnitudes of the 1x1 entries
    assert abs(abs(ops.a_mat[0, 0]) - abs(a_oracle[0, 0])) < 1e-9
    assert abs(abs(ops.t_mat[0, 0]) - abs(t_oracle[0, 0])) < 1e-9
    assert abs(abs(ops.b_mat[0, 0]) - abs(b_oracle[0, 0])) < 1e-9
    rep = check_matrix_condition(ops)
    assert rep.holds and abs(ops.a_mat[0, 0]) < 1e-10


def test_condition_2zw(space_2zw):
    rep = check_matrix_condition(build_operators(space_2zw))
    assert rep.holds
    assert rep.dim_a == 0 and rep.dim_b == 1
    assert (rep.d_min, rep.d_max) == (0, 0)


def test_condition_lebesgue(lebesgue_table):
    sp = MomentSpace(lebesgue_table, 2, 1)
    ops = build_operators(sp)
    assert float(np.max(np.abs(ops.a_mat))) < 1e-13
    rep = check_matrix_condition(ops)
    assert rep.holds and rep.dim_a == 0


def test_condition_unstable_content():
    p = BiPoly([[1], [-2.0]]) * BiPoly([[2, 0], [0, -1.0]])
    table = moments_from_density(p, 2, 1)
    rep = check_matrix_condition(build_operators(MomentSpace(table, 2, 1)))
    assert rep.holds
    assert (rep.d_min, rep.d_max) == (0, 1)


def test_condition_fails_generic():
    # a mixture of Bernstein-Szego densities pointing in different
    # directions is not itself Bernstein-Szego; rotation-invariant
    # mixtures can never fail (they extend through one-variable theory),
    # so the blend must break the zw-symmetry
    def dens(zz, ww):
        return 0.5 / np.abs(2.0 - zz * ww) ** 2 + 0.5 / np.abs(2.0 - zz) ** 2

    table = moments_from_grid_function(dens, 2, 1)
    rep = check_matrix_condition(build_operators(MomentSpace(table, 2, 1)))
    assert not rep.holds
    assert rep.max_violation > 1e-4


def test_shift_split_2zw(space_2zw, p_2zw):
    split = shift_split_from_p(space_2zw, p_2zw)
    assert split.k1.dim == 0 and split.k2.dim == 1
    assert subspace_angle(space_2zw, split.k2, space_2zw.e1_basis(0, 1)) < 1e-10
    # split poly proportional to p itself (both unit norm, canonical phase)
    ip = space_2zw.inner(split.split_poly, p_2zw)
    assert abs(abs(ip) - space_2zw.norm(p_2zw)) < 1e-9


def test_shift_split_unstable(space_2zw):
    p = BiPoly([[1], [-2.0]]) * BiPoly([[2, 0], [0, -1.0]])
    table = moments_from_density(p, 2, 1)
    sp = MomentSpace(table, 2, 1)
    split = shift_split_from_p(sp, p)
    assert split.k1.dim == 1 and split.k2.dim == 1
    ip = sp.inner(split.split_poly, p)
    assert abs(abs(ip) - sp.norm(p)) < 1e-8


def test_shift_split_invariants_corpus():
    rng = np.random.default_rng(11)
    for _ in range(8):
        p = random_corpus_poly(rng, allow_unstable_q=True)
        n, m = p.deg
        table = moments_from_density(p, n, m)
        sp = MomentSpace(table, n, m)
        split = shift_split_from_p(sp, p)
        assert split.k1.dim + split.k2.dim == n
        if split.k1.dim and split.k2.dim:
            cross = sp.cross(split.k1, split.k2.shifted(1, 0))
            assert float(np.max(np.abs(cross))) < 1e-8
        e1big = sp.e1_basis(n, m)
        assert containment_defect(sp, split.k1, e1big) < 1e-8
        assert containment_defect(sp, split.k2.shifted(1, 0), e1big) < 1e-8


def test_divergent_density_split(p_2zw):
    with pytest.raises(MomentDivergence):
        moments_from_density(BiPoly([[1, 0], [0, -1.0]]), 1, 1)


def test_split_from_condition_d0(space_2zw, p_2zw):
    split = split_poly_from_condition(space_2zw, 0)
    assert max_modulus_gap(split.split_poly,
                           p_2zw * (1.0 / space_2zw.norm(p_2zw))) < 1e-8


def test_exact_modulus_tie_gives_plus_p():
    # the w^0 row of (2 - z)^2 (2 - zw) is (8, -8, 2): the z^0 entry wins
    p = (BiPoly([[2.0], [-1.0]]) * BiPoly([[2.0], [-1.0]])
         * BiPoly([[2.0, 0.0], [0.0, -1.0]]))
    table = moments_from_density(p, 6, 2)
    for q in (reconstruct_p(table, 3, 1),
              split_poly_from_condition(MomentSpace(table, 3, 1), 0).split_poly):
        scale = q.coeffs[0, 0].real / 8.0
        assert scale > 0
        assert np.max(np.abs(q.coeffs - scale * p.coeffs)) < 1e-10 * scale


def test_split_from_condition_d1_not_admissible(space_2zw):
    with pytest.raises(DNotAdmissible):
        split_poly_from_condition(space_2zw, 1)


def _mixture_space():
    """The non-Bernstein-Szego blend of test_condition_fails_generic."""
    def dens(zz, ww):
        return 0.5 / np.abs(2.0 - zz * ww) ** 2 + 0.5 / np.abs(2.0 - zz) ** 2

    return MomentSpace(moments_from_grid_function(dens, 2, 1), 2, 1)


def test_split_from_condition_fails_without_condition():
    with pytest.raises(MatrixConditionFails):
        split_poly_from_condition(_mixture_space(), 0)


def test_enumerate_fails_without_condition():
    with pytest.raises(MatrixConditionFails):
        enumerate_split_polys(_mixture_space())


def test_no_split_beyond_a_point_interval():
    # prod (alpha - zw), alpha = linspace(3, 6, 16): the true interval is
    # [0, 0], but the Krylov rank cut reads dim B = 14 and admits [0, 2];
    # the d = 1, 2 candidates from the two noise directions are not
    # shift-splits (K1 is not orthogonal to z K2) and must not come back
    p = BiPoly([[1.0]])
    for alpha in np.linspace(3, 6, 16):
        p = p * BiPoly([[alpha, 0], [0, -1.0]])
    sp = MomentSpace(moments_from_density(p, 16, 16), 16, 16)
    for d in (1, 2):
        with pytest.raises((DegenerateForm, DNotAdmissible)):
            split_poly_from_condition(sp, d)


def test_split_poly_of_rejects_overlapping_k1_zk2(lebesgue_table):
    # K1 = z K2 = span{z}: K1 + z K2 is not direct, and its complement in
    # E1(2, 1) = span{1, z, z^2} has dimension 2, not 1
    sp = MomentSpace(lebesgue_table, 2, 1)
    k2 = SubspaceBasis(((0, 0),), np.ones((1, 1)))
    with pytest.raises(DegenerateForm):
        split_poly_of(sp, k2.shifted(1, 0), k2)


def test_stratification_all_d():
    p = BiPoly([[1], [-2.0]]) * BiPoly([[2, 0], [0, -1.0]])
    punit = p * (1.0 / np.sqrt(1.0))   # unit norm in its own measure
    table = moments_from_density(p, 2, 1)
    sp = MomentSpace(table, 2, 1)
    for d in (0, 1):
        split = split_poly_from_condition(sp, d)
        from bszego.poly import split_stable
        assert split_stable(split.split_poly.z_slice()).beta == d
        assert split.k1.dim == d
        assert max_modulus_gap(split.split_poly,
                               p * (1.0 / sp.norm(p))) < 1e-7
    with pytest.raises(DNotAdmissible):
        split_poly_from_condition(sp, 2)


def test_split_uniqueness_for_fixed_poly():
    # the (K1, K2) attached to a split-poly are unique: rebuild from the
    # returned polynomial and compare spans
    p = BiPoly([[3], [-1.0]]) * BiPoly([[2, 0], [0, -1.0]])
    table = moments_from_density(p, 2, 1)
    sp = MomentSpace(table, 2, 1)
    for d in (0, 1):
        split = split_poly_from_condition(sp, d)
        again = shift_split_from_p(sp, split.split_poly)
        assert subspace_angle(sp, split.k1, again.k1) < 1e-7
        assert subspace_angle(sp, split.k2, again.k2) < 1e-7


def test_enumerate_single():
    p = BiPoly([[2, 0], [0, -1.0]])
    table = moments_from_density(p, 1, 1)
    sp = MomentSpace(table, 1, 1)
    out = enumerate_split_polys(sp)
    assert len(out) == 1 and out[0][1] == 0


def test_enumerate_one_stable_factor():
    p = BiPoly([[3], [-1.0]]) * BiPoly([[2, 0], [0, -1.0]])
    table = moments_from_density(p, 2, 1)
    sp = MomentSpace(table, 2, 1)
    out = enumerate_split_polys(sp)
    assert [d for _, d in out] == [0, 1]
    for cand, _ in out:
        assert max_modulus_gap(cand, out[0][0]) < 1e-8


def test_enumerate_two_stable_factors():
    p = BiPoly([[3], [-1.0]]) * BiPoly([[2], [-1.0]]) * BiPoly([[2, 0], [0, -1.0]])
    table = moments_from_density(p, 3, 1)
    sp = MomentSpace(table, 3, 1)
    out = enumerate_split_polys(sp)
    assert len(out) == 4
    assert sorted(d for _, d in out) == [0, 1, 1, 2]


def test_enumerate_repeated_root_dedupe():
    # a double stable root is one 2-fold eigenvalue of the compressed T*,
    # flipped 0, 1 or 2 times: three split-polys, not four
    p = BiPoly([[3], [-1.0]]) * BiPoly([[3], [-1.0]]) * BiPoly([[2, 0], [0, -1.0]])
    table = moments_from_density(p, 3, 1)
    sp = MomentSpace(table, 3, 1)
    out = enumerate_split_polys(sp)
    assert [d for _, d in out] == [0, 1, 2]


# (root, multiplicity) pairs of the z-content of p = content * (2 - zw),
# and the number of formal slots at infinity (degree caps above deg p)
FLIP_CASES = {
    "(2-z)^3": ([(2.0, 3)], 0),
    "(3-z)^4": ([(3.0, 4)], 0),
    "(1.5-z)^3(3-z)^2": ([(1.5, 3), (3.0, 2)], 0),
    "(2-z)^2(2.5i-z)": ([(2.0, 2), (2.5j, 1)], 0),
    "(2-z)^2 at n+2": ([(2.0, 2)], 2),
}


def _flipped(roots, counts):
    """(2 - zw) prod (r - z)^(mult - k) (1 - conj(r) z)^k, times z^slots."""
    p = BiPoly([[2.0, 0.0], [0.0, -1.0]])
    for (r, mult), k in zip(roots, counts):
        for j in range(mult):
            p = p * (BiPoly([[1.0], [-np.conj(r)]]) if j < k else BiPoly([[r], [-1.0]]))
    return p * BiPoly([[0.0]] * counts[-1] + [[1.0]])


def _coeff_gap(q, ref):
    """Relative coefficient distance of q from ref, up to a unimodular phase."""
    shape = np.maximum(q.coeffs.shape, ref.coeffs.shape)
    a, b = np.zeros(shape, complex), np.zeros(shape, complex)
    a[:q.coeffs.shape[0], :q.coeffs.shape[1]] = q.coeffs
    b[:ref.coeffs.shape[0], :ref.coeffs.shape[1]] = ref.coeffs
    ip = np.vdot(a, b)
    return float(np.max(np.abs(a * (ip / abs(ip)) - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("case", list(FLIP_CASES))
def test_splits_are_the_flipped_polynomials(case):
    roots, slots = FLIP_CASES[case]
    p = _flipped(roots, [0] * len(roots) + [0])
    n = p.deg[0] + slots
    sp = MomentSpace(moments_from_density(p, n, 1), n, 1)
    refs = {}
    for counts in product(*[range(mult + 1) for _, mult in roots], range(slots + 1)):
        ref = _flipped(roots, counts)
        refs[counts] = (ref * (1.0 / sp.norm(ref)), sum(counts))
    out = enumerate_split_polys(sp)
    assert len(out) == len(refs)
    for q, d in out:
        assert min(_coeff_gap(q, ref) for ref, dr in refs.values() if dr == d) < 1e-10
    # d fills the smallest-modulus roots first and the slots last
    for d in range(sum(mult for _, mult in roots) + slots + 1):
        counts, extra = [], d
        for mult in [mult for _, mult in roots] + [slots]:
            counts.append(min(mult, extra))
            extra -= counts[-1]
        split = split_poly_from_condition(sp, d)
        assert split.k1.dim == d
        assert _coeff_gap(split.split_poly, refs[tuple(counts)][0]) < 1e-10


def test_gw_examples(space_2zw, lebesgue_table):
    assert gw_check(space_2zw)
    assert gw_check(MomentSpace(lebesgue_table, 2, 1))
    # forced-unstable input: z - w/2 has no z-only factor and a disk root
    pf = BiPoly([[0, -0.5], [1, 0]])
    table = moments_from_density(pf, 1, 1)
    spf = MomentSpace(table, 1, 1)
    assert not gw_check(spf)
    rep = check_matrix_condition(build_operators(spf))
    assert rep.holds and rep.dim_a == 1


def test_gw_equals_shift_containment(space_2zw):
    # the d = 0 case is exactly z E1(n-1, m) inside E1(n, m)
    ze1 = space_2zw.e1_basis(0, 1).shifted(1, 0)
    e1big = space_2zw.e1_basis(1, 1)
    assert containment_defect(space_2zw, ze1, e1big) < 1e-8


def test_report_json(space_2zw):
    rep = check_matrix_condition(build_operators(space_2zw))
    doc = rep.to_json()
    assert doc["holds"] is True
    assert set(doc) == {"holds", "max_violation", "dimA", "dimB",
                        "d_min", "d_max"}


def _face_zero_message(p):
    """The face check one z-slice at a time, with np.roots per slice."""
    pt = p.trimmed()
    m = pt.deg[1]
    zs = np.exp(2j * np.pi * (np.arange(FACE_SAMPLES) + 0.31) / FACE_SAMPLES)
    for z0 in zs:
        wcoef = pt.w_poly_at(z0)
        if m == 0 or np.max(np.abs(wcoef[1:])) < 1e-13 * np.max(np.abs(wcoef)):
            if abs(wcoef[0]) < 1e-10:
                return f"p({z0}, w) vanishes identically in w"
            continue
        rts = np.roots(wcoef[::-1])
        if rts.size and np.min(np.abs(rts)) <= 1.0 + FACE_MARGIN:
            return f"w-root of modulus {np.min(np.abs(rts)):.6f} at z = {z0}"
    return None


def test_face_check_matches_slice_loop():
    z3 = np.exp(2j * np.pi * 3.31 / FACE_SAMPLES)
    polys = [BiPoly([[1, 2]]),                       # root w = -1/2
             BiPoly([[-z3], [1]]),                   # z - z3, flat slices
             BiPoly([[3, 1], [-3 / z3, -1 / z3]]),   # (1 - z/z3)(3 + w)
             BiPoly([[2, 1.5j], [0, 1]]),            # a face arc around z = i
             BiPoly([[3, 1], [1, 0]])]               # zero-free on the face
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c[0, 0] = 4.0                                # some raise, some pass
        polys.append(BiPoly(c))
    for p in polys:
        want = _face_zero_message(p)
        if want is None:
            assert_no_face_zeros(p)
        else:
            with pytest.raises(RootNearTorus) as err:
                assert_no_face_zeros(p)
            assert str(err.value) == want
