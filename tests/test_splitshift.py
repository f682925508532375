import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from bszego import (BiPoly, DegenerateForm, DNotAdmissible, InvalidDegree,
                    MatrixConditionFails, MomentDivergence, MomentSpace,
                    RootNearTorus, SubspaceBasis, TrigPoly, build_detrep,
                    build_operators, certificate_closed_face,
                    check_matrix_condition, enumerate_split_polys,
                    factor_trig, gw_check, moments_from_density,
                    moments_from_grid_function, reconstruct_p,
                    shift_split_from_p, solve_ar, split_poly_from_condition)
from bszego import splitshift
from bszego.poly import (FACE_MARGIN, FACE_SAMPLES, _assert_no_face_zeros,
                         _canonical_phase)
from bszego.splitshift import ShiftSplit

from bszego.jsonio import table_to_json

from conftest import (cli_document, containment_defect, gram_from_table,
                      gram_schmidt_coeffs, max_modulus_gap, random_corpus_poly,
                      subspace_angle)


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


@pytest.mark.parametrize("n", [4, 8, 16])
def test_operators_from_bases_built_and_embedded_once(n):
    # E2 and F2 share one pair of triangular solves and every basis is
    # embedded once: T is bit for bit the per-kind construction (each basis
    # alone on a fresh space, then space.cross), A and B equal it up to
    # round-off, and the memoised E2 and F2 are the bases the operators used
    rng = np.random.default_rng(40 + n)
    e = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    e[0, 0] = 0.0
    e *= 0.5 / np.sum(np.abs(e))
    e[0, 0] = 1.0
    table = moments_from_density(BiPoly(e), n, n)
    sp = MomentSpace(table, n, n)
    ops = build_operators(sp)
    ref = MomentSpace(table, n, n)
    e1 = ref.basis("E1", n - 1, n)
    edges = np.arange((n + 1) * n).reshape(n + 1, n)
    e2, = ref._complement(n, n - 1, edges[0])
    f2, = ref._complement(n, n - 1, edges[n])
    ze1 = e1.shifted(1, 0)
    assert np.array_equal(ops.t_mat, ref.cross(ze1, e1).T)
    assert np.max(np.abs(ops.a_mat - ref.cross(ze1, e2.shifted(0, 1)).T)) <= 1e-13
    assert np.max(np.abs(ops.b_mat - ref.cross(f2.shifted(0, 1), e1).T)) <= 1e-13
    e2, f2 = (sp.basis(kind, n, n - 1).shifted(0, 1) for kind in ("E2", "F2"))
    assert np.array_equal(ops.a_mat, sp.cross(ops.e1.shifted(1, 0), e2).T)
    assert np.array_equal(ops.b_mat, sp.cross(f2, ops.e1).T)


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


@pytest.mark.parametrize("n, m", [(3, 0), (0, 3)])
def test_operators_on_a_one_variable_space(n, m):
    # E1(-1, m) and E2(n, -1) are empty grids; the operators keep the shapes
    p = BiPoly([[2.0, 0.5], [0.3, -1.0]])
    sp = MomentSpace(moments_from_density(p, max(n, 1), max(m, 1)), n, m)
    ops = build_operators(sp)
    assert ops.a_mat.shape == (m, n)
    assert ops.b_mat.shape == (n, m)
    assert ops.t_mat.shape == (n, n)
    assert ops.e1.coeffs.shape == (n, m + 1, n)


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


def test_krylov_spans_computed_once_per_operators(monkeypatch):
    # (2 - z)(2 - zw) at (2, 1): the report, the minimal split and the
    # middle spectrum all read the same two spans
    p = BiPoly([[2.0], [-1.0]]) * BiPoly([[2.0, 0.0], [0.0, -1.0]])
    space = MomentSpace(moments_from_density(p, 2, 1), 2, 1)
    calls = []
    krylov = splitshift._krylov_span
    monkeypatch.setattr(splitshift, "_krylov_span",
                        lambda *a: calls.append(1) or krylov(*a))
    ops = build_operators(space)
    report = check_matrix_condition(ops)
    splitshift._split_from_k1(ops, ops.invariant_spaces[0]).split_poly
    a, _, _, clusters = splitshift._middle_spectrum(ops)
    assert len(calls) == 2
    assert (report.d_min, report.d_max, a.shape[1]) == (0, 1, 0)
    assert [k for _, k in clusters] == [1]
    assert not a.flags.writeable


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
    assert subspace_angle(space_2zw, split.k2, space_2zw.basis("E1", 0, 1)) < 1e-10
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
        e1big = sp.basis("E1", n, m)
        assert containment_defect(sp, split.k1, e1big) < 1e-8
        assert containment_defect(sp, split.k2.shifted(1, 0), e1big) < 1e-8


def test_split_poly_is_unit_norm_and_phase_canonical():
    # the split-poly of shift_split_from_p follows the rule of the operator
    # route: unit norm under the form and canonical phase
    rng = np.random.default_rng(11)
    for _ in range(8):
        p = random_corpus_poly(rng, allow_unstable_q=True)
        n, m = p.deg
        sp = MomentSpace(moments_from_density(p, n, m), n, m)
        q = shift_split_from_p(sp, p).split_poly
        assert abs(sp.norm(q) - 1.0) <= 1e-12
        gap = _canonical_phase(q).coeffs - q.coeffs
        assert np.max(np.abs(gap)) <= 1e-15 * np.max(np.abs(q.coeffs))


def test_split_poly_built_only_where_read(monkeypatch):
    # basis("E1", n, m) at a space's caps (n, m) is read by the split-poly
    # alone: a certificate and a pencil build no moment space, while a
    # reconstruction and an AR filter need the polynomial once
    reads = []
    basis = MomentSpace.basis

    def counted(self, kind, k, l):
        reads.append((kind, k, l) == ("E1", self.nmax, self.mmax))
        return basis(self, kind, k, l)

    monkeypatch.setattr(MomentSpace, "basis", counted)
    p = BiPoly([[2.0], [-1.0]]) * BiPoly([[2.0, 0.0], [0.0, -1.0]])
    table = moments_from_density(p, 2, 1)
    for call, built in ((lambda: certificate_closed_face(p), 0),
                        (lambda: build_detrep(BiPoly([[0, -1], [1, 0]])), 0),
                        (lambda: reconstruct_p(table, 2, 1), 1),
                        (lambda: solve_ar(table, 2, 1), 1)):
        reads.clear()
        call()
        assert sum(reads) == built


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


def test_split_checks_its_disk_root_count(monkeypatch, space_2zw):
    # a split-poly whose z-slice counts one disk root too many is refused
    real = splitshift.split_stable

    def one_too_many(u):
        split = real(u)
        return replace(split, beta=split.beta + 1)

    monkeypatch.setattr(splitshift, "split_stable", one_too_many)
    with pytest.raises(DegenerateForm,
                       match="constructed split-poly has 1 disk roots, wanted 0"):
        split_poly_from_condition(space_2zw, 0)


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
    k2 = SubspaceBasis(np.ones((1, 1, 1)))
    with pytest.raises(DegenerateForm):
        ShiftSplit(sp, k2.shifted(1, 0), k2).split_poly


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
    # at caps (1, 0) F2(1, -1) is empty, and at (0, 1) F1(-1, 1), so
    # nothing can fail to be orthogonal
    assert gw_check(MomentSpace(lebesgue_table, 1, 0))
    assert gw_check(MomentSpace(lebesgue_table, 0, 1))
    # forced-unstable input: z - w/2 has no z-only factor and a disk root
    pf = BiPoly([[0, -0.5], [1, 0]])
    table = moments_from_density(pf, 1, 1)
    spf = MomentSpace(table, 1, 1)
    assert not gw_check(spf)
    rep = check_matrix_condition(build_operators(spf))
    assert rep.holds and rep.dim_a == 1
    # so no split-poly has fewer than d_min = dim A = 1 disk roots
    with pytest.raises(DNotAdmissible, match=r"d = 0 outside admissible \[1, "):
        split_poly_from_condition(spf, 0)


def test_gw_equals_shift_containment(space_2zw):
    # the d = 0 case is exactly z E1(n-1, m) inside E1(n, m)
    ze1 = space_2zw.basis("E1", 0, 1).shifted(1, 0)
    e1big = space_2zw.basis("E1", 1, 1)
    assert containment_defect(space_2zw, ze1, e1big) < 1e-8


def test_report_json(space_2zw, table_2zw, tmp_path):
    rep = check_matrix_condition(build_operators(space_2zw))
    code, doc = cli_document(tmp_path, "check", "--moments",
                             table_to_json(table_2zw.window(1, 1)), "--n", "1", "--m", "1")
    assert code == 0
    assert doc["holds"] is rep.holds is True
    assert set(doc) == {"holds", "max_violation", "dimA", "dimB",
                        "d_min", "d_max"}
    assert doc["max_violation"] == rep.max_violation


def _face_zero_message(p):
    """The face check one z-slice at a time, with np.roots per slice."""
    pt = p.trimmed()
    zs = np.exp(2j * np.pi * (np.arange(FACE_SAMPLES) + 0.31) / FACE_SAMPLES)
    for z0 in zs:
        wcoef = pt.w_poly_at(z0)
        if np.max(np.abs(wcoef)) <= 1e-10 * np.max(np.abs(pt.coeffs)):
            return f"p({z0}, w) vanishes identically in w"
        rts = np.roots(wcoef[::-1])
        if rts.size and np.min(np.abs(rts)) <= 1.0 + FACE_MARGIN:
            return f"w-root of modulus {np.min(np.abs(rts)):.6f} at z = {z0}"
    return None


def _assert_face_message(p, want):
    if want is None:
        _assert_no_face_zeros(p)
    else:
        with pytest.raises(RootNearTorus) as err:
            _assert_no_face_zeros(p)
        assert str(err.value) == want


def test_face_check_matches_slice_loop():
    z3 = np.exp(2j * np.pi * 3.31 / FACE_SAMPLES)
    polys = [BiPoly([[1, 2]]),                       # root w = -1/2
             BiPoly([[-z3], [1]]),                   # z - z3, flat slices
             BiPoly([[3, 1], [-3 / z3, -1 / z3]]),   # (1 - z/z3)(3 + w)
             BiPoly([[2, 1.5j], [0, 1]]),            # a face arc around z = i
             BiPoly([[3, 1], [1, 0]]),               # zero-free on the face
             # (z - z3) w^2 + w + 1/2 + 20 (z - z3): the w^2 term is exactly
             # 0 at z3, whose slice w + 1/2 has its root at -1/2
             BiPoly([[0.5 - 20 * z3, 1, -z3], [20, 0, 1]])]
    assert _face_zero_message(polys[-1]) == f"w-root of modulus 0.500000 at z = {z3}"
    for p in polys:
        _assert_face_message(p, _face_zero_message(p))
    # seeded draws whose constant term, by degree, makes about half pass
    rng = np.random.default_rng(3)
    for d, lead in ((2, 6.0), (4, 13.0), (8, 27.0), (16, 60.0)):
        passed = 0
        for _ in range(20):
            c = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
            c[0, 0] = lead
            p = BiPoly(c)
            want = _face_zero_message(p)
            passed += want is None
            _assert_face_message(p, want)
        assert 5 <= passed <= 15, (d, passed)


def test_face_check_refuses_slices_that_vanish():
    # (z - z0)(2 - w) and (1 - z/z3)(3 + w) vanish on the face along a
    # sample z of the face check, where every coefficient of their slice is
    # 0 or round-off, which must not decide the slice; the twin of the
    # second with its z-root between two samples passes: the check is sampled
    z0, z3, z3b = (np.exp(2j * np.pi * a / FACE_SAMPLES) for a in (0.31, 3.31, 3.81))
    for p, z in ((BiPoly([[-z0], [1]]) * BiPoly([[2, -1]]), z0),
                 (BiPoly([[3, 1], [-3 / z3, -1 / z3]]), z3)):
        with pytest.raises(RootNearTorus,
                           match=re.escape(f"p({z}, w) vanishes identically in w")):
            _assert_no_face_zeros(p)
    _assert_no_face_zeros(BiPoly([[3, 1], [-3 / z3b, -1 / z3b]]))


def test_split_from_p_refuses_a_degree_above_the_caps(space_2zw):
    # 2 - z w^2 has degree (1, 2) and 2 - z^2 w degree (2, 1), each above
    # the caps (1, 1)
    for coeffs in ([[2, 0, 0], [0, 0, -1]], [[2, 0], [0, 0], [0, -1]]):
        with pytest.raises(InvalidDegree, match="polynomial degree exceeds the space caps"):
            shift_split_from_p(space_2zw, BiPoly(coeffs))


def test_flat_slice_floor_is_relative():
    # a slice vanishes relative to p's largest coefficient, so
    # |2 - z|^2 factors at every scale down to 1e-24 (at 1e-26 the kernel
    # check refuses it, tests/test_bound_checks.py)
    z3 = np.exp(2j * np.pi * 3.31 / FACE_SAMPLES)
    for s in (1.0, 1e-18, 1e-22, 1e-24):
        _assert_no_face_zeros(BiPoly(s * np.array([[2.0], [-1.0]])))
        with pytest.raises(RootNearTorus, match="vanishes identically"):
            _assert_no_face_zeros(BiPoly(s * np.array([[-z3], [1.0]])))
        p = factor_trig(TrigPoly(1, 0, s * np.array([[-2.0], [5.0], [-2.0]])), 1, 0)
        want = np.sqrt(s) * np.array([[2.0], [-1.0]])
        assert np.max(np.abs(p.coeffs - want)) <= 1e-12 * np.sqrt(s)


def _mp_face_message(p, zs):
    """The face check's verdict from the 50-digit roots of each slice."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        rho = 1 + mpmath.mpf(FACE_MARGIN)
        for z0, wcoef in zip(zs, p.w_poly_at(zs).T):
            low = min(abs(r) for r in mpmath.polyroots(
                [mpmath.mpc(c) for c in wcoef[::-1]], maxsteps=200, extraprec=100))
            if low <= rho:
                return f"w-root of modulus {float(low):.6f} at z = {z0}"
    return None


def test_face_verdict_at_the_margin_matches_mpmath():
    # half the roots (at least one) at modulus 1 + FACE_MARGIN (1 + 0.1),
    # one of them moved to 1 + FACE_MARGIN (1 - 0.1) in the failing case,
    # the rest at moduli in [1.5, 3]; judged on the rounded coefficients
    zs = np.exp(2j * np.pi * (np.arange(FACE_SAMPLES) + 0.31) / FACE_SAMPLES)
    rng = np.random.default_rng(7)
    for m in (1, 2, 4, 8, 16):
        for inside in (False, True):
            near = max(1, m // 2)
            mods = np.r_[np.full(near, 1 + 1.1 * FACE_MARGIN),
                         rng.uniform(1.5, 3.0, m - near)]
            if inside:
                mods[rng.integers(near)] = 1 + 0.9 * FACE_MARGIN
            rts = mods * np.exp(2j * np.pi * rng.uniform(size=m))
            lead = rng.normal() + 1j * rng.normal()
            # p(w) alone: its 64 slices are bitwise equal, so one is judged
            p = BiPoly(lead * np.poly(rts)[None, ::-1])
            assert (p.w_poly_at(zs) == p.w_poly_at(zs[:1])).all()
            want = _mp_face_message(p, zs[:1])
            assert (want is not None) == inside
            _assert_face_message(p, want)
            if m == 2:
                # (w - r_0 z)(w - r_1): every slice judged on its own
                p = BiPoly([[-rts[1], 1]]) * BiPoly([[0, 1], [-rts[0], 0]])
                want = _mp_face_message(p, zs)
                assert (want is not None) == inside
                _assert_face_message(p, want)
