import numpy as np
import pytest

from bszego import (BiPoly, DegenerateForm, InsufficientMoments, MomentSpace,
                    MomentTable, check_full_measure, moments_from_density,
                    reconstruct_p, strip_match)
from bszego.fullmeasure import _nested_inverse_max
from bszego.moments import _rect, gram
from bszego.space import TRI_BLOCK

from conftest import geometric_diag_moment


def lebesgue(jmax, kmax):
    c = np.zeros((2 * jmax + 1, 2 * kmax + 1), dtype=complex)
    c[jmax, kmax] = 1.0
    return MomentTable(jmax, kmax, c)


def mixed_table(jmax, kmax):
    """(Bernstein-Szego for 2 - zw + Lebesgue) / 2, built analytically."""
    c = np.zeros((2 * jmax + 1, 2 * kmax + 1), dtype=complex)
    for j in range(-min(jmax, kmax), min(jmax, kmax) + 1):
        c[j + jmax, j + kmax] = 0.5 * geometric_diag_moment(j, 2.0)
    c[jmax, kmax] += 0.5
    return MomentTable(jmax, kmax, c)


def test_degree_8_8_passes(table_perturb_8_8):
    # the verdict does not depend on the table's scale
    for s in (1.0, 1e-15, 1e15):
        table = MomentTable(16, 11, s * table_perturb_8_8.c)
        assert check_full_measure(table, 8, 8).verdict == "pass"


def test_lebesgue_passes():
    rep = check_full_measure(lebesgue(4, 3), 0, 0, 3, 3)
    assert rep.verdict == "pass"
    assert rep.max_gamma() == 0.0 and rep.max_xi() == 0.0


def test_bs_density_passes(p_2zw):
    table = moments_from_density(p_2zw, 5, 4)
    rep = check_full_measure(table, 1, 1)
    assert rep.verdict == "pass"
    assert rep.max_gamma() < 1e-7 and rep.max_xi() < 1e-7
    assert rep.depth == (4, 4)


def test_mixed_density_fails():
    rep = check_full_measure(mixed_table(5, 4), 1, 1)
    assert rep.verdict == "fail"
    assert max(rep.max_gamma(), rep.max_xi()) > 1e-3


def test_degenerate_gives_fail():
    t = MomentTable(5, 4, np.zeros((11, 9), dtype=complex))
    rep = check_full_measure(t, 1, 1)
    assert rep.verdict == "fail"
    assert not rep.positivity_ok


def test_insufficient_window():
    with pytest.raises(InsufficientMoments):
        check_full_measure(lebesgue(2, 2), 1, 1)


def test_strip_match_bs(p_2zw):
    table = moments_from_density(p_2zw, 4, 1)
    p = strip_match(table, 1, 1)
    assert np.allclose(p.coeffs, p_2zw.coeffs, atol=1e-8)


def test_strip_match_lebesgue():
    p = strip_match(lebesgue(3, 1), 0, 0)
    assert np.allclose(p.coeffs, [[1.0]], atol=1e-10)


def test_strip_match_singular_window():
    # a zero table makes every Gram window singular
    with pytest.raises(DegenerateForm):
        strip_match(MomentTable(3, 1, np.zeros((7, 3))), 1, 1)


def test_strip_match_accepts_strip_consistent_mixture():
    # the rotation-invariant mixture agrees with a Bernstein-Szego
    # measure on the whole strip |k| <= 1 (only deeper w-moments
    # discriminate), so the strip reconstruction must succeed
    p = strip_match(mixed_table(4, 1), 1, 1)
    assert p.trimmed().deg == (1, 1)


def test_strip_match_rejects_directional_mixture():
    from bszego import moments_from_grid_function
    from bszego.errors import BszegoError

    def dens(zz, ww):
        return 0.5 / np.abs(2.0 - zz * ww) ** 2 + 0.5 / np.abs(2.0 - zz) ** 2

    with pytest.raises(BszegoError):
        strip_match(moments_from_grid_function(dens, 4, 1), 1, 1)


def test_window_normalization_stability(p_2zw):
    # reconstructing at caps (1, 1) and (1, 2) gives the same polynomial
    table = moments_from_density(p_2zw, 2, 2)
    a = reconstruct_p(table.window(1, 1), 1, 1)
    b = reconstruct_p(table.window(1, 2), 1, 2)
    bt = b.trimmed()
    assert bt.coeffs.shape == a.coeffs.shape
    assert np.max(np.abs(a.coeffs - bt.coeffs)) < 1e-8


def test_report_json():
    doc = check_full_measure(lebesgue(4, 3), 0, 0, 2, 2).to_json()
    assert doc["verdict"] == "pass"
    assert doc["depth"] == [2, 2]


def dense_conditions(table, n, m, Nmax, Mmax):
    """gamma / xi maxima with one dense inverse per window."""
    def worst(j1, k1, rows, cols):
        sup = _rect(0, j1, 0, k1)
        pos = {u: i for i, u in enumerate(sup)}
        inv = np.linalg.inv(gram(table, sup, sup))
        return float(np.max(np.abs(
            inv[np.ix_([pos[u] for u in rows], [pos[u] for u in cols])])))

    e2 = {(N, M): worst(N + 1, M, [(0, k) for k in range(M + 1)],
                        [(N + 1, k) for k in range(M + 1)])
          for N in range(n, Nmax + 1) for M in range(max(m - 1, 0), Mmax + 1)}
    h = {M: worst(2 * n, M, [(j, M) for j in range(2 * n + 1)], [(n, 0)])
         for M in range(m + 1, Mmax + 1)}
    return e2, h


def test_nested_windows_match_dense_inverses():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    G = a @ a.conj().T + 0.1 * np.eye(12)
    blocks = rng.permutation(12).reshape(4, 3)
    got = _nested_inverse_max(G, blocks, 1, [0, 2], "a test matrix")
    for t in range(1, 4):
        idx = blocks[:t + 1].ravel()
        inv = np.linalg.inv(G[np.ix_(idx, idx)])
        ref = np.max(np.abs(inv[3 * t: 3 * t + 3][:, [0, 2]]))
        assert abs(got[t - 1] - ref) < 1e-12 * ref


def test_conditions_match_dense_windows(table_perturb_8_8, p_2zw):
    # (1 - 2z)(2 - zw) and the mixture fail, with gamma entries up to 4
    # and 0.07; the perturbation passes
    cases = [(table_perturb_8_8, 8, 8),
             (moments_from_density(BiPoly([[1], [-2.0]]) * p_2zw, 6, 5), 1, 1),
             (mixed_table(5, 4), 1, 1)]
    for table, n, m in cases:
        rep = check_full_measure(table, n, m)
        e2, h = dense_conditions(table, n, m, *rep.depth)
        for ref, got in ((e2, rep.e2_conditions), (h, rep.h_conditions)):
            assert list(got) == list(ref)
            scale = max(1.0, max(ref.values(), default=0.0))
            assert max(abs(got[k] - ref[k]) for k in ref) < 1e-12 * scale


def test_no_dense_solve_beyond_one_block(monkeypatch, table_perturb_8_8):
    sizes = []
    solve = np.linalg.solve

    def spy(a, b):
        sizes.append(a.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    assert check_full_measure(table_perturb_8_8, 8, 8).verdict == "pass"
    MomentSpace(table_perturb_8_8, 8, 8).phi_sequence(8, 8)
    assert sizes and max(sizes) <= TRI_BLOCK
