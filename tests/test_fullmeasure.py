import numpy as np
import pytest

from bszego import (BiPoly, DegenerateForm, InsufficientMoments,
                    MatrixConditionFails, MomentSpace, MomentTable, NoConvergence,
                    check_full_measure, moments_from_density, reconstruct_p,
                    strip_match)
from bszego import fullmeasure
from bszego.fullmeasure import _nested_inverse_max
from bszego.moments import POSITIVE_TOL, gram, is_positive
from bszego.space import TRI_BLOCK

from bszego.jsonio import table_to_json

from conftest import cli_document, geometric_diag_moment, rect


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
    assert max(rep.e2_conditions.values(), default=0.0) == 0.0
    assert max(rep.h_conditions.values(), default=0.0) == 0.0


def test_bs_density_passes(p_2zw):
    table = moments_from_density(p_2zw, 5, 4)
    rep = check_full_measure(table, 1, 1)
    assert rep.verdict == "pass"
    assert max(rep.e2_conditions.values(), default=0.0) < 1e-7
    assert max(rep.h_conditions.values(), default=0.0) < 1e-7
    assert rep.depth == (4, 4)


def test_mixed_density_fails():
    rep = check_full_measure(mixed_table(5, 4), 1, 1)
    assert rep.verdict == "fail"
    assert max(rep.e2_conditions.values(), default=0.0) > 1e-3 \
        or max(rep.h_conditions.values(), default=0.0) > 1e-3


def test_degenerate_gives_fail():
    t = MomentTable(5, 4, np.zeros((11, 9), dtype=complex))
    rep = check_full_measure(t, 1, 1)
    assert rep.verdict == "fail"
    assert not rep.positivity_ok


def test_insufficient_window():
    with pytest.raises(InsufficientMoments, match="below required"):
        check_full_measure(lebesgue(2, 2), 1, 1)
    # the default depth (4, 4) needs kmax 4 of a window wide enough in j
    with pytest.raises(InsufficientMoments, match=r"\(5, 3\) below required \(5, 4\)"):
        check_full_measure(lebesgue(5, 3), 1, 1)
    for depth in ((0, 3), (3, 0)):
        with pytest.raises(InsufficientMoments, match="depth below the degree bound"):
            check_full_measure(lebesgue(4, 3), 1, 1, *depth)


def test_strip_match_bs(p_2zw):
    table = moments_from_density(p_2zw, 4, 1)
    p = strip_match(table, 1, 1)
    assert np.allclose(p.coeffs, p_2zw.coeffs, atol=1e-8)


def test_strip_match_checks_the_strip_it_reconstructs(monkeypatch, p_2zw):
    # a reconstruction 0.1 % too large: its moments miss the strip by 0.2 %
    # of c00.  Moving the table's strip moments instead trips the gamma
    # conditions first, so the reconstruction is what is made wrong
    reconstruct = fullmeasure.reconstruct_p
    monkeypatch.setattr(fullmeasure, "reconstruct_p",
                        lambda table, n, m: reconstruct(table, n, m) * 1.001)
    with pytest.raises(NoConvergence, match="strip moments mismatch by 1.997e-03 of c00"):
        strip_match(moments_from_density(p_2zw, 4, 1), 1, 1)


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


def test_report_json(tmp_path):
    report = check_full_measure(lebesgue(4, 3), 0, 0, 2, 2)
    code, doc = cli_document(tmp_path, "full", "--moments", table_to_json(lebesgue(4, 3)),
                             "--n", "0", "--m", "0", "--depth", "2,2")
    assert code == 0
    assert doc["verdict"] == report.verdict == "pass"
    assert doc["depth"] == list(report.depth) == [2, 2]


def dense_conditions(table, n, m, Nmax, Mmax):
    """gamma / xi maxima with one dense inverse per window."""
    def worst(j1, k1, rows, cols):
        pos = {u: i for i, u in enumerate(rect(0, j1, 0, k1))}
        inv = np.linalg.inv(gram(table, j1, k1))
        return float(np.max(np.abs(
            inv[np.ix_([pos[u] for u in rows], [pos[u] for u in cols])])))

    e2 = {(N, M): worst(N + 1, M, [(0, k) for k in range(M + 1)],
                        [(N + 1, k) for k in range(M + 1)])
          for N in range(n, Nmax + 1) for M in range(max(m - 1, 0), Mmax + 1)}
    h = {M: worst(2 * n, M, [(j, M) for j in range(2 * n + 1)], [(n, 0)])
         for M in range(m + 1, Mmax + 1)}
    return e2, h


def test_nested_windows_match_dense_inverses():
    # block sizes 1, 3 and 5, and an empty family (first == T, as full
    # builds for its xi windows when Mmax == m), against one dense inverse
    # per window t >= first
    rng = np.random.default_rng(7)
    for size, T, first, cols in ((1, 7, 2, [0]), (3, 4, 1, [0, 2]),
                                 (5, 3, 0, [1, 2, 4]), (3, 2, 2, [1])):
        a = rng.normal(size=(size * T,) * 2) + 1j * rng.normal(size=(size * T,) * 2)
        G = a @ a.conj().T + 0.1 * np.eye(size * T)
        got = _nested_inverse_max(G, size, first, cols, "a test matrix")
        ref = [np.max(np.abs(np.linalg.inv(G[:w, :w])[w - size:, cols]))
               for w in range(size * (first + 1), size * T + 1, size)]
        assert len(got) == len(ref) == T - first
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-12 * r


def test_conditions_match_dense_windows(table_perturb_8_8, p_2zw):
    # (1 - 2z)(2 - zw) and the mixture fail, with gamma entries up to 4
    # and 0.07; the perturbation passes.  (2 - zw)(3 - w) at (1, 2) has xi
    # windows of 3 rows in 6 blocks, so the w-major gather is checked with
    # a block size other than the block count
    cases = [(table_perturb_8_8, 8, 8),
             (moments_from_density(BiPoly([[1], [-2.0]]) * p_2zw, 6, 5), 1, 1),
             (mixed_table(5, 4), 1, 1),
             (moments_from_density(p_2zw * BiPoly([[3.0, -1]]), 5, 5), 1, 2)]
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


@pytest.fixture(scope="module")
def scale_tables():
    """The (8, 5) table of a seeded 1 + e of degree (2, 2), sum |e| = 0.4,
    and the (4, 1) table of 0.5 / |2 - zw|^2 + 0.5 / |2 - z|^2."""
    rng = np.random.default_rng(1)
    e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = 0.4 * e / np.sum(np.abs(e))
    a[0, 0] += 1.0
    mix = sum(0.5 * moments_from_density(BiPoly(q), 4, 1).c
              for q in ([[2.0, 0.0], [0.0, -1.0]], [[2.0], [-1.0]]))
    return moments_from_density(BiPoly(a), 8, 5), MomentTable(4, 1, mix)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e9, 1e12])
def test_verdicts_do_not_depend_on_the_scale(scale_tables, scale):
    # gamma and xi scale as 1 / c00 and the strip gap as c00, so each is
    # compared times or over c00 with one floor
    bs, mix = scale_tables
    table = MomentTable(8, 5, scale * bs.c)
    assert strip_match(table, 2, 2).trimmed().deg == (2, 2)
    assert check_full_measure(table, 2, 2).verdict == "pass"
    with pytest.raises(MatrixConditionFails):
        strip_match(MomentTable(4, 1, scale * mix.c), 1, 1)


def test_full_is_inconclusive_below_the_positivity_floor(tmp_path):
    # a point mass at z = w = 1 plus eps times Lebesgue has moments
    # c = 1 + eps [j = k = 0], so full's window [0, 5] x [0, 4] at (1, 1)
    # has the Gram J + eps I, with eigenvalue ratio eps / (30 + eps)
    for ratio in (5e-13, 2e-12):
        c = np.ones((11, 9), dtype=complex)
        c[5, 4] += 30 * ratio / (1 - ratio)
        table = MomentTable(5, 4, c)
        positive, _ = is_positive(table, 5, 4)
        assert positive == (ratio > POSITIVE_TOL)
        code, doc = cli_document(tmp_path, "full", "--moments", table_to_json(table),
                                 "--n", "1", "--m", "1")
        assert doc["positivity_ok"] is True
        assert (code, doc["verdict"]) == ((1, "fail") if positive else (3, "inconclusive"))
