import numpy as np
import pytest

from bszego import (BiPoly, DegenerateForm, InsufficientMoments,
                    MatrixConditionFails, MomentSpace, MomentTable, NoConvergence,
                    check_full_measure, moments_from_density, reconstruct_p,
                    strip_match)
from bszego import fullmeasure
from bszego.fullmeasure import _nested_inverse_max, _units
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


def dense_worst(table, j1, k1, rows, cols):
    """Largest |entry| at monomial rows and columns of the inverse of the
    Gram of [0, j1] x [0, k1], inverted densely."""
    pos = {u: i for i, u in enumerate(rect(0, j1, 0, k1))}
    inv = np.linalg.inv(gram(table, j1, k1))
    return float(np.max(np.abs(
        inv[np.ix_([pos[u] for u in rows], [pos[u] for u in cols])])))


def dense_gamma(table, N, M):
    """The gamma maximum of the window [0, N+1] x [0, M], inverted densely."""
    return dense_worst(table, N + 1, M, [(0, k) for k in range(M + 1)],
                       [(N + 1, k) for k in range(M + 1)])


def dense_conditions(table, n, m, Nmax, Mmax):
    """gamma / xi maxima with one dense inverse per window."""
    e2 = {(N, M): dense_gamma(table, N, M)
          for N in range(n, Nmax + 1) for M in range(max(m - 1, 0), Mmax + 1)}
    h = {M: dense_worst(table, 2 * n, M, [(j, M) for j in range(2 * n + 1)], [(n, 0)])
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
        got = _nested_inverse_max(G, size, first, _units(len(G), cols), "a test matrix")
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


def generic_table(jmax, kmax):
    """Half 1/|p|^2 plus half 1/|q|^2 for two seeded 1 + e of degree (2, 2),
    sum |e| = 0.5: not of Bernstein-Szego type, and no gamma maximum
    tested below vanishes (they lie between 4.7e-5 and 4.9e-2, c00 1.1)."""
    rng = np.random.default_rng(5)
    c = 0.0
    for _ in range(2):
        e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = 0.5 * e / np.sum(np.abs(e))
        a[0, 0] += 1.0
        c = c + 0.5 * moments_from_density(BiPoly(a), jmax, kmax).c
    return MomentTable(jmax, kmax, c)


@pytest.mark.parametrize("n, m", [(3, 1), (1, 3), (2, 2), (2, 0)])
def test_every_gamma_window_of_every_family_matches_its_dense_inverse(n, m):
    # every family M = m-1..Mmax of the one shared factor, at the shallowest
    # depth (Nmax = n: one window per family, the Schur complement of one
    # z-block) and deeper, with no family beyond m (Mmax = m) and with five
    table = generic_table(6, 8)
    for depth in ((n, m), (n, m + 5), (n + 2, m), (n + 2, m + 5)):
        rep = check_full_measure(table, n, m, *depth)
        e2, h = dense_conditions(table, n, m, *depth)
        assert list(rep.e2_conditions) == list(e2)
        assert list(rep.h_conditions) == list(h)
        for ref, got in ((e2, rep.e2_conditions), (h, rep.h_conditions)):
            for key, value in ref.items():
                assert abs(got[key] - value) <= 1e-12 * max(1.0, value)


@pytest.mark.parametrize("n, m, jmax", [(1, 1, 4), (2, 0, 4), (1, 2, 3)])
def test_strip_match_families_match_dense_inverses(monkeypatch, n, m, jmax):
    # strip_match reads the families M = m-1 and m down to N = jmax - 1 (M =
    # 0 alone for m = 0) from the one factor, and then fails on them
    seen = []
    families = fullmeasure._gamma_families

    def spy(*args):
        seen.append((args, families(*args)))
        return seen[-1][1]

    monkeypatch.setattr(fullmeasure, "_gamma_families", spy)
    table = generic_table(jmax, m)
    with pytest.raises(MatrixConditionFails, match="strip condition fails"):
        strip_match(table, n, m)
    [((_, *args), got)] = seen
    Ms = [M for M in (m - 1, m) if M >= 0]
    assert args == [n, jmax - 1, Ms]
    assert list(got) == Ms
    for M in Ms:
        ref = [dense_gamma(table, N, M) for N in range(n, jmax)]
        assert len(got[M]) == len(ref)
        for g, r in zip(got[M], ref):
            assert abs(g - r) <= 1e-12 * max(1.0, r)


def test_one_factor_for_every_gamma_family(monkeypatch, table_perturb_8_8):
    # check_full_measure at (8, 8), depth (11, 11): the gamma families M = 7..11
    # take one factor of [0, 12] x [0, 11] (156 rows) and five of their Schur
    # complements, 4 (M + 1) rows each; the xi family one of [0, 16] x [0, 11]
    sizes = []
    cholesky = np.linalg.cholesky

    def spy(a):
        sizes.append(len(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    assert check_full_measure(table_perturb_8_8, 8, 8).verdict == "pass"
    assert sizes == [156, 32, 36, 40, 44, 48, 204]


def test_the_one_factor_names_the_whole_rectangle_when_it_fails():
    # Lebesgue in z times a point mass at w = 1: c_{0,k} = 1 for every k and
    # every other moment 0.  The window [0, 3] x [0, 0] of family M = 0 has
    # the identity as its Gram, but the rectangle [0, 3] x [0, 1] that the
    # one factor covers repeats each monomial z^j in z^j w, so no family is
    # reached
    c = np.zeros((7, 3))
    c[3] = 1.0
    with pytest.raises(DegenerateForm,
                       match=r"Gram windows \[0, 3\] x \[0, 1\] not positive definite"):
        strip_match(MomentTable(3, 1, c), 1, 1)


def zw_table(alphas, jmax, kmax):
    """The moments of 1 / prod |alpha - zw|^2, from the density of zw alone:
    c_{j,k} = 0 off j = k, and c_{j,j} is the j-th Fourier coefficient of 1 /
    prod |alpha - e^(i theta)|^2, by a 2^14-point FFT (aliasing below
    min(alpha)^-16384)."""
    e = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
    a = np.fft.fft(1.0 / np.prod([np.abs(alpha - e) ** 2 for alpha in alphas], axis=0))
    c = np.zeros((2 * jmax + 1, 2 * kmax + 1), dtype=complex)
    for j in range(-min(jmax, kmax), min(jmax, kmax) + 1):
        c[jmax + j, kmax + j] = a[j].real / len(e)
    return MomentTable(jmax, kmax, c)


def test_gamma_entries_are_as_accurate_as_dense_inverses():
    # on the table of (1.02 - zw)(1.04 - zw)(1.06 - zw) at (3, 3), depth (4, 4)
    # (cond 5.2e8 over [0, 5] x [0, 4]), every gamma maximum of the Schur
    # complement route is within 10 times as close to its 40-digit value
    # (the same float64 table, inverted in mpmath) as float64 np.linalg.inv
    # of each window is: 6.2e-9 against 2.4e-9 when this test was written,
    # the per-family z-major factors it replaced 6.2e-9 too
    mpmath = pytest.importorskip("mpmath")
    table = zw_table([1.02, 1.04, 1.06], 5, 4)
    assert np.linalg.cond(gram(table, 5, 4)) >= 1e8
    got = fullmeasure._gamma_families(table, 3, 4, range(2, 5))
    ours, dense = [], []
    for M, worst in got.items():
        for N, value in zip(range(3, 5), worst):
            G = gram(table, N + 1, M)
            with mpmath.workdps(40):
                inv = mpmath.inverse(mpmath.matrix(G.tolist()))
                exact = float(max(abs(inv[i, k]) for i in range((N + 1) * (M + 1), len(G))
                                  for k in range(M + 1)))
            ours.append(abs(value - exact))
            dense.append(abs(dense_gamma(table, N, M) - exact))
    assert max(ours) <= 10 * max(dense)


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
