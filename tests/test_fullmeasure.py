import numpy as np
import pytest

from bszego import (DegenerateForm, InsufficientMoments, MomentTable,
                    check_full_measure, moments_from_density, reconstruct_p,
                    strip_match)

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
    assert check_full_measure(table_perturb_8_8, 8, 8).verdict == "pass"


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
