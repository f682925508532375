import numpy as np
import pytest

from bszego import (BiPoly, MomentTable, NotPositive, moments_from_density,
                    solve_ar)

from bszego.jsonio import table_to_json
from bszego.moments import _real_form, gram

from conftest import cli_document, max_modulus_gap


def test_causal_product_filter(p_2zw):
    table = moments_from_density(p_2zw, 1, 1)
    sol = solve_ar(table, 1, 1)
    assert sol.classification == "causal"
    # coefficients follow the (2, -1) pattern exactly (unit noise variance)
    assert np.allclose(sol.coefficients.coeffs, [[2, 0], [0, -1]], atol=1e-8)


@pytest.mark.parametrize("alphas, n", [((2.0,), 2), (np.linspace(1.2, 2, 8), 8)])
def test_ar_takes_its_least_eigenvalue_once(monkeypatch, alphas, n):
    # prod (alpha - zw): at (2, 2) the gate's Cholesky certificate decides
    # and solve_ar takes the eigenvalue itself; at (8, 8), Gram condition
    # 1.5e10, the certificate fails and the gate's eigvalsh is the one kept
    p = BiPoly([[1.0]])
    for alpha in alphas:
        p = p * BiPoly([[alpha, 0], [0, -1.0]])
    table = moments_from_density(p, n, n)
    eigvalsh, sizes = np.linalg.eigvalsh, []

    def spy(a):
        sizes.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    sol = solve_ar(table, n, n)
    monkeypatch.undo()
    assert sizes == [(n + 1) ** 2]
    assert sol.min_eigenvalue == np.linalg.eigvalsh(_real_form(gram(table, n, n)))[0]


def test_one_space_per_solve(p_2zw, monkeypatch):
    # the reconstruction reuses the space the matrix condition was tested on
    from bszego.space import MomentSpace
    init, builds = MomentSpace.__init__, []

    def spy(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MomentSpace, "__init__", spy)
    sol = solve_ar(moments_from_density(p_2zw, 1, 1), 1, 1)
    assert sol.classification == "causal"
    assert len(builds) == 1


def test_acausal_forced():
    # z - w/2 admits no causal solution: the disk root of p(z, 0) cannot
    # be flipped away (no z-only factor)
    p = BiPoly([[0, -0.5], [1, 0]])
    table = moments_from_density(p, 1, 1)
    sol = solve_ar(table, 1, 1)
    assert sol.classification == "acausal"
    assert sol.a_operator_norm > 1e-4
    assert max_modulus_gap(sol.coefficients, p * (1 / _norm(table, p))) < 1e-7


def _norm(table, p):
    from bszego import MomentSpace
    return MomentSpace(table, *p.deg).norm(p)


def test_none_classification():
    from bszego import moments_from_grid_function

    def dens(zz, ww):
        return 0.5 / np.abs(2.0 - zz * ww) ** 2 + 0.5 / np.abs(2.0 - zz) ** 2

    table = moments_from_grid_function(dens, 2, 1)
    sol = solve_ar(table, 2, 1)
    assert sol.classification == "none"
    assert sol.coefficients is None


def test_not_positive():
    c = np.zeros((3, 3), dtype=complex)
    with pytest.raises(NotPositive):
        solve_ar(MomentTable(1, 1, c), 1, 1)


def test_scale_invariance(p_2zw):
    table = moments_from_density(p_2zw, 1, 1)
    base = solve_ar(table, 1, 1).classification
    pA = BiPoly([[0, -0.5], [1, 0]])
    tableA = moments_from_density(pA, 1, 1)
    baseA = solve_ar(tableA, 1, 1).classification
    for s in (1e-3, 1e3):
        sol = solve_ar(MomentTable(1, 1, table.c * s), 1, 1)
        assert sol.classification == base
        solA = solve_ar(MomentTable(1, 1, tableA.c * s), 1, 1)
        assert solA.classification == baseA


@pytest.mark.parametrize("coeffs", [[[2.0], [-1.0]], [[2.0, -1.0]]],
                         ids=["2-z at (1,0)", "2-w at (0,1)"])
def test_degenerate_caps(coeffs, tmp_path):
    # at m = 0 the A operator is 0 x n, and at n = 0 the B operator is
    # 0 x m: the matrix condition holds with nothing to test, and the filter
    # is causal with an A norm of 0
    p = BiPoly(coeffs)
    nm = ["--n", str(p.deg[0]), "--m", str(p.deg[1])]
    doc = table_to_json(moments_from_density(p, *p.deg))
    code, out = cli_document(tmp_path, "check", "--moments", doc, *nm)
    assert code == 0 and out["holds"] and (out["dimA"], out["dimB"]) == (0, 0)
    code, out = cli_document(tmp_path, "ar", "--autocorr", doc, *nm)
    assert code == 0 and out["classification"] == "causal"
    assert out["diagnostics"]["a_operator_norm"] == 0.0
    a = np.array(out["a"]["coeffs"])
    assert np.allclose(a[..., 0] + 1j * a[..., 1], coeffs, atol=1e-8)


def test_solution_json(p_2zw, tmp_path):
    table = moments_from_density(p_2zw, 1, 1)
    sol = solve_ar(table, 1, 1)
    code, doc = cli_document(tmp_path, "ar", "--autocorr", table_to_json(table),
                             "--n", "1", "--m", "1")
    assert code == 0
    assert doc["classification"] == sol.classification == "causal"
    assert doc["a"]["deg"] == [1, 1]
    assert doc["diagnostics"]["a_operator_norm"] == sol.a_operator_norm
    assert doc["diagnostics"]["min_eigenvalue"] == sol.min_eigenvalue
