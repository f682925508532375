"""Property tests over random Bernstein-Szego densities 1/|1 + e|^2."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bszego import (BiPoly, MomentSpace, SubspaceBasis, is_positive,
                    moments_from_density)
from bszego.moments import gram

from conftest import rect, structural


@st.composite
def perturbations(draw):
    """p = 1 + e of degree at most (6, 6) with sum |e_jk| <= 0.5."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    size = 2 * (n + 1) * (m + 1)
    e = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size,
                               max_size=size)))
    e = (e[::2] + 1j * e[1::2]).reshape(n + 1, m + 1)
    e[0, 0] = 0.0
    total = float(np.sum(np.abs(e)))
    if total > 0.0:
        e *= draw(st.floats(0.0, 0.5)) / total
    e[0, 0] = 1.0
    return BiPoly(e)


@settings(max_examples=40, deadline=None)
@given(perturbations(), st.data())
def test_structural_bases_and_positivity(p, data):
    n, m = p.deg
    table = moments_from_density(p, n, m)
    sp = MomentSpace(table, n, m)
    k = data.draw(st.integers(0, n), label="k")
    l = data.draw(st.integers(0, m), label="l")
    dims = {"E1": k + 1, "F1": k + 1, "E2": l + 1, "F2": l + 1}
    cases = [(kind, k, l, dim) for kind, dim in dims.items()]
    cases.append(("H", n // 2, m, 1))
    for kind, a, b, dim in cases:
        basis = sp.basis(kind, a, b)
        assert basis.dim == dim
        gap = sp.cross(basis, basis) - np.eye(dim)
        assert np.max(np.abs(gap)) < 1e-12
        _, removed = structural(kind, a, b)
        if removed:
            mono = SubspaceBasis(tuple(removed), np.eye(len(removed)))
            assert np.max(np.abs(sp.cross(basis, mono))) < 1e-12
    ok, lam = is_positive(table, n, m)
    sup = rect(0, n, 0, m)
    eigs = np.linalg.eigvalsh(gram(table, sup, sup))
    assert ok and abs(lam - eigs[0]) <= 1e-13 * eigs[-1]
