"""Property tests over random Bernstein-Szego densities 1/|p|^2."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bszego import (BiPoly, MomentSpace, SubspaceBasis, enumerate_split_polys,
                    is_positive, moments_from_density,
                    split_poly_from_condition)
from bszego.moments import gram

from conftest import rect, structural, torus_grid


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


@st.composite
def contents(draw):
    """(alpha, mu) pairs and a slot count for prod (alpha - z)^mu (2 - zw).

    |alpha| in [1.5, 4], pairwise at least 0.3 apart, mu <= 3 and
    sum mu <= 5; the slots raise the z cap above deg p (flips at
    infinity).  Two triple roots 0.3 apart are left out: their partial
    flips are ill-conditioned invariant subspaces and reach only about
    1e-7 (the d = 0 split stays near 1e-10).
    """
    count = draw(st.integers(1, 3))
    roots = []
    for i in range(count):
        alpha = draw(st.floats(1.5, 4.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        assume(all(abs(alpha - beta) >= 0.3 for beta, _ in roots))
        budget = 5 - sum(mu for _, mu in roots) - (count - 1 - i)
        roots.append((alpha, draw(st.integers(1, min(3, budget)))))
    return roots, draw(st.integers(0, 2))


@settings(max_examples=20, deadline=None)
@given(contents())
# a simple eigenvalue whose nearest neighbour is one of a close double
# pair, and two simple ones whose mean falls on a triple
@example(([(2.991 - 1.596j, 2), (3.281 - 1.518j, 1), (3.215 - 1.226j, 2)], 2))
@example(([(1.318 + 3.66j, 1), (1.582 + 3.519j, 3), (1.802 + 3.315j, 1)], 2))
def test_every_split_from_the_operators(case):
    roots, slots = case
    p = BiPoly([[2.0, 0.0], [0.0, -1.0]])
    for alpha, mu in roots:
        for _ in range(mu):
            p = p * BiPoly([[alpha], [-1.0]])
    n = p.deg[0] + slots
    sp = MomentSpace(moments_from_density(p, n, 1), n, 1)
    out = enumerate_split_polys(sp)
    assert len(out) == np.prod([mu + 1 for _, mu in roots]) * (slots + 1)
    zz, ww = torus_grid(64)
    ref = np.abs(p(zz, ww)) / sp.norm(p)
    for q, _ in out:
        assert np.max(np.abs(np.abs(q(zz, ww)) - ref)) <= 1e-8 * np.max(ref)
    for d in range(sum(mu for _, mu in roots) + slots + 1):
        assert split_poly_from_condition(sp, d).k1.dim == d
