"""Property tests over random Bernstein-Szego densities 1/|p|^2."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bszego import (BiPoly, MomentSpace, MomentTable, NoConvergence, TrigPoly,
                    check_full_measure,
                    enumerate_split_polys, factor_trig, is_positive,
                    moments_from_density, moments_from_trig,
                    split_poly_from_condition)
from bszego import reconstruct
from bszego.jsonio import (poly_from_json, poly_to_json, table_from_json,
                           table_to_json)
from bszego.moments import gram
from bszego.poly import content_roots, reflect, split_stable
from bszego.reconstruct import FACTOR_TOL

from conftest import (assert_stacked_values_match, blaschke_gdv, cli_document,
                      monomial_basis, poly_grid_values, random_corpus_poly,
                      structural, torus_grid, trig_abs_squared,
                      trig_values_on_grid)


@st.composite
def perturbations(draw, max_deg=6):
    """p = 1 + e of degree at most (max_deg, max_deg) with sum |e_jk| <= 0.5."""
    n = draw(st.integers(1, max_deg))
    m = draw(st.integers(1, max_deg))
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
    for kind, a, b, dim in cases:
        basis = sp.basis(kind, a, b)
        assert basis.dim == dim
        gap = sp.cross(basis, basis) - np.eye(dim)
        assert np.max(np.abs(gap)) < 1e-12
        _, removed = structural(kind, a, b)
        if removed:
            mono = monomial_basis(removed)
            assert np.max(np.abs(sp.cross(basis, mono))) < 1e-12
    ok, lam = is_positive(table, n, m)
    eigs = np.linalg.eigvalsh(gram(table, n, m))
    assert ok and abs(lam - eigs[0]) <= 1e-13 * eigs[-1]


@st.composite
def grids(draw, size=6):
    """A complex coefficient grid of 1-size rows and 1-size columns."""
    j, k = draw(st.integers(1, size)), draw(st.integers(1, size))
    e = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * j * k,
                               max_size=2 * j * k)))
    return BiPoly((e[::2] + 1j * e[1::2]).reshape(j, k))


@settings(max_examples=60, deadline=None)
@given(grids(), grids(), st.integers(0, 2 ** 32 - 1))
# one-column times one-row, and one-row times one-column
@example(BiPoly([[1.0], [2j], [-3.0]]), BiPoly([[0.5, 1.0, -1j, 2.0]]), 0)
@example(BiPoly([[1.0, -2.0, 1j]]), BiPoly([[3.0], [1j]]), 1)
# a subnormal coefficient: both sides round to multiples of 5e-324
@example(BiPoly([[5e-324j]]), BiPoly([[0.0, 0.0], [0.0, 1j]]), 0)
def test_product_matches_pointwise(p, q, seed):
    # (p * q)(z, w) = p(z, w) q(z, w) at random points, relative to the
    # same product with every coefficient and point replaced by its modulus,
    # plus the underflow term of the rounding model, the least normal float
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.5, 1.5, (2, 8))
    z, w = r * np.exp(2j * np.pi * rng.uniform(size=(2, 8)))
    pq = p * q
    assert pq.deg == (p.deg[0] + q.deg[0], p.deg[1] + q.deg[1])
    scale = BiPoly(np.abs(p.coeffs))(*r) * BiPoly(np.abs(q.coeffs))(*r)
    assert np.all(np.abs(pq(z, w) - p(z, w) * q(z, w))
                  <= 1e-12 * scale + np.finfo(float).tiny)
    assert np.array_equal((p * 2.0).coeffs, 2.0 * p.coeffs)
    assert np.array_equal((2.0 * p).coeffs, 2.0 * p.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(grids(size=9), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_stacked_values_match_pointwise(polys, seed):
    # grids of any shapes, zero-padded into one stack, evaluated at points
    # of the square of half-width 1.5
    rng = np.random.default_rng(seed)
    z, w = 1.5 * (rng.uniform(-1, 1, (2, 20, 2)) @ [1, 1j])
    assert_stacked_values_match(polys, z, w)


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


def _grid_check_passes(t, q):
    """The 256^2 sampled check: max | |q|^2 - t | on the torus grid within
    FACTOR_TOL of max |t| there."""
    tvals = trig_values_on_grid(t, 256)
    qvals = np.abs(poly_grid_values(q.trimmed(), 256)) ** 2
    return np.max(np.abs(qvals - tvals)) <= FACTOR_TOL * np.max(np.abs(tvals))


@settings(max_examples=30, deadline=None)
@given(perturbations(max_deg=4), st.floats(-10.0, -6.0),
       st.integers(0, 2 ** 32 - 1))
def test_factor_check_never_weaker_than_grid_check(p, log_shift, seed):
    # factor_trig's coefficient check accepts only factors that the 256^2
    # sampled check accepts too: on |p|^2 itself, and with the split
    # route's reconstruction moved off p by 1e-10 to 1e-6 in l1, which puts
    # the coefficient gap on both sides of FACTOR_TOL
    n, m = p.deg
    t = trig_abs_squared(p)
    assert _grid_check_passes(t, factor_trig(t, n, m))
    e = np.random.default_rng(seed).normal(size=(n + 1, m + 1, 2)) @ [1, 1j]
    q = p + BiPoly(10.0 ** log_shift * e / np.sum(np.abs(e)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconstruct, "_stable_factor", lambda *args: None)
        mp.setattr(reconstruct, "_reconstruct", lambda *args: q)
        try:
            out = factor_trig(t, n, m)
        except NoConvergence:
            return
    assert out is q and _grid_check_passes(t, q)


@st.composite
def closed_face_polys(draw):
    """q(z) s(z, w) of degree at most (4, 4) from a seed.  s = 1 + e, of
    degree (n - deg q, m) with sum |e_jk| = 0.5, has no zeros on the closed
    bidisk; or its reflection in z alone, z^k sbar(1/z, w), none on the
    closed face but all of s(z, 0)'s in the disk.  q's roots lie at moduli
    in [1.3, 3], half a turn apart, each reflected into the disk or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nq = draw(st.integers(0, 2))
    n, m = draw(st.integers(max(nq, 1), 4)), draw(st.integers(1, 4))
    e = rng.normal(size=(n - nq + 1, m + 1, 2)) @ [1, 1j]
    e[0, 0] = 0.0
    e *= 0.5 / np.sum(np.abs(e))
    e[0, 0] = 1.0
    p = BiPoly(e[::-1].conj() if draw(st.booleans()) else e)
    turn = rng.uniform(0, 2 * np.pi)
    for i in range(nq):
        rho = rng.uniform(1.3, 3.0) * np.exp(1j * (turn + np.pi * i))
        if draw(st.booleans()):
            rho = 1 / np.conj(rho)
        p = p * BiPoly([[-rho], [1.0]])
    return p


def pipeline_answers(tmp_path, table, n, m):
    """(exit code, answer) of check, reconstruct and ar on one table: the
    check document without its violation, the polynomial on the
    (n + 1) x (m + 1) grid, and the classification."""
    doc, nm = table_to_json(table), ("--n", str(n), "--m", str(m))
    code, check = cli_document(tmp_path, "check", "--moments", doc, *nm)
    check.pop("max_violation", None)
    rcode, p = cli_document(tmp_path, "reconstruct", "--moments", doc, *nm)
    grid = np.zeros((n + 1, m + 1), dtype=complex)
    if rcode == 0:
        c = poly_from_json(p).coeffs
        grid[: c.shape[0], : c.shape[1]] = c
    acode, ar = cli_document(tmp_path, "ar", "--autocorr", doc, *nm)
    return (code, check), (rcode, grid), (acode, ar.get("classification"))


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("metamorphic")


@settings(max_examples=12, deadline=None)
@given(closed_face_polys(), st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
def test_shift_test_pipelines_are_invariant(cli_dir, p, phi, psi):
    # the exact symmetries of the problem: a positive scale s of the table
    # is p / sqrt(s), a torus rotation e^{i(j phi + k psi)} of it rotates
    # p's coefficients alike, and its conjugate conjugates them; exit codes,
    # intervals and classifications do not move, and the reconstruction
    # moves with p up to a unimodular constant
    n, m = p.deg
    table = moments_from_density(p, n, m)
    j, k = np.meshgrid(np.arange(-n, n + 1), np.arange(-m, m + 1), indexing="ij")
    a, b = np.meshgrid(np.arange(n + 1), np.arange(m + 1), indexing="ij")
    check, (code, base), ar = pipeline_answers(cli_dir, table, n, m)
    transforms = [(table.c * s, lambda c, s=s: c / np.sqrt(s)) for s in (1e-8, 1e8)]
    transforms += [(table.c * np.exp(1j * (j * phi + k * psi)),
                    lambda c: c * np.exp(1j * (a * phi + b * psi))),
                   (np.conj(table.c), np.conj)]
    for c, move in transforms:
        got_check, (got_code, got), got_ar = pipeline_answers(
            cli_dir, MomentTable(n, m, c), n, m)
        assert got_check == check and got_ar == ar and got_code == code
        if code == 0:
            want = move(base)
            phase = np.vdot(want, got)
            gap = got - phase / abs(phase) * want
            assert np.max(np.abs(gap)) <= 1e-9 * np.max(np.abs(want))


def quadrature_answers(tmp_path, p):
    """(exit code, answer) of moments and of factor on |p|^2, through the
    CLI: the table's array, and the factor on the (n + 1) x (m + 1) grid."""
    n, m = p.deg
    code, table = cli_document(tmp_path, "moments", "--poly", poly_to_json(p),
                               "--jmax", str(n), "--kmax", str(m))
    fcode, f = cli_document(tmp_path, "factor", "--trig",
                            table_to_json(trig_abs_squared(p)), "--n", str(n),
                            "--m", str(m))
    grid = np.zeros((n + 1, m + 1), dtype=complex)
    if fcode == 0:
        c = poly_from_json(f).coeffs
        grid[: c.shape[0], : c.shape[1]] = c
    return (code, table_from_json(table).c if code == 0 else None), (fcode, grid)


@settings(max_examples=12, deadline=None)
@given(closed_face_polys(), st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
def test_quadrature_pipelines_are_invariant(cli_dir, p, phi, psi):
    # a torus rotation of p, p(e^{i phi} z, e^{i psi} w), multiplies its
    # moment table by e^{i(j phi + k psi)}, and conjugating p conjugates the
    # table; factor's answer on |p|^2 moves as p does, up to a unimodular
    # constant.  The rotated grid samples other points, so the answers move
    # by the quadrature's own error: over 450 seeded draws the tables by at
    # most 9.8e-16 of max(1, |c00|) and the factors by 2.2e-14 of their
    # largest coefficient, against the bounds 1e-12 and 1e-11 here.  Scale
    # is left out: near the torus the stopping rule is absolute below
    # c00 = 1, so it is not scale-free (ROADMAP item 13)
    n, m = p.deg
    j, k = np.meshgrid(np.arange(-n, n + 1), np.arange(-m, m + 1), indexing="ij")
    a, b = np.meshgrid(np.arange(n + 1), np.arange(m + 1), indexing="ij")
    (code, table), (fcode, base) = quadrature_answers(cli_dir, p)
    rotate = np.exp(1j * (a * phi + b * psi))
    for q, move, move_table in (
            (BiPoly(p.coeffs * rotate), lambda c: c * rotate,
             lambda c: c * np.exp(1j * (j * phi + k * psi))),
            (BiPoly(np.conj(p.coeffs)), np.conj, np.conj)):
        (got_code, got), (got_fcode, got_f) = quadrature_answers(cli_dir, q)
        assert got_code == code and got_fcode == fcode
        if code == 0:
            scale = max(1.0, abs(table[n, m]))
            assert np.max(np.abs(got - move_table(table))) <= 1e-12 * scale
        if fcode == 0:
            want = move(base)
            phase = np.vdot(want, got_f)
            gap = got_f - phase / abs(phase) * want
            assert np.max(np.abs(gap)) <= 1e-11 * np.max(np.abs(want))


def _rotated(p, phi, psi):
    """p(e^{i phi} z, e^{i psi} w)."""
    a, b = np.indices(p.coeffs.shape)
    return BiPoly(p.coeffs * np.exp(1j * (a * phi + b * psi)))


@settings(max_examples=12, deadline=None)
@given(closed_face_polys(), st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
def test_closed_face_sos_is_invariant(cli_dir, p, phi, psi):
    # p has no zeros on the closed face, and a torus rotation or the
    # conjugate of p keeps it so, with the roots of p(z, 0) as far from the
    # circle: each exits 0 with the same block counts (m, n1, n2) and a
    # residual at round-off, from the Schur-Cohn quadrature on complex inputs
    counts = []
    for q in (p, _rotated(p, phi, psi), BiPoly(np.conj(p.coeffs))):
        code, doc = cli_document(cli_dir, "sos", "--poly", poly_to_json(q))
        assert code == 0 and doc["residual"] <= 1e-14
        counts.append((len(doc["A"]), doc["n1"], doc["n2"]))
    assert counts[1] == counts[0] and counts[2] == counts[0]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
def test_gdv_is_invariant(cli_dir, seed, phi, psi):
    # the sheets w^m = B(z) of a Blaschke product up to degree (4, 4): a
    # torus rotation or the conjugate is again such a variety, with the same
    # pencil sizes (m, n1, n2) and its pencil residual at round-off
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 5))
    zeros = rng.uniform(0.1, 0.6, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    p = blaschke_gdv(zeros, int(rng.integers(1, 5)))
    sizes = []
    for q in (p, _rotated(p, phi, psi), BiPoly(np.conj(p.coeffs))):
        code, doc = cli_document(cli_dir, "gdv", "--poly", poly_to_json(q))
        assert code == 0 and doc["detrep"]["residual"] <= 1e-12
        rep = doc["detrep"]
        sizes.append((len(rep["U"]) - rep["n1"] - rep["n2"], rep["n1"], rep["n2"]))
    assert sizes[1] == sizes[0] and sizes[2] == sizes[0]


# ---------------------------------------------------------------------------
# scale: p and s * p, s > 0, get the same answers (log10 s in [-30, 30])
# ---------------------------------------------------------------------------

scales = st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e)


def _same_roots(got, want):
    """Whether two root lists agree up to order and round-off."""
    return got.size == want.size and all(
        np.min(np.abs(want - r)) <= 1e-9 * max(1.0, abs(r)) for r in got)


@settings(max_examples=20, deadline=None)
@given(scales, st.integers(0, 2 ** 32 - 1))
@example(1e-13, 0)
def test_polynomial_operations_are_scale_free(s, seed):
    # zero is exact zero: no absolute floor refuses s * p or drops its
    # coefficients
    split = split_stable(BiPoly([[2.0 * s], [-s]]))
    assert split.beta == 0 and np.allclose(split.unstable.coeffs, [[1.0]])
    assert np.allclose(split.stable.coeffs, s * np.array([[2.0], [-1.0]]),
                       rtol=1e-15, atol=0.0)
    p = random_corpus_poly(np.random.default_rng(seed), allow_unstable_q=True)
    assert np.array_equal(reflect(s * p, p.deg).coeffs, s * reflect(p, p.deg).coeffs)
    assert _same_roots(content_roots(s * p), content_roots(p))


@settings(max_examples=12, deadline=None)
@given(scales, st.integers(0, 2 ** 32 - 1))
# the phi z-slices of |2 - z|^2 at 1e-26 are about 1e-13, below an absolute
# 1e-12 floor
@example(1e-26, 0)
def test_factor_is_scale_free(cli_dir, s, seed):
    # s |p|^2 factors as sqrt(s) p, up to a unimodular constant
    q = random_corpus_poly(np.random.default_rng(seed))
    for p in (BiPoly([[2.0], [-1.0]]), q):
        n, m = p.deg
        t = trig_abs_squared(p)
        code, doc = cli_document(cli_dir, "factor", "--trig",
                                 table_to_json(TrigPoly(n, m, s * t.c)),
                                 "--n", str(n), "--m", str(m))
        assert code == 0
        got = poly_from_json(doc).coeffs
        want = np.sqrt(s) * p.coeffs
        phase = np.vdot(want, got)
        gap = got - phase / abs(phase) * want
        assert np.max(np.abs(gap)) <= 1e-11 * np.max(np.abs(want))
    # and the library's reconstruction from the moments of 1 / (s |2 - z|^2)
    t = TrigPoly(1, 0, s * np.array([[-2.0], [5.0], [-2.0]]))
    got = reconstruct.reconstruct_p(moments_from_trig(t, 1, 0), 1, 0).coeffs
    assert np.allclose(np.abs(got), np.sqrt(s) * np.array([[2.0], [1.0]]),
                       rtol=1e-9, atol=0.0)


@settings(max_examples=12, deadline=None)
@given(closed_face_polys(), scales)
@example(BiPoly([[2.0, 0.0], [0.0, -1.0]]), 1e-13)
@example(BiPoly([[6.0, -2.0], [-3.0, 1.0]]), 1e-30)
def test_closed_face_sos_is_scale_free(cli_dir, p, s):
    # the same exit code and block counts, at round-off
    code, base = cli_document(cli_dir, "sos", "--poly", poly_to_json(p))
    got_code, got = cli_document(cli_dir, "sos", "--poly", poly_to_json(s * p))
    assert got_code == code
    if code == 0:
        counts = [(len(doc["A"]), doc["n1"], doc["n2"]) for doc in (base, got)]
        assert counts[0] == counts[1]
        assert got["residual"] <= 1e-14


@settings(max_examples=12, deadline=None)
@given(scales, st.integers(0, 2 ** 32 - 1))
@example(1e-13, 0)
def test_gdv_is_scale_free(cli_dir, s, seed):
    # the same pencil sizes at round-off; U is left unchecked, since its
    # gauge is not fixed (ROADMAP item 4)
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 4))
    zeros = rng.uniform(0.1, 0.6, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    for p in (BiPoly([[0.0, -1.0], [1.0, 0.0]]),
              blaschke_gdv(zeros, int(rng.integers(1, 3)))):
        sizes = []
        for q in (p, s * p):
            code, doc = cli_document(cli_dir, "gdv", "--poly", poly_to_json(q))
            assert code == 0 and doc["detrep"]["residual"] <= 1e-12
            sizes.append((doc["detrep"]["n1"], doc["detrep"]["n2"]))
        assert sizes[0] == sizes[1]


@settings(max_examples=12, deadline=None)
@given(closed_face_polys(), scales)
@example(BiPoly([[2.0, 0.0], [0.0, -1.0]]), 1e-13)
def test_moments_are_scale_free(cli_dir, p, s):
    # the table of s p is the table of p over s^2.  Above s = 1 only the
    # exit code is compared: c00 falls below 1, where the stopping rule is
    # absolute (ROADMAP item 13)
    n, m = p.deg
    args = ("--jmax", str(n), "--kmax", str(m))
    code, base = cli_document(cli_dir, "moments", "--poly", poly_to_json(p), *args)
    got_code, got = cli_document(cli_dir, "moments", "--poly",
                                 poly_to_json(s * p), *args)
    assert got_code == code
    if code == 0 and s <= 1.0:
        want = table_from_json(base).c
        gap = s ** 2 * table_from_json(got).c - want
        assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=20, deadline=None)
@given(st.floats(1.2, 4.0), st.floats(0, 2 * np.pi), st.integers(0, 2 ** 32 - 1))
def test_closed_face_sos_refuses_a_face_zero(cli_dir, r, theta, seed):
    # q(z) (1 - a w) vanishes at w = 1 / a inside the disk, and its blocks
    # certify q(z) (conj(a) - w), of the same modulus on the torus; the
    # roots of q keep off the circle, so the blocks are built
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, 4))
    mods = np.where(rng.uniform(size=count) < 0.5, rng.uniform(0.2, 0.8, count),
                    rng.uniform(1.25, 3.0, count))
    q = np.polynomial.polynomial.polyfromroots(
        mods * np.exp(2j * np.pi * rng.uniform(size=count)))
    p = BiPoly(q[:, None]) * BiPoly([[1.0, -r * np.exp(1j * theta)]])
    code, doc = cli_document(cli_dir, "sos", "--poly", poly_to_json(p))
    assert (code, doc.get("error")) == (3, "RootNearTorus")


def _full_entries(report):
    return np.array([*report.e2_conditions.values(), *report.h_conditions.values()])


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       phi=st.floats(-np.pi, np.pi), psi=st.floats(-np.pi, np.pi),
       s=st.floats(1e-3, 1e3))
def test_full_under_the_exact_symmetries(n, m, seed, phi, psi, s):
    # a torus rotation multiplies c_jk by e^(i(j phi + k psi)), conjugation
    # conjugates it, and a scale s multiplies it by s: the verdict stays, the
    # entries agree (times 1/s under the scale) within round-off of the
    # vanishing floor they are held to, 1e-13 / c00 against VANISH_TOL / c00,
    # and the least Gram eigenvalue within 1e-12 of itself (times s)
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
    e[0, 0] = 0.0
    a = 0.4 * e / np.abs(e).sum()
    a[0, 0] += 1.0
    table = moments_from_density(BiPoly(a), max(n + 4, 2 * n), m + 3)
    base = check_full_measure(table, n, m)
    j, k = np.indices(table.c.shape)
    turn = np.exp(1j * ((j - table.jmax) * phi + (k - table.kmax) * psi))
    floor = 1e-13 / table.c[table.jmax, table.kmax].real
    for c, factor in ((turn * table.c, 1.0), (table.c.conj(), 1.0), (s * table.c, s)):
        got = check_full_measure(MomentTable(table.jmax, table.kmax, c), n, m)
        assert got.verdict == base.verdict
        assert np.all(np.abs(factor * _full_entries(got) - _full_entries(base)) <= floor)
        assert abs(got.min_eigenvalue - factor * base.min_eigenvalue) \
            <= 1e-12 * factor * abs(base.min_eigenvalue)
